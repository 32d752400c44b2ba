"""The compiled core must be observationally identical to the Python core.

Transcript-level equality over many seeds is what licenses routing the big
Monte Carlo batches through the compiled loop.
"""

import ctypes
import json
import random
import threading
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from mirrorlab import _core
from mirrorlab._core import _kernel, _pycore
from mirrorlab.engine import GameConfig, run_game
from mirrorlab.strategies import make_players
from mirrorlab.streamrec import select_prime

pytestmark = pytest.mark.skipif(
    not _core.HAVE_FAST, reason=f"no compiled core: {_core.FALLBACK_REASON}")

_fastcore = _core._fast


MATCHUPS = [
    (GameConfig(10, 1, 1), "naive", "mirror"),
    (GameConfig(9, 1, 1), "odd-mirror", "smallest-unsaid"),
    (GameConfig(9, 1, 1), "odd-mirror", "random-unsaid"),
    (GameConfig(12, 1, 2), "random-unsaid", "tuple-mirror"),
    (GameConfig(12, 1, 3), "smallest-unsaid", "tuple-mirror"),
    (GameConfig(30, 1, 1), "rand-log", "smallest-unsaid"),
    (GameConfig(30, 1, 1), "rand-log", "largest-unsaid"),
    (GameConfig(30, 1, 1), "rand-log", "random-unsaid"),
    (GameConfig(16, 1, 1), "rand-sqrt", "smallest-unsaid"),
    (GameConfig(40, 1, 1), "rand-sqrt", "random-unsaid"),
    (GameConfig(100, 1, 1), "rand-sqrt", "largest-unsaid"),
    (GameConfig(15, 2, 2), "random-unsaid", "random-unsaid"),
    (GameConfig(14, 3, 2), "largest-unsaid", "smallest-unsaid"),
]


@pytest.mark.parametrize("cfg,alice,bob",
                         MATCHUPS, ids=[f"{a}-vs-{b}-n{c.n}" for c, a, b in MATCHUPS])
def test_transcripts_identical(cfg, alice, bob):
    for seed in range(120):
        fast = _core.play_game(cfg, alice, bob, seed)
        slow = _core.play_game(cfg, alice, bob, seed, force_python=True)
        assert fast == slow, f"seed {seed}"


def test_batches_identical():
    cfg = GameConfig(60, 1, 1)
    for alice, bob in [("rand-log", "smallest-unsaid"),
                       ("rand-sqrt", "random-unsaid")]:
        fast = _core.play_batch(cfg, alice, bob, 42, 0, 300)
        slow = _core.play_batch(cfg, alice, bob, 42, 0, 300, force_python=True)
        assert fast == slow


def test_field_kernels_agree():
    f = select_prime(500)
    xs = list(range(1, 401))
    full = _core.full_power_sums(500, 40, f.q)
    for sums in (full, None):  # by deviation, multiplied out
        assert (_fastcore.power_sums(xs, 40, f.q, 500, sums)
                == _pycore.power_sums(xs, 40, f.q, 500, sums))
    assert (_fastcore.full_power_sums(500, 33, f.q)
            == _pycore.full_power_sums(500, 33, f.q))
    e = [7, 123, 86, 5]
    assert (_fastcore.poly_root_scan(e, 500, f.q)
            == _pycore.poly_root_scan(e, 500, f.q))


def test_explicit_roots_found_by_both():
    # polynomial with known roots {3, 5} over GF(7)
    for backend in (_fastcore, _pycore):
        assert backend.poly_root_scan([1, 1], 5, 7) == [3, 5]


# The field kernels reduce by Barrett for every q in 1..2^32-1: the edges,
# primes on both sides of 2^16, and the largest prime below 2^32.
FIELD_MODULI = [1, 2, 3, 10007, 65521, 65537, 10**6 + 3, 2**31 - 1,
                4294967291, 2**32 - 1]
SUM_COUNTS = (0, 1, 2, 5, 33, 64, 65, 70)


def _planted(roots, q):
    """e1..ek of the roots mod q, so that the scanned polynomial is the
    product of (x - r)."""
    e = [1]
    for r in roots:
        e = [(a + r * b) % q for a, b in zip(e + [0], [0] + e)]
    return e[1:]


@pytest.mark.parametrize("q", FIELD_MODULI)
def test_field_kernels_agree_on_every_lane_and_tail(q):
    rng = random.Random(q)

    def stream(length, n):
        """``length`` numbers of 1..n, half of them from the edges: 1, n,
        and q - 1, q and q + 1 where they lie in 1..n."""
        pool = [v for v in (1, 2, n, q - 1, q, q + 1) if 1 <= v <= n]
        return [rng.choice(pool) if rng.random() < 0.5
                else rng.randint(1, n) for _ in range(length)]

    # lengths 0..7 run every tail of the 4-wide pass, alone and after one.
    # Each is multiplied out over 1..MAX_SIZE, where q < n and elements at
    # and past q occur, and by deviation over 1..n for n up to twice it,
    # where absent numbers and repeats vary the count of terms.
    for length in [*range(12), 1001]:
        xs = stream(length, _core.MAX_SIZE)
        for k in SUM_COUNTS:
            assert (_fastcore.power_sums(xs, k, q, _core.MAX_SIZE, None)
                    == _pycore.power_sums(xs, k, q, _core.MAX_SIZE,
                                          None)), (xs, k)
        for n in sorted({max(length, 1), 2 * length} - {0}):
            xs = stream(length, n)
            for k in SUM_COUNTS:
                full = _core.full_power_sums(n, k, q)
                assert (_fastcore.power_sums(xs, k, q, n, full)
                        == _pycore.power_sums(xs, k, q, n, full)), (n, xs, k)
    # n runs through every count of tail lanes in the 8-wide root scan
    for n in [*range(18), 1001]:
        for k in SUM_COUNTS:
            assert (_fastcore.full_power_sums(n, k, q)
                    == _pycore.full_power_sums(n, k, q)), (n, k)
        for size in (0, 1, 3, 8, 65):
            roots = sorted(rng.sample(range(1, n + 1), min(size, n)))
            for e in (_planted(roots, q),
                      [rng.randrange(-q, 2 * q) for _ in range(size)]):
                got = _fastcore.poly_root_scan(e, n, q)
                assert got == _pycore.poly_root_scan(e, n, q), (n, e)
            if _core.is_prime(q) and q > n:
                assert _fastcore.poly_root_scan(_planted(roots, q), n,
                                                q) == roots


def test_python_deviation_ingest_and_chirp_scan_match_the_kernel():
    # the recovery's calls: streams over 1..n with absent numbers and
    # repeats, and roots scanned modulo select_prime(n)
    rng = random.Random(16)
    for n in range(2, 201):
        q = select_prime(n).q
        xs = [v for v in range(1, n + 1) if rng.random() < 0.9]
        xs += rng.choices(range(1, n + 1), k=rng.randrange(4))
        rng.shuffle(xs)
        for k in (0, 1, 5, 33):
            full = _core.full_power_sums(n, k, q)
            assert (_fastcore.power_sums(xs, k, q, n, full)
                    == _pycore.power_sums(xs, k, q, n, full)), (n, xs, k)
        for k in (1, 3, 9, q + 1):
            roots = [rng.randint(1, n) for _ in range(k)]
            for e in (_planted(roots, q),
                      [rng.randrange(-q, 2 * q) for _ in range(k)]):
                assert (_fastcore.poly_root_scan(e, n, q)
                        == _pycore.poly_root_scan(e, n, q)), (n, e)


def _brute_power_sums(xs, k, q):
    return [sum(pow(x, i, q) for x in xs) % q for i in range(1, k + 1)]


def _core_power_sums(have_fast, *args):
    """``_core.power_sums`` dispatching to the kernel or the Python core."""
    with mock.patch.object(_core, "HAVE_FAST", have_fast):
        return _core.power_sums(*args)


@st.composite
def _streams_over_a_range(draw):
    """(n, a stream of up to 2n numbers of 1..n), the ends drawn often."""
    n = draw(st.integers(1, 40))
    element = st.one_of(st.sampled_from([1, n]), st.integers(1, n))
    return n, draw(st.lists(element, max_size=2 * n))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(stream=_streams_over_a_range(), k=st.integers(0, 12),
       q=st.sampled_from(FIELD_MODULI))
@example(stream=(1, []), k=3, q=2)
@example(stream=(1, [1, 1, 1]), k=2, q=10007)
@example(stream=(5, [5, 1, 1, 5]), k=0, q=7)
def test_deviation_sums_plus_full_sums_are_the_power_sums(stream, k, q):
    # absent numbers, repeats, 1 and n, streams up to twice their range; on
    # each core both paths give the brute sums, and so does _core's rule
    n, xs = stream
    want = _brute_power_sums(xs, k, q)
    full = _core.full_power_sums(n, k, q)
    for core in (_fastcore, _pycore):
        assert core.power_sums(xs, k, q, n, full) == want, core
        assert core.power_sums(xs, k, q, n, None) == want, core
    for have_fast in (True, False):
        assert _core_power_sums(have_fast, xs, k, q, n) == want, have_fast


# (stream, n) on each side of the rule's cut, 2 * len(stream) >= n
RULE_CASES = (([1, 2, 3], 6), ([1, 2, 3], 7), ([2, 3, 4], 5), ([4, 4], 5),
              ([1], 1), ([1], 3), ([], 1), ([], 0), ([], -5))


@pytest.mark.parametrize("have_fast", [True, False],
                         ids=["kernel", "pure-python"])
def test_power_sums_ingests_by_deviation_at_half_the_range(have_fast):
    # the rule lives in _core.power_sums: a stream at least half as long
    # as its range goes by deviation, on either core.  The spies see the
    # memoized sums that _core hands the core, and the terms the core then
    # multiplies out: the kernel's dev flag, or the Python core's terms.
    core = _fastcore if have_fast else _pycore
    handed, terms = [], []
    real_sums = core.power_sums

    def sums_spy(xs, k, q, n, full):
        handed.append(full)
        return real_sums(xs, k, q, n, full)

    if have_fast:
        real_kernel = _fastcore._range_sums
        spy = (core, "_range_sums",
               lambda *args: terms.append(bool(args[2])) or real_kernel(*args))
    else:
        real_weighted = _pycore._weighted_sums
        spy = (_pycore, "_weighted_sums",
               lambda xs, *rest: terms.append(list(xs))
               or real_weighted(xs, *rest))
    with mock.patch.object(core, "power_sums", sums_spy), \
            mock.patch.object(*spy):
        for xs, n in RULE_CASES:
            full = _core.full_power_sums(n, 4, 11)  # the memo holds it now
            handed.clear()
            terms.clear()
            assert _core_power_sums(have_fast, xs, 4, 11, n) == (
                _brute_power_sums(xs, 4, 11))
            dev = 2 * len(xs) >= n
            assert handed == [full if dev else None], (xs, n)
            if have_fast:
                assert terms == [dev], (xs, n)
            else:  # by deviation, the absent numbers and the repeats
                absent = set(range(1, n + 1)) - set(xs)
                repeats = {x for x in xs if xs.count(x) > 1}
                want = sorted(absent | repeats) if dev else xs
                assert [sorted(t) if dev else t for t in terms] == [want]


@pytest.mark.parametrize("bad", [0, 11, 2**63, 1.5, 2.0],
                         ids=["zero", "n-plus-1", "2^63", "float", "int-float"])
def test_deviation_sums_reject_the_same_elements(bad):
    # a stream long enough for the deviation, and one that is multiplied out
    long, short = [1, 2, 3, bad, 5, 6], [bad]
    full = _core.full_power_sums(10, 3, 11)
    for core in (_fastcore, _pycore):
        for xs, sums in ((long, full), (long, None), (short, None)):
            with pytest.raises(ValueError,
                               match=r"^stream element outside 1\.\.10$"):
                core.power_sums(xs, 3, 11, 10, sums)
    for have_fast in (True, False):
        for xs in (long, short):
            with pytest.raises(ValueError,
                               match=r"^stream element outside 1\.\.10$"):
                _core_power_sums(have_fast, xs, 3, 11, 10)


def test_empty_and_negative_ranges_agree():
    for have_fast in (True, False):
        with pytest.raises(ValueError,
                           match=r"^stream element outside 1\.\.-5$"):
            _core_power_sums(have_fast, [1], 2, 7, -5)
        with mock.patch.object(_core, "HAVE_FAST", have_fast):
            assert _core.poly_root_scan([1, 2], -3, 7) == []
            assert _core.poly_root_scan([1, 2], 0, 7) == []
    for n in (-3, 0, 5):  # an empty stream, not the kernel's no-stream call
        full = _core.full_power_sums(n, 3, 11)
        for sums in (full, None):
            assert (_fastcore.power_sums([], 3, 11, n, sums)
                    == _pycore.power_sums([], 3, 11, n, sums)
                    == [0, 0, 0])


def test_deviation_sums_take_bools_as_ints():
    full = _core.full_power_sums(4, 3, 11)
    for core in (_fastcore, _pycore):
        for sums in (full, None):
            assert (core.power_sums([True, 2, 2, True], 3, 11, 4, sums)
                    == core.power_sums([1, 2, 2, 1], 3, 11, 4, sums))


# The kernel's root scan steps a uint32 difference table for every modulus;
# above 2^31 a sum of two entries can pass 2^32.  1073741789 and 1073741827
# are the primes next to 2^30.  Composite moduli and q <= n are scanned the
# same way.
SCAN_MODULI = [1, 2, 7, 12, 101, 10007, 1073741789, 1073741827, 2**31 - 1,
               4294967291, 2**32 - 1]


def _scan_polys(rng, k, n, q):
    """The polynomial with roots planted at 1 and at n (as far as k allows)
    and random others, then a random one."""
    roots = ([1, n] + [rng.randint(1, n) for _ in range(k)])[:k]
    return _planted(roots, q), [rng.randrange(-q, 2 * q) for _ in range(k)]


@pytest.mark.parametrize("q", SCAN_MODULI)
def test_difference_scan_matches_horner(q):
    # n on both sides of k + 1: below it the table is of degree n - 1
    rng = random.Random(q)
    for k in (0, 1, 2, 3, 5, 8, 9, 17, 33):
        for n in sorted({1, 2, k, k + 1, k + 2, k + 3, k + 10, 60} - {0}):
            for e in _scan_polys(rng, k, n, q):
                assert (_fastcore.poly_root_scan(e, n, q)
                        == _pycore._horner_scan(e, n, q)), (k, n, e)


def test_difference_scan_at_every_degree():
    rng = random.Random(64)
    n = 120
    for k in range(65):
        for q in (127, 113):  # a prime above n and one below
            planted, other = _scan_polys(rng, k, n, q)
            for e in (planted, other):
                assert (_fastcore.poly_root_scan(e, n, q)
                        == _pycore._horner_scan(e, n, q)), (k, q, e)
        roots = sorted(rng.sample(range(2, n), max(k - 2, 0)) + [1, n][:k])
        assert _fastcore.poly_root_scan(_planted(roots, 127), n, 127) == roots


def test_unknown_strategy_falls_back_to_python():
    cfg = GameConfig(8, 1, 1)
    out = _core.play_game(cfg, "naive", "prefer-T:2,4", 3)
    ref = _pycore.play_game(cfg, "naive", "prefer-T:2,4", 3)
    assert out == ref


def test_larger_scale_batches_agree():
    # cursor and fenwick amortization paths at realistic sizes
    cases = [
        (GameConfig(300, 1, 1), "random-unsaid", "mirror", 60),
        (GameConfig(301, 1, 1), "odd-mirror", "random-unsaid", 60),
        (GameConfig(300, 1, 2), "random-unsaid", "tuple-mirror", 60),
        (GameConfig(200, 1, 1), "rand-sqrt", "smallest-unsaid", 40),
    ]
    for cfg, alice, bob, trials in cases:
        fast = _core.play_batch(cfg, alice, bob, 77, 0, trials)
        slow = _core.play_batch(cfg, alice, bob, 77, 0, trials,
                                force_python=True)
        assert fast == slow, (cfg, alice, bob)


def test_recorded_games_agree_at_scale():
    cfg = GameConfig(256, 1, 1)
    for seed in range(10):
        fast = _core.play_game(cfg, "rand-sqrt", "random-unsaid", seed)
        slow = _core.play_game(cfg, "rand-sqrt", "random-unsaid", seed,
                               force_python=True)
        assert fast == slow, seed


# rand-sqrt at n=400 (r=20 backups, k=173 sums) against each bitmap
# adversary: a game that reaches the endgame, and one in which the player
# runs out of backups.  The give-up seeds are the first game seeds in
# 0..10^6 with a give-up; they are rare because the player loses only with
# probability O(1/n).
SQRT_N400 = [
    # bob, (seed, entered_endgame, gave_up) per game
    ("smallest-unsaid", ((0, True, False), (857202, False, True))),
    ("largest-unsaid", ((0, True, False), (568286, False, True))),
    ("random-unsaid", ((0, True, False), (470511, True, True))),
]


@pytest.mark.parametrize("bob,games", SQRT_N400,
                         ids=[bob for bob, _ in SQRT_N400])
def test_rand_sqrt_endgame_and_give_up_at_n400(bob, games):
    cfg = GameConfig(400)
    for seed, entered_endgame, gave_up in games:
        alice, opponent = make_players(cfg, "rand-sqrt", bob, seed)
        run_game(alice, opponent, cfg, seed, on_state=None)
        assert (alice.entered_endgame, alice.gave_up) == (
            entered_endgame, gave_up), seed
        assert (_core.play_game(cfg, "rand-sqrt", bob, seed)
                == _core.play_game(cfg, "rand-sqrt", bob, seed,
                                   force_python=True)), seed
    assert (_core.play_batch(cfg, "rand-sqrt", bob, 400, 0, 20)
            == _core.play_batch(cfg, "rand-sqrt", bob, 400, 0, 20,
                                force_python=True))


def test_matchup_validated_once_bad_one_every_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return validate(*args)

    validate = _pycore.validate_matchup
    monkeypatch.setattr(_pycore, "validate_matchup", counting)
    _core.route.cache_clear()
    good = GameConfig(40)
    for _ in range(3):
        _core.play_batch(good, "rand-sqrt", "smallest-unsaid", 1, 0, 2)
        _core.play_game(good, "rand-sqrt", "smallest-unsaid", 1)
    assert _core.route(good, "rand-sqrt", "smallest-unsaid")[0] == "compiled"
    assert len(calls) == 1
    bad = GameConfig(10)  # rand-sqrt needs n >= 16
    for _ in range(2):
        with pytest.raises(ValueError, match="n >= 16"):
            _core.route(bad, "rand-sqrt", "smallest-unsaid")
        with pytest.raises(ValueError, match="n >= 16"):
            _core.play_batch(bad, "rand-sqrt", "smallest-unsaid", 1, 0, 2)
        with pytest.raises(ValueError, match="n >= 16"):
            _core.play_game(bad, "rand-sqrt", "smallest-unsaid", 1)
    assert len(calls) == 7


# Kernel-codable strategies by role (their classes have a kernel_code).
CODABLE_ALICE = ("naive", "odd-mirror", "smallest-unsaid", "largest-unsaid",
                 "random-unsaid", "rand-log", "rand-sqrt")
CODABLE_BOB = ("mirror", "tuple-mirror", "naive", "smallest-unsaid",
               "largest-unsaid", "random-unsaid")
QUOTA = st.one_of(st.just(1), st.integers(1, 4))  # (1,1) games half the time
SEED = st.integers(-2**63, 2**64 - 1)


def _edge(cfg, alice, bob):
    """An explicit example of the matchup at the edges of seed and trial
    index."""
    return example(n=cfg.n, a=cfg.a, b=cfg.b, alice=alice, bob=bob,
                   seed=2**64 - 1, start=2**63 - 4, trials=4)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(n=st.integers(1, 64), a=QUOTA, b=QUOTA,
       alice=st.sampled_from(CODABLE_ALICE), bob=st.sampled_from(CODABLE_BOB),
       seed=SEED, start=st.integers(-2**63, 2**63 - 4),
       trials=st.integers(1, 4))
# a = n: Alice says every number in her first move
@_edge(GameConfig(1), "odd-mirror", "random-unsaid")
@_edge(GameConfig(5, 5, 1), "largest-unsaid", "smallest-unsaid")
@_edge(GameConfig(4, 4, 3), "random-unsaid", "naive")
# a + b = n: one round says every number
@_edge(GameConfig(2), "naive", "mirror")
@_edge(GameConfig(3, 1, 2), "random-unsaid", "tuple-mirror")
@_edge(GameConfig(7, 3, 4), "smallest-unsaid", "largest-unsaid")
# rand-sqrt at its smallest n
@_edge(GameConfig(16), "rand-sqrt", "random-unsaid")
@_edge(GameConfig(16), "rand-sqrt", "largest-unsaid")
# one MATCHUPS entry for each kernel-codable strategy class
@_edge(*MATCHUPS[0])   # SmallestUnsaid (naive), MirrorBob
@_edge(*MATCHUPS[1])   # OddMirrorAlice
@_edge(*MATCHUPS[3])   # UniformRandomUnsaid, TupleMirrorBob
@_edge(*MATCHUPS[6])   # RandLogAlice, LargestUnsaid
@_edge(*MATCHUPS[8])   # RandSqrtAlice
def test_random_matchups_agree(n, a, b, alice, bob, seed, start, trials):
    try:
        cfg = GameConfig(n, a, b)
        _pycore.validate_matchup(cfg, alice, bob)
    except ValueError:
        reject()
    assert _core.route(cfg, alice, bob)[0] == "compiled"
    assert (_core.play_game(cfg, alice, bob, seed)
            == _core.play_game(cfg, alice, bob, seed, force_python=True))
    assert (_core.play_batch(cfg, alice, bob, seed, start, trials)
            == _core.play_batch(cfg, alice, bob, seed, start, trials,
                                force_python=True))


# The binding splits a batch of at least SPLIT_MIN_WORK trials times n into
# chunks run on threads.  Trial i's game depends on (master seed, i) alone,
# so no split may change a count, their order or an error.
SPLIT_THREADS = (1, 2, 3, 5)


def _split_trial_counts(n):
    """1, 2, either side of the split threshold, and an odd total."""
    edge = -(-_kernel.SPLIT_MIN_WORK // n)  # the fewest trials that split
    return (1, 2, edge - 1, edge, edge + 1, 2 * edge + 3)


def _batches(monkeypatch, threads, cfg, alice, bob, seed, start, trials):
    monkeypatch.setattr(_kernel, "_THREADS", threads)
    return list(_core.play_batch(cfg, alice, bob, seed, start,
                                 trials).items())


@pytest.mark.parametrize("cfg,alice,bob",
                         MATCHUPS, ids=[f"{a}-vs-{b}-n{c.n}" for c, a, b in MATCHUPS])
def test_split_batches_match_a_serial_run(monkeypatch, cfg, alice, bob):
    assert _core.route(cfg, alice, bob)[0] == "compiled"
    for trials in _split_trial_counts(cfg.n):
        for start in (0, 2**63 - trials):  # check_trials' last index
            serial = _batches(monkeypatch, 1, cfg, alice, bob, 11, start,
                              trials)
            assert sum(count for _, count in serial) == trials
            for threads in SPLIT_THREADS[1:]:
                assert _batches(monkeypatch, threads, cfg, alice, bob, 11,
                                start, trials) == serial, (trials, start,
                                                           threads)


@pytest.mark.parametrize("threads", SPLIT_THREADS[1:])
def test_split_batches_match_the_python_core(monkeypatch, threads):
    # every trial count splits here, so a slice small enough for the
    # Python referee runs in chunks of one trial and more
    monkeypatch.setattr(_kernel, "SPLIT_MIN_WORK", 1)
    for cfg, alice, bob in MATCHUPS:
        for start, trials in ((0, 1), (0, 7), (2**63 - 13, 13)):
            slow = _core.play_batch(cfg, alice, bob, 5, start, trials,
                                    force_python=True)
            assert _batches(monkeypatch, threads, cfg, alice, bob, 5, start,
                            trials) == list(slow.items()), (cfg, alice, bob)


def test_montecarlo_stdout_does_not_depend_on_the_split(monkeypatch, capsys):
    from mirrorlab.cli import cli_main

    argv = ["montecarlo", "--n", "100", "--alice", "rand-log", "--bob",
            "random-unsaid", "--trials", "3001", "--seed", "8"]
    outs = []
    for threads in (1, 2):
        monkeypatch.setattr(_kernel, "_THREADS", threads)
        assert cli_main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["backend"] == "compiled"


_REAL_PLAY_BATCH = _fastcore._play_batch if _fastcore else None


def _failing_kernel(monkeypatch, code, failing=(), slow_chunk=None):
    """Replace the foreign batch call: a chunk holding a trial of
    ``failing`` reports the lowest such trial with ``code``, as the kernel
    does, and the chunk starting at ``slow_chunk`` answers late.  Returns
    the (first trial, trials) of every call made."""
    real = _REAL_PLAY_BATCH
    calls = []

    def play(*args):
        *_, first, trials, counts = args
        calls.append((first, trials))
        if first == slow_chunk:
            time.sleep(0.05)  # a later failing chunk answers first
        bad = [t for t in failing if first <= t < first + trials]
        if not bad:
            return real(*args)
        (ctypes.c_int64 * 4).from_address(counts)[3] = min(bad)
        return code

    monkeypatch.setattr(_fastcore, "_play_batch", play)
    return calls


@pytest.mark.parametrize("threads", SPLIT_THREADS[1:])
@pytest.mark.parametrize("code,error", [
    (3, r"^kernel error 3 at trial {}$"),
    (-1, r"^$"),  # ML_NOMEM
], ids=["kernel-error", "no-memory"])
def test_split_batch_raises_the_error_of_a_serial_run(monkeypatch, threads,
                                                      code, error):
    cfg, start, trials = GameConfig(100), 10**12, 1000
    monkeypatch.setattr(_kernel, "_THREADS", threads)
    chunks = _failing_kernel(monkeypatch, code)
    before = threading.active_count()
    _core.play_batch(cfg, "rand-log", "smallest-unsaid", 3, start, trials)
    assert threading.active_count() == before
    assert len(chunks) > 4 and sum(t for _, t in chunks) == trials
    chunks.sort()
    failing = (chunks[1][0] + 7, chunks[3][0] + 3)  # 2nd and 4th chunks
    kind = MemoryError if code == -1 else RuntimeError
    for n_threads in (threads, 1):
        monkeypatch.setattr(_kernel, "_THREADS", n_threads)
        _failing_kernel(monkeypatch, code, failing, slow_chunk=chunks[1][0])
        with pytest.raises(kind, match=error.format(failing[0])):
            _core.play_batch(cfg, "rand-log", "smallest-unsaid", 3, start,
                             trials)
        assert threading.active_count() == before


def test_a_chunk_whose_worker_raised_runs_on_the_caller(monkeypatch):
    # the caller runs such a chunk again, so the counts stay whole
    cfg = GameConfig(100)
    want = _core.play_batch(cfg, "rand-log", "smallest-unsaid", 4, 0, 1000)
    monkeypatch.setattr(_kernel, "_THREADS", 2)
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)

    def play(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.01)  # the caller takes chunks meanwhile
            raise ctypes.ArgumentError("worker")
        return _REAL_PLAY_BATCH(*args)

    monkeypatch.setattr(_fastcore, "_play_batch", play)
    assert _core.play_batch(cfg, "rand-log", "smallest-unsaid", 4, 0,
                            1000) == want
    assert len(raised) == 1
