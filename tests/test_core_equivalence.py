"""The compiled core must be observationally identical to the Python core.

Transcript-level equality over many seeds is what licenses routing the big
Monte Carlo batches through the compiled loop.
"""

import random

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from mirrorlab import _core
from mirrorlab._core import _pycore
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
    assert (_fastcore.power_sums(xs, 40, f.q)
            == _pycore.power_sums(xs, 40, f.q))
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
    pool = [1, 2, q - 1, q, q + 1, -1, -q, 2**62, -2**62, 2**63 - 1, -2**63]

    def element():
        return rng.choice(pool) if rng.random() < 0.5 else rng.randrange(
            -2**63, 2**63)

    # lengths 0..7 run every tail of the 4-wide pass, alone and after one
    streams = [[element() for _ in range(length)] for length in range(12)]
    streams.append([element() for _ in range(1001)])
    for xs in streams:
        for k in SUM_COUNTS:
            assert (_fastcore.power_sums(xs, k, q)
                    == _pycore.power_sums(xs, k, q)), (xs, k)
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
            assert (_fastcore.power_sums(xs, k, q, 1, n)
                    == _pycore.power_sums(xs, k, q, 1, n)), (n, xs, k)
        for k in (1, 3, 9, q + 1):
            roots = [rng.randint(1, n) for _ in range(k)]
            for e in (_planted(roots, q),
                      [rng.randrange(-q, 2 * q) for _ in range(k)]):
                assert (_fastcore.poly_root_scan(e, n, q)
                        == _pycore.poly_root_scan(e, n, q)), (n, e)


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


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(n=st.integers(1, 64), a=QUOTA, b=QUOTA,
       alice=st.sampled_from(CODABLE_ALICE), bob=st.sampled_from(CODABLE_BOB),
       seed=SEED, start=st.integers(-2**63, 2**63 - 4),
       trials=st.integers(1, 4))
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
