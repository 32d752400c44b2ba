"""Acceptance suite: one test per shipping criterion.

Each test prints a single [acceptance] line (run with -s to see them live)
and pins its tolerance inline.  Everything is seeded; a pass here is a pass
forever.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout

import pytest

from mirrorlab import _core
from mirrorlab.cli import cli_main
from mirrorlab.engine import GameConfig
from mirrorlab.harness import (ExperimentSpec, enumerate_occurring,
                               exhaust_games, memory_profile, montecarlo)
from mirrorlab.rng import SplitMix64
from mirrorlab.setfam import (EVEN_EVEN, EVEN_ODD, ODD_EVEN, NotModtown,
                              SetFamily, check_covering, check_mv, check_town,
                              covering_lower_bound, eventown_pairing,
                              max_town_size, modtown_to_mv)
from mirrorlab.stats import chi2_sf, chi2_stat
from mirrorlab.strategies import (MirrorBob, OddMirrorAlice, SmallestUnsaid,
                                  TupleMirrorBob, sample_matching)
from mirrorlab.streamrec import PowerSumSketch, recover_missing, select_prime


def report(num, msg):
    print(f"[acceptance] criterion {num:2d} PASS - {msg}")


def test_criterion_01_never_lose_suite():
    t0 = time.perf_counter()
    total_games = 0

    # exhaustive over every legal opponent line
    for n in (2, 4, 6, 8):
        games, losses = exhaust_games(MirrorBob(n), "B", GameConfig(n))
        assert losses == 0, f"mirror lost at n={n}"
        total_games += games
    for n in (1, 3, 5, 7):
        games, losses = exhaust_games(OddMirrorAlice(n), "A", GameConfig(n))
        assert losses == 0, f"odd-mirror lost at n={n}"
        total_games += games
    for n, b in ((3, 2), (6, 2), (4, 3), (8, 3)):
        games, losses = exhaust_games(TupleMirrorBob(n, b), "B",
                                      GameConfig(n, 1, b))
        assert losses == 0, f"tuple-mirror lost at n={n}, b={b}"
        total_games += games

    # 10^4 seeded games against a random legal opponent, n up to 1000
    random_cases = [
        (GameConfig(1000), "random-unsaid", "mirror", "bob_loses"),
        (GameConfig(999), "odd-mirror", "random-unsaid", "alice_loses"),
        (GameConfig(999, 1, 2), "random-unsaid", "tuple-mirror", "bob_loses"),
        (GameConfig(1000, 1, 3), "random-unsaid", "tuple-mirror", "bob_loses"),
    ]
    for cfg, alice, bob, loss_key in random_cases:
        counts = _core.play_batch(cfg, alice, bob, 20260808, 0, 10_000)
        assert counts[loss_key] == 0, (cfg, counts)
        total_games += 10_000

    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"never-lose suite took {elapsed:.1f}s"
    report(1, f"0 losses in {total_games} games ({elapsed:.1f}s)")


def test_criterion_02_missing_k_exactness():
    t0 = time.perf_counter()
    n = 10_000
    field = select_prime(n)
    gen = random.Random(17)
    universe = list(range(1, n + 1))
    exact = 0
    for _ in range(1000):
        k = gen.randint(0, 64)
        missing = sorted(gen.sample(universe, k))
        missing_set = set(missing)
        stream = [v for v in universe if v not in missing_set]
        gen.shuffle(stream)
        sketch = PowerSumSketch(field, k)
        sketch.ingest_stream(stream)
        exact += recover_missing(sketch, n, k) == missing
    elapsed = time.perf_counter() - t0
    assert exact == 1000, f"only {exact}/1000 matched the set-difference oracle"
    assert elapsed < 60, f"missing-k suite took {elapsed:.1f}s"
    report(2, f"1000/1000 exact recoveries at n=10^4, k<=64 ({elapsed:.1f}s)")


def test_criterion_03_log_space_win_rate():
    n, trials = 100, 1_000_000
    cfg = GameConfig(n)
    c_small = _core.play_batch(cfg, "rand-log", "smallest-unsaid",
                               2026, 0, trials)
    c_large = _core.play_batch(cfg, "rand-log", "largest-unsaid",
                               2026, 0, trials)
    p_small = (c_small["both_win"] + c_small["bob_loses"]) / trials
    p_large = (c_large["both_win"] + c_large["bob_loses"]) / trials

    sigma = math.sqrt((1 / n) * (1 - 1 / n) / trials)
    floor = 1 / n - 3 * sigma
    assert p_small >= floor, f"win rate {p_small:.5f} below {floor:.5f}"

    sigma_diff = math.sqrt(p_small * (1 - p_small) / trials
                           + p_large * (1 - p_large) / trials)
    assert abs(p_small - p_large) <= 3 * sigma_diff, (
        f"adversary choice moved the rate: {p_small:.5f} vs {p_large:.5f}")
    report(3, f"win rate {p_small:.4f} >= 1/n floor {floor:.4f}; "
              f"indifference gap {abs(p_small - p_large):.2e} <= 3sigma")


def test_criterion_04_sqrt_space_win_rate():
    t0 = time.perf_counter()
    n, trials = 400, 2000
    cfg = GameConfig(n)
    rates = {}
    for bob in ("smallest-unsaid", "largest-unsaid", "random-unsaid"):
        counts = _core.play_batch(cfg, "rand-sqrt", bob, 424242, 0, trials)
        rates[bob] = (counts["both_win"] + counts["bob_loses"]) / trials
        assert rates[bob] >= 0.98, f"vs {bob}: {rates[bob]:.4f} < 0.98"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"sqrt suite took {elapsed:.1f}s"
    report(4, "win rates " + ", ".join(f"{b}={r:.4f}" for b, r in rates.items())
              + f" all >= 0.98 ({elapsed:.1f}s)")


def test_criterion_05_space_scaling():
    rep = memory_profile(ExperimentSpec(GameConfig(1024), "naive", "mirror",
                                        trials=2, master_seed=3))
    mirror_bits = rep["bob"]["overall_max_bits"]
    assert mirror_bits <= 2 * math.ceil(math.log2(1024))

    ratios = []
    for n in (100, 400, 1600):
        rep = memory_profile(ExperimentSpec(GameConfig(n), "rand-sqrt",
                                            "random-unsaid",
                                            trials=2, master_seed=11))
        assert rep["alice"]["within_budget"]
        bits = rep["alice"]["overall_max_bits"]
        ratios.append(bits / (math.sqrt(n) * math.log2(n) ** 2))
    spread = max(ratios) / min(ratios)
    assert spread < 2, f"ratio spread {spread:.2f} >= 2"
    report(5, f"mirror {mirror_bits} bits <= 20; sqrt ratios "
              + ", ".join(f"{r:.2f}" for r in ratios)
              + f" (spread {spread:.2f}x < 2x)")


def test_criterion_06_town_bounds_exhaustive():
    t0 = time.perf_counter()
    for n in range(2, 7):
        assert max_town_size(n, ODD_EVEN) == n
        assert max_town_size(n, EVEN_ODD) <= n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(6, f"odd-even max = n and even-odd max <= n for n=2..6 "
              f"({elapsed:.1f}s)")


def test_criterion_07_eventown_sizes():
    for n in range(2, 21, 2):
        fam = eventown_pairing(n)
        assert len(fam) == 2 ** (n // 2), n
        assert check_town(fam, EVEN_EVEN), n
    report(7, "pair-union families hit 2^(n/2) and validate for n=2..20")


def test_criterion_08_occurring_sets_cover():
    sizes = {}
    for r in (1, 2):
        family = enumerate_occurring(SmallestUnsaid(8, 1, name="naive"),
                                     GameConfig(8), r)
        assert check_covering(family, 2, r), f"r={r} not covering"
        bound = covering_lower_bound(8, 2, r)
        assert len(family) >= bound, f"r={r}: {len(family)} < {bound}"
        sizes[r] = (len(family), bound)
    report(8, "occurring families cover: " +
           ", ".join(f"r={r}: size {s} >= bound {b}" for r, (s, b) in sizes.items()))


def _random_modtown(rng: SplitMix64, n: int, m: int) -> SetFamily:
    """Random family with |S| = 0 mod m and pairwise |S1 & S2| != 0 mod m."""
    while True:
        want = 2 + rng.randbelow(3)
        masks: list[int] = []
        for _ in range(400):
            card = m * (1 + rng.randbelow(max(1, n // m)))
            if card > n:
                continue
            mask = 0
            chosen = 0
            while chosen < card:
                v = rng.randbelow(n)
                if not mask >> v & 1:
                    mask |= 1 << v
                    chosen += 1
            if mask in masks:
                continue
            if all((mask & other).bit_count() % m for other in masks):
                masks.append(mask)
                if len(masks) == want:
                    return SetFamily(n, masks)
        if len(masks) >= 2:
            return SetFamily(n, masks)


def test_criterion_09_mv_construction():
    rng = SplitMix64(77)
    moduli = (2, 3, 6)
    built = 0
    for i in range(100):
        m = moduli[i % 3]
        n = 8 + rng.randbelow(5)  # 8..12
        fam = _random_modtown(rng, n, m)
        mv = modtown_to_mv(fam, m)
        assert check_mv(mv), (m, fam.sets())
        built += 1
    assert built == 100

    rejected = 0
    for m in moduli:
        blk = list(range(1, m + 1))
        other = list(range(m + 1, 2 * m + 1))
        invalid = [
            # disjoint members: intersection 0 = 0 mod m
            SetFamily.from_sets(2 * m, [blk, other]),
            # member of the wrong cardinality
            SetFamily.from_sets(2 * m + 1, [blk, blk + [2 * m + 1]]),
            # intersection size that is a nonzero multiple of m
            SetFamily.from_sets(3 * m, [list(range(1, 2 * m + 1)),
                                        list(range(m + 1, 3 * m + 1))]),
        ]
        for bad in invalid:
            with pytest.raises(NotModtown):
                modtown_to_mv(bad, m)
            rejected += 1
    report(9, f"100/100 random modular towns converted to valid MV families; "
              f"{rejected}/{rejected} corrupted inputs rejected")


def test_criterion_10_matching_uniformity():
    # chi-square over the three matchings of a 4-point set
    samples = 30_000
    counts: dict[tuple, int] = {}
    for seed in range(samples):
        key = tuple(sorted(sample_matching(4, seed).pairs()))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    stat = chi2_stat(sorted(counts.values()), [samples / 3] * 3)
    p = chi2_sf(stat, 2)
    assert p > 0.01, f"uniformity rejected: chi2={stat:.2f}, p={p:.4f}"

    # involution, no fixed points, across sizes up to 200
    rng = SplitMix64(5)
    for i in range(10_000):
        n = 2 * (1 + rng.randbelow(100))
        oracle = sample_matching(n, rng.next64())
        x = 1 + rng.randbelow(n)
        assert oracle.table[x] != x
        assert oracle.table[oracle.table[x]] == x
    report(10, f"chi-square p={p:.3f} > 0.01 over {samples} draws; "
               "involution holds for 10^4 sampled matchings")


def _run_cli_bytes(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def test_criterion_11_cli_reproducibility(tmp_path):
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(str(v) for v in range(1, 51) if v != 13))
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 3, "sets": [[1, 2], [1, 3], [2, 3]]}))

    commands = [
        ["play", "--n", "6", "--a", "1", "--b", "2", "--alice", "naive",
         "--bob", "tuple-mirror", "--seed", "7"],
        ["montecarlo", "--n", "30", "--alice", "rand-log",
         "--bob", "smallest-unsaid", "--trials", "200", "--seed", "5"],
        ["occurring", "--n", "8", "--alice", "naive", "--r", "2"],
        ["memory", "--n", "64", "--alice", "naive", "--bob", "mirror",
         "--games", "2", "--seed", "1"],
        ["recover-missing", "--n", "50", "--k", "1", "--stream", str(stream)],
        ["setfam", "check", "--kind", "even-odd", "--file", str(fam)],
        ["setfam", "search-max", "--n", "5", "--kind", "odd-even"],
        ["setfam", "mv-from-modtown", "--m", "2", "--file", str(fam)],
        ["matching-test", "--n", "4", "--samples", "2000", "--seed", "3"],
    ]
    for argv in commands:
        rc1, out1 = _run_cli_bytes(argv)
        rc2, out2 = _run_cli_bytes(argv)
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, f"output drifted for {argv}"
    report(11, f"{len(commands)} subcommands byte-identical across repeat runs")
