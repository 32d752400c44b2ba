#!/usr/bin/env python3
"""Benchmark: compiled core vs pure-Python core on the hot loops.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_core.py

The first import compiles the native kernel into the user cache (see
``mirrorlab._core``).  Both backends produce identical outputs (the
equivalence suite enforces this); the only question here is speed.  Without
a compiled core only the Python column is printed.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorlab import _core  # noqa: E402
from mirrorlab._core import _pycore  # noqa: E402
from mirrorlab.engine import GameConfig  # noqa: E402
from mirrorlab.streamrec import elementary_from_power, select_prime  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def row(label, fast, py, unit=""):
    """One line; ``fast`` is None without a compiled core."""
    if fast is None:
        print(f"{label:<42} {'-':>10} {py:>10.1f}{unit:<2} {'-':>8}")
    else:
        print(f"{label:<42} {fast:>8.1f}{unit:<2} {py:>10.1f}{unit:<2} "
              f"{py / fast:>8.0f}x")


def bench_batch(label, cfg, alice, bob, trials_fast, trials_py):
    tp, rp = timed(_core.play_batch, cfg, alice, bob, 1, 0, trials_py,
                   force_python=True)
    per_fast = None
    if _core.HAVE_FAST:
        tf, rf = timed(_core.play_batch, cfg, alice, bob, 1, 0, trials_fast)
        per_fast = tf / trials_fast * 1e6
    row(label, per_fast, tp / trials_py * 1e6)


def bench_kernel(label, name, *args):
    """One call of each core's ``name``, timed after a first call that
    fills the caches a recovery finds filled."""
    getattr(_pycore, name)(*args)
    tp, rp = timed(getattr(_pycore, name), *args)
    ms = None
    if _core.HAVE_FAST:
        getattr(_core, name)(*args)
        tf, rf = timed(getattr(_core, name), *args)
        assert rf == rp
        ms = tf * 1e3
    row(label, ms, tp * 1e3, "ms")
    return rp


def bench_sums():
    """A recovery's two field calls at n=1e4, k=64: the power sums of a
    shuffled stream of 1..n less k numbers, over the range 1..n as
    ``PowerSumSketch.ingest_stream`` asks for them, then the root scan."""
    n, k = 10_000, 64
    f = select_prime(n)
    rng = random.Random(1)
    missing = sorted(rng.sample(range(1, n + 1), k))
    gone = set(missing)
    xs = [v for v in range(1, n + 1) if v not in gone]
    rng.shuffle(xs)
    sums = bench_kernel(f"power_sums n=1e4 k={k}", "power_sums", xs, k, f.q,
                        1, n)
    full = _core.full_power_sums(n, k, f.q)
    e = elementary_from_power([(a - b) % f.q for a, b in zip(full, sums)], f)
    roots = bench_kernel(f"poly_root_scan n=1e4 k={k}", "poly_root_scan", e,
                         n, f.q)
    assert roots == missing


def main():
    if not _core.HAVE_FAST:
        print(f"no compiled core ({_core.FALLBACK_REASON}); Python column only")
    print(f"{'game batches':<42} {'fast/game':>10} {'python/game':>12} {'speedup':>8}")
    print(f"{'(microseconds per game)':<42}")
    bench_batch("rand-log vs smallest-unsaid, n=100",
                GameConfig(100), "rand-log", "smallest-unsaid", 200_000, 2_000)
    bench_batch("rand-sqrt vs random-unsaid, n=400",
                GameConfig(400), "rand-sqrt", "random-unsaid", 2_000, 40)
    bench_batch("random-unsaid vs mirror, n=1000",
                GameConfig(1000), "random-unsaid", "mirror", 10_000, 200)
    print()
    bench_sums()


if __name__ == "__main__":
    main()
