#!/usr/bin/env python3
"""Benchmark: compiled core vs pure-Python core on the hot loops.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_core.py

The first import compiles the native kernel into the user cache (see
``mirrorlab._core``).  Both backends produce identical outputs (the
equivalence suite enforces this); the only question here is speed.  Without
a compiled core only the Python column is printed.

A compiled batch runs on one thread per CPU the process may run on (the
count heads the "fast/game" column), so that column is wall time per game
on those threads; the row marked "serial" plays on one thread.
"""

import random
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorlab import _core  # noqa: E402
from mirrorlab._core import _kernel  # noqa: E402
from mirrorlab.engine import GameConfig  # noqa: E402
from mirrorlab.streamrec import (PowerSumSketch, elementary_from_power,  # noqa: E402
                                 recover_missing, select_prime)


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


def best_of(repeats, fn, *args):
    """(fastest of ``repeats`` timed calls, the result), after one call
    that fills the caches a recovery finds filled."""
    out = fn(*args)
    return min(timed(fn, *args)[0] for _ in range(repeats)), out


def bench_recovery(label, fn, *args):
    """``fn`` on each core through ``_core``'s dispatch, in milliseconds."""
    with mock.patch.object(_core, "HAVE_FAST", False):
        tp, rp = best_of(5, fn, *args)
    ms = None
    if _core.HAVE_FAST:
        tf, rf = best_of(5, fn, *args)
        assert rf == rp
        ms = tf * 1e3
    row(label, ms, tp * 1e3, "ms")
    return rp


def shuffled_stream(n, k, seed):
    """(the k missing numbers, ascending; 1..n less them, shuffled)"""
    rng = random.Random(seed)
    missing = sorted(rng.sample(range(1, n + 1), k))
    gone = set(missing)
    xs = [v for v in range(1, n + 1) if v not in gone]
    rng.shuffle(xs)
    return missing, xs


def recover(field, k, xs):
    sketch = PowerSumSketch(field, k)
    sketch.ingest_stream(xs)
    return recover_missing(sketch, field.n, k)


def bench_sums():
    """A recovery's two field calls at n=1e4, k=64: the power sums of a
    shuffled stream of 1..n less k numbers, over the range 1..n as
    ``PowerSumSketch.ingest_stream`` asks for them, then the root scan;
    and a whole ingest and recovery at k=32."""
    n, k = 10_000, 64
    f = select_prime(n)
    missing, xs = shuffled_stream(n, k, 1)
    sums = bench_recovery(f"power_sums n=1e4 k={k}", _core.power_sums, xs,
                          k, f.q, 1, n)
    full = _core.full_power_sums(n, k, f.q)
    e = elementary_from_power([(a - b) % f.q for a, b in zip(full, sums)], f)
    roots = bench_recovery(f"poly_root_scan n=1e4 k={k}", _core.poly_root_scan,
                           e, n, f.q)
    assert roots == missing
    missing, xs = shuffled_stream(n, 32, 2)
    got = bench_recovery("ingest_stream + recover_missing n=1e4 k=32",
                         recover, f, 32, xs)
    assert got == missing


def main():
    if not _core.HAVE_FAST:
        print(f"no compiled core ({_core.FALLBACK_REASON}); Python column only")
    threads = f"{_core.BATCH_THREADS} thread" + "s" * (_core.BATCH_THREADS > 1)
    print(f"{'':<42} {threads:>10}")
    print(f"{'game batches':<42} {'fast/game':>10} {'python/game':>12} {'speedup':>8}")
    print(f"{'(microseconds per game)':<42}")
    bench_batch("rand-log vs smallest-unsaid, n=100",
                GameConfig(100), "rand-log", "smallest-unsaid", 200_000, 2_000)
    bench_batch("rand-sqrt vs random-unsaid, n=400",
                GameConfig(400), "rand-sqrt", "random-unsaid", 2_000, 40)
    with mock.patch.object(_kernel, "_THREADS", 1):
        bench_batch("rand-sqrt vs random-unsaid, n=400, serial",
                    GameConfig(400), "rand-sqrt", "random-unsaid", 2_000, 40)
    bench_batch("random-unsaid vs mirror, n=1000",
                GameConfig(1000), "random-unsaid", "mirror", 10_000, 200)
    print()
    bench_sums()


if __name__ == "__main__":
    main()
