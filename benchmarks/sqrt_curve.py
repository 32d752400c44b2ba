#!/usr/bin/env python3
"""rand-sqrt's win rate as n grows: the paper's ``1 - O(1/n)`` claim.

Run from the repository root:

    PYTHONPATH=src python benchmarks/sqrt_curve.py

For each n and each bitmap adversary it plays one seeded batch on the
compiled core and prints Alice's losses, her win rate with its 95 % interval,
and ``n * (1 - win rate)`` with that interval scaled the same way.  Under
the claim the last column stays bounded as n grows.  Every row plays about
``NUMBERS_PER_ROW`` numbers (``trials = NUMBERS_PER_ROW // n``), about 45 s
in all on a 2-CPU x86-64.  The Python core would take hours, so without a
compiled core it stops.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorlab import _core  # noqa: E402
from mirrorlab.engine import GameConfig  # noqa: E402
from mirrorlab.harness import ExperimentSpec, montecarlo  # noqa: E402

SIZES = (400, 1600, 6400, 25600)
ADVERSARIES = ("smallest-unsaid", "largest-unsaid", "random-unsaid")
NUMBERS_PER_ROW = 40_000_000
MASTER_SEED = 0


def main() -> int:
    if not _core.HAVE_FAST:
        print(f"no compiled core ({_core.FALLBACK_REASON}); nothing to run")
        return 1
    print(f"{'n':>6} {'bob':<16} {'trials':>7} {'losses':>6}  "
          f"{'win rate [95% CI]':<32} {'n(1-win) [95% CI]':<26} {'s':>5}")
    for n in SIZES:
        trials = NUMBERS_PER_ROW // n
        for bob in ADVERSARIES:
            t0 = time.perf_counter()
            report = montecarlo(ExperimentSpec(GameConfig(n), "rand-sqrt",
                                               bob, trials, MASTER_SEED))
            elapsed = time.perf_counter() - t0
            lo, hi = report["ci95"]
            win = report["win_rate"]
            losses = trials - report["alice_wins"]
            rate = f"{win:.6f} [{lo:.6f}, {hi:.6f}]"
            scaled = (f"{n * (1 - win):.3f} [{n * (1 - hi):.3f}, "
                      f"{n * (1 - lo):.3f}]")
            print(f"{n:>6} {bob:<16} {trials:>7} {losses:>6}  {rate:<32} "
                  f"{scaled:<26} {elapsed:>5.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
