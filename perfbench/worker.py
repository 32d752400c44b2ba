"""One measured run, in a fresh interpreter started by ``run.py``.

The environment comes from ``run.py``: an empty kernel cache in
``XDG_CACHE_HOME``, the checkout's ``src`` on ``PYTHONPATH`` and, for
``pure-python``, ``MIRRORLAB_PURE_PYTHON=1``.  The last line of stdout is one
JSON object for ``run.py``.  Exit status 3 means the run would have
measured the wrong program, and printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def _load_program(workload: str):
    """Import mirrorlab from the checkout and check the backend it chose."""
    if not (SRC / "mirrorlab" / "__init__.py").is_file():
        _refuse(f"no mirrorlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mirrorlab
    from mirrorlab import _core
    import_s = time.perf_counter() - t0
    program = {"file": mirrorlab.__file__, "backend": _core.BACKEND,
               "fallback_reason": _core.FALLBACK_REASON}
    if not Path(mirrorlab.__file__).resolve().is_relative_to(SRC.resolve()):
        _refuse(f"imported mirrorlab from {mirrorlab.__file__}, not from {SRC}")
    from workloads import BACKEND_NEEDED
    if _core.BACKEND != BACKEND_NEEDED[workload]:
        _refuse(f"workload {workload} needs the {BACKEND_NEEDED[workload]} "
                f"core, got {_core.BACKEND} ({_core.FALLBACK_REASON})")
    return program, import_s


def run_phase(workload, seconds: float, min_recoveries: int = 0) -> list:
    """Whole rounds until ``seconds`` have passed (and enough recoveries)."""
    rounds = []
    end = time.monotonic() + seconds
    while (not rounds or time.monotonic() < end
           or sum(c[1] == "recover" for r in rounds for c in r.calls)
           < min_recoveries):
        rounds.append(workload.round())
    return rounds


def _median_child_s(cmd: list[str], repeats: int, *, own_clock: bool) -> float:
    """Median wall time of a child process, or of the time it prints."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        times.append(float(proc.stdout.split()[-1]) if own_clock else wall)
    return statistics.median(times)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--trace-file", type=Path, required=True)
    args = p.parse_args()

    program, import_s = _load_program(args.workload)
    import tracing
    import workloads

    wl = workloads.Workload(args.workload, args.seed, args.run_dir,
                            dict(os.environ))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        wl.quiet = tracer.paused
        tracer.install()
    wl.warm_up()
    ready = time.monotonic()

    if tracer is None:
        rounds = run_phase(wl, args.seconds,
                           workloads.MIN_RECOVERIES.get(args.workload, 0))
        metrics = workloads.end_to_end(rounds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        traced = run_phase(wl, args.seconds / 2)
        tracer.remove()
        untraced = run_phase(wl, args.seconds / 2)
        rounds = traced + untraced
        metrics = tracer.layer_metrics()
        tracer.write(args.trace_file)
        metrics["trace.overhead_s"] = (workloads.wall_s(traced)
                                       - workloads.wall_s(untraced))
        metrics["rng.randbelow.draws_per_s"] = tracing.draw_rate()
        metrics["streamrec.PowerSumSketch.ingest_us"] = tracing.ingest_us()
        metrics["core.import_cold_s"] = import_s
        metrics["core.import_warm_s"] = _median_child_s(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             "import mirrorlab._core; print(time.perf_counter() - t)"],
            3, own_clock=True)
        metrics["cli.start_ms"] = 1e3 * _median_child_s(
            [sys.executable, "-m", "mirrorlab.cli", "--backend"], 5,
            own_clock=False)
    wl.finish()

    print(json.dumps({
        "errors": wl.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "metrics": metrics,
        "ready_monotonic": ready,
        "program": program,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
