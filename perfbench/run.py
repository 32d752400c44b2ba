#!/usr/bin/env python3
"""mirrorlab's benchmark: one seeded workload, measured end to end.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Each run starts a fresh interpreter
(``worker.py``) on the checkout's ``src``, with an empty kernel cache under
``perfbench/out``, so the compiled core is built from source in every run
and ``~/.cache/mirrorlab`` is neither read nor written.  ``setup_s`` runs
from that process's start until the core is loaded and the warm-up has
returned.

Every metric is printed with its unit, then the operations attempted and
failed; the last line of stdout is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer metrics.  The whole result, with the program file and backend that
ran, goes to ``perfbench/out/result-<workload>-<seed>-trace<0|1>.json`` and
traced spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.  The exit
status is not 0, and no result is printed, when the checkout has no
``src/mirrorlab`` or the run loaded another program or backend.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("batch", "recover", "recorded", "pure-python")
WORKER_TIMEOUT_S = 170


def _worker_env(workload: str, cache: Path) -> dict:
    env = dict(os.environ)
    env.pop("MIRRORLAB_PURE_PYTHON", None)
    if workload == "pure-python":
        env["MIRRORLAB_PURE_PYTHON"] = "1"
    env["XDG_CACHE_HOME"] = str(cache)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_worker(args, run_dir: Path, trace_file: Path):
    """(report, process start) from the worker, or None when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir), "--trace-file", str(trace_file)]
    env = _worker_env(args.workload, run_dir / "cache")
    start = time.monotonic()
    # own session, so a timeout also ends the compiler and CLI children
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"perfbench: run exceeded {WORKER_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.splitlines()[-1]), start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "mirrorlab" / "__init__.py").is_file():
        print(f"perfbench: no mirrorlab package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{tag}-", dir=OUT))
    try:
        done = _run_worker(args, run_dir, OUT / f"trace-{tag}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done is None:
        return 1
    report, start = done

    measured = report["metrics"]
    if args.trace:
        wanted = bench["per_layer"]
    else:
        wanted = bench["end_to_end"]
        measured["setup_s"] = report["ready_monotonic"] - start
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not report["errors"],
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "rounds": report["rounds"],
         "program": report["program"], "errors": report["errors"]},
        indent=1) + "\n")

    program = report["program"]
    print(f"{args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{program['backend']} core from {program['file']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}")
    for problem in report["errors"][:20]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
