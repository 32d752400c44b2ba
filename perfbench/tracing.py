"""Spans at mirrorlab's module boundaries, recorded from the benchmark.

``Tracer.install`` replaces each listed public function with a wrapper in
every ``mirrorlab`` module namespace that holds it (and methods on their
class), so calls between modules are caught as well as the benchmark's own.
``remove`` puts the originals back.  The program's files are not edited.

A span is (name, start, end, parent).  A layer's self time is its spans'
durations minus the time their child spans cover.  Functions called once per
random draw or per streamed element are only counted; their cost is timed
apart by ``draw_rate`` and ``ingest_us``.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time

# (layer, module, attribute path); layer names the metric prefix, since a
# metric name may not start with "_".
SPANNED = [
    ("harness", "mirrorlab.harness", "montecarlo"),
    ("harness", "mirrorlab.harness", "memory_profile"),
    ("core", "mirrorlab._core", "play_batch"),
    ("core", "mirrorlab._core", "play_game"),
    ("core", "mirrorlab._core", "power_sums"),
    ("core", "mirrorlab._core", "full_power_sums"),
    ("core", "mirrorlab._core", "poly_root_scan"),
    ("pycore", "mirrorlab._core._pycore", "play_batch"),
    ("pycore", "mirrorlab._core._pycore", "validate_matchup"),
    ("pycore", "mirrorlab._core._pycore", "power_sums"),
    ("pycore", "mirrorlab._core._pycore", "poly_root_scan"),
    ("streamrec", "mirrorlab.streamrec", "PowerSumSketch.ingest_stream"),
    ("streamrec", "mirrorlab.streamrec", "elementary_from_power"),
    ("streamrec", "mirrorlab.streamrec", "recover_missing"),
    ("streamrec", "mirrorlab.streamrec", "select_prime"),
    ("engine", "mirrorlab.engine", "run_game"),
    ("engine", "mirrorlab.engine", "Transcript.to_json"),
    ("strategies", "mirrorlab.strategies", "make_strategy"),
    ("strategies", "mirrorlab.strategies", "sample_matching"),
    ("stats", "mirrorlab.stats", "binomial_ci"),
]
COUNTED = [
    ("rng", "mirrorlab.rng", "SplitMix64.randbelow"),
    ("rng", "mirrorlab.rng", "derive_seed"),
    ("streamrec", "mirrorlab.streamrec", "PowerSumSketch.ingest"),
]


def _terms(args, _result):  # (xs or e, n or k, q): one field step per term
    first, second = args[0], args[1]
    return len(first) * second


# Work counted from each call's arguments or result: span -> (count, function).
WORK = {
    "core.play_batch": ("games", lambda args, _result: args[5]),
    "engine.run_game": ("moves", lambda _args, result: len(result.moves)),
    "core.power_sums": ("terms", _terms),
    "core.poly_root_scan": ("terms", _terms),
    "pycore.power_sums": ("terms", _terms),
    "pycore.poly_root_scan": ("terms", _terms),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    return [*Tracer().layer_metrics(), "rng.randbelow.draws_per_s",
            "streamrec.PowerSumSketch.ingest_us", "core.import_cold_s",
            "core.import_warm_s", "cli.start_ms", "trace.overhead_s"]


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index)
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.active = True
        self._patched: list = []    # (owner, attribute, original)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        spans, stack, tracer = self.spans, self.stack, self
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if work is not None:
                key = f"{name}.{work[0]}"
                tracer.work[key] = tracer.work.get(key, 0) + work[1](args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls, tracer = self.calls, self

        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for targets, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for layer, module, path in targets:
                owner = sys.modules[module]
                *cls, attr = path.split(".")
                for c in cls:
                    owner = getattr(owner, c)
                orig = owner.__dict__[attr]
                wrapped = make(f"{layer}.{path}", orig)
                if cls:
                    self._patch(owner, attr, orig, wrapped)
                    continue
                for name, mod in list(sys.modules.items()):
                    if name != "mirrorlab" and not name.startswith("mirrorlab."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def remove(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Calls the benchmark makes to check outputs are not the workload's."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        durations = [end - start for _name, start, end, _parent in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i, (name, *_rest) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + durations[i] - child[i]
            total_s[name] = total_s.get(name, 0.0) + durations[i]
        out = {}
        for layer, _module, path in SPANNED:
            span = f"{layer}.{path}"
            out[f"{span}.calls"] = calls.get(span, 0)
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
            if span in WORK:
                count = WORK[span][0]
                total = self.work.get(f"{span}.{count}", 0)
                out[f"{span}.{count}"] = total
                if count == "terms":
                    # over the whole span: on the Python backend the core
                    # span's work sits in its pycore child
                    busy = total_s.get(span, 0.0)
                    out[f"{span}.terms_per_s"] = total / busy if busy else 0.0
        for layer, _module, path in COUNTED:
            name = f"{layer}.{path}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def draw_rate(repeats: int = 5, n: int = 1000) -> float:
    """SplitMix64.randbelow draws per second, on the bounds a matching of
    n elements draws (n, n-1, ..., 2); median of ``repeats``."""
    from mirrorlab.rng import SplitMix64

    bounds = list(range(n, 1, -1)) * 50
    rates = []
    for rep in range(repeats):
        draw = SplitMix64(rep).randbelow
        t0 = time.perf_counter()
        for k in bounds:
            draw(k)
        rates.append(len(bounds) / (time.perf_counter() - t0))
    return statistics.median(rates)


def ingest_us(repeats: int = 5) -> float:
    """Microseconds per PowerSumSketch.ingest on the rand-sqrt sketch of
    n=400 (k=173), over a shuffled 1..400; median of ``repeats``."""
    from mirrorlab.streamrec import PowerSumSketch, sqrt_strategy_params

    _r, k, field = sqrt_strategy_params(400)
    xs = list(range(1, 401))
    random.Random(0).shuffle(xs)
    per = []
    for _ in range(repeats):
        sketch = PowerSumSketch(field, k)
        t0 = time.perf_counter()
        for x in xs:
            sketch.ingest(x)
        per.append((time.perf_counter() - t0) / len(xs) * 1e6)
    return statistics.median(per)
