"""The four workloads: what one round runs, how each operation is timed and
checked, and how rounds become the end-to-end metrics.

A round is a fixed list of operations; every run repeats whole rounds, so the
share of failed operations is the same in every run.  Every workload reports
every end-to-end metric: its focus operations dominate the round, and a small
fixed slice of the other operation kinds keeps the remaining metrics
measured.  Inputs come from ``--seed`` alone, except the inconsistent
streams, which are fixed so that the program's known fault on them shows the
same way in every run.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

N_RECOVER = 10_000
K_MAX = 64
CLI_K = 32  # every recover-missing process recovers 32 of 10^4
CLI_TIMEOUT_S = 60

# (alice, bob, n, a, b)
SQRT = [("rand-sqrt", "smallest-unsaid", 400, 1, 1),
        ("rand-sqrt", "largest-unsaid", 400, 1, 1),
        ("rand-sqrt", "random-unsaid", 400, 1, 1)]
LOG = [("rand-log", "smallest-unsaid", 100, 1, 1),
       ("rand-log", "largest-unsaid", 100, 1, 1)]
MIRROR = [("random-unsaid", "mirror", 1000, 1, 1),
          ("odd-mirror", "random-unsaid", 999, 1, 1),
          ("random-unsaid", "tuple-mirror", 999, 1, 2),
          ("random-unsaid", "tuple-mirror", 1000, 1, 3)]
TRANSCRIBED = [("rand-sqrt", "random-unsaid", 400, 1, 1),
               ("random-unsaid", "mirror", 1000, 1, 1),
               ("rand-log", "smallest-unsaid", 100, 1, 1)]
PROFILED = [("rand-sqrt", "smallest-unsaid", 400, 1, 1),
            ("naive", "mirror", 1024, 1, 1)]
UNCODABLE = ("prefer-T:1,2,3,4", "mirror", 1000, 1, 1)

FAMILY = {"rand-sqrt": "sqrt_games_per_s", "rand-log": "log_games_per_s"}

# Trials per matchup that the final check replays on the Python core.
REFERENCE_SLICE = {"sqrt_games_per_s": 3, "log_games_per_s": 50,
                   "mirror_games_per_s": 10}


def _calls(kind, matchups, reps, size):
    return [(kind, m, reps, size) for m in matchups]


# One round per workload: (kind, matchup, repetitions, size).  Size is trials
# per montecarlo call, games per recorded call, or unused.
_SIDE_GAMES = (_calls("games", SQRT[2:], 1, 100)
               + _calls("games", LOG[:1], 5, 1000)
               + _calls("games", MIRROR[:1], 1, 1000))
# one game per call, but twenty of rand-log, whose game length varies most
_SIDE_RECORDED = (_calls("transcripts", TRANSCRIBED[:2], 4, 1)
                  + _calls("transcripts", TRANSCRIBED[2:], 4, 20)
                  + _calls("profile", PROFILED, 4, 1)
                  + [("uncodable", UNCODABLE, 4, 1)])
_SIDE_RECOVER = [("recover", None, 8, 0), ("cli", None, 4, 0)]

MIXES = {
    "batch": (_calls("games", SQRT, 1, 1000)
              + _calls("games", LOG, 25, 1000)
              + _calls("games", MIRROR, 4, 1000)
              + _SIDE_RECOVER + _SIDE_RECORDED),
    "recover": ([("recover", None, 260, 0), ("inconsistent", None, 2, 0)]
                + [("cli", None, 4, 0), ("cli-inconsistent", None, 1, 0)]
                + _SIDE_GAMES + _SIDE_RECORDED),
    "recorded": (_calls("transcripts", TRANSCRIBED[:2], 1, 20)
                 + _calls("transcripts", TRANSCRIBED[2:], 1, 200)
                 + _calls("profile", PROFILED, 1, 10)
                 + [("uncodable", UNCODABLE, 1, 5)]
                 + _SIDE_GAMES + _SIDE_RECOVER),
    "pure-python": (_calls("games", SQRT, 1, 10)
                    + _calls("games", LOG, 1, 500)
                    + _calls("games", MIRROR, 1, 25)
                    + [("recover", None, 8, 0)]
                    + [("inconsistent", None, 1, 0), ("cli", None, 1, 0)]
                    + _SIDE_RECORDED),
}

BACKEND_NEEDED = {"batch": "compiled", "recover": "compiled",
                  "recorded": "compiled", "pure-python": "python"}

# Minimum in-process recoveries per run, so that p99 has ten samples above it.
MIN_RECOVERIES = {"recover": 1000}


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    # (call, metric, games, seconds); a call names what was asked, apart
    # from the seed: the kind, the matchup or k, and the trials
    calls: list = field(default_factory=list)

    def add(self, call, metric, games: int, seconds: float,
            failed: bool = False) -> None:
        self.calls.append((call, metric, games, seconds))
        self.attempted += 1
        self.failed += failed


class Workload:
    """One workload bound to an imported mirrorlab and a seed."""

    def __init__(self, name: str, seed: int, run_dir: Path, env: dict):
        from mirrorlab import _core, harness, streamrec
        from mirrorlab.engine import GameConfig

        self.name = name
        self.mix = MIXES[name]
        self.rng = random.Random(f"{name}/{seed}")
        self.env = env
        self.core = _core
        self.harness = harness
        self.streamrec = streamrec
        self.GameConfig = GameConfig
        self.field = None
        self.ks: list = []  # the k of each recovery left in this round
        self.quiet = contextlib.nullcontext  # tracing pauses around checks
        self.errors: list[str] = []
        self.tally: dict = {}        # matchup -> [wins, trials]
        self.first_seed: dict = {}   # matchup -> (family, master seed, trials)
        self.stream_file = run_dir / "stream.txt"
        self.bad_stream_file = run_dir / "inconsistent.txt"
        self.transcript_file = run_dir / "transcripts.jsonl"

    # ------------------------------------------------------------ set-up

    def warm_up(self) -> None:
        """Fill the full-range power sums for every k and play one batch."""
        self.field = self.streamrec.select_prime(N_RECOVER)
        for k in range(1, K_MAX + 1):
            self.streamrec.full_power_sums(N_RECOVER, k, self.field)
        spec = self.harness.ExperimentSpec(self.GameConfig(100), "rand-log",
                                           "smallest-unsaid", 10)
        self.harness.montecarlo(spec)
        self.bad_stream_file.write_text(_lines(inconsistent_stream(1)))

    # ------------------------------------------------------------ rounds

    def round(self) -> Round:
        r = Round()
        reps = sum(e[2] for e in self.mix if e[0] == "recover")
        distinct = min(reps // 2, K_MAX + 1)  # every k at least twice a round
        self.ks = stratified_ks(distinct) * (reps // distinct)
        self.rng.shuffle(self.ks)
        for kind, matchup, reps, size in self.mix:
            op = getattr(self, "_op_" + kind.replace("-", "_"))
            for _ in range(reps):
                op(r, matchup, size)
        return r

    def _note(self, problem) -> None:
        if problem is not None:
            self.errors.append(problem)

    def _spec(self, matchup, trials):
        alice, bob, n, a, b = matchup
        return self.harness.ExperimentSpec(
            self.GameConfig(n, a, b), alice, bob, trials,
            master_seed=self.rng.getrandbits(63))

    def _tally(self, matchup, outcomes, trials) -> None:
        wins = outcomes["both_win"] + outcomes["bob_loses"]
        acc = self.tally.setdefault(matchup, [0, 0])
        acc[0] += wins
        acc[1] += trials

    def _op_games(self, r: Round, matchup, trials) -> None:
        spec = self._spec(matchup, trials)
        t0 = time.perf_counter()
        report = self.harness.montecarlo(spec)
        dt = time.perf_counter() - t0
        metric = FAMILY.get(matchup[0], "mirror_games_per_s")
        r.add(("games", matchup, trials), metric, trials, dt)
        self._check_outcomes(matchup, report["outcomes"], trials)
        self.first_seed.setdefault(matchup, (metric, spec.master_seed, trials))

    def _check_outcomes(self, matchup, outcomes, trials) -> None:
        self._note(checks.check_counts(outcomes, trials))
        self._note(checks.check_never_lose(matchup[0], matchup[1], outcomes))
        self._tally(matchup, outcomes, trials)

    def _consistent_stream(self, k):
        absent = set(self.rng.sample(range(1, N_RECOVER + 1), k))
        xs = [x for x in range(1, N_RECOVER + 1) if x not in absent]
        self.rng.shuffle(xs)
        return k, xs

    def _op_recover(self, r: Round, _matchup, _size) -> None:
        k, xs = self._consistent_stream(self.ks.pop())
        sr = self.streamrec
        t0 = time.perf_counter()
        sketch = sr.PowerSumSketch(self.field, k)
        sketch.ingest_stream(xs)
        got = sr.recover_missing(sketch, N_RECOVER, k)
        r.add(("recover", k), "recover", 0, time.perf_counter() - t0)
        self._note(checks.check_recovered(got, xs, N_RECOVER))

    def _op_inconsistent(self, r: Round, _matchup, _size) -> None:
        """Fixed streams with one absent number replaced by a repeat; the
        right answer is InconsistentSketch, anything else is a failure."""
        sr = self.streamrec
        for k in (1, 2, 3):
            xs = inconsistent_stream(k)
            t0 = time.perf_counter()
            sketch = sr.PowerSumSketch(self.field, k)
            sketch.ingest_stream(xs)
            try:
                sr.recover_missing(sketch, N_RECOVER, k)
                failed = True
            except sr.InconsistentSketch:
                failed = False
            r.add(("inconsistent", k), None, 0, time.perf_counter() - t0,
                  failed)

    def _cli(self, path: Path, k: int):
        cmd = [sys.executable, "-m", "mirrorlab.cli", "recover-missing",
               "--n", str(N_RECOVER), "--k", str(k), "--stream", str(path)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, env=self.env,
                              timeout=CLI_TIMEOUT_S)
        return proc, time.perf_counter() - t0

    def _op_cli(self, r: Round, _matchup, _size) -> None:
        k, xs = self._consistent_stream(CLI_K)
        self.stream_file.write_text(_lines(xs))
        proc, dt = self._cli(self.stream_file, k)
        r.add(("cli", k), "cli", 0, dt)
        if proc.returncode != 0:
            self._note(f"recover-missing --k {k} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-200:]}")
            return
        self._note(checks.check_recovered(json.loads(proc.stdout), xs,
                                          N_RECOVER))

    def _op_cli_inconsistent(self, r: Round, _matchup, _size) -> None:
        proc, dt = self._cli(self.bad_stream_file, 1)
        r.add(("cli-inconsistent", 1), None, 0, dt, proc.returncode != 1)

    def _recorded_games(self, r: Round, kind, matchup, games, metric) -> None:
        spec = self._spec(matchup, games)
        with open(self.transcript_file, "w") as fh:
            def sink(t):  # what `mirrorlab montecarlo --transcripts` writes
                fh.write(t.to_json() + "\n")

            t0 = time.perf_counter()
            report = self.harness.montecarlo(spec, transcript_sink=sink)
            dt = time.perf_counter() - t0
        r.add((kind, matchup, games), metric, games, dt)
        outcomes = report["outcomes"]
        self._check_outcomes(matchup, outcomes, games)
        docs = [json.loads(line) for line in
                self.transcript_file.read_text().splitlines()]
        if len(docs) != games:
            self._note(f"{len(docs)} transcripts written for {games} games")
        seen = dict.fromkeys(checks.OUTCOME_KEYS, 0)
        for doc in docs:
            problem = checks.check_transcript(doc, mirror_bob=matchup[1] == "mirror")
            if problem is not None:
                self._note(f"{matchup[0]} vs {matchup[1]}: {problem}")
                break
            seen[checks.outcome_key(doc["outcome"])] += 1
        self._note(checks.check_same_counts(seen, outcomes, "transcript outcomes"))
        alice, bob, n, a, b = matchup
        with self.quiet():
            batch = self.core.play_batch(self.GameConfig(n, a, b), alice, bob,
                                         spec.master_seed, 0, games)
        self._note(checks.check_same_counts(
            outcomes, batch, f"recorded {alice} vs {bob} against play_batch"))

    def _op_transcripts(self, r: Round, matchup, games) -> None:
        self._recorded_games(r, "transcripts", matchup, games,
                             "transcripts_per_s")

    def _op_uncodable(self, r: Round, matchup, games) -> None:
        self._recorded_games(r, "uncodable", matchup, games,
                             "checked_games_per_s")

    def _op_profile(self, r: Round, matchup, games) -> None:
        spec = self._spec(matchup, games)
        t0 = time.perf_counter()
        report = self.harness.memory_profile(spec)
        dt = time.perf_counter() - t0
        r.add(("profile", matchup, games), "checked_games_per_s", games, dt)
        self._note(checks.check_memory_profile(report))

    # ------------------------------------------------------------ the end

    def finish(self) -> None:
        """Win-rate floors over the run, and a seeded slice of every batch
        matchup replayed on the Python core."""
        for matchup, (wins, trials) in self.tally.items():
            if matchup[0] == "rand-sqrt":
                self._note(checks.check_sqrt_rate(wins, trials))
            elif matchup[0] == "rand-log":
                self._note(checks.check_log_rate(wins, trials, matchup[2]))
        if not self.core.HAVE_FAST:
            return  # both sides of the comparison would be the Python core
        for matchup, (metric, master, trials) in self.first_seed.items():
            alice, bob, n, a, b = matchup
            cfg = self.GameConfig(n, a, b)
            m = REFERENCE_SLICE[metric]
            start = self.rng.randrange(trials - m + 1)
            fast = self.core.play_batch(cfg, alice, bob, master, start, m)
            slow = self.core.play_batch(cfg, alice, bob, master, start, m,
                                        force_python=True)
            self._note(checks.check_same_counts(
                fast, slow, f"{alice} vs {bob} n={n} trials {start}..{start + m - 1}"))


def inconsistent_stream(k: int) -> list[int]:
    """n-k numbers of 1..n with k+1 absent and one present number said
    twice.  Built from a fixed seed, not from ``--seed``."""
    rng = random.Random(f"inconsistent/{k}/0")
    absent = set(rng.sample(range(1, N_RECOVER + 1), k + 1))
    xs = [x for x in range(1, N_RECOVER + 1) if x not in absent]
    xs.append(rng.choice(xs))
    rng.shuffle(xs)
    return xs


def stratified_ks(count: int) -> list[int]:
    """``count`` missing counts spread evenly over 0..K_MAX: with a multiple
    of K_MAX+1 streams every k comes equally often, so the latency
    percentiles do not hang on which k a seed happens to draw."""
    span = K_MAX + 1
    return [(2 * i + 1) * span // (2 * count) for i in range(count)]


def _lines(xs) -> str:
    return "\n".join(map(str, xs)) + "\n"


def _typical(rounds):
    """Per call: its typical time, how often it ran, and its metric.

    A call's typical time is the upper quartile of its repeats.  On the
    shared 2-CPU machine this was built on, the same Python call usually
    runs in a slow mode and, for stretches of several seconds, up to 40 %
    faster.  The share of fast stretches varies from run to run, so a
    median or a minimum jumps between the modes; the upper quartile stays
    in the usual one, and unlike a higher percentile it is not set by a
    single stall among a few repeats.
    """
    times: dict = {}
    for r in rounds:
        for call, metric, games, seconds in r.calls:
            times.setdefault(call, (metric, games, []))[2].append(seconds)
    return {call: (_upper_quartile(ts), len(ts), metric, games)
            for call, (metric, games, ts) in times.items()}


def _upper_quartile(ts):
    if len(ts) == 1:
        return ts[0]
    return statistics.quantiles(ts, n=4, method="inclusive")[2]


def wall_s(rounds) -> float:
    """One round of the workload, every call at its typical time."""
    calls = _typical(rounds).values()
    return sum(s * count for s, count, _, _ in calls) / len(rounds)


def end_to_end(rounds: list[Round]) -> dict:
    """Every end-to-end metric but setup_s and peak_rss_mb, from the rounds."""
    typical = _typical(rounds)

    def rate(metric):
        calls = [(s, games) for s, _, m, games in typical.values() if m == metric]
        return sum(games for _, games in calls) / sum(s for s, _ in calls)

    def latencies_ms(metric):
        return [1e3 * s for s, count, m, _ in typical.values() if m == metric
                for _ in range(count)]

    recover = latencies_ms("recover")
    return {
        "wall_s": wall_s(rounds),
        "sqrt_games_per_s": rate("sqrt_games_per_s"),
        "log_games_per_s": rate("log_games_per_s"),
        "mirror_games_per_s": rate("mirror_games_per_s"),
        "recover_ms_p50": statistics.median(recover),
        "recover_ms_p99": statistics.quantiles(recover, n=100)[98],
        "cli_recover_ms": statistics.median(latencies_ms("cli")),
        "transcripts_per_s": rate("transcripts_per_s"),
        "checked_games_per_s": rate("checked_games_per_s"),
    }
