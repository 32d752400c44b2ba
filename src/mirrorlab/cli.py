"""Command-line interface.

Every subcommand writes a single JSON report to stdout (transcript batches
go to a file) and diagnostics to stderr.  Exit codes: 0 success, 1 a checked
assertion failed (over budget, inconsistent sketch, ...), 2 usage error.
All randomness is seeded; fixed arguments reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import _core
from .engine import GameConfig
from .harness import ExperimentSpec, enumerate_occurring, memory_profile, montecarlo
from .setfam import (ModtownSpec, SetFamily, TownKind, check_covering,
                     check_modtown, check_mv, check_town, covering_lower_bound,
                     max_town_size, modtown_to_mv)
from .stats import chi2_sf, chi2_stat
from .strategies import make_strategy, sample_matching
from .streamrec import InconsistentSketch, PowerSumSketch, recover_missing, select_prime

# power sums recover-missing keeps past the k it recovers, to check its answer
SPARE_SUMS = 1


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _emit_doc(doc) -> None:
    json.dump(doc, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


def _config(args) -> GameConfig:
    return GameConfig(n=args.n, a=args.a, b=args.b)


def _add_game_args(p: argparse.ArgumentParser, *, alice: str, bob: str) -> None:
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument("--a", type=int, default=1, help="Alice's per-move quota")
    p.add_argument("--b", type=int, default=1, help="Bob's per-move quota")
    p.add_argument("--alice", default=alice, help="Alice strategy spec")
    p.add_argument("--bob", default=bob, help="Bob strategy spec")
    p.add_argument("--seed", type=int, default=0)


def _cmd_play(args) -> int:
    cfg = _config(args)
    from .harness import _run_recorded

    t = _run_recorded(cfg, args.alice, args.bob, args.seed)
    _emit(t.to_json_dict())
    return 0


def _load_spec(path: str, seed: int) -> ExperimentSpec:
    """The experiment in a JSON spec file; ValueError if it is malformed."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"spec {path}: expected a JSON object")
    config = d.get("config")
    if (not isinstance(config, dict) or "n" not in config
            or not set(config) <= {"n", "a", "b"}):
        raise ValueError(f'spec {path}: "config" must be an object with "n" '
                         'and optionally "a" and "b"')
    master_seed = d.get("master_seed", seed)
    for key, value, kind in [*((k, v, int) for k, v in config.items()),
                             ("alice", d.get("alice"), str),
                             ("bob", d.get("bob"), str),
                             ("trials", d.get("trials"), int),
                             ("master_seed", master_seed, int)]:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f'spec {path}: "{key}" must be a JSON '
                             f'{"string" if kind is str else "integer"}')
    return ExperimentSpec(config=GameConfig(**config), alice=d["alice"],
                          bob=d["bob"], trials=d["trials"],
                          master_seed=master_seed)


def _cmd_montecarlo(args) -> int:
    if args.spec:
        spec = _load_spec(args.spec, args.seed)
    else:
        if args.n is None:
            raise ValueError("either --spec or --n is required")
        spec = ExperimentSpec(config=_config(args), alice=args.alice,
                              bob=args.bob, trials=args.trials,
                              master_seed=args.seed)
    sink = None
    fh = None
    if args.transcripts:
        fh = open(args.transcripts, "w")
        sink = lambda t: fh.write(t.to_json() + "\n")
    try:
        report = montecarlo(spec, transcript_sink=sink)
    finally:
        if fh:
            fh.close()
    _emit(report)
    return 0


def _cmd_occurring(args) -> int:
    cfg = _config(args)
    alice = make_strategy("A", args.alice, cfg)
    family = enumerate_occurring(alice, cfg, args.r)
    p = cfg.a + cfg.b
    covering = check_covering(family, p, args.r)
    bound = covering_lower_bound(cfg.n, p, args.r)
    _emit({
        "n": cfg.n, "a": cfg.a, "b": cfg.b, "alice": args.alice, "r": args.r,
        "family": family.to_json_dict(),
        "size": len(family),
        "covering": covering,
        "covering_p": p,
        "lower_bound": bound,
    })
    return 0 if covering and len(family) >= bound else 1


def _cmd_memory(args) -> int:
    spec = ExperimentSpec(config=_config(args), alice=args.alice, bob=args.bob,
                          trials=args.games, master_seed=args.seed)
    report = memory_profile(spec)
    _emit(report)
    ok = report["alice"]["within_budget"] and report["bob"]["within_budget"]
    return 0 if ok else 1


def _cmd_recover_missing(args) -> int:
    if args.stream == "-":
        lines = sys.stdin.read().split()
    else:
        with open(args.stream) as fh:
            lines = fh.read().split()
    xs = [int(tok) for tok in lines]
    field = select_prime(args.n)
    sketch = PowerSumSketch(field, args.k + SPARE_SUMS)
    sketch.ingest_stream(xs)
    try:
        missing = recover_missing(sketch, args.n, args.k)
    except InconsistentSketch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"recovered {args.k} of {args.n} from {len(xs)} streamed "
          f"(q={field.q})", file=sys.stderr)
    _emit_doc(missing)
    return 0


def _load_family(path: str) -> SetFamily:
    with open(path) as fh:
        return SetFamily.from_json_dict(json.load(fh))


def _parse_kind(spec: str):
    if spec.startswith("modtown:"):
        vals = [int(v) for v in spec.split(":", 1)[1].split(",")]
        if len(vals) < 2:
            raise ValueError("modtown kind needs p and at least one residue")
        return ModtownSpec(vals[0], vals[1:])
    return TownKind.from_name(spec)


def _cmd_setfam(args) -> int:
    if args.setfam_cmd == "check":
        family = _load_family(args.file)
        kind = _parse_kind(args.kind)
        if isinstance(kind, ModtownSpec):
            ok = check_modtown(family, kind)
            desc = {"modulus": kind.p, "residues": sorted(kind.residues)}
        else:
            ok = check_town(family, kind)
            desc = {"town": kind.name}
        _emit({"n": family.n, "size": len(family), "kind": desc, "valid": ok})
        return 0 if ok else 1
    if args.setfam_cmd == "search-max":
        kind = TownKind.from_name(args.kind)
        with_empty = max_town_size(args.n, kind, include_empty=True)
        without_empty = max_town_size(args.n, kind, include_empty=False)
        _emit({"n": args.n, "kind": kind.name,
               "max_size": with_empty,
               "max_size_without_empty_set": without_empty})
        return 0
    if args.setfam_cmd == "mv-from-modtown":
        family = _load_family(args.file)
        mv = modtown_to_mv(family, args.m)
        ok = check_mv(mv)
        _emit({"m": mv.m, "dim": mv.dim, "size": len(mv),
               "u": [list(v) for v in mv.u],
               "v": [list(v) for v in mv.v],
               "valid": ok})
        return 0 if ok else 1
    raise AssertionError("unreachable")


def _cmd_matching_test(args) -> int:
    n = args.n
    report: dict = {"n": n, "samples": args.samples, "seed": args.seed}
    counts: dict[tuple, int] = {}
    for i in range(args.samples):
        # MatchingOracle raises on a fixed point or a non-involution
        oracle = sample_matching(n, args.seed + i)
        key = tuple(sorted(oracle.pairs()))
        counts[key] = counts.get(key, 0) + 1
    report["involution_ok"] = True  # every sampled table was accepted
    report["distinct_matchings"] = len(counts)
    total = _double_factorial(n - 1)
    report["possible_matchings"] = total
    if total > 1 and args.samples >= 10 * total:
        # (n-1)!! is odd for even n, so df = total - 1 is always even
        expected = [args.samples / total] * total
        observed = sorted(counts.values(), reverse=True)
        observed += [0] * (total - len(observed))
        stat = chi2_stat(observed, expected)
        p = chi2_sf(stat, total - 1)
        report["chi2_stat"] = stat
        report["chi2_p"] = p
        report["uniform_ok"] = p > 0.01
    _emit(report)
    return 0 if report.get("uniform_ok", True) else 1


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorlab",
        description="Referee, strategies, and experiments for the (a,b)-mirror game",
    )
    parser.add_argument("--backend", action="store_true",
                        help="print the selected core backend (and why, on the "
                        "pure-Python fallback) and exit")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("play", help="referee one game and print the transcript")
    _add_game_args(p, alice="naive", bob="mirror")
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("montecarlo", help="seeded batch of games, win-rate report")
    p.add_argument("--n", type=int, help="ground set size")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--alice", default="rand-log")
    p.add_argument("--bob", default="smallest-unsaid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--spec", help="JSON experiment spec file (overrides flags)")
    p.add_argument("--transcripts", help="write one transcript JSON per line here")
    p.set_defaults(fn=_cmd_montecarlo)

    p = sub.add_parser("occurring",
                       help="enumerate said-sets reachable after round r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--alice", default="naive")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_occurring)

    p = sub.add_parser("memory", help="profile measured state bits per turn")
    _add_game_args(p, alice="naive", bob="mirror")
    p.add_argument("--games", type=int, default=3)
    p.set_defaults(fn=_cmd_memory)

    p = sub.add_parser("recover-missing",
                       help="recover the k absent elements from a stream")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stream", required=True,
                   help="file of integers, one per line, or - for stdin")
    p.set_defaults(fn=_cmd_recover_missing)

    p = sub.add_parser("setfam", help="set-family checks and searches")
    ss = p.add_subparsers(dest="setfam_cmd", required=True)
    c = ss.add_parser("check", help="validate a family file against a kind")
    c.add_argument("--kind", required=True,
                   help="odd-even | even-odd | even-even | odd-odd | modtown:p,r1,r2,...")
    c.add_argument("--file", required=True, help='JSON {"n": int, "sets": [[...]]}')
    c.set_defaults(fn=_cmd_setfam)
    m = ss.add_parser("search-max", help="exact maximum town size (exhaustive)")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--kind", required=True)
    m.set_defaults(fn=_cmd_setfam)
    v = ss.add_parser("mv-from-modtown",
                      help="matching vector family from a modular town")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--file", required=True)
    v.set_defaults(fn=_cmd_setfam)

    p = sub.add_parser("matching-test",
                       help="involution and uniformity checks for sampled matchings")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=30000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_matching_test)

    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.backend:
        _emit({"backend": _core.BACKEND,
               "fallback_reason": _core.FALLBACK_REASON})
        return 0
    if not getattr(args, "cmd", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
