"""Command-line surface: evaluation, certification, search, mining,
classification and table reproduction, with deterministic output and
proof artifacts persisted under a cache directory."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .classify import (
    classify,
    NONVANISHING_PROVED,
    UNKNOWN,
    VANISHING_PROVED,
    ContradictionError,
    expected_verdict,
    family_hash,
    is_contradiction,
    render_table,
    reproduce_table,
)
from .families import (
    FAMILY_PARAMS,
    SUM_PLUS_C_PROD,
    TRANSFORMATION_SUMS,
    FunctionalFamily,
    family_from_descriptor,
)
from .ring import ModulusContext, PreconditionError
from .search import EXHAUSTED, longest_avoiding_word, mine_witness, xyr_solve
from .verify import AVOIDING, save_certificate, verify_periodic
from .words import PeriodicWord, parse_symbols

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_BUDGET = 4
EXIT_CONTRADICTION = 5

CACHE_ENV = "BLOCKZERO_CACHE_DIR"


def parse_family(spec: str, ctx: ModulusContext) -> FunctionalFamily:
    """Parse the kind:param mini-syntax used on the command line into a
    family descriptor (tables are JSON, or @file for JSON in a file)."""
    kind, sep, param = spec.partition(":")
    if kind not in FAMILY_PARAMS:
        raise PreconditionError(f"unknown family {spec!r}")
    if kind == SUM_PLUS_C_PROD and not sep:
        raise PreconditionError("sum_plus_c_prod needs :c")
    if kind == TRANSFORMATION_SUMS:
        if param.startswith("@"):
            with open(param[1:]) as fh:
                param = fh.read()
        param = json.loads(param)
    return family_from_descriptor(ctx, {"kind": kind, FAMILY_PARAMS[kind][0]: param})


def resolve_cache_dir(flag_value: str | None) -> str:
    d = flag_value or os.environ.get(CACHE_ENV) or ".blockzero_cache"
    os.makedirs(d, exist_ok=True)
    return d


def append_run_record(cache_dir: str, args, outcome: str, artifacts: list[str]) -> None:
    """Log one run: main stores its command line and start time on args."""
    rec = {
        "command": args.command,
        "arguments": args.arguments,
        "started": args.started,
        "ended": time.time(),
        "outcome": outcome,
        "artifacts": artifacts,
    }
    with open(os.path.join(cache_dir, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cert_path(cache_dir: str, fam: FunctionalFamily, cert) -> str:
    """Where a certificate for fam is saved in the cache directory."""
    period = "-".join(map(str, cert.period))
    return os.path.join(cache_dir, f"cert_{cert.n}_{family_hash(fam)}_{cert.m}_{period}.json")


def cmd_eval(args) -> int:
    ctx = ModulusContext(args.n)
    fam = parse_family(args.family, ctx)
    value = fam.value(parse_symbols(args.block, ctx))
    print(",".join(map(str, value)))
    return EXIT_OK


def cmd_verify(args) -> int:
    ctx = ModulusContext(args.n)
    fam = parse_family(args.family, ctx)
    pw = PeriodicWord(parse_symbols(args.period, ctx), ctx.n)
    cert = verify_periodic(pw, fam, args.m)
    cache_dir = resolve_cache_dir(args.cache_dir)
    path = args.out or cert_path(cache_dir, fam, cert)
    save_certificate(cert, path)
    print(f"verdict: {cert.verdict}")
    print(f"checked_max_l: {cert.checked_max_l}")
    if cert.counter_window is not None:
        s, l = cert.counter_window
        print(f"counter_window: s={s} l={l}")
    print(f"certificate: {path}")
    append_run_record(cache_dir, args, cert.verdict, [path])
    return EXIT_OK if cert.verdict == AVOIDING else EXIT_REFUTED


def cmd_search(args) -> int:
    fam = parse_family(args.family, ModulusContext(args.n))
    deadline = time.monotonic() + args.budget_ms / 1000.0 if args.budget_ms is not None else None
    out = longest_avoiding_word(fam, args.m, args.cap, max_nodes=args.max_nodes, deadline=deadline)
    print(f"status: {out.status}")
    print(f"stop: {out.stop}")
    if out.status == EXHAUSTED:
        print(f"threshold: {out.threshold}")
    print("longest_word: " + ",".join(map(str, out.longest_word)))
    print(f"nodes_expanded: {out.nodes_expanded}")
    cache_dir = resolve_cache_dir(args.cache_dir)
    append_run_record(cache_dir, args, out.status, [])
    return EXIT_OK if out.status == EXHAUSTED else EXIT_BUDGET


def cmd_mine(args) -> int:
    ctx = ModulusContext(args.n)
    fam = parse_family(args.family, ctx)
    deadline = time.monotonic() + args.budget_ms / 1000.0 if args.budget_ms is not None else None
    res = mine_witness(ctx, fam, args.m, args.pmax, deadline=deadline, limit=args.limit)
    cache_dir = resolve_cache_dir(args.cache_dir)
    artifacts = []
    for pw, cert in res.witnesses:
        path = cert_path(cache_dir, fam, cert)
        save_certificate(cert, path)
        artifacts.append(path)
        print("witness: " + ",".join(map(str, cert.period)))
    print(f"witnesses_found: {len(res.witnesses)}")
    print(f"candidates_checked: {res.candidates_checked}")
    print(f"verified: {res.verified}")
    print(f"enumeration_complete: {res.complete}")
    append_run_record(cache_dir, args, f"{len(res.witnesses)} witnesses", artifacts)
    if not res.complete and (args.limit is None or len(res.witnesses) < args.limit):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_classify(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    cls = classify(
        args.n, args.c, args.m,
        budget_ms=args.budget_ms, cap=args.cap, p_max=args.pmax,
        max_nodes=args.max_nodes, cache_dir=cache_dir,
    )
    print(f"verdict: {cls.verdict}")
    if cls.verdict == NONVANISHING_PROVED:
        print("witness: " + ",".join(map(str, cls.witness)))
    if cls.verdict == VANISHING_PROVED:
        print(f"threshold: {cls.threshold}")
    print(f"provenance: {cls.provenance}")
    if cls.verdict == UNKNOWN:
        print(f"stop: {cls.outcome.stop}")
    append_run_record(cache_dir, args, cls.verdict, [])
    expected = expected_verdict(cls.n, cls.c, cls.m)
    if is_contradiction(cls, expected):
        print(f"contradiction: the known classification is {expected}", file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_BUDGET if cls.verdict == UNKNOWN else EXIT_OK


def cmd_xyr(args) -> int:
    sol = xyr_solve(args.p)
    print(f"x={sol.x} y={sol.y} r={sol.r}")
    print(f"method: {sol.method}")
    return EXIT_OK


def cmd_report(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    report = reproduce_table(
        args.n_max,
        m_set=tuple(int(m) for m in args.m_set.split(",")),
        budget_ms=args.budget_ms, cap=args.cap, p_max=args.pmax,
        max_nodes=args.max_nodes, cache_dir=cache_dir, jobs=args.jobs,
    )
    print(render_table(report))
    if args.json_out:
        # each cell's fields: its classification, expected and contradiction
        cells = [{**vars(c), "classification": c.classification.to_dict()} for c in report.cells]
        with open(args.json_out, "w") as fh:
            json.dump({"cells": cells}, fh, indent=1, sort_keys=True)
    append_run_record(cache_dir, args, f"{len(report.contradictions)} contradictions",
                      list(report.reproducer_paths) + ([args.json_out] if args.json_out else []))
    return EXIT_CONTRADICTION if report.contradictions else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockzero",
        description="Vanishing-window analysis of block functionals over Z_n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache-dir", default=None,
                       help=f"proof artifact directory (default ${CACHE_ENV} or .blockzero_cache)")

    def classify_budgets(p):
        p.add_argument("--budget-ms", type=int, default=60_000)
        p.add_argument("--cap", type=int, default=24)
        p.add_argument("--pmax", type=int, default=4)
        p.add_argument("--max-nodes", type=int, default=300_000,
                       help="the tree DFS's node budget at m >= 2, and the set search's "
                            "budget of suffix-state sets at m = 1")

    p = sub.add_parser("eval", help="evaluate a family on one block")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--block", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="certify a periodic word avoiding or refuted")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--period", required=True)
    p.add_argument("--out", default=None, help="certificate file path")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="DFS over the avoidance tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--cap", type=int, default=32)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--budget-ms", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("mine", help="enumerate periodic witnesses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("classify", help="verdict for one (n, c, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    classify_budgets(p)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("xyr", help="solve x + r*y = 0, x*y^r = 1 mod p")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_xyr)

    p = sub.add_parser("report", help="classify a grid and compare with the known table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-set", default="1,2")
    classify_budgets(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json-out", default=None)
    common(p)
    p.set_defaults(func=cmd_report)

    return ap


def attach_word_literals(argv: list[str]) -> list[str]:
    """Join "--block -3,1" into "--block=-3,1", which argparse reads as two options."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--block", "--period") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(attach_word_literals(argv))
    args.arguments, args.started = argv[1:], time.time()  # what runs.jsonl records
    try:
        return args.func(args)
    except ContradictionError as e:
        print(f"contradiction: {e}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
