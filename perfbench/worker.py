"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --spawned-at T [--trace] [--setup-only]

It imports blockzero from ./src and builds the workload's inputs: the
set-up, timed from T, the parent's time.monotonic() when it started this
process.  Unless --setup-only, it then runs one pass: "produce" (classify
the grid through `blockzero.cli.main`, or mine and verify certificates
through the library) and then "check" (load every certificate of the pass
with re-checking).  Artifacts go under DIR.  The last line printed is a JSON
object with the times setup_s, produce_s and check_s (per round of loads)
scaled to the reference speed of speed.py, and the same with a raw_
prefix as the clock read them.  perfbench/run.py starts this script
and gates what it leaves in DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import time

import spans
import speed
import workloads


def check_certificates(paths, cfg, V, ring) -> tuple[tuple[float, float], list[str]]:
    """Load every path with re-check, cfg['check_rounds'] times over; the
    (start, end) of the rounds and the paths that failed re-checking."""
    failed = set()
    t0 = time.perf_counter()
    for _ in range(cfg["check_rounds"]):
        for path in paths:
            try:
                V.load_certificate(path, recheck=True)
            except ring.PreconditionError:
                failed.add(path)
    return (t0, time.perf_counter()), sorted(failed)


def grid_pass(cfg, out_dir, cli_main, V, ring) -> dict:
    report = os.path.join(out_dir, "report.json")
    argv = workloads.grid_argv(cfg, os.path.join(out_dir, "cache"), report)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        produce = (t0, time.perf_counter())
    with open(report) as fh:
        cells = [c["classification"] for c in json.load(fh)["cells"]]
    paths = []
    for k, cell in enumerate(cells):
        if cell["verdict"] == "nonvanishing_proved" and cell["certificate"]:
            paths.append(os.path.join(out_dir, f"cert_{k:03d}.json"))
            V.save_certificate(V.Certificate.from_dict(cell["certificate"]), paths[-1])
    check, load_failures = check_certificates(paths, cfg, V, ring)
    decided = sum(1 for c in cells if c["verdict"] != "unknown")
    return {"rc": rc, "produce": produce, "check": check,
            "decided": decided, "load_failures": load_failures}


def certify_pass(cfg, jobs, out_dir, S, V, ring, families, words) -> dict:
    manifest, incomplete = [], 0
    t0 = time.perf_counter()
    for job in jobs:
        kind = job[0]
        if kind == "mine":
            _, n, m, p_max = job
            ctx = ring.ModulusContext(n)
            res = S.mine_witness(ctx, families.sum_plus_c_prod(ctx, 1), m, p_max)
            incomplete += not res.complete
            certs = [cert for _, cert in res.witnesses]
            c, expect = 1, "avoiding"
        else:
            if kind == "xyr":
                pw, c, m, expect = S.build_xyr_witness(S.xyr_solve(job[1])), 1, 1, None
            else:
                _, n, c, m, period, reduce_to, expect = job
                pw = words.PeriodicWord(period, n)
                if reduce_to is not None:
                    pw = V.reduce_witness(pw, reduce_to)
            ctx = ring.ModulusContext(pw.n)
            certs = [V.verify_periodic(pw, families.sum_plus_c_prod(ctx, c % pw.n), m)]
        for cert in certs:
            path = os.path.join(out_dir, f"cert_{len(manifest):05d}.json")
            V.save_certificate(cert, path)
            manifest.append({"path": path, "n": cert.n, "c": c % cert.n, "m": m,
                             "expect": expect})
    produce = (t0, time.perf_counter())
    check, load_failures = check_certificates([e["path"] for e in manifest], cfg, V, ring)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return {"rc": 0, "produce": produce, "check": check,
            "decided": len(jobs) - incomplete, "load_failures": load_failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with speed.Sampler() as sampler:
        cli = importlib.import_module("blockzero.cli")
        S = importlib.import_module("blockzero.search")
        V = importlib.import_module("blockzero.verify")
        ring = importlib.import_module("blockzero.ring")
        families = importlib.import_module("blockzero.families")
        words = importlib.import_module("blockzero.words")
        cfg = workloads.CONFIG[args.workload]
        jobs = workloads.certify_jobs(args.seed) if args.workload == "certify" else None
        raw_setup_s = time.monotonic() - args.spawned_at
        ready = time.perf_counter()
        result = {"setup_s": sampler.scaled(ready - raw_setup_s, ready), "raw_setup_s": raw_setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tracer, cli_main = None, cli.main
        if args.trace:
            tracer = spans.Tracer()
            cli_main = spans.install(tracer, cfg.get("max_nodes", 0))
        os.makedirs(args.dir)
        if jobs is None:
            result.update(grid_pass(cfg, args.dir, cli_main, V, ring))
        else:
            result.update(certify_pass(cfg, jobs, args.dir, S, V, ring, families, words))
    (p0, p1), (c0, c1) = result.pop("produce"), result.pop("check")
    result["produce_s"] = sampler.scaled(p0, p1)
    result["check_s"] = sampler.scaled(c0, c1) / cfg["check_rounds"]
    result["raw_produce_s"], result["raw_check_s"] = p1 - p0, (c1 - c0) / cfg["check_rounds"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
