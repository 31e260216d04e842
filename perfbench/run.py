"""blockzero benchmark.

    python3 perfbench/run.py --workload {grid_m1,grid_m2,certify} --seed N --seconds S --trace {0,1}

Run it from the root of a blockzero checkout; it imports the package from
./src.  Each pass of a workload runs in a fresh interpreter
(perfbench/worker.py) with a fresh, empty cache directory.  Passes repeat
until S seconds have been measured, and timings are reported as medians
over passes.  Closed loop, one client: the next pass starts when the
previous one ends.

- grid_m1: `blockzero report --m-set 1` over c in {0, 1, -1} and n <= 7
  with a 40,000-node budget.  The DFS does almost all of the work: twelve
  cells exhaust, F_{-1} mod 6 and F_0 mod 7 stop at the node budget,
  F_{-1} mod 7 stops at the cap, and the catalog and the miner decide one
  cell each.
- grid_m2: the same with --m-set 2 and n <= 11.  Beyond n = 2 every DFS
  stops at the cap after 25 nodes, so the miner and verify refutations do
  the work.
- certify: library calls only.  Mine complete necklace enumerations,
  verify the xyr witnesses and the criterion-1 witness list, save every
  certificate (produce), then load each with re-checking (check).  The
  seed picks one job of each matched pair in workloads.PAIRS.

End-to-end metrics (--trace 0), each the median over passes (setup_s:
over 9 fresh interpreters that import blockzero and build the inputs):
setup_s, produce_s, check_s (one round of loads), wall_s (produce_s plus
check_s), decided (grids: proved cells; certify: jobs answered) and
peak_rss_mb.  Times are scaled to the reference speed of speed.py, which
takes out the slowdowns a shared host imposes; the raw clock readings are
printed above the result.  With --trace 1 the run makes one untraced pass
and then traced passes, and reports the per-layer metrics of spans.py
(raw clock seconds, which include the speed sampler's share of about 3 %)
plus trace.overhead_s, the traced minus the untraced scaled wall time.

Every output is gated (gate.py): a wrong or missing output counts in
"failed", and "correct" is false when anything failed.  The last line
printed is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # each run must end within 180 s
SETUP_PROBES = 9


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """The JSON result of one worker process; raises on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--spawned-at", repr(time.monotonic())],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def outputs_digest(pass_dir: str) -> str:
    """Digest of what a pass left for the gate; passes with equal digests
    need gating once.  The grid's report holds timings, so every grid pass
    is gated."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(pass_dir)):
        path = os.path.join(pass_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read().replace(pass_dir.encode(), b""))
    return h.hexdigest()


def gate_outputs(workload: str, pass_dir: str, seed_decided: dict) -> tuple[int, list[str]]:
    """(outputs checked, problems) for one pass; one problem per failed output."""
    problems = []
    if workload == "certify":
        with open(os.path.join(pass_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        for entry in manifest:
            with open(entry["path"]) as fh:
                cert = json.load(fh)
            found = gate.check_certificate(cert, entry["n"], entry["c"], entry["m"])
            if not found and entry["expect"] not in (None, cert["verdict"]):
                found = [f"{entry['path']}: {cert['verdict']}, the true answer is {entry['expect']}"]
            problems += found
        return len(manifest), problems
    cfg = workloads.CONFIG[workload]
    with open(os.path.join(pass_dir, "report.json")) as fh:
        cells = [c["classification"] for c in json.load(fh)["cells"]]
    for found in gate.check_grid(cells, workloads.grid_cells(cfg), cfg["max_nodes"], seed_decided):
        problems += found[:1]
    return len(cells), problems


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blockzero", "__init__.py")):
        print("perfbench: run from the root of a blockzero checkout; ./src/blockzero is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "baseline.json")) as fh:
        seed_decided = json.load(fh)["seed_decided"].get(args.workload, {})
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    scratch = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        os.makedirs(scratch)
        probes = [run_worker(base + ["--dir", scratch, "--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES + 1)][1:]  # the first one compiles bytecode
        setup = [p["setup_s"] for p in probes]
        passes, t0 = [], time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds or (args.trace and len(passes) < 2):
            pass_dir = os.path.join(scratch, f"pass{len(passes)}")
            traced = bool(args.trace) and bool(passes)
            result = run_worker(base + ["--dir", pass_dir] + ["--trace"] * traced, env, deadline)
            result.update(dir=pass_dir, traced=traced,
                          wall_s=result["produce_s"] + result["check_s"])
            passes.append(result)
        attempted, problems, gated = 0, [], {}
        for result in passes:
            digest = outputs_digest(result["dir"])
            if digest not in gated:
                gated[digest] = gate_outputs(args.workload, result["dir"], seed_decided)
            checked, found = gated[digest]
            attempted += checked
            problems += found
            problems += [f"load_certificate rejected {p}" for p in result["load_failures"]]
            if result["rc"] != 0:
                problems.append(f"blockzero exited {result['rc']}")
        if len({p["decided"] for p in passes}) != 1:
            problems.append(f"passes differ in what they decided: {[p['decided'] for p in passes]}")
        if args.workload == "certify" and passes[0]["decided"] != len(workloads.certify_jobs(args.seed)):
            problems.append("a mining enumeration did not complete")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(scratch))

    print(f"setup_s={statistics.median(setup):.4f} "
          f"raw_setup_s={statistics.median(p['raw_setup_s'] for p in probes):.4f}")
    for p in passes:
        print(f"pass traced={p['traced']} produce_s={p['produce_s']:.3f} check_s={p['check_s']:.4f} "
              f"raw_produce_s={p['raw_produce_s']:.3f} raw_check_s={p['raw_check_s']:.4f} "
              f"decided={p['decided']} peak_rss_mb={p['peak_rss_mb']:.1f}")
    for problem in problems[:20]:
        print("FAILED", problem)
    if args.trace:
        plain = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        values = {k: statistics.median_low(p["layers"][k] for p in traced_passes)
                  for k in traced_passes[0]["layers"]}
        values["trace.overhead_s"] = median_of(traced_passes, "wall_s") - median_of(plain, "wall_s")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": median_of(passes, "wall_s"),
            "produce_s": median_of(passes, "produce_s"),
            "check_s": median_of(passes, "check_s"),
            "decided": passes[0]["decided"],
            "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": min(len(problems), attempted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
