"""Match certify jobs into pairs of equal cost; prints PAIRS for workloads.py.

    PYTHONPATH=src python3 perfbench/calibrate.py

A job's cost is its produce and check time as the clock reads them, each
the minimum over REPS single-job passes of worker.certify_pass.  Within each pool, jobs are
paired greedily by the smallest |produce difference| + |check difference|.
Of those pairs, the ones whose mean produce time lies in the pool's window
are ranked by that difference relative to their produce time, and the
best ones are kept.
"""

from __future__ import annotations

import importlib
import itertools
import os
import shutil
import tempfile

import workloads
import worker

REPS = 5
POOLS = [  # (candidate jobs, pairs kept, window of mean produce seconds)
    ([("mine", n, 1, 2) for n in range(40, 72)], 2, (0.4, 0.7)),
    ([("mine", n, 2, 2) for n in range(24, 56)], 2, (0.4, 0.8)),
    ([("mine", n, 1, 3) for n in range(12, 28)], 1, (0.5, 0.9)),
    ([("xyr", p) for p in range(100, 1000)
      if p % 4 == 3 and all(p % q for q in range(2, int(p ** 0.5) + 1))], 35, (0.0, 1.0)),
]


def job_cost(job, modules, scratch) -> tuple[float, float]:
    best = (float("inf"), float("inf"))
    for _ in range(REPS):
        out_dir = tempfile.mkdtemp(dir=scratch)
        res = worker.certify_pass(workloads.CONFIG["certify"], [job], out_dir, *modules)
        shutil.rmtree(out_dir)
        (p0, p1), (c0, c1) = res["produce"], res["check"]
        best = (min(best[0], p1 - p0), min(best[1], c1 - c0))
    return best


def matched_pairs(costs: dict) -> list[tuple]:
    def gap(pair):
        (pa, ca), (pb, cb) = costs[pair[0]], costs[pair[1]]
        return abs(pa - pb) + abs(ca - cb)

    used, pairs = set(), []
    for a, b in sorted(itertools.combinations(costs, 2), key=gap):
        if a not in used and b not in used:
            used |= {a, b}
            pairs.append(((a, b), gap((a, b))))
    return pairs


def main() -> None:
    modules = [importlib.import_module(f"blockzero.{m}")
               for m in ("search", "verify", "ring", "families", "words")]
    os.makedirs(".perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="calibrate-", dir=".perfbench")
    try:
        for jobs, keep, (lo, hi) in POOLS:
            costs = {job: job_cost(job, modules, scratch) for job in jobs}
            ranked = []
            for (a, b), gap in matched_pairs(costs):
                mean = (costs[a][0] + costs[b][0]) / 2
                if lo <= mean <= hi:
                    ranked.append((gap / mean, a, b))
            for _, a, b in sorted(ranked)[:keep]:
                print(f"    ({a!r}, {b!r}),  # {costs[a][0]:.3f}/{costs[a][1]:.3f} "
                      f"{costs[b][0]:.3f}/{costs[b][1]:.3f}")
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
