"""Inputs of the benchmark's workloads.  Plain data; imports no blockzero.

Grid workloads run `blockzero report` on a fixed grid; their inputs do not
depend on the seed.  The certify workload's seed picks one job of each
pair in PAIRS.  The two jobs of a pair took about the same produce and
check time at the seed commit (see calibrate.py), so every seed does
about the same work and the job not picked is a held-out input that
another seed runs.
"""

from __future__ import annotations

import random

# Far above any run: no cell stops on the deadline, and the miner, whose
# deadline is 0.3 of this, never stops on time either.  Every stop is then
# a node, cap or period stop, and verdicts and node counts repeat exactly.
BUDGET_MS = 10_000_000

CONFIG = {
    "grid_m1": {"n_max": 7, "m": 1, "cap": 24, "p_max": 4, "max_nodes": 40_000,
                "check_rounds": 500},
    "grid_m2": {"n_max": 11, "m": 2, "cap": 24, "p_max": 4, "max_nodes": 155_000,
                "check_rounds": 500},
    "certify": {"check_rounds": 3},
}
NAMES = tuple(CONFIG)


def grid_cells(cfg) -> list[tuple[int, int, int]]:
    """The (n, c, m) cells of the grid, in report order."""
    cells = []
    for n in range(2, cfg["n_max"] + 1):
        for c in dict.fromkeys((0, 1 % n, (n - 1) % n)):
            cells.append((n, c, cfg["m"]))
    return cells


def grid_argv(cfg, cache_dir: str, json_out: str) -> list[str]:
    return ["report", "--n-max", str(cfg["n_max"]), "--m-set", str(cfg["m"]),
            "--budget-ms", str(BUDGET_MS), "--cap", str(cfg["cap"]),
            "--pmax", str(cfg["p_max"]), "--max-nodes", str(cfg["max_nodes"]),
            "--cache-dir", cache_dir, "--json-out", json_out]


# The acceptance suite's criterion-1 witness list, as
# (n, c, m, period, reduce_to, true verdict).  (3, 21) over Z_24 is refuted:
# the block (3, 21, 3) has 27 + 189 = 216 = 0 mod 24.
CRITERION_1 = [
    ("witness", 5, 2, 1, (4, 1), None, "avoiding"),
    ("witness", 7, 1, 1, (2, 3, 3, 3, 3), None, "avoiding"),
    ("witness", 11, 1, 1, (5, 3, 3), None, "avoiding"),
    ("witness", 16, 1, 1, (3, 13), None, "avoiding"),
    ("witness", 24, 1, 1, (3, 21), None, "refuted"),
    ("witness", 9, 1, 1, (7, 4, 4), None, "avoiding"),
    ("witness", 18, 1, 1, (7, 4, 4), 9, "avoiding"),
    ("witness", 12, 1, 1, (2, 10), None, "avoiding"),
    ("witness", 12, 11, 1, (2, 10), None, "avoiding"),
    ("witness", 6, 1, 2, (1, 3, 5, 3), None, "avoiding"),
    ("witness", 6, 5, 2, (1, 3, 5, 3), None, "avoiding"),
]

# Matched pairs of certify jobs: ("mine", n, m, p_max) mines every necklace
# of period <= p_max for F_1 over Z_n with no limit; ("xyr", p) verifies the
# xyr witness for the prime p = 3 mod 4.
PAIRS = [  # produce/check seconds of each job, from calibrate.py
    (('mine', 49, 1, 2), ('mine', 54, 1, 2)),  # 0.460/0.000 0.464/0.011
    (('mine', 62, 1, 2), ('mine', 66, 1, 2)),  # 0.676/0.000 0.637/0.000
    (('mine', 41, 2, 2), ('mine', 43, 2, 2)),  # 0.396/0.009 0.412/0.000
    (('mine', 35, 2, 2), ('mine', 39, 2, 2)),  # 0.427/0.194 0.433/0.173
    (('mine', 23, 1, 3), ('mine', 24, 1, 3)),  # 0.527/0.004 0.521/0.002
    (('xyr', 683), ('xyr', 691)),  # 0.015/0.015 0.015/0.015
    (('xyr', 151), ('xyr', 239)),  # 0.006/0.006 0.006/0.005
    (('xyr', 719), ('xyr', 727)),  # 0.016/0.016 0.016/0.016
    (('xyr', 863), ('xyr', 911)),  # 0.019/0.019 0.020/0.019
    (('xyr', 619), ('xyr', 631)),  # 0.026/0.025 0.026/0.024
    (('xyr', 127), ('xyr', 131)),  # 0.003/0.003 0.003/0.003
    (('xyr', 211), ('xyr', 359)),  # 0.008/0.008 0.008/0.008
    (('xyr', 271), ('xyr', 503)),  # 0.011/0.011 0.011/0.011
    (('xyr', 919), ('xyr', 971)),  # 0.022/0.021 0.022/0.021
    (('xyr', 139), ('xyr', 227)),  # 0.005/0.005 0.005/0.005
    (('xyr', 739), ('xyr', 743)),  # 0.016/0.016 0.017/0.016
    (('xyr', 787), ('xyr', 823)),  # 0.033/0.032 0.032/0.031
    (('xyr', 647), ('xyr', 659)),  # 0.014/0.014 0.015/0.014
    (('xyr', 859), ('xyr', 883)),  # 0.035/0.033 0.035/0.034
    (('xyr', 811), ('xyr', 827)),  # 0.018/0.018 0.019/0.018
    (('xyr', 491), ('xyr', 499)),  # 0.011/0.011 0.011/0.011
    (('xyr', 163), ('xyr', 263)),  # 0.006/0.006 0.006/0.006
    (('xyr', 587), ('xyr', 599)),  # 0.014/0.013 0.013/0.013
    (('xyr', 439), ('xyr', 443)),  # 0.010/0.009 0.010/0.010
    (('xyr', 307), ('xyr', 311)),  # 0.007/0.007 0.007/0.007
    (('xyr', 467), ('xyr', 479)),  # 0.010/0.010 0.011/0.010
    (('xyr', 523), ('xyr', 887)),  # 0.020/0.020 0.021/0.019
    (('xyr', 571), ('xyr', 983)),  # 0.022/0.022 0.022/0.021
    (('xyr', 947), ('xyr', 991)),  # 0.038/0.037 0.039/0.039
    (('xyr', 419), ('xyr', 431)),  # 0.010/0.009 0.009/0.009
    (('xyr', 487), ('xyr', 839)),  # 0.019/0.019 0.019/0.018
    (('xyr', 347), ('xyr', 383)),  # 0.008/0.008 0.009/0.008
    (('xyr', 179), ('xyr', 191)),  # 0.004/0.004 0.004/0.004
    (('xyr', 103), ('xyr', 167)),  # 0.004/0.004 0.004/0.004
    (('xyr', 331), ('xyr', 563)),  # 0.013/0.013 0.012/0.012
    (('xyr', 379), ('xyr', 643)),  # 0.016/0.015 0.014/0.014
    (('xyr', 367), ('xyr', 463)),  # 0.015/0.018 0.018/0.017
    (('xyr', 547), ('xyr', 607)),  # 0.021/0.021 0.024/0.023
    (('xyr', 223), ('xyr', 251)),  # 0.005/0.005 0.006/0.005
    (('xyr', 199), ('xyr', 283)),  # 0.008/0.008 0.007/0.006
]


def certify_jobs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [pair[rng.randrange(2)] for pair in PAIRS] + CRITERION_1
