"""Spans around calls into blockzero's layers, recorded from outside.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent span, counts) and calls the original.  A caller
that looks the name up in that module at call time then goes through the
wrapper.  blockzero's modules import each other's functions by name, so
each function is wrapped in every module that calls it.

`words`, `ring` and `families` run once per DFS node or per block inside
the DFS and verify loops; wrapping them would distort what they measure,
so their cost shows in `search.dfs.nodes_per_s` and
`verify.lengths_per_s` instead.

Stage names follow the classification pipeline: `catalog` (the catalog
construction for the cell itself), `miner` (divisor lifts and necklace
mining) and `dfs` (the avoidance-tree search).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        """fn with a span recorded around each call; counts(args, kwargs,
        result) returns the dict of counts stored on the span."""

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced


def _verify_counts(args, kwargs, cert):
    P = len(cert.period)
    if cert.counter_window is None:
        lengths = P * (cert.checked_max_l - 1)
    else:
        s, l = cert.counter_window
        lengths = P * (l - 2) + s + 1
    return {"lengths": lengths, "refuted": cert.counter_window is not None}


def _mine_counts(args, kwargs, res):
    return {"candidates": res.candidates_checked, "witnesses": len(res.witnesses)}


def _dfs_counts(args, kwargs, out):
    return {"nodes": out.nodes_expanded, "exhausted": out.status == "exhausted"}


def _catalog_counts(args, kwargs, word):
    return {"modulus": args[0]}


def install(tracer: Tracer, max_nodes: int = 0):
    """Wrap the public calls between blockzero's layers; returns the
    traced `blockzero.cli.main`.  max_nodes is the grid's node budget, to
    tell node stops from deadline stops."""

    def cell_counts(args, kwargs, cls):
        stop = None
        if cls.verdict == "unknown":
            out = cls.outcome
            if not out.budget_exhausted:
                stop = "cap"
            else:
                stop = "nodes" if out.nodes_expanded >= max_nodes else "deadline"
        return {"modulus": args[0], "verdict": cls.verdict,
                "provenance": cls.provenance, "stop": stop}

    cli = importlib.import_module("blockzero.cli")
    C = importlib.import_module("blockzero.classify")
    S = importlib.import_module("blockzero.search")
    V = importlib.import_module("blockzero.verify")
    verify = tracer.wrap("verify", V.verify_periodic, _verify_counts)
    for mod in (C, S, V):
        mod.verify_periodic = verify
    V.load_certificate = tracer.wrap("verify.load", V.load_certificate)
    C.mine_witness = S.mine_witness = tracer.wrap("search.mine", S.mine_witness, _mine_counts)
    C.longest_avoiding_word = S.longest_avoiding_word = tracer.wrap(
        "search.dfs", S.longest_avoiding_word, _dfs_counts)
    C.catalog_witness = tracer.wrap("catalog_witness", C.catalog_witness, _catalog_counts)
    C.classify = tracer.wrap("classify", C.classify, cell_counts)
    return tracer.wrap("cli", cli.main)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for child in sorted(children[i], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def stages(spans: list[dict]) -> list[str | None]:
    """The pipeline stage of each span directly under a classify span."""
    out = [None] * len(spans)
    own_catalog = {}  # classify span -> its last catalog_witness was for the cell's own n
    for i, span in enumerate(spans):
        parent = span["parent"]
        if parent is None or spans[parent]["name"] != "classify":
            continue
        if span["name"] == "catalog_witness":
            own_catalog[parent] = span["modulus"] == spans[parent]["modulus"]
            out[i] = "catalog" if own_catalog[parent] else "miner"
        elif span["name"] == "verify":
            out[i] = "catalog" if own_catalog.get(parent) else "miner"
        elif span["name"] == "search.mine":
            out[i] = "miner"
        elif span["name"] == "search.dfs":
            out[i] = "dfs"
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)

    def total(name, key=None):
        idx = by_name[name]
        if key is None:
            return sum(spans[i]["end"] - spans[i]["start"] for i in idx)
        return sum(spans[i][key] for i in idx)

    m = {}
    dfs_s, nodes = total("search.dfs"), total("search.dfs", "nodes")
    m["search.dfs.calls"] = len(by_name["search.dfs"])
    m["search.dfs.s"] = dfs_s
    m["search.dfs.nodes"] = nodes
    m["search.dfs.nodes_per_s"] = _ratio(nodes, dfs_s)
    m["search.dfs.exhausted_ratio"] = _ratio(total("search.dfs", "exhausted"), len(by_name["search.dfs"]))

    mine_idx = set(by_name["search.mine"])
    mine_s, cands = total("search.mine"), total("search.mine", "candidates")
    mine_verifies = sum(1 for i in by_name["verify"] if spans[i]["parent"] in mine_idx)
    m["search.mine.calls"] = len(mine_idx)
    m["search.mine.s"] = mine_s
    m["search.mine.self_s"] = sum(selfs[i] for i in mine_idx)
    m["search.mine.candidates"] = cands
    m["search.mine.candidates_per_s"] = _ratio(cands, mine_s)
    m["search.mine.verify_ratio"] = _ratio(mine_verifies, cands)
    m["search.mine.witness_ratio"] = _ratio(total("search.mine", "witnesses"), cands)

    verify_s, lengths = total("verify"), total("verify", "lengths")
    m["verify.calls"] = len(by_name["verify"])
    m["verify.s"] = verify_s
    m["verify.lengths"] = lengths
    m["verify.lengths_per_s"] = _ratio(lengths, verify_s)
    m["verify.refuted_ratio"] = _ratio(total("verify", "refuted"), len(by_name["verify"]))
    m["verify.load.calls"] = len(by_name["verify.load"])
    m["verify.load.s"] = total("verify.load")

    cells = by_name["classify"]
    m["classify.cells"] = len(cells)
    m["classify.s"] = total("classify")
    m["classify.self_s"] = sum(selfs[i] for i in cells)
    m["classify.unknown_s"] = sum(spans[i]["end"] - spans[i]["start"]
                                  for i in cells if spans[i]["verdict"] == "unknown")
    for prov in ("catalog", "miner", "search"):
        m[f"classify.decided.{prov}"] = sum(1 for i in cells if spans[i]["provenance"] == prov)
    for stop in ("cap", "nodes", "deadline"):
        m[f"classify.unknown.{stop}"] = sum(1 for i in cells if spans[i]["stop"] == stop)
    stage_of = stages(spans)
    for stage in ("catalog", "miner", "dfs"):
        m[f"classify.{stage}.s"] = sum(spans[i]["end"] - spans[i]["start"]
                                       for i in range(len(spans)) if stage_of[i] == stage)

    m["cli.s"] = total("cli")
    m["cli.self_s"] = sum(selfs[i] for i in by_name["cli"])
    return m
