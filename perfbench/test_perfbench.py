"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import contextlib
import importlib
import io
import json
import random

import pytest

import gate
import spans
import workloads

MODULES = ("blockzero.cli", "blockzero.classify", "blockzero.search", "blockzero.verify")


@pytest.fixture
def blockzero():
    """The blockzero modules, with any tracer wrappers removed afterwards."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    saved = {name: dict(vars(mod)) for name, mod in mods.items()}
    yield mods
    for name, mod in mods.items():
        vars(mod).update(saved[name])


def certificate(blockzero, n, c, m, period) -> dict:
    from blockzero.families import sum_plus_c_prod
    from blockzero.ring import ModulusContext
    from blockzero.words import PeriodicWord
    V = blockzero["blockzero.verify"]
    return V.verify_periodic(PeriodicWord(period, n), sum_plus_c_prod(ModulusContext(n), c), m).to_dict()


def test_naive_fold_agrees_with_verify_periodic(blockzero):
    rng = random.Random(7)
    for _ in range(150):
        n, m = rng.randrange(2, 14), rng.randrange(1, 3)
        c = rng.randrange(n)
        period = tuple(rng.randrange(n) for _ in range(rng.randrange(1, 4)))
        cert = certificate(blockzero, n, c, m, period)
        assert gate.check_certificate(cert, n, c, m) == [], (n, c, m, period)


def test_gate_reads_24_3_21_as_refuted(blockzero):
    assert gate.first_vanishing_window(24, 1, 1, (3, 21)) == (0, 3)
    cert = certificate(blockzero, 24, 1, 1, (3, 21))
    assert cert["verdict"] == gate.REFUTED
    assert gate.check_certificate(cert, 24, 1, 1) == []


def test_gate_flags_tampered_certificates(blockzero):
    refuted = certificate(blockzero, 24, 1, 1, (3, 21))
    claims_avoiding = dict(refuted, verdict=gate.AVOIDING)
    del claims_avoiding["counter_window"]
    assert gate.check_certificate(claims_avoiding, 24, 1, 1)

    avoiding = certificate(blockzero, 12, 1, 1, (2, 10))
    assert gate.check_certificate(avoiding, 12, 1, 1) == []
    assert gate.check_certificate(dict(avoiding, period=[3, 9]), 12, 1, 1)
    assert gate.check_certificate(avoiding, 12, 1, 2)  # a certificate for another cell
    assert gate.check_certificate(dict(refuted, counter_window=[1, 3]), 24, 1, 1)


def cell(n, c, m, verdict, threshold=None, certificate=None, outcome=None):
    return {"n": n, "c": c, "m": m, "verdict": verdict, "threshold": threshold,
            "certificate": certificate, "outcome": outcome,
            "witness": certificate["period"] if certificate else None}


def test_gate_flags_planted_wrong_verdicts(blockzero):
    seed = {"7,0,1": ["vanishing_proved", 14]}
    good = cell(7, 0, 1, gate.VANISHING_PROVED, 14)
    assert gate.check_cell(good, 155_000, seed) == []
    # different threshold from the seed commit
    assert gate.check_cell(cell(7, 0, 1, gate.VANISHING_PROVED, 15), 155_000, seed)
    # a cell the seed decided comes back UNKNOWN
    unknown = cell(7, 0, 1, gate.UNKNOWN, outcome={"budget_exhausted": False})
    assert gate.check_cell(unknown, 155_000, seed)
    # contradicts the known classification: F_1 over Z_8 is vanishing
    assert gate.check_cell(cell(8, 1, 1, gate.VANISHING_PROVED, 26), 155_000, {}) == []
    fake = cell(8, 1, 1, gate.NONVANISHING_PROVED,
                certificate=certificate(blockzero, 8, 1, 1, (3, 5)))
    assert gate.check_cell(fake, 155_000, {})
    # a missing cell
    problems = gate.check_grid([good], [(7, 0, 1), (7, 1, 1)], 155_000, seed)
    assert problems == [[], ["cell (7, 1, 1): missing"]]


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 5.0, "parent": 0},  # overlaps b
        {"name": "d", "start": 8.0, "end": 12.0, "parent": 0},  # runs past a
        {"name": "e", "start": 1.5, "end": 2.5, "parent": 1},  # grandchild of a
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_parents_and_stages(blockzero, tmp_path):
    tracer = spans.Tracer()
    cli_main = spans.install(tracer, max_nodes=155_000)
    cfg = dict(workloads.CONFIG["grid_m2"], n_max=7)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(workloads.grid_argv(cfg, str(tmp_path / "c"), str(tmp_path / "r.json"))) == 0
    m = spans.layer_metrics(tracer.spans)
    assert m["classify.cells"] == len(workloads.grid_cells(cfg)) == 17
    assert m["search.dfs.nodes"] == sum(
        c["classification"]["nodes_expanded"]
        for c in json.loads((tmp_path / "r.json").read_text())["cells"])
    assert (m["classify.decided.catalog"], m["classify.decided.miner"],
            m["classify.decided.search"]) == (3, 1, 2)
    assert m["classify.unknown.cap"] == 11 and m["classify.unknown.deadline"] == 0
    assert m["classify.catalog.s"] > 0 and m["classify.miner.s"] > 0
    assert 0 < m["classify.dfs.s"] <= m["classify.s"] <= m["cli.s"]
    assert m["cli.self_s"] < m["cli.s"]


def test_deadline_guard_trips_when_budget_is_tiny(blockzero, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BUDGET_MS", 1)
    tracer = spans.Tracer()
    cli_main = spans.install(tracer, max_nodes=155_000)
    cfg = dict(workloads.CONFIG["grid_m1"], n_max=5)
    report = tmp_path / "r.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(workloads.grid_argv(cfg, str(tmp_path / "c"), str(report)))
    cells = [c["classification"] for c in json.loads(report.read_text())["cells"]]
    problems = sum(gate.check_grid(cells, workloads.grid_cells(cfg), 155_000, {}), [])
    assert any("deadline" in p for p in problems)
    assert spans.layer_metrics(tracer.spans)["classify.unknown.deadline"] > 0
