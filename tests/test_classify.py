import importlib
import json
import os
import re
import shutil
from dataclasses import replace

import pytest

from blockzero.classify import (
    NONVANISHING,
    NONVANISHING_PROVED,
    UNKNOWN,
    VANISHING,
    VANISHING_PROVED,
    Classification,
    ContradictionError,
    _cache_path,
    _save_cached,
    catalog_witness,
    classify,
    expected_verdict,
    is_contradiction,
    render_table,
    reproduce_table,
)
from blockzero.families import sum_plus_c_prod
from blockzero.ring import ModulusContext, PreconditionError
from blockzero.search import CAP_REACHED, SearchOutcome
from blockzero.verify import AVOIDING, recheck_certificate, scan_word, verify_periodic
from blockzero.words import PeriodicWord


def test_catalog_witness_examples():
    assert catalog_witness(5, 2, 1) == PeriodicWord((4, 1), 5)
    assert catalog_witness(16, 1, 1) == PeriodicWord((3, 13), 16)
    assert catalog_witness(13, 1, 1) is None
    # (3, 21) is refuted mod 24, so the p*q^2 rule supplies the witness
    assert catalog_witness(24, 1, 1) == PeriodicWord((2, 22), 24)
    assert catalog_witness(48, 1, 1) == PeriodicWord((3, 45), 48)
    assert catalog_witness(56, 1, 1) == PeriodicWord((2, 54), 56)
    assert catalog_witness(18, 17, 1) == PeriodicWord((3, 15), 18)
    assert catalog_witness(18, 1, 1) == PeriodicWord((7, 4, 4), 18)
    assert catalog_witness(6, 1, 2) == PeriodicWord((1, 3, 5, 3), 6)
    assert catalog_witness(6, 1, 1) is None
    assert catalog_witness(7, 1, 1) == PeriodicWord((2, 3, 3, 3, 3), 7)
    assert catalog_witness(11, 1, 1) == PeriodicWord((5, 3, 3), 11)
    assert catalog_witness(19, 1, 1) == PeriodicWord((8, 10, 10, 10), 19)
    assert catalog_witness(9, 8, 1) is None  # prime power, c = -1: vanishing
    assert catalog_witness(4, 0, 1) is None


def test_catalog_witnesses_certify_avoiding():
    for n in range(2, 121):
        ctx = ModulusContext(n)
        for c in (1, -1, 2):
            for m in (1, 2):
                w = catalog_witness(n, c, m)
                if w is None:
                    continue
                cert = verify_periodic(w, sum_plus_c_prod(ctx, c % n), m)
                assert cert.verdict == AVOIDING, (n, c, m, w.period, cert.counter_window)


def test_catalog_offers_3_minus_3_exactly_when_it_avoids():
    # over 8 | n the rule must neither offer a refuted (3, -3) nor miss one
    for n in range(8, 121, 8):
        ctx = ModulusContext(n)
        cert = verify_periodic(PeriodicWord((3, n - 3), n), sum_plus_c_prod(ctx, 1), 1)
        offered = catalog_witness(n, 1, 1) == PeriodicWord((3, n - 3), n)
        assert offered == (cert.verdict == AVOIDING), n


def test_expected_verdict_spot_checks():
    assert expected_verdict(10, 0, 2) == VANISHING
    assert expected_verdict(8, 1, 3) == VANISHING
    assert expected_verdict(6, 1, 1) == VANISHING
    assert expected_verdict(6, 1, 2) == NONVANISHING
    assert expected_verdict(12, 1, 1) == NONVANISHING
    assert expected_verdict(27, 26, 1) == VANISHING
    assert expected_verdict(12, 11, 1) == NONVANISHING
    assert expected_verdict(15, 14, 1) is None  # square-free composite: open
    assert expected_verdict(6, 5, 2) == NONVANISHING
    assert expected_verdict(7, 3, 1) == NONVANISHING
    assert expected_verdict(5, -2, 1) == NONVANISHING  # c reduced mod n


def test_classify_catalog_and_miner_examples(tmp_path):
    cls = classify(12, 1, 1, cache_dir=str(tmp_path))
    assert cls.verdict == NONVANISHING_PROVED
    assert cls.provenance == "catalog"
    assert cls.witness == (2, 10)
    assert recheck_certificate(cls.certificate)

    cls = classify(24, 1, 1, cache_dir=str(tmp_path))
    assert cls.verdict == NONVANISHING_PROVED
    assert cls.provenance == "catalog"
    assert cls.witness == (2, 22)

    cls = classify(13, 1, 1, cache_dir=str(tmp_path))
    assert cls.verdict == NONVANISHING_PROVED
    assert cls.provenance == "miner"
    assert cls.witness == (2, 11)


def test_classify_lifts_divisor_catalogs(monkeypatch):
    # 7's catalog period lifts to Z_14 before the necklace miner runs
    def no_mining(*args, **kwargs):
        raise AssertionError("the miner ran")

    monkeypatch.setattr(importlib.import_module("blockzero.classify"), "mine_witness", no_mining)
    for m in (1, 2):
        cls = classify(14, 1, m)
        assert (cls.verdict, cls.provenance) == (NONVANISHING_PROVED, "miner")
        assert cls.witness == (2, 3, 3, 3, 3)
        assert recheck_certificate(cls.certificate)
    # the cell's own catalog entry comes first, though 9's (7, 4, 4) lifts too
    assert verify_periodic(PeriodicWord((7, 4, 4), 18), sum_plus_c_prod(ModulusContext(18), 1),
                           1).verdict == AVOIDING
    cls = classify(18, 1, 1)
    assert (cls.verdict, cls.provenance) == (NONVANISHING_PROVED, "catalog")
    assert cls.witness == catalog_witness(18, 1, 1).canonical()


def test_classify_search_examples():
    cls = classify(2, 0, 1)
    assert cls.verdict == VANISHING_PROVED
    assert cls.provenance == "search"
    assert cls.threshold == 4

    cls = classify(3, 1, 1)
    assert (cls.verdict, cls.threshold) == (VANISHING_PROVED, 6)

    cls = classify(4, 1, 1)
    assert (cls.verdict, cls.threshold) == (VANISHING_PROVED, 8)


def test_classify_m1_uses_the_suffix_set_graph():
    # F_{-1} mod 5 is decided on the graph of suffix-state sets, far inside
    # a 40,000-node budget
    cls = classify(5, 4, 1, max_nodes=40_000)
    assert (cls.verdict, cls.provenance, cls.threshold) == (VANISHING_PROVED, "search", 13)
    assert cls.nodes_expanded == cls.outcome.nodes_expanded == 1_240
    # with the miner held to constant periods, a cycle of the graph is the
    # witness, and it carries its certificate
    cls = classify(5, 1, 1, p_max=1)
    assert (cls.verdict, cls.provenance, cls.witness) == (NONVANISHING_PROVED, "search", (2, 3))
    assert cls.certificate.period == cls.witness and recheck_certificate(cls.certificate)
    assert cls.nodes_expanded == 20


def test_classify_decides_f0_without_a_witness_stage(monkeypatch):
    # F_0 has no witness, so no witness stage runs: at m = 1 no search
    # either, since the threshold 2n is a closed form (the set graph took
    # 2^n sets, 128 at n = 7), and at m = 2 only the tree DFS, which
    # reaches the cap after 25 nodes
    classify_mod = importlib.import_module("blockzero.classify")
    dfs = classify_mod.longest_avoiding_word

    def not_for_f0(*args, **kwargs):
        raise AssertionError("a stage other than the cell's search ran")

    for name in ("mine_witness", "suffix_set_search", "longest_avoiding_word",
                 "verify_periodic", "catalog_witness"):
        monkeypatch.setattr(classify_mod, name, not_for_f0)
    for n in range(2, 25):
        cls = classify(n, 0, 1)
        assert (cls.verdict, cls.provenance, cls.threshold) == (VANISHING_PROVED, "search", 2 * n)
        assert cls.nodes_expanded == cls.outcome.nodes_expanded == 0
    monkeypatch.setattr(classify_mod, "longest_avoiding_word", dfs)
    cls = classify(7, 0, 2)
    assert (cls.verdict, cls.outcome.stop, cls.nodes_expanded) == (UNKNOWN, "cap", 25)


def test_classify_m1_reports_the_set_search_budget_stop(monkeypatch):
    # F_{-1} mod 7 needs 692,823 sets; at 40,000 the set search's own stop
    # is the UNKNOWN's outcome, and no tree DFS runs after it
    classify_mod = importlib.import_module("blockzero.classify")

    def no_dfs(*args, **kwargs):
        raise AssertionError("classify ran the tree DFS at m = 1")

    monkeypatch.setattr(classify_mod, "longest_avoiding_word", no_dfs)
    cls = classify(7, 6, 1, max_nodes=40_000)
    assert cls.verdict == UNKNOWN and cls.provenance is None
    out = cls.outcome
    assert (out.status, out.threshold, out.stop, out.budget_exhausted) == (
        CAP_REACHED, None, "sets", True)
    assert cls.nodes_expanded == out.nodes_expanded == 40_000
    assert len(out.longest_word) == 21


def test_classify_unknown_under_tiny_budget():
    # F_1 mod 8 is vanishing but far beyond this node budget
    cls = classify(8, 1, 1, max_nodes=1000, cap=30)
    assert cls.verdict == UNKNOWN
    assert cls.outcome is not None and cls.outcome.budget_exhausted


def test_cached_unknown_does_not_block_a_larger_budget(tmp_path):
    # F_{-1} mod 6 needs 5,783 suffix-state sets, so 1,000 nodes leave it open
    small = classify(6, 5, 1, max_nodes=1000, cache_dir=str(tmp_path))
    assert small.verdict == UNKNOWN
    assert small.nodes_expanded == 1000
    full = classify(6, 5, 1, cache_dir=str(tmp_path))
    assert (full.verdict, full.threshold) == (VANISHING_PROVED, 20)
    assert full.nodes_expanded == 5_783
    # the proved verdict replaced the UNKNOWN and is served from now on
    assert classify(6, 5, 1, max_nodes=1000, cache_dir=str(tmp_path)) == full


def test_classify_c_reduces_mod_n(tmp_path):
    a = classify(12, 1, 1, cache_dir=str(tmp_path))
    b = classify(12, 13, 1, cache_dir=str(tmp_path))
    assert a == b


def test_classify_cache_idempotent(tmp_path):
    first = classify(13, 1, 1, cache_dir=str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 1
    again = classify(13, 1, 1, cache_dir=str(tmp_path))
    assert again == first
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_cache_rejects_contradictory_overwrite(tmp_path):
    cls = classify(12, 1, 1, cache_dir=str(tmp_path))
    path = next(tmp_path.iterdir())
    # a vanishing record of the same cell, with an exhausted outcome as its
    # proof: the cached witness must not be overwritten by it
    flipped = Classification(cls.n, cls.c, cls.m, "search",
                             outcome=SearchOutcome((0, 1, 0), 6, "exhausted"))
    assert (flipped.verdict, flipped.threshold) == (VANISHING_PROVED, 4)
    with pytest.raises(ContradictionError):
        _save_cached(str(path), sum_plus_c_prod(ModulusContext(12), 1), flipped)


def test_false_cached_proof_does_not_block_the_fresh_witness(tmp_path):
    # a well-formed vanishing record of (12, 1, 1) whose longest word
    # (0, 0, 0) has a vanishing block: _load_cached refuses it, and the
    # contradiction guard must not count it either, so the witness replaces it
    path = _cell_path(tmp_path, 12, 1, 1)
    false = Classification(12, 1, 1, "search", outcome=SearchOutcome((0, 0, 0), 6, "exhausted"))
    fam = sum_plus_c_prod(ModulusContext(12), 1)
    assert scan_word((0, 0, 0), fam, 1)
    _save_cached(path, fam, false)
    for _ in range(2):
        cls = classify(12, 1, 1, cache_dir=str(tmp_path))
        assert cls.verdict == NONVANISHING_PROVED and cls.witness is not None
        with open(path) as fh:
            assert Classification.from_dict(json.load(fh)).witness == cls.witness


def test_corrupt_cache_is_recomputed(tmp_path):
    cls = classify(13, 1, 1, cache_dir=str(tmp_path))
    path = next(tmp_path.iterdir())
    d = json.loads(path.read_text())
    d["certificate"]["verdict"] = "refuted"
    d["certificate"]["counter_window"] = [0, 2]
    path.write_text(json.dumps(d))
    again = classify(13, 1, 1, cache_dir=str(tmp_path))
    assert again.witness == cls.witness
    assert recheck_certificate(again.certificate)
    # a record's verdict, threshold and witness are read off its proof: a
    # copy of one that disagrees with the proof makes the record malformed
    nonvan = again.to_dict()
    van = classify(4, 1, 1, cache_dir=str(tmp_path)).to_dict()
    for cell, d in [
        ((13, 1, 1), {**nonvan, "verdict": VANISHING_PROVED}),
        ((13, 1, 1), {**nonvan, "verdict": UNKNOWN}),
        ((13, 1, 1), {**nonvan, "threshold": 4}),
        ((13, 1, 1), {**nonvan, "witness": [1, 2]}),
        ((13, 1, 1), {**nonvan, "witness": None}),
        ((4, 1, 1), {**van, "verdict": NONVANISHING_PROVED}),
        ((4, 1, 1), {**van, "verdict": UNKNOWN}),
        ((4, 1, 1), {**van, "threshold": 9}),
        ((4, 1, 1), {**van, "threshold": None}),
        ((4, 1, 1), {**van, "witness": [1, 3]}),
    ]:
        path = _cell_path(tmp_path, *cell)
        with open(path, "w") as fh:
            json.dump({**d, "elapsed_ms": 987_654}, fh)
        got = classify(*cell, cache_dir=str(tmp_path))
        assert got.elapsed_ms != 987_654, (cell, d)
        fresh = {**(nonvan if cell == (13, 1, 1) else van), "elapsed_ms": 0}
        assert {**got.to_dict(), "elapsed_ms": 0} == fresh
        with open(path) as fh:
            assert {**json.load(fh), "elapsed_ms": 0} == fresh  # the file was replaced


def _cell_path(cache_dir, n, c, m):
    return _cache_path(str(cache_dir), n, sum_plus_c_prod(ModulusContext(n), c), m)


def test_unreadable_or_malformed_cache_file_is_a_miss(tmp_path):
    nonvan = {**classify(5, 1, 1).to_dict(), "elapsed_ms": 0}
    van = {**classify(3, 1, 1).to_dict(), "elapsed_ms": 0}
    # truncated, missing fields, and a key Classification does not have
    cases = [((5, 1, 1), nonvan, text) for text in (
        '{"n": 5', '{"n": 5, "c": 1, "m": 1}', json.dumps({**nonvan, "stop": None}))]
    # proofs that cannot be re-derived: no period, a symbol that is no
    # residue, and a longest word with one
    for period in ([], ["a"]):
        cert = {**nonvan["certificate"], "period": period}
        cases.append(((5, 1, 1), nonvan, json.dumps({**nonvan, "witness": period, "certificate": cert})))
    for symbol in ("a", None):
        word = [symbol] + van["outcome"]["longest_word"][1:]
        cases.append(((3, 1, 1), van, json.dumps({**van, "outcome": {**van["outcome"], "longest_word": word}})))
    for cell, fresh, text in cases:
        path = _cell_path(tmp_path, *cell)
        with open(path, "w") as fh:
            fh.write(text)
        got = classify(*cell, cache_dir=str(tmp_path))
        assert {**got.to_dict(), "elapsed_ms": 0} == fresh
        with open(path) as fh:
            assert {**json.load(fh), "elapsed_ms": 0} == fresh  # the file was replaced


def test_cache_file_of_another_cell_is_not_served(tmp_path):
    # a proved file copied to the path of another cell proves nothing there
    for src, dst in [((5, 0, 1), (5, 1, 1)), ((12, 1, 1), (12, 11, 2))]:
        d = tmp_path / f"{src}_{dst}"
        d.mkdir()
        classify(*src, cache_dir=str(d))
        shutil.copy(_cell_path(d, *src), _cell_path(d, *dst))
        got = classify(*dst, cache_dir=str(d))
        assert {**got.to_dict(), "elapsed_ms": 0} == {**classify(*dst).to_dict(), "elapsed_ms": 0}
        assert got.verdict == NONVANISHING_PROVED and (got.n, got.c, got.m) == dst


def test_cache_entry_must_match_its_cell_and_proof(tmp_path):
    # entries edited to claim the requested cell are recomputed unless the
    # proof inside fits: certificate cell and witness, exhausted outcome
    nonvan = classify(12, 1, 1, cache_dir=str(tmp_path)).to_dict()
    van = classify(4, 1, 1, cache_dir=str(tmp_path)).to_dict()
    assert van["verdict"] == VANISHING_PROVED and van["threshold"] == 8
    edits = [
        ((12, 11, 1), {**nonvan, "c": 11}),  # certificate of c = 1
        ((12, 1, 2), {**nonvan, "m": 2}),  # certificate of m = 1
        ((12, 1, 1), {**nonvan, "witness": [1, 11]}),  # witness not the period
        ((4, 1, 1), {**van, "threshold": 9}),
        ((4, 1, 1), {**van, "outcome": {**van["outcome"], "threshold": 9}}),
        ((4, 1, 1), {**van, "outcome": {**van["outcome"], "status": CAP_REACHED}}),
        ((4, 1, 1), {**van, "outcome": None}),
        ((4, 1, 1), {**van, "outcome": {k: v for k, v in van["outcome"].items() if k != "stop"}}),
    ]
    for cell, d in edits:
        path = _cell_path(tmp_path, *cell)
        d = {**d, "elapsed_ms": 987_654}
        with open(path, "w") as fh:
            json.dump(d, fh)
        got = classify(*cell, cache_dir=str(tmp_path))
        assert got.elapsed_ms != 987_654, (cell, d)
        assert (got.n, got.c, got.m) == cell
    # an intact entry is served as it is
    path = _cell_path(tmp_path, 4, 1, 1)
    with open(path, "w") as fh:
        json.dump({**van, "elapsed_ms": 987_654}, fh)
    assert classify(4, 1, 1, cache_dir=str(tmp_path)).elapsed_ms == 987_654


def test_cached_longest_word_must_avoid_over_z_n(tmp_path):
    # a cached vanishing verdict whose longest word has a vanishing window,
    # or a symbol outside Z_n, is recomputed, though its threshold still
    # fits the word's length
    fresh = classify(3, 1, 1, cache_dir=str(tmp_path)).to_dict()
    word = fresh["outcome"]["longest_word"]
    assert word == [0, 1, 0, 1, 0]
    ctx = ModulusContext(3)
    fam = sum_plus_c_prod(ctx, 1)
    assert scan_word((2, *word[1:]), fam, 1)  # (2, 1, 0) sums to 0
    path = _cell_path(tmp_path, 3, 1, 1)
    for bad in ([2] + word[1:], [3] + word[1:]):
        with open(path, "w") as fh:
            json.dump({**fresh, "outcome": {**fresh["outcome"], "longest_word": bad},
                       "elapsed_ms": 987_654}, fh)
        got = classify(3, 1, 1, cache_dir=str(tmp_path))
        assert got.elapsed_ms != 987_654 and got.outcome.longest_word == tuple(word), bad


def test_classify_preconditions():
    with pytest.raises(PreconditionError):
        classify(1, 0, 1)
    with pytest.raises(PreconditionError):
        classify(5, 1, 0)
    # the cap is checked for every cell, not only where the tree DFS runs:
    # F_0 at m = 1 is a closed form, and F_1 mod 5 has a mined witness
    for c in (0, 1):
        with pytest.raises(PreconditionError):
            classify(5, c, 1, cap=1)


def test_reproduce_table_refuses_an_empty_grid(tmp_path):
    # no cell to classify is a usage error, not an empty report; each
    # message names its own argument, and nothing is cached
    for n_max in (1, 0):
        with pytest.raises(PreconditionError, match="n_max must be >= 2"):
            reproduce_table(n_max, cache_dir=str(tmp_path))
    with pytest.raises(PreconditionError, match="m_set must hold"):
        reproduce_table(3, m_set=(), cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_classify_checks_p_max_for_every_cell(tmp_path):
    # whichever stage decides the cell: (6, 1, 2) has a catalog witness,
    # (5, 0, 1) a closed form, and (4, 1, 1) mines before it searches; the
    # message names p_max, not the miner's limit
    for n, c, m in ((6, 1, 2), (5, 0, 1), (4, 1, 1)):
        for p_max in (0, -1):
            with pytest.raises(PreconditionError, match="p_max >= 1") as err:
                classify(n, c, m, p_max=p_max)
            assert "limit" not in str(err.value)
    # a cached verdict is no way around it
    assert classify(4, 1, 1, cache_dir=str(tmp_path)).verdict == VANISHING_PROVED
    with pytest.raises(PreconditionError, match="p_max >= 1"):
        classify(4, 1, 1, p_max=0, cache_dir=str(tmp_path))


def test_classify_creates_its_cache_dir(tmp_path):
    cache = tmp_path / "new" / "cache"
    cls = classify(5, 1, 1, cache_dir=str(cache))
    assert [p.name for p in cache.iterdir()] == [os.path.basename(_cell_path(cache, 5, 1, 1))]
    assert classify(5, 1, 1, cache_dir=str(cache)) == cls  # and serves it


def test_repeated_m_values_are_one_cell_each(tmp_path):
    report = reproduce_table(3, m_set=(1, 1), cache_dir=str(tmp_path))
    cells = [(cls.n, cls.c, cls.m) for cls in report]
    assert cells == [(2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 1), (3, 2, 1)]
    # the footer counts each cell once too
    lines = render_table(reproduce_table(3, m_set=(2, 1, 2))).splitlines()
    assert len(lines) == 2 + 10 + 2  # header, the 5 (n, c) pairs at m = 2 and 1, footer
    assert sum(int(k) for k in re.findall(r"(\d+) cells", lines[-2])) == 10


def test_reproduce_small_table(tmp_path):
    cells = reproduce_table(
        6, m_set=(1,), budget_ms=20_000, cap=24, p_max=4,
        max_nodes=300_000, cache_dir=str(tmp_path),
    )
    assert not any(map(is_contradiction, cells))
    by_cell = {(cls.n, cls.c, cls.m): cls for cls in cells}
    # n=2: c kinds 0, 1, -1 collapse to {0, 1}
    assert set(by_cell) == {
        (2, 0, 1), (2, 1, 1),
        (3, 0, 1), (3, 1, 1), (3, 2, 1),
        (4, 0, 1), (4, 1, 1), (4, 3, 1),
        (5, 0, 1), (5, 1, 1), (5, 4, 1),
        (6, 0, 1), (6, 1, 1), (6, 5, 1),
    }
    assert by_cell[(2, 0, 1)].verdict == VANISHING_PROVED
    assert by_cell[(4, 1, 1)].threshold == 8
    assert by_cell[(5, 1, 1)].verdict == NONVANISHING_PROVED
    assert by_cell[(6, 1, 1)].threshold == 18
    # square-free composite F_{-1}: known to be open at m=1, and this cell
    # happens to be provably vanishing at threshold 20 within budget
    assert expected_verdict(6, 5, 1) is None
    assert by_cell[(6, 5, 1)].threshold == 20
    text = render_table(cells)
    assert "0 contradiction(s)" in text
    assert "threshold 8" in text


def test_parallel_report_serves_cached_cells(tmp_path):
    kw = dict(m_set=(1, 2), max_nodes=20_000, cache_dir=str(tmp_path))
    first = reproduce_table(4, **kw)
    proved = {(cls.n, cls.c, cls.m) for cls in first if cls.verdict != UNKNOWN}
    assert proved and len(proved) < len(first)
    # mark every cached entry: a recomputed cell would not carry the mark
    for path in tmp_path.glob("cls_*.json"):
        d = json.loads(path.read_text())
        d["elapsed_ms"] = 987_654
        path.write_text(json.dumps(d))
    again = reproduce_table(4, jobs=2, **kw)
    for cls in again:
        if (cls.n, cls.c, cls.m) in proved:
            assert cls.elapsed_ms == 987_654, (cls.n, cls.c, cls.m)
        else:
            assert cls.verdict == UNKNOWN and cls.elapsed_ms != 987_654
    assert [cls.verdict for cls in again] == [cls.verdict for cls in first]


def test_serial_and_pooled_grids_agree(tmp_path, monkeypatch):
    # a forced contradiction at (2, 0, 1): both runs flag it and both
    # leave its cell in the cache, as every other cell
    mod = importlib.import_module("blockzero.classify")
    known = mod.expected_verdict
    monkeypatch.setattr(
        mod, "expected_verdict",
        lambda n, c, m: NONVANISHING if (n, c, m) == (2, 0, 1) else known(n, c, m),
    )

    def run(jobs):
        cache = tmp_path / f"jobs{jobs}"
        cache.mkdir()
        cells = mod.reproduce_table(
            3, m_set=(1, 2), max_nodes=20_000, cache_dir=str(cache), jobs=jobs
        )
        stripped = [replace(cls, elapsed_ms=0) for cls in cells]
        return stripped, [cls for cls in stripped if mod.is_contradiction(cls)], sorted(
            p.name for p in cache.iterdir()
        )

    serial, pooled = run(1), run(2)
    assert serial == pooled
    cells, contradictions, files = serial
    assert [(cls.n, cls.c, cls.m) for cls in contradictions] == [(2, 0, 1)]
    fam = sum_plus_c_prod(ModulusContext(2), 0)
    assert _cache_path("", 2, fam, 1) in files  # the contradicting cell, cached
    assert len([f for f in files if f.startswith("cls_")]) == len(cells)


def test_reproduce_table_flags_contradictions(tmp_path, monkeypatch):
    import importlib

    mod = importlib.import_module("blockzero.classify")
    # the grid's cells are (2, 0, 1) and (2, 1, 1); only c = 0 contradicts
    monkeypatch.setattr(mod, "expected_verdict",
                        lambda n, c, m: NONVANISHING if c == 0 else None)
    cells = mod.reproduce_table(2, m_set=(1,), cache_dir=str(tmp_path))
    assert [mod.is_contradiction(cls) for cls in cells] == [True, False]
    lines = mod.render_table(cells).splitlines()
    assert "CONTRADICTS" in lines[2] and "CONTRADICTS" not in lines[3]
    assert lines[-1] == "1 contradiction(s)"
    # the library writes only its cache; the CLI dumps the contradiction
    assert all(p.name.startswith("cls_") for p in tmp_path.iterdir())


def _f1_mod_7_witness(m):
    """The cataloged avoiding period of F_1 mod 7, certified at m."""
    fam = sum_plus_c_prod(ModulusContext(7), 1)
    return verify_periodic(PeriodicWord((2, 3, 3, 3, 3), 7), fam, m)


def test_render_table_says_what_stopped_each_unknown_cell():
    def cell(m=2, outcome=None, certificate=None, c=1):
        return Classification(7, c, m, None, certificate, outcome)

    lines = render_table((
        cell(certificate=_f1_mod_7_witness(2)),
        cell(c=0, outcome=SearchOutcome((0,) * 13, 500, "exhausted")),  # F_0 vanishes
        cell(outcome=SearchOutcome((0,) * 24, 25, "cap")),
        cell(outcome=SearchOutcome((0,) * 13, 1000, "nodes")),
        # the set search's budget counts suffix-state sets
        cell(m=1, outcome=SearchOutcome((0,) * 9, 40000, "sets")),
        cell(outcome=SearchOutcome((0,) * 5, 2048, "deadline")),
    )).splitlines()
    assert lines[2].endswith("witness 2,3,3,3,3")
    assert lines[3].endswith("threshold 14")
    assert lines[4].endswith("cap reached at length 24")
    assert lines[5].endswith("node budget after 1000 nodes")
    assert lines[6].endswith("set budget after 40000 sets")
    assert lines[7].endswith("time budget after 2048 nodes or sets")


def test_render_table_sums_the_time_of_each_outcome():
    witness = _f1_mod_7_witness(1)

    def cell(elapsed_ms, stop=None, c=1):
        out = SearchOutcome((0,) * 13, 10, stop) if stop else None
        return Classification(7, c, 1, None, None if out else witness, out, 10, elapsed_ms)

    lines = render_table((
        cell(1500, "sets"),
        cell(3),
        cell(40, "exhausted", c=0),  # F_0 vanishes: no contradiction
        cell(7, "cap"),
        cell(1),
        cell(9, "cap"),
        cell(2000, "sets"),
    )).splitlines()
    # in a fixed order, and an outcome with no cells ("nodes", "deadline")
    # is left out
    assert lines[-2] == (
        "time by outcome: witness 2 cells 4 ms, exhausted 1 cells 40 ms, "
        "cap 2 cells 16 ms, sets 2 cells 3500 ms"
    )
    assert lines[-1] == "0 contradiction(s)"


def test_classification_is_read_off_its_proof():
    witness = _f1_mod_7_witness(1)
    exhausted = SearchOutcome((0, 1, 0), 6, "exhausted")
    cls = Classification(7, 1, 1, "catalog", witness)
    assert (cls.verdict, cls.threshold, cls.witness) == (
        NONVANISHING_PROVED, None, (2, 3, 3, 3, 3))
    cls = Classification(7, 0, 1, "search", outcome=exhausted)
    assert (cls.verdict, cls.threshold, cls.witness) == (VANISHING_PROVED, 4, None)
    for stop in ("cap", "nodes", "sets", "deadline"):
        cls = Classification(7, 6, 1, None, outcome=replace(exhausted, stop=stop))
        assert (cls.verdict, cls.threshold, cls.witness) == (UNKNOWN, None, None)
    # both proofs, neither, or a refuted certificate
    refuted = verify_periodic(PeriodicWord((1,), 7), sum_plus_c_prod(ModulusContext(7), 1), 1)
    assert refuted.verdict != AVOIDING
    for cert, out in [(witness, exhausted), (None, None), (refuted, None)]:
        with pytest.raises(ValueError):
            Classification(7, 1, 1, "catalog", cert, out)


def test_classification_round_trip():
    cells = [
        classify(12, 1, 1),
        classify(2, 0, 1),
        classify(5, 1, 1, p_max=1),  # a set-search cycle
        classify(7, 6, 1, max_nodes=40_000),  # the set-search budget stop
        classify(7, 6, 2),  # the m = 2 cap stop
    ]
    assert (cells[2].provenance, cells[2].outcome, cells[2].nodes_expanded) == ("search", None, 20)
    assert cells[3].verdict == cells[4].verdict == UNKNOWN
    assert cells[3].outcome.budget_exhausted and not cells[4].outcome.budget_exhausted
    for cls in cells:
        record = json.dumps(cls.to_dict(), sort_keys=True)
        again = Classification.from_dict(json.loads(record))
        assert again == cls
        assert json.dumps(again.to_dict(), sort_keys=True) == record

