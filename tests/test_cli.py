import json
import os
import subprocess
import sys

import pytest

from blockzero.cli import (
    EXIT_BUDGET,
    EXIT_CONTRADICTION,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    main,
)
from blockzero.classify import VANISHING
from blockzero.verify import load_certificate


@pytest.fixture
def cache(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("BLOCKZERO_CACHE_DIR", str(d))
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_examples(capsys, cache):
    code, out, _ = run(capsys, "eval", "--n", "3", "--family", "sum_plus_c_prod:1",
                       "--block", "1,1")
    assert (code, out.strip()) == (EXIT_OK, "0")
    code, out, _ = run(capsys, "eval", "--n", "7", "--family", "elementary_symmetric:2",
                       "--block", "1,2,3")
    assert (code, out.strip()) == (EXIT_OK, "4")
    code, out, _ = run(capsys, "eval", "--n", "3", "--family", "power_sums:2",
                       "--block", "1,2")
    assert (code, out.strip()) == (EXIT_OK, "0,2")


def test_word_literals_may_start_with_a_minus(capsys, cache, tmp_path):
    # -3,1 is 2,1 mod 5: 2 + 1 + 2*1 = 0; the spaced form and the = form agree
    for argv in (["--block", "-3,1"], ["--block=-3,1"]):
        code, out, _ = run(capsys, "eval", "--n", "5", "--family", "sum_plus_c_prod:1", *argv)
        assert (code, out.strip()) == (EXIT_OK, "0")
    # -10,10 is the witness 2,10 mod 12
    for argv in (["--period", "-10,10"], ["--period=-10,10"]):
        code, out, _ = run(capsys, "verify", "--n", "12", "--family", "sum_plus_c_prod:1",
                           *argv, "--out", str(tmp_path / "cert.json"))
        assert (code, "verdict: avoiding" in out) == (EXIT_OK, True)
        assert load_certificate(tmp_path / "cert.json").period == (2, 10)
    code, out, _ = run(capsys, "verify", "--n", "5", "--family", "sum_plus_c_prod:2",
                       "--period", "-1,2")
    assert code == EXIT_REFUTED and "counter_window: s=0 l=3" in out


def test_verify_avoiding_writes_certificate(capsys, cache, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", "--n", "12", "--family", "sum_plus_c_prod:1",
                       "--period", "2,10", "--out", str(cert_path))
    assert code == EXIT_OK
    assert "verdict: avoiding" in out
    cert = load_certificate(cert_path, recheck=True)
    assert cert.period == (2, 10)
    assert (cache / "runs.jsonl").exists()


def test_verify_refuted_exit_code(capsys, cache):
    code, out, _ = run(capsys, "verify", "--n", "6", "--family", "sum_plus_c_prod:1",
                       "--m", "1", "--period", "1,3,5,3")
    assert code == EXIT_REFUTED
    assert "verdict: refuted" in out
    assert "counter_window: s=0 l=3" in out


def test_search_exhausted(capsys, cache):
    code, out, _ = run(capsys, "search", "--n", "2", "--family", "sum_plus_c_prod:0")
    assert code == EXIT_OK
    assert "status: exhausted" in out
    assert "stop: exhausted" in out
    assert "threshold: 4" in out
    assert "longest_word: 0,1,0" in out


def test_search_budget_exit(capsys, cache):
    code, out, _ = run(capsys, "search", "--n", "3", "--family", "sum_plus_c_prod:1",
                       "--m", "2", "--cap", "64", "--max-nodes", "50")
    assert code == EXIT_BUDGET
    assert "status: cap_reached" in out
    assert "stop: nodes" in out


def test_zero_budget_ms_is_a_deadline(capsys, cache):
    # --budget-ms 0 is a deadline that has passed, not "no deadline"
    code, out, _ = run(capsys, "search", "--n", "2", "--family", "sum_plus_c_prod:0",
                       "--budget-ms", "0")
    assert code == EXIT_BUDGET
    assert "stop: deadline" in out
    code, out, _ = run(capsys, "mine", "--n", "5", "--family", "sum_plus_c_prod:1",
                       "--budget-ms", "0")
    assert code == EXIT_BUDGET
    assert "enumeration_complete: False" in out


def test_search_cap_stop_exits_budget(capsys, cache):
    # F_{-1} mod 7 reaches the cap with no node budget set: partial output
    code, out, _ = run(capsys, "search", "--n", "7", "--family", "sum_plus_c_prod:6",
                       "--cap", "24")
    assert code == EXIT_BUDGET
    assert "status: cap_reached" in out
    assert "stop: cap" in out
    assert "threshold" not in out


def test_mine(capsys, cache):
    code, out, _ = run(capsys, "mine", "--n", "12", "--family", "sum_plus_c_prod:1",
                       "--pmax", "2")
    assert code == EXIT_OK
    assert "witness: 2,10" in out
    assert "candidates_checked: 90" in out
    # F_1 has no scaling units, and every period of length <= 2 is its own
    # mirror; the 57 necklaces that k whole periods refute skip verify_periodic
    assert "verified: 33" in out
    assert "enumeration_complete: True" in out


def test_xyr(capsys, cache):
    code, out, _ = run(capsys, "xyr", "--p", "19")
    assert code == EXIT_OK
    assert "x=8 y=10 r=3" in out


def test_classify(capsys, cache):
    code, out, _ = run(capsys, "classify", "--n", "6", "--c", "1", "--m", "2")
    assert code == EXIT_OK
    assert "verdict: nonvanishing_proved" in out
    assert "witness: 1,3,5,3" in out
    assert "stop:" not in out  # only an UNKNOWN names its stop


def test_run_record_logs_the_arguments_main_was_given(capsys, tmp_path):
    argv = ["--n", "5", "--c", "1", "--m", "1", "--cache-dir", str(tmp_path)]
    code, _, _ = run(capsys, "classify", *argv)
    assert code == EXIT_OK
    (line,) = (tmp_path / "runs.jsonl").read_text().splitlines()
    rec = json.loads(line)
    assert (rec["command"], rec["arguments"]) == ("classify", argv)
    assert rec["started"] <= rec["ended"]


def test_classify_unknown_exits_budget(capsys, cache):
    code, out, _ = run(capsys, "classify", "--n", "6", "--c", "5", "--m", "1",
                       "--max-nodes", "1000")
    assert code == EXIT_BUDGET
    assert "verdict: unknown" in out
    assert "stop: sets" in out  # the m = 1 set search's budget


def test_classify_contradiction_exit(capsys, cache, monkeypatch):
    import importlib

    mod = importlib.import_module("blockzero.cli")
    monkeypatch.setattr(mod, "expected_verdict", lambda n, c, m: VANISHING)
    code, out, err = run(capsys, "classify", "--n", "6", "--c", "1", "--m", "2")
    assert code == EXIT_CONTRADICTION
    assert "verdict: nonvanishing_proved" in out
    assert "contradiction:" in err


def test_usage_errors(capsys, cache):
    code, _, err = run(capsys, "eval", "--n", "5", "--family", "nosuch:1",
                       "--block", "1,2")
    assert code == EXIT_USAGE
    assert "error: unknown family 'nosuch:1'" in err
    code, _, err = run(capsys, "eval", "--n", "5", "--family", "sum_plus_c_prod",
                       "--block", "1,2")
    assert code == EXIT_USAGE
    assert "error: sum_plus_c_prod needs :c" in err
    code, _, err = run(capsys, "eval", "--n", "5", "--family", "power_sums:x",
                       "--block", "1,2")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", "--n", "5", "--family", "sum_plus_c_prod:1",
                       "--period", "1,x")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "eval", "--n", "1", "--family", "sum_plus_c_prod:0",
                       "--block", "0,0")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "eval", "--n", "5", "--family", "sum_plus_c_prod:1",
                       "--block", "3")
    assert code == EXIT_USAGE
    # m below 1 is refused on entry, for F_0 too, whose every necklace is
    # refuted before verify_periodic would check m
    for family in ("sum_plus_c_prod:0", "sum_plus_c_prod:1"):
        code, out, err = run(capsys, "mine", "--n", "5", "--family", family, "--m", "0")
        assert code == EXIT_USAGE and "enumeration_complete" not in out and "m must be" in err
    for limit in ("0", "-3"):
        code, out, err = run(capsys, "mine", "--n", "12", "--family", "sum_plus_c_prod:1",
                             "--limit", limit)
        assert code == EXIT_USAGE and "witness" not in out and "limit" in err, limit
    # p_max below 1 is refused for every cell, not only where the miner runs
    for command in (("classify", "--n", "6", "--c", "1", "--m", "2"),
                    ("classify", "--n", "5", "--c", "0"),
                    ("report", "--n-max", "3", "--m-set", "1")):
        code, out, err = run(capsys, *command, "--pmax", "0")
        assert code == EXIT_USAGE and out == "" and "p_max >= 1" in err, command
    for jobs in ("0", "-3"):  # not a serial run
        code, out, err = run(capsys, "report", "--n-max", "3", "--m-set", "1", "--jobs", jobs)
        assert code == EXIT_USAGE and out == "" and "jobs must be >= 1" in err, jobs
    # malformed tables: a number, a list of numbers, a string and a float entry
    for tables in ("3", "[3]", '[[0,1,"a"]]', "[[0,1,2.5]]"):
        code, _, err = run(capsys, "eval", "--n", "3", "--family",
                           "transformation_sums:" + tables, "--block", "1,2")
        assert code == EXIT_USAGE and "error: malformed family descriptor" in err, tables


def test_transformation_sums_inline_and_file(capsys, cache, tmp_path):
    tables = [[0, 1, 2], [1, 2, 0]]
    code, out, _ = run(capsys, "eval", "--n", "3",
                       "--family", "transformation_sums:" + json.dumps(tables),
                       "--block", "1,2")
    assert (code, out.strip()) == (EXIT_OK, "0,2")
    f = tmp_path / "tables.json"
    f.write_text(json.dumps(tables))
    code, out, _ = run(capsys, "eval", "--n", "3",
                       "--family", f"transformation_sums:@{f}", "--block", "1,2")
    assert (code, out.strip()) == (EXIT_OK, "0,2")


def test_report_contradiction_exit(capsys, cache, monkeypatch):
    import importlib

    mod = importlib.import_module("blockzero.classify")
    monkeypatch.setattr(mod, "expected_verdict", lambda n, c, m: mod.NONVANISHING)
    code, out, _ = run(capsys, "report", "--n-max", "2", "--m-set", "1")
    assert code == EXIT_CONTRADICTION
    assert "CONTRADICTS" in out


def test_report_small_grid(capsys, cache, tmp_path):
    json_out = tmp_path / "table.json"
    code, out, _ = run(capsys, "report", "--n-max", "3", "--m-set", "1",
                       "--json-out", str(json_out))
    assert code == EXIT_OK
    assert "0 contradiction(s)" in out
    data = json.loads(json_out.read_text())
    assert len(data["cells"]) == 5


def test_cli_import_leaves_concurrent_futures_out():
    # only `report --jobs N` with N > 1 uses a process pool, and the
    # runtime is stdlib-only: the modules that importing the CLI adds (the
    # interpreter's site may already have loaded others) are stdlib ones
    import blockzero

    src = os.path.dirname(os.path.dirname(blockzero.__file__))
    probe = (
        "import sys; before = set(sys.modules); import blockzero.cli; "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print('concurrent.futures' in sys.modules); "
        "print(sorted(added - sys.stdlib_module_names - {'blockzero'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]
