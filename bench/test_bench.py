"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from rrsched import SearchConstraints, evaluate, search, verify_claim  # noqa: E402

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CASES = workloads.load_catalogue()["cases"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _raise(span):
    raise RuntimeError("deliberate failure")


def test_gate_counts_wrong_results_and_raising_ops_and_keeps_going(monkeypatch, capsys):
    good = workloads._pipeline_op("circle", 16, 2, "json")
    wrong_value = replace(workloads._pipeline_op("odd-optimal", 17, 1, "text"),
                          expected=(17, 1, (99, 1, 1)))
    raising = replace(good, name="raising op", run=_raise)
    wrong_exit = workloads._cli_op("generate", ["generate", "--teams", "1", "--method", "circle"],
                                   None, workloads.cli_env(), workloads._check_generate, (1, 1))
    ops = [wrong_value, raising, wrong_exit, good]
    monkeypatch.setattr(workloads, "build_ops", lambda *args: ops)

    assert run.main(["--workload", "pipeline", "--seed", "1", "--seconds", "0"]) == 0

    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    passes = run.MIN_PASSES
    assert result["attempted"] == len(ops) * passes
    assert result["failed"] == 3 * passes
    assert result["correct"] is False
    assert any("(99, 1, 1)" in line for line in out if line.startswith("FAILED"))
    assert any("deliberate failure" in line for line in out if line.startswith("FAILED"))
    assert any("exit code 2" in line for line in out if line.startswith("FAILED"))


@pytest.mark.parametrize("method,n", [("circle", n) for n in range(4, 41)]
                         + [("odd-optimal", n) for n in range(5, 41, 2)])
def test_closed_form_references_match_the_generators(method, n):
    base = workloads._generator(method)(n)
    for m in (1, 2, 3):
        schedule = base if m == 1 else workloads.duplicate_rounds(base, m)
        report = evaluate(schedule)
        got = (report.guaranteed_rest_time, report.games_played_difference_index,
               report.rest_difference_index)
        assert got == workloads.reference_bpd(method, n, m)


@pytest.mark.parametrize("case", [c for c in CASES if c["kind"] == "search"],
                         ids=lambda c: c["id"])
def test_catalogue_search_cases_agree_across_jobs_and_meet_constraints(case):
    expect = case["expect"]
    outcomes = [search(case["n"], SearchConstraints(**case["constraints"]), mode=case["mode"],
                       limit=case.get("limit"), jobs=jobs,
                       allow_large=case.get("allow_large", False))
                for jobs in (1, 2)]
    check = workloads._search_checker(case)
    for outcome in outcomes:
        assert outcome.nodes_explored == expect["nodes"]
        assert check(outcome, expect) is None
    schedules = outcomes[0].schedules or [s for s in [outcomes[0].found] if s is not None]
    for s in schedules:
        assert workloads.constraint_violation(s, case["n"], case["constraints"]) is None


@pytest.mark.parametrize("case", [c for c in CASES if c["kind"] == "claim"],
                         ids=lambda c: c["id"])
def test_catalogue_claims(case):
    report = verify_claim(case["claim"], case["n"])
    assert (report.passed, report.nodes_explored) == (case["expect"]["passed"],
                                                      case["expect"]["nodes"])


def test_catalogue_keeps_the_reference_cases():
    by_id = {c["id"]: c["expect"] for c in CASES}
    assert (by_id["n6-rest1-count"]["count"], by_id["n6-rest1-count"]["nodes"]) == (74656, 593867)
    assert (by_id["n6-rdi1-count"]["count"], by_id["n6-rdi1-count"]["nodes"]) == (8128, 319235)
    assert by_id["even-impossibility-8"]["nodes"] == 388


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench("--workload", "search-jobs2", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_prints_every_layer_metric_and_rows():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        rows_path = Path(tmp) / "rows.json"
        proc = _bench("--workload", "search", "--seed", "4", "--seconds", "0", "--trace", "1",
                      "--rows", str(rows_path))
        rows = json.loads(rows_path.read_text(encoding="utf-8"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    search_cases = [c for c in CASES if c["kind"] == "search"]
    assert result["metrics"]["search.nodes"]["value"] == sum(c["expect"]["nodes"]
                                                             for c in search_cases)
    assert result["metrics"]["search.solutions"]["value"] == sum(
        workloads.expected_solutions(c) for c in search_cases)
    assert result["metrics"]["claims.nodes"]["value"] == sum(
        c["expect"]["nodes"] for c in CASES if c["kind"] == "claim")
    assert "node and solution counts equal the catalogue" in proc.stdout
    assert {r["workload"] for r in rows} == {f"search/{c['id']}" for c in CASES}
    assert set(rows[0]) == {"workload", "layer", "n", "wall_ms", "nodes", "nodes_per_s",
                            "count", "machine"}


def test_fails_cleanly_without_the_program():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
