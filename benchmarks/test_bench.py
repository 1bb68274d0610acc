"""Fast tests of the benchmark itself, on tiny op lists.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = run.run_workload(workload, 3, 0, trace, scale="tiny")
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if not trace:
            assert all(got["value"] > 0 for got in res["metrics"].values())


def test_workloads_are_deterministic_in_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build_ops(workload, 5, tmp_path, "a", "tiny")
        b = workloads.build_ops(workload, 5, tmp_path, "a", "tiny")
        assert a == b
    grid = workloads.verdict_grid(1)
    assert len(grid) == 66 and sorted(op["id"] for op in grid) == list(range(66))
    assert {tuple(op["argv"]) for op in grid} == {tuple(op["argv"]) for op in workloads.verdict_grid(2)}
    assert len(workloads.tau_report(1)) == 37


def test_corrupted_expected_answer_raises_fail_ratio():
    digests = run.answer_digests("verdict-grid", 2, scale="tiny")
    clean = run.run_workload("verdict-grid", 2, 0, False, scale="tiny", digests=digests)
    assert clean["failed"] == 0
    corrupted = list(digests)
    corrupted[3] = "00000000" if corrupted[3] != "00000000" else "11111111"
    res = run.run_workload("verdict-grid", 2, 0, False, scale="tiny", digests=corrupted)
    assert res["failed"] >= 1 and not res["correct"]
    assert res["report"]["fail_ratio"] > 0
    assert {f["id"] for f in res["report"]["failures"]} == {3}


def child_processes() -> list:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if str(HERE / "child.py").encode() in fh.read():
                    found.append(pid)
        except OSError:
            pass
    return found


def test_hung_child_becomes_failed_ops():
    # A pass over the full grid takes more than a second, so a half-second
    # limit stops it part-way, with an op running.
    t0 = time.perf_counter()
    res = run.run_workload("verdict-grid", 1, 0, False, pass_timeout=0.5)
    assert time.perf_counter() - t0 < 30
    assert 0 < res["failed"] < res["attempted"]
    assert not res["correct"]
    assert {f["error"] for f in res["report"]["failures"]} == {"timed out"}
    assert child_processes() == []


def test_checks_reject_wrong_answers():
    op = {"id": 0, "kind": "roberts-verdict", "argv": ["roberts", "2", "5", "--verdict-only", "--json"]}
    good = {"result": {"roberts": False, "witness_degree": 2,
                       "tau": [{"degree": 2, "tau_index": 5, "is_zero": False,
                                "representative": [{"partition": [2], "coefficient": {"num": "1", "den": "2"}}]}]}}
    assert checks.check(op, 1, json.dumps(good)) is None
    assert checks.check(op, 0, json.dumps(good)) is not None
    bad = json.loads(json.dumps(good))
    bad["result"]["witness_degree"] = 4
    assert checks.check(op, 1, json.dumps(bad)) is not None
    z = [[0, 2, 3, 5], [-2, 0, 7, 11], [-3, -7, 0, 13], [-5, -11, -13, 0]]
    assert checks.matching_sum_pfaffian(z) == 2 * 13 - 3 * 11 + 5 * 7


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
