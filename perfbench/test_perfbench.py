"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_reports(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in benchmark_json["end_to_end"]] == \
        list(run.END_TO_END)
    per_layer = [(n, u) for n, u, _ in spans.PER_LAYER] + list(run.BENCH_LAYER)
    assert [(m["name"], m["unit"]) for m in benchmark_json["per_layer"]] == per_layer


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(benchmark_json, trace):
    res = _result(_bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                         "--trace", trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    key = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in benchmark_json[key]]
    assert list(res["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        assert res["metrics"]["analysis.relation_search.calls"]["value"] == 1
        assert res["metrics"]["cli.import_s"]["value"] > 0


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "report", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _recorder(intervals):
    rec = spans.Recorder()
    rec.begin, rec.end = 0.0, 10.0
    for name, parent, start, end in intervals:
        rec.spans.append([name, parent, start, end, None, None, False])
    return rec


def test_span_accounting_adds_up():
    rec = _recorder([("a", -1, 1.0, 4.0), ("b", 0, 1.5, 2.0),
                     ("c", 0, 2.0, 3.5), ("d", -1, 5.0, 9.0)])
    assert spans.check_accounting(rec) == pytest.approx(3.0)


@pytest.mark.parametrize("intervals", [
    [("a", -1, 1.0, 4.0), ("b", 0, 3.0, 5.0)],   # child leaves its parent
    [("a", -1, 1.0, 4.0), ("b", -1, 3.0, 5.0)],  # roots overlap
    [("a", -1, 1.0, None)],                      # never closed
])
def test_span_accounting_rejects_broken_spans(intervals):
    with pytest.raises(spans.AccountingError):
        spans.check_accounting(_recorder(intervals))


def test_brute_force_class_numbers():
    assert [run.class_number(D) for D in (-3, -4, -23, -47, -71, -359)] == \
        [1, 1, 3, 5, 7, 19]


def test_exact_checks_catch_wrong_answers():
    expected = json.loads((run.HERE / "expected.json").read_text())
    op = {"kind": "orbit", "curve": "37a", "D": -243, "prec": 500}
    good = dict(expected[run.op_id(op)], log_gap_bits=600.0)
    assert run.check_op(op, {"error": None, "output": good}, expected) == []
    off_curve = dict(good, point=[["1", "0", 0], ["1", "0", 0]])
    assert len(run.check_op(op, {"error": None, "output": off_curve},
                            expected)) == 2
    far = dict(good, log_gap_bits=100.0)
    assert run.check_op(op, {"error": None, "output": far}, expected)
    quad = expected["cli 49a -31 p200"]["point"]
    assert run.on_curve("49a", quad)
    assert not run.on_curve("37a", quad)
