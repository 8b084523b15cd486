"""Self-tests of the benchmark, at smoke size.

Run from the repository root with ``python3 -m pytest bench -q``. Every
workload goes through its correctness and determinism checks, traced
and untraced; a corrupted artifact and a ground-truth count that is off
by one must each raise the error rate above 0.
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import scenarios
import spans

sys.path.insert(0, os.path.join(run.ROOT, "src"))

SEED = 5


def test_million_scenario_mirrors_acceptance_test():
    path = os.path.join(run.ROOT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    found = [
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "MILLION_SCENARIO" for t in node.targets)
    ]
    assert found == [scenarios.MILLION_SCENARIO]


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    result = run.measure(workload, "smoke", SEED, seconds=0.0, trace=True)
    summary = run.summarize(result)
    assert [r.traced for r in result.reps] == [False, True]
    assert summary["error_rate"] == 0, summary["errors"]
    assert set(summary["metrics"]) == {name for name, _unit in spans.LAYER_METRICS}
    assert summary["digests"]
    plain = run.summarize(run.measure(workload, "smoke", SEED, seconds=0.0, trace=False))
    assert plain["error_rate"] == 0, plain["errors"]
    assert set(plain["metrics"]) == {name for name, _unit in run.END_TO_END}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["digest"] == summary["digest"]


def _corrupt_dot_file(out, _truth):
    with open(os.path.join(out, "contracted", "contracted.dot"), "a", encoding="utf-8") as fh:
        fh.write(" ")


def test_corrupted_artifact_counts_as_error():
    result = run.measure("run-verify", "smoke", SEED, seconds=0.0, trace=False,
                         tamper=_corrupt_dot_file)
    summary = run.summarize(result)
    assert summary["attempted"] == 2
    assert summary["error_rate"] == 0.5
    assert any("contracted/contracted.dot" in e for e in summary["errors"])


def _bump_intra_user_count(_out, truth):
    truth["category_totals"]["intra_user"]["tx_count"] += 1


def _bump_record_count(_out, truth):
    truth["record_count"] += 1


def _add_planted_main(_out, truth):
    truth["exchanges"][0]["mains"].append("X99M00")


@pytest.mark.parametrize("workload,tamper", [
    ("run-verify", _bump_intra_user_count),
    ("staged-noisy", _bump_record_count),
    ("detect-sweep", _add_planted_main),
])
def test_truth_off_by_one_counts_as_error(workload, tamper):
    summary = run.summarize(run.measure(workload, "smoke", SEED, seconds=0.0,
                                        trace=False, tamper=tamper))
    assert summary["error_rate"] > 0
    assert summary["errors"]


def test_self_time_excludes_children():
    trace = {
        "spans": [
            {"id": 0, "name": "workload", "parent": None, "busy": 10.0},
            {"id": 1, "name": "records.write", "parent": 0, "busy": 4.0},
            {"id": 2, "name": "records.ingest", "parent": 1, "busy": 3.0},
            {"id": 3, "name": "graph.save", "parent": 0, "busy": 2.0},
        ],
        "counts": {"records.parsed": 8, "records.kept": 2},
    }
    metrics = spans.layer_metrics(trace)
    assert metrics["records.write_s"] == 1.0
    assert metrics["records.ingest_s"] == 3.0
    assert metrics["graph.save_s"] == 2.0
    assert metrics["cli.self_s"] == 4.0
    assert metrics["records.keep_ratio"] == 0.25
    assert metrics["graph.load_s"] == 0.0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
