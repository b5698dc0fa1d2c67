"""Tests of the benchmark harness, at smoke scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def session_members(sid: int):
    """Pids of the processes still in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and os.getsid(int(entry.name)) == sid:
                members.append(int(entry.name))
        except OSError:
            pass
    return members


def run_bench(*args: str, cwd: Path = ROOT):
    """Run the benchmark in a session of its own; once it has exited, no
    process it started may be left."""
    proc = subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=600)
    assert session_members(proc.pid) == [], "the benchmark left processes running"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_the_metrics_the_harness_prints():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == harness.METRIC_UNITS
    assert per_layer == layers.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--scale", "smoke")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.METRIC_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "seed=3" in proc.stdout


#: Spans each workload's traced operation must record itself, and spans
#: that only the probes may record (calls its untraced path never makes).
OP_SPANS = {
    "warm": ({"experiments.import", "store.load"}
             | {f"experiments.{target}" for target in layers.TARGETS}, set()),
    "resim": ({"experiments.import", "trace.load", "sessions.discover",
               "simulate.run", "store.publish", "experiments.table4"},
              {"trace.publish", "trace.attach", "trace.run_workload"}),
}


@pytest.mark.parametrize("workload", sorted(OP_SPANS))
def test_traced_operation_times_its_own_layers(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "smoke")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    spans = json.loads(
        (ROOT / ".perfbench" / "spans" / f"{workload}-seed3.json").read_text())
    op = next(s for s in spans if s["name"] == "op")
    probe = next(s for s in spans if s["name"] == "probe")
    in_op = {s["name"] for s in spans if s["parent"] == op["id"]}
    in_probe = {s["name"] for s in spans if s["parent"] == probe["id"]}
    on_path, off_path = OP_SPANS[workload]
    assert on_path <= in_op
    assert not on_path & in_probe, "a layer of the operation was timed again"
    assert off_path <= in_probe and not off_path & in_op
    # The layer spans cover the operation: what is left is bookkeeping.
    assert 0 <= metrics["unattributed_s"] < 0.1 * metrics["traced_wall_s"]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_live_mismatch_names_session_strategy_and_counter():
    counts = SimpleNamespace(installs=2, removes=2, hits=5, misses=10,
                             vm={harness.LIVE_PAGE_SIZE: SimpleNamespace(
                                 active_page_misses=3)})
    session = SimpleNamespace(kind="OneGlobalStatic", label="n_stmts")
    items = [harness.LiveItem("gcc", 40, session, counts, [], strategy)
             for strategy in ("vm", "trap")]
    good = [{"installs": 2, "removes": 2, "hits": 5, "checks": 8},
            {"installs": 2, "removes": 2, "hits": 5, "checks": 15}]
    assert harness.live_problems(items, good) == []
    bad = [dict(good[0], checks=9), good[1]]
    (problem,) = harness.live_problems(items, bad)
    assert "program=gcc session=OneGlobalStatic:n_stmts strategy=vm" in problem
    assert "counter=checks live=9 simulated=8" in problem


def test_compare_refuses_runs_from_different_engines(tmp_path, capsys):
    def log(engine: str) -> Path:
        header = {"workload": "warm", "seed": 1, "env": {
            "host": {"nproc": 2}, "engine": engine}}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "wall_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / f"{engine}.log"
        path.write_text("perfbench-run " + json.dumps(header) + "\n"
                        + json.dumps(result) + "\n")
        return path

    assert compare.main([str(log("native")), str(log("native"))]) == 0
    assert compare.main([str(log("native")), str(log("numpy"))]) == 2
    assert "host or engine records differ" in capsys.readouterr().err
