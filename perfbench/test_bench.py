"""Smoke test of the benchmark on FIX-B: output schema and correctness gate,
never timings.  Run with ``python -m pytest perfbench`` from the repository
root."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def fix_b(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "fix-b", bench.Workload("FIX-B", 0.25, 200))
    return "fix-b"


def _check_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= bench.MIN_REPEATS
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = line["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    json.dumps(line)


def test_end_to_end_schema(fix_b):
    summary, values = bench.measure(fix_b, seed=1, seconds=0)
    _check_line(bench.result_line(summary, values, DECLARED["end_to_end"]),
                DECLARED["end_to_end"])
    assert all(values[m["name"]] > 0 for m in DECLARED["end_to_end"])
    for key in ("run_s", "build_s", "setup_s"):
        assert summary[key]["n"] >= bench.MIN_REPEATS
    # a FIX-B build is short, so standalone builds add samples
    build = summary["build_s"]
    assert build["n"] > summary["run_s"]["n"]
    assert build["median"] <= build["upper"]["value"] <= build["max"]
    assert summary["checks_failed"]["value"] == 0
    assert summary["runs_failed"]["value"] == 0.0
    assert len(summary["digest"]) == 64


def test_per_layer_schema(fix_b):
    patched = [(bench.pipeline, "build_bundle"), (bench.pipeline, "verify_system"),
               (bench.spans.analysis, "empty_annulus_dichotomy"),
               (bench.spans.randomized.CubeMachine, "system")]
    before = [getattr(owner, attr) for owner, attr in patched]
    summary, values = bench.measure_traced(fix_b, seed=1, seconds=0)
    _check_line(bench.result_line(summary, values, DECLARED["per_layer"]),
                DECLARED["per_layer"])
    assert values["analysis.empty_annulus_dichotomy.calls"] > 0
    assert values["report.checks_failed"] == 0 and values["runs_failed"] == 0.0
    assert values["pipeline.run_pipeline.s"] >= values["pipeline.build_bundle.s"] > 0
    assert [getattr(owner, attr) for owner, attr in patched] == before


def test_gate_flags_each_kind_of_failure():
    workload = bench.Workload("FIX-B", 0.25, 200, known_failures=("known",))
    ok = bench.Run(run_s=1.0, digest="a", counts={"c": 1}, failing=("known",))
    runs = [ok,
            bench.Run(run_s=1.0, digest="a", counts={"c": 1}),
            bench.Run(run_s=1.0, digest="b", counts={"c": 1}),
            bench.Run(run_s=1.0, digest="a", counts={"c": 2}),
            bench.Run(run_s=1.0, digest="a", counts={"c": 1}, failing=("new",)),
            bench.Run(run_s=math.nan, error="Traceback\nValueError: boom\n")]
    assert bench.gate(runs, workload) == [2, 3, 4, 5]


def test_pace_leaves_out_probes_and_divides_by_local_probe():
    pace = bench.Pace()
    pace.probes = [(1.0, 0.5), (3.0, 0.5)]
    # work: [0, 1) + [1.5, 3) + [3.5, 5) = 4 s, at 0.5 s per probe
    assert pace.seconds(0.0, 5.0) == pytest.approx(4.0)
    assert pace.relative(0.0, 5.0) == pytest.approx(8.0)
    assert pace.relative(1.5, 3.0) == pytest.approx(3.0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-haar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
