"""Self-test of the benchmark on tiny inputs.

    python -m pytest perfbench -q

Each smoke run generates inputs, runs one untraced (and, with tracing,
one traced) pass and must report every metric that ``BENCHMARK.json``
declares for its mode, with the declared unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# the layer each traced workload must show busy
BUSY_LAYER = {"season": "telemetry.ingest_csv.ms", "montecarlo": "sim.simulate.ms"}


@pytest.mark.parametrize("workload,trace", [("season", 0), ("montecarlo", 0), ("season", 1),
                                            ("montecarlo", 1)])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    if trace:
        assert result["metrics"][BUSY_LAYER[workload]]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("season", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 3.0, 0, 0), ("c", 2.5, 4.0, 0, 0),
             ("d", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.5, 1.0])


def test_tracer_rebinds_imported_aliases_and_restores_them():
    from sleddyn import cli, onetrack

    original = onetrack.build_axle_trace
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_axle_trace is onetrack.build_axle_trace
        assert onetrack.build_axle_trace is not original
    finally:
        tracer.uninstall()
    assert cli.build_axle_trace is original and onetrack.build_axle_trace is original
