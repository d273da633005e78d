"""Tests of the benchmark itself: tiny runs, determinism, and the gate.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from dvskit.aggregator import Aggregator  # noqa: E402
from dvskit.binning import BinningSpec, to_sparse_frames  # noqa: E402
from dvskit.events import SceneSegment, SceneSpec, generate_events, window_events  # noqa: E402
from dvskit.hardware import MappingCandidate  # noqa: E402
from gate import GateError, check_candidate, check_conservation, check_flush  # noqa: E402
from instances import build_instance, draw_assignment, draw_instance  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import MapSpec, StreamSpec, evaluate, run_workload  # noqa: E402

TINY = {
    "aer_dense_add": StreamSpec(20_000, (SceneSegment(0, 20_000, 4e5),), "add", True),
    "baseline_burst_avg": StreamSpec(
        30_000,
        (SceneSegment(0, 5_000, 4e5), SceneSegment(5_000, 30_000, 1e5, (100, 80, 60, 40))),
        "average",
        False,
    ),
    "map_4x100": MapSpec((2, 10), 6),
}
SIMULATED = ("sim_latency_us_p50", "sim_latency_us_p90", "sim_energy_mj_p50")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_SLICE_S", 0.0)
    monkeypatch.setattr(workloads, "HW_SHAPE", (3, 4))


def names(kind: str) -> set[str]:
    return {m["name"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_gate_and_reports_every_metric(name):
    outcome = run_workload(name, seed=3, seconds=0, trace=True, spec=TINY[name])
    assert outcome.failed == 0
    assert outcome.attempted > 0
    assert set(outcome.end_to_end) == names("end_to_end")
    assert set(outcome.per_layer) == names("per_layer")
    assert all(v > 0 for v in outcome.end_to_end.values())
    assert outcome.tracer.spans


@pytest.mark.parametrize("name", sorted(TINY))
def test_simulated_results_repeat_exactly(name):
    a, b = (run_workload(name, seed=5, seconds=0, trace=True, spec=TINY[name]) for _ in range(2))
    assert [a.end_to_end[m] for m in SIMULATED] == [b.end_to_end[m] for m in SIMULATED]
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    assert [a.per_layer[m] for m in counts] == [b.per_layer[m] for m in counts]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_json_last(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY[name])
    monkeypatch.setattr(run, "ROOT", tmp_path)  # spans go to tmp_path/.bench_out
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", trace]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(line.startswith("tiny ") for line in lines[:-1] if not line.startswith("spans "))


def test_catalogue_describes_declared_metrics_without_repeating_them():
    catalogue = json.loads((BENCH / "catalogue.json").read_text())
    declared = names("end_to_end") | names("per_layer")
    assert set(catalogue["metrics"]) == declared
    assert not any({"unit", "better", "bound"} & set(m) for m in catalogue["metrics"].values())
    assert not declared & set(catalogue["report_lines"])


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "map_4x100", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def flushed_bucket(mode: str):
    """Place one window's frames in a fresh aggregator and flush them."""
    events = generate_events(SceneSpec(346, 260, 5_000, seed=2, segments=(SceneSegment(0, 5_000, 4e5),)))
    window = window_events(events, 0, 5_000)
    frames = to_sparse_frames(window, BinningSpec(4, 346, 260))
    agg = Aggregator(workloads.aggregator_config(mode), 346, 260, ("a", "b"))
    buckets: dict[int, list] = {}
    for f in frames:
        buckets.setdefault(agg.place(f).bucket_index, []).append(f)
    placed = [buckets[i] for i in sorted(buckets)]
    return agg, placed, agg.flush(5_000), len(window)


@pytest.mark.parametrize("mode", ["add", "average"])
def test_gate_trips_on_dropped_frame(mode):
    _, placed, dispatched, _ = flushed_bucket(mode)
    check_flush(mode, placed, dispatched, 5_000, NullTracer())
    with pytest.raises(GateError):
        check_flush(mode, placed, dispatched[:-1], 5_000, NullTracer())


def test_gate_trips_on_lost_mass():
    agg, _, _, events = flushed_bucket("add")
    consumed = dict.fromkeys(agg.tasks, 0)
    check_conservation(agg, [], events, consumed)
    agg.queues["b"].popleft()
    with pytest.raises(GateError):
        check_conservation(agg, [], events, consumed)


def test_gate_trips_on_altered_end_time():
    data = draw_instance(2, 8, seed=1)
    graph, platform = build_instance(data)
    candidate = MappingCandidate(draw_assignment(np.random.default_rng(1), data))
    eg, schedule, energy = evaluate(graph, candidate, platform, NullTracer())
    check_candidate(graph, candidate, platform, eg, schedule, energy)
    last = max(schedule.end_us, key=schedule.end_us.get)
    altered = dataclasses.replace(schedule, end_us={**schedule.end_us, last: schedule.end_us[last] + 1})
    with pytest.raises(GateError):
        check_candidate(graph, candidate, platform, eg, altered, energy)
