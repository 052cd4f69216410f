"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench/ -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import clock as clock_module
from bench import workloads
from bench.clock import Clock
from bench.inputs import make_inputs
from bench.run import DEFAULT_SECONDS, END_TO_END, PER_LAYER, measure
from bench.trace import (
    LAYERS,
    METHODS,
    SpanRecorder,
    Spans,
    WrapperCost,
    ledger,
    self_times,
    tracing,
)
from bench.workloads import (
    WORKLOADS,
    BuildingOpen,
    EngineSaturated,
    FleetChurn,
    FleetSaturated,
)
from repro.serve.queue import MicroBatchQueue

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return {
        "engine-saturated": lambda: EngineSaturated(frames=320, links=8),
        "fleet-saturated": lambda: FleetSaturated(tenants=16, ticks=3, own_every=8),
        "building-open": lambda: BuildingOpen(links=20, duration_s=0.4),
        "fleet-churn": lambda: FleetChurn(ticks=12, start=6, low=4, high=8),
    }[name]()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(7, 3, tmp_path_factory.mktemp("plans"), n_rows=512)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_clean_trial_passes_every_gate(inputs, name):
    trial = tiny(name).run(inputs, 0)
    assert trial.problems == ()
    assert trial.failed == 0
    assert trial.answered > 0


class _Flipped:
    """A plan wrapper that answers 1 - p."""

    def __init__(self, plan):
        self.plan = plan

    def predict_proba(self, x):
        return 1.0 - self.plan.predict_proba(x)


def test_gates_trip_on_a_plan_that_returns_one_minus_p(inputs, monkeypatch):
    real = workloads.load_plan
    monkeypatch.setattr(workloads, "load_plan", lambda path: _Flipped(real(path)))
    trial = tiny("engine-saturated").run(inputs, 0)
    assert any("diverge from the reference" in p for p in trial.problems)


class _Lossy(EngineSaturated):
    """A client that loses one answer of its last delivery."""

    def drive(self, system, schedule, book, clock):
        out = super().drive(system, schedule, book, clock)
        t_return, results = book.deliveries[-1]
        book.deliveries[-1] = (t_return, results[1:])
        return out


def test_gates_trip_on_a_client_that_loses_a_frame(inputs):
    trial = _Lossy(frames=320, links=8).run(inputs, 0)
    assert trial.failed == 1
    assert any("the client saw" in p for p in trial.problems)


def _spans(rows):
    """Synthetic spans: ``(code, parent, start, end)`` per row."""
    code, parent, start, end = (np.array(col) for col in zip(*rows))
    return Spans(
        code=code.astype(np.int32),
        parent=parent.astype(np.int32),
        start=start.astype(float),
        end=end.astype(float),
        arg=[None] * len(rows),
        result=[None] * len(rows),
    )


def test_self_time_subtracts_children_and_wrapper_cost():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].
    spans = _spans([(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 9.0), (3, 2, 6.0, 7.0)])
    assert self_times(spans, WrapperCost(0.0, 0.0)).tolist() == [3.0, 3.0, 3.0, 1.0]
    cost = WrapperCost(inner=0.1, outer=0.2)
    np.testing.assert_allclose(self_times(spans, cost), [2.5, 2.9, 2.7, 0.9])
    # Self times plus the wrapper row tile the program time; the client
    # row takes the rest of the wall, and the top span's outer wrapper
    # cost is the only thing left over.
    rows = ledger(spans, cost, np.ones(4), wall_s=12.0, program_s=10.2)
    assert rows["bench.client"] == pytest.approx(1.8)
    assert rows["bench.trace"] == pytest.approx(4 * 0.3)
    assert sum(rows.values()) == pytest.approx(12.0)
    assert rows["unattributed"] == pytest.approx(0.0)


def test_the_clock_rescales_at_each_probe_and_leaves_probes_out(monkeypatch):
    monkeypatch.setattr(clock_module, "PROBE_EVERY_S", 0.0)
    clock = Clock()
    readings = [clock.now()]
    for _ in range(3):
        clock.check()
        readings.append(clock.now())
    assert readings == sorted(readings)
    starts = np.frombuffer(clock.raw_start, dtype=np.float64)
    assert len(starts) == 4
    np.testing.assert_array_equal(clock.scale_at(starts + 1e-9), np.asarray(clock.scale))
    # Time spent probing is not reference time: the span over three
    # probes reads shorter than the raw time, scaled, it took.
    assert readings[-1] - readings[0] < (starts[-1] - starts[0]) * max(clock.scale)


def test_tracing_restores_every_wrapped_method():
    before = {(cls, name): cls.__dict__[name] for _, cls, names in LAYERS for name in names}
    recorder = SpanRecorder(16)
    with tracing(recorder):
        assert MicroBatchQueue.push is not before[(MicroBatchQueue, "push")]
        MicroBatchQueue(max_batch=1, capacity=1).ready(0.0)
    assert recorder.n == 1 and METHODS[recorder.code[0]] == ("serve.queue", "MicroBatchQueue.ready")
    after = {(cls, name): cls.__dict__[name] for _, cls, names in LAYERS for name in names}
    assert after == before


def test_every_emitted_name_is_declared_and_every_declared_name_is_emitted(inputs):
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert END_TO_END == declared_e2e
    assert PER_LAYER == declared_layer
    for name in WORKLOADS:
        for trace, declared in ((False, declared_e2e), (True, declared_layer)):
            report = measure(tiny(name), inputs, seconds=0.0, trace=trace)
            assert report.correct, report.problems
            result = json.loads(report.result_line())
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_matches_the_package():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["run_seconds"] == DEFAULT_SECONDS
    assert SPEC["paths"] == ["bench"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_package_under_test(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "engine-saturated", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
