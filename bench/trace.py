"""Per-layer spans recorded from outside the program.

``--trace 1`` wraps the public methods of each layer at class level (from
this package only; nothing under ``src/`` knows it is being traced).
Every wrapped call writes one span into preallocated in-memory columns —
method, start, end, enclosing span, first argument and return value — and
nothing is processed until the trial ends.

A span's **self time** is its duration minus the durations of its child
spans, minus the wrapper's own cost: the cost of an empty wrapped call is
calibrated at start-up and removed per span (the part outside the child's
clock reads from the parent, the part inside from the child), so wrapper
overhead is billed to the ``bench.trace`` ledger row instead of to a layer.
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.data.streaming import SmoothingDebouncer
from repro.fastpath.plan import InferencePlan
from repro.fleet.fusion import FusionScheduler, TiledPlanRunner
from repro.fleet.registry import PlanRegistry
from repro.fleet.router import FleetRouter
from repro.fleet.service import Fleet
from repro.guard.drift import DriftSentinel
from repro.guard.repair import GapRepairer
from repro.guard.supervisor import RecoverySupervisor
from repro.guard.validation import FrameValidator
from repro.obs.observer import Observer
from repro.obs.tracer import FrameTracer
from repro.overload.governor import SaturationGovernor, ServiceMode
from repro.serve.arena import FrameArena
from repro.serve.engine import InferenceEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import MicroBatchQueue

#: (layer, class, public methods) — a layer is named after the module
#: that owns the methods.  ``Fleet.attach/detach/replace_plan`` form their
#: own layer so lifecycle work is not mixed into the per-frame service.
LAYERS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("serve.engine", InferenceEngine, ("submit", "submit_frame", "pump", "flush")),
    ("serve.metrics", MetricsRegistry, ("counter", "gauge", "histogram")),
    ("serve.queue", MicroBatchQueue, ("push", "drain", "ready")),
    ("serve.arena", FrameArena, ("acquire", "release")),
    ("fastpath.plan", InferencePlan, ("predict_proba",)),
    ("data.streaming", SmoothingDebouncer, ("update",)),
    (
        "guard.supervisor",
        RecoverySupervisor,
        (
            "observe",
            "decide",
            "resolve_health",
            "record_primary_success",
            "record_primary_failure",
            "record_fallback_success",
            "record_fallback_failure",
        ),
    ),
    ("guard.validation", FrameValidator, ("validate",)),
    ("guard.repair", GapRepairer, ("observe",)),
    ("guard.drift", DriftSentinel, ("observe",)),
    ("overload.governor", SaturationGovernor, ("observe",)),
    ("obs", Observer, ("frame_submitted", "frame_filled", "frame_outcome", "emit")),
    ("obs", FrameTracer, ("add_stage", "mark_enqueued", "queue_wait")),
    ("fleet.service", Fleet, ("submit", "tick", "flush")),
    ("fleet.router", FleetRouter, ("route", "drain", "total_depth")),
    ("fleet.fusion", FusionScheduler, ("run_tick",)),
    ("fleet.fusion", TiledPlanRunner, ("predict_proba",)),
    (
        "fleet.registry",
        PlanRegistry,
        ("register", "replace_plan", "remove", "rebalance", "signature", "get"),
    ),
    ("fleet.lifecycle", Fleet, ("attach", "detach", "replace_plan")),
)

#: Every layer name, in ledger order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: ``METHODS[code]`` is ``(layer, "Class.method")`` for span code ``code``.
METHODS: tuple[tuple[str, str], ...] = tuple(
    (layer, f"{cls.__name__}.{name}") for layer, cls, names in LAYERS for name in names
)


class SpanRecorder:
    """Preallocated span columns; one row per wrapped call."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.capacity = 0
        self.n = 0
        #: Index of the innermost open span (-1: the client).
        self.current = -1
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg: list = []
        self.result: list = []
        self.grow(capacity)

    def grow(self, extra: int | None = None) -> None:
        extra = max(extra or self.capacity, 1024)
        self.code.extend(array("i", bytes(4 * extra)))
        self.parent.extend(array("i", bytes(4 * extra)))
        self.start.extend(array("d", bytes(8 * extra)))
        self.end.extend(array("d", bytes(8 * extra)))
        self.arg.extend([None] * extra)
        self.result.extend([None] * extra)
        self.capacity += extra

    def spans(self) -> "Spans":
        n = self.n
        return Spans(
            code=np.frombuffer(self.code, dtype=np.int32)[:n].copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            start=np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            end=np.frombuffer(self.end, dtype=np.float64)[:n].copy(),
            arg=self.arg[:n],
            result=self.result[:n],
        )


def _wrap(recorder: SpanRecorder, code: int, fn):
    perf = time.perf_counter

    def wrapper(*args, **kwargs):
        rec = recorder
        i = rec.n
        if i >= rec.capacity:
            rec.grow()
        rec.n = i + 1
        parent = rec.current
        rec.current = i
        result = None
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf()
            rec.current = parent
            rec.code[i] = code
            rec.parent[i] = parent
            rec.start[i] = t0
            rec.end[i] = t1
            rec.arg[i] = args[1] if len(args) > 1 else None
            rec.result[i] = result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def tracing(recorder: SpanRecorder):
    """Install class-level wrappers for every :data:`LAYERS` method."""
    saved = []
    code = 0
    for _, cls, names in LAYERS:
        for name in names:
            original = cls.__dict__[name]
            if isinstance(original, property):
                wrapped = property(_wrap(recorder, code, original.fget))
            else:
                wrapped = _wrap(recorder, code, original)
            saved.append((cls, name, original))
            setattr(cls, name, wrapped)
            code += 1
    try:
        yield recorder
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)


@dataclass(frozen=True)
class Spans:
    """The columns of one traced trial, ready for analysis."""

    code: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    arg: list
    result: list

    def __len__(self) -> int:
        return int(self.code.shape[0])


@dataclass(frozen=True)
class WrapperCost:
    """Calibrated cost of one wrapped call, in seconds.

    ``inner`` lands inside the span's own clock reads; ``outer`` lands in
    the enclosing span (or the client) around them.
    """

    inner: float
    outer: float

    @property
    def total(self) -> float:
        return self.inner + self.outer


class _Probe:
    def call(self, x):
        return None


def calibrate() -> WrapperCost:
    """Measure the cost of an empty wrapped call (median of 7 loops of 20k)."""
    perf = time.perf_counter
    probe = _Probe()
    bare = _Probe.call
    n = 20_000
    inner_costs, totals = [], []
    for _ in range(7):
        recorder = SpanRecorder(n)
        wrapped = _wrap(recorder, 0, bare)
        loop = range(n)
        t0 = perf()
        for _ in loop:
            pass
        t_loop = perf() - t0
        t0 = perf()
        for _ in loop:
            bare(probe, 0)
        t_bare = perf() - t0
        t0 = perf()
        for _ in loop:
            wrapped(probe, 0)
        t_wrapped = perf() - t0
        spans = recorder.spans()
        call = max(t_bare - t_loop, 0.0) / n
        inner_costs.append(max(float(np.mean(spans.end - spans.start)) - call, 0.0))
        totals.append(max(t_wrapped - t_bare, 0.0) / n)
    inner = statistics.median(inner_costs)
    total = max(statistics.median(totals), inner)
    return WrapperCost(inner=inner, outer=total - inner)


def self_times(spans: Spans, cost: WrapperCost) -> np.ndarray:
    """Per-span self time: duration minus children, minus wrapper cost."""
    duration = spans.end - spans.start
    nested = spans.parent >= 0
    child_time = np.zeros(len(spans))
    child_count = np.zeros(len(spans))
    np.add.at(child_time, spans.parent[nested], duration[nested])
    np.add.at(child_count, spans.parent[nested], 1.0)
    return duration - child_time - child_count * cost.outer - cost.inner


def layer_self_times(spans: Spans, cost: WrapperCost, scale: np.ndarray) -> dict[str, float]:
    """Σ self time per layer, every layer present.

    ``scale`` converts each span's raw seconds to reference seconds
    (:meth:`bench.clock.Clock.scale_at` of the span starts).
    """
    own = self_times(spans, cost) * scale
    per_method = np.bincount(spans.code, weights=own, minlength=len(METHODS))
    out = dict.fromkeys(LAYER_NAMES, 0.0)
    for code, (layer, _) in enumerate(METHODS):
        out[layer] += float(per_method[code])
    return out


def _codes(*qualnames: str) -> np.ndarray:
    wanted = set(qualnames)
    return np.array([i for i, (_, q) in enumerate(METHODS) if q in wanted], dtype=np.int32)


def _mask(spans: Spans, *qualnames: str) -> np.ndarray:
    return np.isin(spans.code, _codes(*qualnames))


def _layer_mask(spans: Spans, layer: str) -> np.ndarray:
    return np.isin(
        spans.code, [i for i, (name, _) in enumerate(METHODS) if name == layer]
    )


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _percentile_ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def _results(spans: Spans, mask: np.ndarray) -> list:
    return [spans.result[i] for i in np.flatnonzero(mask)]


def _args(spans: Spans, mask: np.ndarray) -> list:
    return [spans.arg[i] for i in np.flatnonzero(mask)]


def layer_metrics(
    spans: Spans, cost: WrapperCost, scale: np.ndarray, *, frames: int, ops: int, tile: int
) -> dict[str, float]:
    """The per-layer metrics of one traced trial, times in reference units.

    ``frames`` is the number of frames the trial answered (the "/frame"
    base), ``ops`` the lifecycle operations it ran, ``tile`` the fleet's
    GEMM tile (the pad-share base).
    """
    own = self_times(spans, cost) * scale
    us = 1e6

    def self_us(mask: np.ndarray) -> float:
        return float(own[mask].sum()) * us

    def per_frame(value: float) -> float:
        return _ratio(value, frames)

    out: dict[str, float] = {}
    out["serve.engine.self_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "serve.engine")))

    metrics = _layer_mask(spans, "serve.metrics")
    out["serve.metrics.lookups_per_frame"] = per_frame(int(metrics.sum()))
    out["serve.metrics.busy_us_per_frame"] = per_frame(self_us(metrics))

    out["serve.queue.busy_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "serve.queue")))
    pushed_at = {
        frame.frame_id: spans.end[i]
        for i, frame in zip(
            np.flatnonzero(_mask(spans, "MicroBatchQueue.push")),
            _args(spans, _mask(spans, "MicroBatchQueue.push")),
        )
    }
    waits, batches = [], []
    drains = _mask(spans, "MicroBatchQueue.drain")
    for i, drained in zip(np.flatnonzero(drains), _results(spans, drains)):
        if drained:
            batches.append(len(drained))
            waits.extend(
                (spans.start[i] - pushed_at[frame.frame_id]) * scale[i]
                for frame in drained
                if frame.frame_id in pushed_at
            )
    out["serve.queue.wait_p50_ms"] = _percentile_ms(waits, 50)
    out["serve.queue.wait_p99_ms"] = _percentile_ms(waits, 99)
    out["serve.queue.batch_mean"] = float(np.mean(batches)) if batches else 0.0

    out["serve.arena.busy_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "serve.arena")))
    acquired = _results(spans, _mask(spans, "FrameArena.acquire"))
    out["serve.arena.staged_share"] = _ratio(
        sum(ref is not None for ref in acquired), len(acquired)
    )

    plan = _mask(spans, "InferencePlan.predict_proba")
    out["fastpath.plan.busy_us_per_frame"] = per_frame(self_us(plan))
    rows = [len(x) for x in _args(spans, plan)]
    out["fastpath.plan.rows_per_call"] = float(np.mean(rows)) if rows else 0.0

    out["data.streaming.debounce_us_per_frame"] = per_frame(
        self_us(_layer_mask(spans, "data.streaming"))
    )

    supervisor = _layer_mask(spans, "guard.supervisor")
    out["guard.supervisor.calls_per_frame"] = per_frame(int(supervisor.sum()))
    out["guard.supervisor.busy_us_per_frame"] = per_frame(self_us(supervisor))

    validation = _layer_mask(spans, "guard.validation")
    verdicts = _results(spans, validation)
    out["guard.validation.busy_us_per_frame"] = per_frame(self_us(validation))
    out["guard.validation.refused_share"] = _ratio(
        sum(v is not None for v in verdicts), len(verdicts)
    )
    repair = _layer_mask(spans, "guard.repair")
    out["guard.repair.busy_us_per_frame"] = per_frame(self_us(repair))
    out["guard.repair.fills_per_kframe"] = 1000.0 * per_frame(
        sum(len(fills) for fills in _results(spans, repair))
    )
    out["guard.drift.busy_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "guard.drift")))

    governor = _layer_mask(spans, "overload.governor")
    modes = _results(spans, governor)
    out["overload.governor.busy_us_per_batch"] = _ratio(self_us(governor), len(modes))
    out["overload.governor.full_share"] = _ratio(
        sum(mode is ServiceMode.FULL for mode in modes), len(modes)
    )

    obs = _layer_mask(spans, "obs")
    out["obs.calls_per_frame"] = per_frame(int(obs.sum()))
    out["obs.busy_us_per_frame"] = per_frame(self_us(obs))

    out["fleet.service.self_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "fleet.service")))
    out["fleet.router.busy_us_per_frame"] = per_frame(self_us(_layer_mask(spans, "fleet.router")))

    gemm = _mask(spans, "TiledPlanRunner.predict_proba")
    schedule = _mask(spans, "FusionScheduler.run_tick")
    out["fleet.fusion.gemm_us_per_frame"] = per_frame(self_us(gemm))
    out["fleet.fusion.schedule_us_per_frame"] = per_frame(self_us(schedule))
    outcomes = _results(spans, schedule)
    out["fleet.fusion.fused_share"] = _ratio(
        sum(o.fused_frames for o in outcomes if o is not None),
        sum(o.total_frames for o in outcomes if o is not None),
    )
    gemm_rows = np.array([len(x) for x in _args(spans, gemm)], dtype=float)
    computed = np.ceil(gemm_rows / tile) * tile
    out["fleet.fusion.pad_share"] = _ratio((computed - gemm_rows).sum(), computed.sum())

    lookups = _mask(spans, "PlanRegistry.signature", "PlanRegistry.get")
    writes = _mask(
        spans,
        "PlanRegistry.register",
        "PlanRegistry.replace_plan",
        "PlanRegistry.remove",
        "PlanRegistry.rebalance",
    )
    out["fleet.registry.lookup_us_per_frame"] = per_frame(self_us(lookups))
    out["fleet.registry.busy_ms_per_op"] = _ratio(self_us(writes) / 1e3, ops)

    lifecycle = _layer_mask(spans, "fleet.lifecycle")
    ticks = _mask(spans, "Fleet.tick")
    under_op = np.zeros(len(spans), dtype=bool)
    nested = spans.parent >= 0
    under_op[nested] = lifecycle[spans.parent[nested]]
    drain_ticks = ticks & under_op
    out["fleet.lifecycle.drain_ticks_per_op"] = _ratio(int(drain_ticks.sum()), ops)
    out["fleet.lifecycle.drained_frames_per_op"] = _ratio(
        sum(len(r) for r in _results(spans, drain_ticks) if r is not None), ops
    )
    return out


def ledger(
    spans: Spans, cost: WrapperCost, scale: np.ndarray, *, wall_s: float, program_s: float
) -> dict[str, float]:
    """Where a traced trial's wall time went, in reference seconds.

    ``bench.client`` is the time outside program calls, measured by the
    client's own clock reads around each call; each layer row is that
    layer's self time; ``bench.trace`` is the calibrated wrapper cost of
    every recorded span.  ``unattributed`` is whatever the rows leave of
    the measured wall: wrapper cost the calibration missed, and time inside
    program calls that no wrapped method covers.
    """
    rows = {"bench.client": wall_s - program_s}
    rows.update(layer_self_times(spans, cost, scale))
    rows["bench.trace"] = float(scale.sum()) * cost.total
    rows["unattributed"] = wall_s - sum(rows.values())
    return rows
