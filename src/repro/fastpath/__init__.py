"""Fastpath inference: frozen plans for the latency-critical serving path.

The autograd stack in :mod:`repro.nn` is built for training — every
forward allocates Tensors, records the graph and dispatches layer by
layer through Python.  Serving needs none of that.  This package freezes
a trained model (and its input scaler) into an :class:`InferencePlan`:
a flat list of contiguous float32 weight/bias arrays executed as fused
``matmul + bias + activation`` steps into preallocated, reused buffers.

:mod:`repro.fastpath.bench` is the regression harness that proves the
plan is both *faster* (single-frame p50/p99, batched throughput) and
*equivalent* (max probability divergence <= 1e-5) against the tensor
path, emitting ``BENCH_serve.json`` for CI.
"""

from .bench import (
    PerfBenchReport,
    QuantizedPlanReport,
    run_perf_bench,
)
from .plan import (
    PLAN_ACTIVATIONS,
    QUANTIZE_MODES,
    InferencePlan,
    PlanStep,
    freeze_detector,
)

__all__ = [
    "PLAN_ACTIVATIONS",
    "QUANTIZE_MODES",
    "QuantizedPlanReport",
    "InferencePlan",
    "PlanStep",
    "PerfBenchReport",
    "freeze_detector",
    "run_perf_bench",
]
