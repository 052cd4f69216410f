"""perf-bench: the fastpath regression harness.

Measures, on the paper's MLP (64 CSI inputs by default, 128-256-128
hidden), what the frozen :class:`~repro.fastpath.plan.InferencePlan` buys
over the tensor path the trainer uses:

* **single-frame latency** — p50/p99 of one ``predict_proba`` call on a
  1-row input, the number a 20 Hz sniffer deployment actually feels;
* **batched throughput** — frames/s at several batch sizes, the number
  the micro-batching engine feels;
* **guard validation** — scalar :meth:`~repro.guard.validation.FrameValidator.validate`
  vs the vectorized ``validate_batch`` on the same stream, since admission
  runs in front of every model call.

Equivalence is asserted, not assumed: before any timing is reported the
harness compares fastpath and tensor probabilities over a probe matrix
and records the max elementwise divergence; :attr:`PerfBenchReport.equivalent`
gates the CLI exit code, so a plan that drifts from its source model
fails CI even if it got faster.  The JSON form (``BENCH_serve.json``)
contains only equivalence and configuration invariants worth diffing —
wall-clock numbers ride along for humans but are never gated.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines.scaler import StandardScaler
from ..core.model_zoo import PAPER_HIDDEN_SIZES, build_paper_mlp
from ..exceptions import ConfigurationError
from ..guard.validation import (
    FiniteCheck,
    FrameValidator,
    SubcarrierCountCheck,
    TimestampMonotonicityCheck,
)
from ..nn.modules import Sequential
from ..nn.tensor import Tensor, no_grad
from .plan import InferencePlan

#: Batch sizes the throughput sweep runs by default.  The large tail
#: sizes show where BLAS amortises the per-call dispatch; like every
#: number here they are measured in isolation, not through the engine.
DEFAULT_BATCH_SIZES = (1, 8, 64, 256, 512)

#: Elementwise probability divergence the harness tolerates.
DEFAULT_TOLERANCE = 1e-5

#: Accuracy gates per quantization mode: max elementwise |Δp| against the
#: float32 plan over the probe matrix.  int8 stores 8-bit codes per
#: weight (per-channel scales), float16 merely rounds the mantissa, hence
#: the tighter bound.
QUANT_DELTA_GATES = {"int8": 0.05, "float16": 1e-3}

#: Fraction of probe rows allowed to flip their 0.5-threshold label under
#: quantization (shared by both modes).
QUANT_FLIP_GATE = 0.01

#: The paper's deployment footprint target for the stored plan artifact.
PLAN_BYTES_TARGET = 15 * 1024


@dataclass(frozen=True)
class QuantizedPlanReport:
    """Accuracy/size outcome of one quantization mode vs the float32 plan."""

    mode: str
    max_divergence: float
    label_flip_rate: float
    parameter_bytes: int
    float32_parameter_bytes: int
    delta_gate: float
    flip_gate: float
    throughput_fps: float

    @property
    def compression(self) -> float:
        return (
            self.float32_parameter_bytes / self.parameter_bytes
            if self.parameter_bytes
            else float("inf")
        )

    @property
    def ok(self) -> bool:
        """Both accuracy gates hold (the CI-gated invariant)."""
        return (
            bool(np.isfinite(self.max_divergence))
            and self.max_divergence <= self.delta_gate
            and self.label_flip_rate <= self.flip_gate
        )


@dataclass(frozen=True)
class BatchThroughput:
    """Frames/s of both paths at one batch size."""

    batch: int
    tensor_fps: float
    fastpath_fps: float

    @property
    def speedup(self) -> float:
        return self.fastpath_fps / self.tensor_fps if self.tensor_fps > 0 else float("inf")


@dataclass
class PerfBenchReport:
    """Everything one perf-bench run measured and asserted."""

    n_inputs: int
    hidden_sizes: tuple[int, ...]
    n_parameters: int
    n_repeats: int
    tolerance: float
    n_probe: int
    max_divergence: float
    tensor_p50_ms: float
    tensor_p99_ms: float
    fastpath_p50_ms: float
    fastpath_p99_ms: float
    throughput: list[BatchThroughput] = field(default_factory=list)
    guard_scalar_fps: float = 0.0
    guard_batch_fps: float = 0.0
    float32_parameter_bytes: int = 0
    quantized: list[QuantizedPlanReport] = field(default_factory=list)

    @property
    def single_frame_speedup(self) -> float:
        """Tensor-path p50 over fastpath p50 — the headline number."""
        return (
            self.tensor_p50_ms / self.fastpath_p50_ms
            if self.fastpath_p50_ms > 0
            else float("inf")
        )

    @property
    def guard_speedup(self) -> float:
        return (
            self.guard_batch_fps / self.guard_scalar_fps
            if self.guard_scalar_fps > 0
            else float("inf")
        )

    @property
    def equivalent(self) -> bool:
        """True when fastpath matched the tensor path within tolerance."""
        return bool(np.isfinite(self.max_divergence)) and (
            self.max_divergence <= self.tolerance
        )

    @property
    def quantized_ok(self) -> bool:
        """Every quantization mode held its accuracy gates."""
        return all(row.ok for row in self.quantized)

    @property
    def gates_passed(self) -> bool:
        """The full CI verdict: equivalence and quantization accuracy —
        deterministic invariants only, never wall-clock speed."""
        return self.equivalent and self.quantized_ok

    def describe(self) -> str:
        arch = "-".join(str(w) for w in (self.n_inputs, *self.hidden_sizes, 1))
        lines = [
            f"model                : {arch} MLP, {self.n_parameters:,} parameters",
            f"equivalence          : max |Δp| = {self.max_divergence:.3g} over "
            f"{self.n_probe} probe rows (tolerance {self.tolerance:g}) — "
            f"{'OK' if self.equivalent else 'DIVERGED'}",
            f"single frame, tensor : p50 {self.tensor_p50_ms:8.4f} ms   "
            f"p99 {self.tensor_p99_ms:8.4f} ms",
            f"single frame, plan   : p50 {self.fastpath_p50_ms:8.4f} ms   "
            f"p99 {self.fastpath_p99_ms:8.4f} ms   "
            f"({self.single_frame_speedup:.2f}x at p50)",
        ]
        for row in self.throughput:
            lines.append(
                f"batch {row.batch:>4}           : tensor {row.tensor_fps:12.0f} fr/s   "
                f"plan {row.fastpath_fps:12.0f} fr/s   ({row.speedup:.2f}x)"
            )
        if self.guard_scalar_fps > 0:
            lines.append(
                f"guard validation     : scalar {self.guard_scalar_fps:10.0f} fr/s   "
                f"batch {self.guard_batch_fps:12.0f} fr/s   "
                f"({self.guard_speedup:.2f}x)"
            )
        for row in self.quantized:
            lines.append(
                f"quantized {row.mode:<8}   : max |Δp| {row.max_divergence:.3g} "
                f"(gate {row.delta_gate:g})   flips {row.label_flip_rate:.3%} "
                f"(gate {row.flip_gate:.0%})   "
                f"{row.parameter_bytes:,} B stored ({row.compression:.2f}x vs "
                f"float32 {row.float32_parameter_bytes:,} B) — "
                f"{'OK' if row.ok else 'FAILED'}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serializable form; written as ``BENCH_serve.json`` by the CLI.

        ``equivalent``/``max_divergence`` are the CI-gated invariants;
        the timing fields are informational (machine-dependent, never
        asserted on).
        """
        return {
            "bench": "perf-bench",
            "model": {
                "n_inputs": self.n_inputs,
                "hidden_sizes": list(self.hidden_sizes),
                "n_parameters": self.n_parameters,
            },
            "equivalence": {
                "max_divergence": self.max_divergence,
                "tolerance": self.tolerance,
                "n_probe": self.n_probe,
                "equivalent": self.equivalent,
            },
            "single_frame_ms": {
                "tensor_p50": self.tensor_p50_ms,
                "tensor_p99": self.tensor_p99_ms,
                "fastpath_p50": self.fastpath_p50_ms,
                "fastpath_p99": self.fastpath_p99_ms,
                "speedup_p50": self.single_frame_speedup,
            },
            "throughput_fps": [
                {
                    "batch": row.batch,
                    "tensor": row.tensor_fps,
                    "fastpath": row.fastpath_fps,
                    "speedup": row.speedup,
                }
                for row in self.throughput
            ],
            "guard_validation_fps": {
                "scalar": self.guard_scalar_fps,
                "batch": self.guard_batch_fps,
                "speedup": self.guard_speedup,
            },
            "quantized": {
                "ok": self.quantized_ok,
                "float32_parameter_bytes": self.float32_parameter_bytes,
                "bytes_target": PLAN_BYTES_TARGET,
                "modes": [
                    {
                        "mode": row.mode,
                        "max_divergence_vs_float32": row.max_divergence,
                        "delta_gate": row.delta_gate,
                        "label_flip_rate": row.label_flip_rate,
                        "flip_gate": row.flip_gate,
                        "parameter_bytes": row.parameter_bytes,
                        "compression_vs_float32": row.compression,
                        "throughput_fps": row.throughput_fps,
                        "ok": row.ok,
                    }
                    for row in self.quantized
                ],
            },
            "gates_passed": self.gates_passed,
            "n_repeats": self.n_repeats,
        }

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path


def _percentiles_ms(fn, x: np.ndarray, n_repeats: int, warmup: int) -> tuple[float, float]:
    """p50/p99 wall-clock of ``fn(x)`` in milliseconds."""
    for _ in range(warmup):
        fn(x)
    samples = np.empty(n_repeats)
    for i in range(n_repeats):
        start = time.perf_counter()
        fn(x)
        samples[i] = time.perf_counter() - start
    return (
        1e3 * float(np.percentile(samples, 50)),
        1e3 * float(np.percentile(samples, 99)),
    )


def _throughput_fps(fn, x: np.ndarray, n_repeats: int, warmup: int) -> float:
    for _ in range(warmup):
        fn(x)
    start = time.perf_counter()
    for _ in range(n_repeats):
        fn(x)
    elapsed = time.perf_counter() - start
    return n_repeats * x.shape[0] / elapsed if elapsed > 0 else float("inf")


def _tensor_predict_proba(model: Sequential, scaler: StandardScaler):
    """The production tensor path, verbatim.

    Mirrors :meth:`repro.core.detector.OccupancyDetector.predict_proba`
    by way of :meth:`repro.nn.train.Trainer.predict`: scale, switch to
    eval mode (every call, as the trainer does), forward through the
    autograd graph under ``no_grad``, then the clipped logistic.
    """

    def predict_proba(x: np.ndarray) -> np.ndarray:
        scaled = scaler.transform(np.asarray(x, dtype=float))
        model.eval()
        with no_grad():
            logits = model(Tensor(scaled)).data
        return 1.0 / (1.0 + np.exp(-np.clip(logits.ravel(), -500, 500)))

    return predict_proba


def _guard_validation_fps(
    n_inputs: int, n_frames: int, seed: int, chunk: int = 64
) -> tuple[float, float]:
    """Frames/s of the scalar vs batch admission chain on one stream."""

    def chain() -> FrameValidator:
        return FrameValidator(
            [
                FiniteCheck(),
                SubcarrierCountCheck(n_inputs),
                TimestampMonotonicityCheck(),
            ]
        )

    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.1, size=n_frames))
    rows = rng.normal(loc=10.0, scale=3.0, size=(n_frames, n_inputs))

    scalar = chain()
    start = time.perf_counter()
    for i in range(n_frames):
        scalar.validate("bench", float(t[i]), rows[i])
    scalar_s = time.perf_counter() - start

    batch = chain()
    start = time.perf_counter()
    for lo in range(0, n_frames, chunk):
        batch.validate_batch("bench", t[lo : lo + chunk], rows[lo : lo + chunk])
    batch_s = time.perf_counter() - start

    return (
        n_frames / scalar_s if scalar_s > 0 else float("inf"),
        n_frames / batch_s if batch_s > 0 else float("inf"),
    )


def _quantized_arm(
    plan: InferencePlan,
    probe: np.ndarray,
    p32: np.ndarray,
    n_repeats: int,
    warmup: int,
) -> list[QuantizedPlanReport]:
    """Accuracy-delta + footprint of every quantization mode vs float32."""
    labels32 = p32 >= 0.5
    out: list[QuantizedPlanReport] = []
    for mode in ("int8", "float16"):
        qplan = plan.quantized(mode)
        pq = qplan.predict_proba(probe)
        out.append(
            QuantizedPlanReport(
                mode=mode,
                max_divergence=float(np.max(np.abs(pq - p32))),
                label_flip_rate=float(np.mean((pq >= 0.5) != labels32)),
                parameter_bytes=qplan.parameter_bytes(),
                float32_parameter_bytes=plan.parameter_bytes(),
                delta_gate=QUANT_DELTA_GATES[mode],
                flip_gate=QUANT_FLIP_GATE,
                throughput_fps=_throughput_fps(
                    qplan.predict_proba, probe, max(1, n_repeats // 4), warmup
                ),
            )
        )
    return out


def run_perf_bench(
    n_inputs: int = 64,
    hidden_sizes: tuple[int, ...] | None = None,
    *,
    seed: int = 2022,
    n_repeats: int = 300,
    warmup: int = 30,
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    n_probe: int = 256,
    tolerance: float = DEFAULT_TOLERANCE,
    guard_frames: int = 4096,
    quick: bool = False,
) -> PerfBenchReport:
    """Freeze the paper MLP and benchmark fastpath vs tensor path.

    Arms: equivalence, single-frame latency, the batched throughput
    sweep, guard validation, and ``quantized`` — int8/float16 plan
    variants gated on accuracy delta vs float32.  The gates
    (equivalence, quantization) are deterministic invariants; wall-clock
    numbers ride along unasserted.  Every arm times the plan or the guard
    chain in isolation: end-to-end serving throughput and latency through
    :class:`~repro.serve.engine.InferenceEngine` are measured by the
    repository benchmark (``python3 -m bench``), not here.

    ``quick`` shrinks repeats/probe sizes for CI smoke runs — the
    gated assertions are identical, only the timing estimates get
    noisier.  The scaler is fitted on a synthetic amplitude distribution
    (the bench needs realistic numerics, not a trained model: weights at
    init and weights after training flow through the very same ops).
    """
    if n_inputs < 1:
        raise ConfigurationError("n_inputs must be >= 1")
    if n_repeats < 1 or warmup < 0 or n_probe < 1:
        raise ConfigurationError("invalid bench parameters")
    if any(b < 1 for b in batch_sizes):
        raise ConfigurationError("batch sizes must be >= 1")
    if quick:
        n_repeats = min(n_repeats, 60)
        warmup = min(warmup, 5)
        n_probe = min(n_probe, 64)
        guard_frames = min(guard_frames, 1024)

    hidden = tuple(hidden_sizes) if hidden_sizes is not None else PAPER_HIDDEN_SIZES
    model = build_paper_mlp(n_inputs, hidden, n_outputs=1, seed=seed)
    rng = np.random.default_rng(seed)
    scaler = StandardScaler()
    scaler.fit(rng.normal(loc=10.0, scale=3.0, size=(max(n_probe, 64), n_inputs)))

    tensor_proba = _tensor_predict_proba(model, scaler)
    plan = InferencePlan.from_model(model, scaler=scaler)

    # Equivalence first: no point timing a wrong answer.
    probe = rng.normal(loc=10.0, scale=3.0, size=(n_probe, n_inputs))
    max_divergence = float(
        np.max(np.abs(tensor_proba(probe) - plan.predict_proba(probe)))
    )

    frame = probe[:1]
    tensor_p50, tensor_p99 = _percentiles_ms(tensor_proba, frame, n_repeats, warmup)
    fast_p50, fast_p99 = _percentiles_ms(plan.predict_proba, frame, n_repeats, warmup)

    throughput = []
    for batch in batch_sizes:
        x = rng.normal(loc=10.0, scale=3.0, size=(batch, n_inputs))
        reps = max(1, n_repeats // 4)
        throughput.append(
            BatchThroughput(
                batch=batch,
                tensor_fps=_throughput_fps(tensor_proba, x, reps, warmup),
                fastpath_fps=_throughput_fps(plan.predict_proba, x, reps, warmup),
            )
        )

    guard_scalar, guard_batch = _guard_validation_fps(n_inputs, guard_frames, seed)

    quantized = _quantized_arm(
        plan, probe, plan.predict_proba(probe).copy(), n_repeats, warmup
    )

    return PerfBenchReport(
        n_inputs=n_inputs,
        hidden_sizes=hidden,
        n_parameters=plan.n_parameters(),
        n_repeats=n_repeats,
        tolerance=tolerance,
        n_probe=n_probe,
        max_divergence=max_divergence,
        tensor_p50_ms=tensor_p50,
        tensor_p99_ms=tensor_p99,
        fastpath_p50_ms=fast_p50,
        fastpath_p99_ms=fast_p99,
        throughput=throughput,
        guard_scalar_fps=guard_scalar,
        guard_batch_fps=guard_batch,
        float32_parameter_bytes=plan.parameter_bytes(),
        quantized=quantized,
    )
