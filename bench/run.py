"""Trial scheduling, metric reduction and reporting for ``python3 -m bench``.

A run measures one workload for ``--seconds``: it repeats fresh trials
(``gc.collect()`` between them) until the budget is spent, at least
:data:`MIN_TRIALS` times.  Rates and ``setup_s`` are medians over trials;
latency percentiles are computed over every trial's samples pooled.
``--trace 1`` alternates an untraced and a traced trial of the same inputs
and reports the per-layer metrics; end-to-end numbers only ever come from
untraced trials.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .inputs import Inputs
from .trace import LAYER_NAMES, SpanRecorder, calibrate, layer_metrics, ledger
from .workloads import TILE, Trial, Workload

#: Fewest trials a run makes, whatever ``--seconds`` says.
MIN_TRIALS = 3

#: Fewest set-up samples ``setup_s`` is the median of; runs with fewer
#: trials build extra systems up to their first answer.
MIN_SETUP_SAMPLES = 15

#: Default measuring time per workload (BENCHMARK.json ``run_seconds``).
DEFAULT_SECONDS = 20

#: The p99 latency limit of the open-loop workload: one 20 Hz frame period.
LATENCY_LIMIT_MS = 50.0

#: The time ledger must leave at most this share of wall unattributed.
LEDGER_LIMIT = 0.05

#: End-to-end metric → unit; reported on every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "throughput_fps": "frames/s",
    "capacity_fps": "frames/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Per-layer metric → unit; reported on every workload with ``--trace 1``
#: (0 where the workload does not exercise the layer).
PER_LAYER = {
    "serve.engine.self_us_per_frame": "us/frame",
    "serve.metrics.lookups_per_frame": "calls/frame",
    "serve.metrics.busy_us_per_frame": "us/frame",
    "serve.queue.busy_us_per_frame": "us/frame",
    "serve.queue.wait_p50_ms": "ms",
    "serve.queue.wait_p99_ms": "ms",
    "serve.queue.batch_mean": "frames",
    "serve.arena.busy_us_per_frame": "us/frame",
    "serve.arena.staged_share": "ratio",
    "fastpath.plan.busy_us_per_frame": "us/frame",
    "fastpath.plan.rows_per_call": "rows/call",
    "data.streaming.debounce_us_per_frame": "us/frame",
    "guard.supervisor.calls_per_frame": "calls/frame",
    "guard.supervisor.busy_us_per_frame": "us/frame",
    "guard.validation.busy_us_per_frame": "us/frame",
    "guard.validation.refused_share": "ratio",
    "guard.repair.busy_us_per_frame": "us/frame",
    "guard.repair.fills_per_kframe": "fills/kframe",
    "guard.drift.busy_us_per_frame": "us/frame",
    "overload.governor.busy_us_per_batch": "us/batch",
    "overload.governor.full_share": "ratio",
    "obs.calls_per_frame": "calls/frame",
    "obs.busy_us_per_frame": "us/frame",
    "fleet.service.self_us_per_frame": "us/frame",
    "fleet.service.tenant_p99_max_ms": "ms",
    "fleet.router.busy_us_per_frame": "us/frame",
    "fleet.fusion.gemm_us_per_frame": "us/frame",
    "fleet.fusion.schedule_us_per_frame": "us/frame",
    "fleet.fusion.fused_share": "ratio",
    "fleet.fusion.pad_share": "ratio",
    "fleet.registry.lookup_us_per_frame": "us/frame",
    "fleet.registry.busy_ms_per_op": "ms/op",
    "fleet.lifecycle.drain_ticks_per_op": "ticks/op",
    "fleet.lifecycle.drained_frames_per_op": "frames/op",
    "lifecycle_p50_ms": "ms",
    "lifecycle_p99_ms": "ms",
    "failed_share": "ratio",
    "bench.client.lag_p50_ms": "ms",
    "bench.client.lag_p99_ms": "ms",
    "bench.ledger.unattributed_share": "ratio",
    "bench.trace.overhead_share": "ratio",
}


@dataclass
class Report:
    """One workload's run: metrics, counts, gate findings, human text."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> str:
        units = {**END_TO_END, **PER_LAYER}
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def _ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def _pooled(trials: list[Trial], attr: str) -> list[float]:
    return [x for trial in trials for x in getattr(trial, attr)]


def _latencies(trial: Trial) -> list[float]:
    return [x for samples in trial.latencies.values() for x in samples]


def _trial_ms(trials: list[Trial], q: float) -> float:
    """Median over trials of each trial's ``q``-th latency percentile.

    Not pooled: one trial caught in a contention episode the clock only
    partly corrects would otherwise set the pooled tail by itself.
    """
    return statistics.median(_ms(_latencies(t), q) for t in trials)


def _tenant_p99_max_ms(trials: list[Trial]) -> float:
    by_tenant: dict[str, list] = {}
    for trial in trials:
        for tenant, samples in trial.latencies.items():
            by_tenant.setdefault(tenant, []).extend(samples)
    return max((_ms(samples, 99) for samples in by_tenant.values()), default=0.0)


def _frames_per_s(trial: Trial, seconds: float) -> float:
    return trial.answered / seconds if seconds > 0 else 0.0


def end_to_end(trials: list[Trial], setup_samples: list[float]) -> dict[str, float]:
    """The end-to-end metrics of a set of untraced trials."""
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_fps": statistics.median(_frames_per_s(t, t.wall_s) for t in trials),
        "capacity_fps": statistics.median(_frames_per_s(t, t.program_s) for t in trials),
        "latency_p50_ms": _trial_ms(trials, 50),
        "latency_p99_ms": _trial_ms(trials, 99),
    }


def measure(workload: Workload, inputs: Inputs, seconds: float, trace: bool) -> Report:
    """Run one workload for ``seconds`` and reduce its trials to a report."""
    report = Report()
    workload.setup_only(inputs, 0)  # warm caches and lazy imports
    cost = calibrate() if trace else None
    untraced: list[Trial] = []
    traced: list[dict] = []
    ledgers: list[dict] = []
    overheads: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_TRIALS or time.perf_counter() < deadline:
        gc.collect()
        trial = workload.run(inputs, index)
        untraced.append(trial)
        if trace:
            gc.collect()
            recorder = SpanRecorder()
            traced_trial = workload.run(inputs, index, recorder)
            spans = recorder.spans()
            del recorder
            scale = traced_trial.clock.scale_at(spans.start)
            traced.append(
                layer_metrics(
                    spans, cost, scale, frames=traced_trial.answered, ops=traced_trial.ops, tile=TILE
                )
            )
            ledgers.append(
                ledger(
                    spans, cost, scale, wall_s=traced_trial.wall_s, program_s=traced_trial.program_s
                )
            )
            # Program time, not wall: the open loop's wall is fixed by its
            # schedule, so only the time spent inside calls shows the cost.
            overheads.append(
                (traced_trial.program_s / traced_trial.answered)
                / (trial.program_s / trial.answered)
                - 1.0
            )
            report.problems.extend(traced_trial.problems)
            report.attempted += traced_trial.attempted
            report.failed += traced_trial.failed
            del spans
        index += 1
    setup_samples = [t.setup_s for t in untraced]
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        gc.collect()
        setup_samples.append(workload.setup_only(inputs, len(setup_samples)))
    for trial in untraced:
        report.problems.extend(trial.problems)
        report.attempted += trial.attempted
        report.failed += trial.failed

    e2e = end_to_end(untraced, setup_samples)
    samples = sum(len(_latencies(t)) for t in untraced)
    lifecycle = _pooled(untraced, "lifecycle_s")
    lags = _pooled(untraced, "lags")
    report.lines += [
        f"workload {workload.name} ({workload.loop}), seed {inputs.seed}",
        f"  {len(untraced)} untraced trial(s)"
        + (f" + {len(traced)} traced" if trace else "")
        + f", {samples} latency samples, {len(setup_samples)} set-up samples",
    ]
    if trace:
        values = {
            name: statistics.median(m[name] for m in traced)
            for name in traced[0]
        }
        shares = [abs(row["unattributed"]) / sum(row.values()) for row in ledgers]
        values.update(
            {
                "fleet.service.tenant_p99_max_ms": _tenant_p99_max_ms(untraced)
                if workload.serves_tenants
                else 0.0,
                "lifecycle_p50_ms": _ms(lifecycle, 50),
                "lifecycle_p99_ms": _ms(lifecycle, 99),
                "failed_share": report.failed / report.attempted if report.attempted else 0.0,
                "bench.client.lag_p50_ms": _ms(lags, 50),
                "bench.client.lag_p99_ms": _ms(lags, 99),
                "bench.ledger.unattributed_share": statistics.median(shares),
                "bench.trace.overhead_share": statistics.median(overheads),
            }
        )
        report.metrics = {name: values[name] for name in PER_LAYER}
        report.lines += _ledger_lines(ledgers)
        verdict = "OK" if values["bench.ledger.unattributed_share"] <= LEDGER_LIMIT else "NOT RECONCILED"
        report.lines.append(
            f"  time ledger: unattributed {values['bench.ledger.unattributed_share']:.2%} "
            f"of wall (limit {LEDGER_LIMIT:.0%}) — {verdict}"
        )
    else:
        report.metrics = e2e
    for name, value in report.metrics.items():
        unit = {**END_TO_END, **PER_LAYER}[name]
        report.lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    if workload.open_loop:
        verdict = "met" if e2e["latency_p99_ms"] <= LATENCY_LIMIT_MS else "MISSED"
        report.lines.append(
            f"  latency limit: p99 {e2e['latency_p99_ms']:.2f} ms <= {LATENCY_LIMIT_MS:g} ms {verdict}"
        )
    report.lines.append(
        f"  failed {report.failed} of {report.attempted} attempted; gates "
        + ("green" if report.correct else f"BROKEN ({len(report.problems)} finding(s))")
    )
    report.lines += [f"  gate: {problem}" for problem in report.problems[:10]]
    return report


def _ledger_lines(ledgers: list[dict]) -> list[str]:
    """Median share of wall per ledger row; the rows sum to wall."""
    rows = ["bench.client", *LAYER_NAMES, "bench.trace", "unattributed"]
    lines = ["  time ledger (traced trials, median share of wall):"]
    for row in rows:
        share = statistics.median(entry[row] / sum(entry.values()) for entry in ledgers)
        lines.append(f"    {row:<20} {share:>8.2%}")
    return lines

