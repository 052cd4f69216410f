"""Bench-side bookkeeping of one trial, and the correctness gates run on it.

The client appends what it offered (link, pool row, plan, whether the
frame was valid or deliberately broken, when it was due) and what came
back (each call's return time and results).  :func:`verify` then checks,
after the clock has stopped:

* every model-tier answer (``primary`` or ``fastpath``) equals the
  reference plan's ``predict_proba`` on the same row, within
  :data:`TOLERANCE`; a gap-fill answer is checked against the row it
  repeats;
* no frame is answered twice, and no answer is for a frame never offered;
* every deliberately broken frame was refused at the door;
* the frame ledger reconciles exactly for every link or tenant:
  ``frames_in + repaired == frames_out + Σ drop causes + pending``, the
  results the client saw equal ``frames_out``, and every submission is
  either admitted or refused with a typed outcome.

A valid frame *fails* (a count, not a gate) when it got no model-tier
answer: dropped, shed, refused, answered by the fallback tier, or lost.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Max |Δp| between a served answer and the reference plan.
TOLERANCE = 1e-5

#: Answer sources that come from the model (the fallback tier does not).
MODEL_TIERS = ("primary", "fastpath")

#: Ticket outcomes that refuse a frame before admission.
REFUSED = ("rejected", "quarantined", "rate_limited")

#: Per-link counters that end a frame's life after admission, under the
#: engine's or the fleet's spelling.
DROP_KEYS = (
    "stale_dropped",
    "deadline_expired",
    "overflow",
    "overflow_dropped",
    "overload_shed",
    "policy_rejected",
)


@dataclass
class Book:
    """What the client offered and what came back, per submission ``j``."""

    link: list = field(default_factory=list)
    row: list = field(default_factory=list)
    plan: list = field(default_factory=list)
    valid: list = field(default_factory=list)
    #: When frame ``j`` was due: its submit call's start (closed loop) or
    #: its scheduled send time (open loop), in reference seconds.
    due: list = field(default_factory=list)
    #: False for frames offered during set-up (not in latency samples).
    timed: list = field(default_factory=list)
    tickets: list = field(default_factory=list)
    #: ``(return time, results)`` of every call that returned results.
    deliveries: list = field(default_factory=list)
    lifecycle_s: list = field(default_factory=list)
    ops: int = 0
    op_failures: int = 0
    lags: list = field(default_factory=list)
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`verify` on one trial."""

    offered: int
    failed: int
    #: Latency samples (seconds) of valid timed frames, by link.
    latencies: dict
    problems: tuple


def verify(book: Book, reference: np.ndarray, stats: dict, pending: dict) -> Verdict:
    """Run every gate on one trial.

    ``stats[link]`` is the engine's ``link_stats`` / the fleet's
    ``counters`` (or a detach report) for that link; ``pending[link]`` the
    frames still queued for it.
    """
    problems = list(book.problems)
    index: dict[int, int] = {}
    admitted: dict[str, tuple[list, list]] = {}
    submitted = Counter()
    for j, ticket in enumerate(book.tickets):
        if ticket.frame_id in index:
            problems.append(f"frame id {ticket.frame_id} assigned twice")
        index[ticket.frame_id] = j
        submitted[book.link[j]] += 1
        if ticket.outcome == "enqueued":
            times, subs = admitted.setdefault(book.link[j], ([], []))
            times.append(ticket.t_s)
            subs.append(j)
        if not book.valid[j] and ticket.outcome not in REFUSED:
            problems.append(f"broken frame {ticket.frame_id} was not refused")

    answered_by: dict[int, tuple] = {}
    results_per_link = Counter()
    worst = 0.0
    for t_return, results in book.deliveries:
        for result in results:
            results_per_link[result.link_id] += 1
            j = index.get(result.frame_id)
            if j is None:
                if not result.repaired:
                    problems.append(f"answer for unknown frame {result.frame_id}")
                    continue
                j = _fill_source(admitted, result)
                if j is None:
                    problems.append(f"fill {result.frame_id} has no source frame")
                    continue
            elif result.frame_id in answered_by:
                problems.append(f"frame {result.frame_id} answered twice")
            else:
                answered_by[result.frame_id] = (t_return, result.source)
            if result.source in MODEL_TIERS:
                delta = abs(result.probability - reference[book.plan[j], book.row[j]])
                worst = max(worst, delta)
    if worst > TOLERANCE:
        problems.append(f"answers diverge from the reference plan: max |dp| = {worst:.3g}")

    failed = 0
    offered = 0
    latencies: dict[str, list] = {}
    for j, ticket in enumerate(book.tickets):
        if not book.valid[j]:
            continue
        offered += 1
        got = answered_by.get(ticket.frame_id)
        if got is None or got[1] not in MODEL_TIERS:
            failed += 1
        elif book.timed[j]:
            latencies.setdefault(book.link[j], []).append(got[0] - book.due[j])

    for link, counts in stats.items():
        drops = sum(counts.get(key, 0) for key in DROP_KEYS)
        inflow = counts["frames_in"] + counts["repaired"]
        outflow = counts["frames_out"] + drops + pending.get(link, 0)
        if inflow != outflow:
            problems.append(
                f"ledger of {link!r} does not reconcile: in {counts['frames_in']} + "
                f"repaired {counts['repaired']} != out {counts['frames_out']} + "
                f"drops {drops} + pending {pending.get(link, 0)}"
            )
        if results_per_link[link] != counts["frames_out"]:
            problems.append(
                f"{link!r}: the client saw {results_per_link[link]} answers, "
                f"the program served {counts['frames_out']}"
            )
        refused = sum(counts.get(key, 0) for key in ("rejected", "quarantined", "rate_limited"))
        if submitted[link] != counts["frames_in"] + refused:
            problems.append(
                f"{link!r}: {submitted[link]} submitted != admitted "
                f"{counts['frames_in']} + refused {refused}"
            )
    missing = set(submitted) - set(stats)
    if missing:
        problems.append(f"no ledger for {len(missing)} link(s), e.g. {sorted(missing)[0]!r}")
    return Verdict(
        offered=offered,
        failed=failed + book.op_failures,
        latencies=latencies,
        problems=tuple(problems),
    )


def _fill_source(admitted: dict, result) -> int | None:
    """The submission a gap-fill repeats: its link's last admitted frame
    before the fill's timestamp (the repairer's ``hold`` mode)."""
    times, subs = admitted.get(result.link_id, ((), ()))
    k = bisect.bisect_left(times, result.t_s) - 1
    return subs[k] if k >= 0 else None
