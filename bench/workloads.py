"""The four workloads the benchmark runs.

Each trial builds a fresh system from the plan archives on disk, times its
set-up up to the first answer, drives the timed phase through the public
API, then (with the clock stopped) drains what is left and runs the gates
of :mod:`bench.book`.  Inputs come from the seed and the trial index only,
so the same seed offers the same frames on every machine.

Set-up is timed from "plan archive on disk" to "first answer returned":
``load_plan``, building the engine or fleet, attaching tenants, and the
first batch.  Frames offered during set-up are gated like every other
frame but are not latency samples.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.deploy.export import load_plan
from repro.exceptions import ReproError
from repro.fleet.registry import PlanRegistry
from repro.fleet.service import Fleet
from repro.guard.policy import GuardPolicy
from repro.obs.observer import Observer
from repro.overload.governor import OverloadPolicy
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

from .book import Book, verify
from .clock import Clock
from .inputs import FRAME_RATE_HZ, Inputs
from .trace import SpanRecorder, tracing

#: One frame period of a 20 Hz sniffer.
FRAME_PERIOD_S = 1.0 / FRAME_RATE_HZ

#: GEMM tile of every fleet (the pad-share base).
TILE = 16


@dataclass(frozen=True)
class Trial:
    """What one trial measured and what its gates found.

    Every time is in reference seconds (see :mod:`bench.clock`).
    """

    setup_s: float
    #: Wall time of the timed phase.
    wall_s: float
    #: Time the timed phase spent inside program calls.
    program_s: float
    #: Frames answered during the timed phase (every tier, fills too).
    answered: int
    #: Valid frames offered plus lifecycle operations, whole trial.
    attempted: int
    failed: int
    ops: int
    #: Per link: seconds from each valid timed frame being due to the
    #: return of the call that delivered its answer.
    latencies: dict
    #: Wall time of each lifecycle call (drain ticks included).
    lifecycle_s: list
    #: How late the open-loop generator sent each frame.
    lags: list
    problems: tuple
    #: The trial's clock; maps raw span times to scale factors.
    clock: Clock


class Workload:
    """One traffic mix; subclasses provide the schedule, set-up and loop."""

    name = ""
    loop = ""
    n_plans = 1
    #: Frames are due on a schedule (open loop), not on the last reply.
    open_loop = False
    #: Results belong to fleet tenants (per-tenant latency is reported).
    serves_tenants = False

    def schedule(self, inputs: Inputs, index: int):
        raise NotImplementedError

    def setup(self, inputs: Inputs, schedule, book: Book, clock: Clock):
        raise NotImplementedError

    def drive(self, system, schedule, book: Book, clock: Clock) -> tuple[float, float]:
        """Run the timed phase; returns ``(wall_s, program_s)``.

        Calls ``clock.check()`` only between program calls.
        """
        raise NotImplementedError

    def close(self, system, book: Book) -> tuple[dict, dict]:
        """Drain leftovers; returns per-link ``(stats, pending)``."""
        raise NotImplementedError

    def setup_only(self, inputs: Inputs, index: int) -> float:
        """Build a system up to its first answer and throw it away."""
        schedule = self.schedule(inputs, index)
        clock = Clock()
        t0 = clock.now()
        self.setup(inputs, schedule, Book(), clock)
        return clock.now() - t0

    def run(self, inputs: Inputs, index: int, recorder: SpanRecorder | None = None) -> Trial:
        schedule = self.schedule(inputs, index)
        book = Book()
        clock = Clock()
        t0 = clock.now()
        system = self.setup(inputs, schedule, book, clock)
        setup_s = clock.now() - t0
        before = sum(len(results) for _, results in book.deliveries)
        with tracing(recorder) if recorder is not None else nullcontext():
            wall_s, program_s = self.drive(system, schedule, book, clock)
        answered = sum(len(results) for _, results in book.deliveries) - before
        stats, pending = self.close(system, book)
        verdict = verify(book, inputs.reference, stats, pending)
        return Trial(
            setup_s=setup_s,
            wall_s=wall_s,
            program_s=program_s,
            answered=answered,
            attempted=verdict.offered + book.ops,
            failed=verdict.failed,
            ops=book.ops,
            latencies=verdict.latencies,
            lifecycle_s=book.lifecycle_s,
            lags=book.lags,
            problems=verdict.problems,
            clock=clock,
        )


def _pool_rows(inputs: Inputs, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` consecutive pool row indices from a seeded offset."""
    return (int(rng.integers(len(inputs.rows))) + np.arange(n)) % len(inputs.rows)


# --------------------------------------------------------------- engine


@dataclass(frozen=True)
class _Stream:
    link: list
    t_s: list
    row: list
    view: list


class EngineSaturated(Workload):
    name = "engine-saturated"
    loop = "closed loop, 1 client"

    def __init__(self, frames: int = 60_000, links: int = 64) -> None:
        self.frames = frames
        self.links = links
        self.config = ServeConfig(
            max_batch=64, max_latency_ms=None, queue_capacity=256, arena_slots=320
        )

    def schedule(self, inputs: Inputs, index: int) -> _Stream:
        n = self.frames + self.config.max_batch
        rows = _pool_rows(inputs, inputs.rng(1, index), n)
        names = [f"link-{k:03d}" for k in range(self.links)]
        return _Stream(
            link=[names[j % self.links] for j in range(n)],
            t_s=[(j // self.links) * FRAME_PERIOD_S for j in range(n)],
            row=rows.tolist(),
            view=[inputs.rows[r] for r in rows],
        )

    def setup(self, inputs: Inputs, s: _Stream, book: Book, clock: Clock):
        engine = InferenceEngine(load_plan(inputs.plan_paths[0]), self.config)
        j = 0
        while True:
            t0 = clock.now()
            ticket = engine.submit_frame(s.link[j], s.t_s[j], s.view[j])
            book.due.append(t0)
            book.tickets.append(ticket)
            j += 1
            if ticket.results:
                book.deliveries.append((clock.now(), ticket.results))
                break
        _offer(book, s.link[:j], s.row[:j], 0, timed=False)
        return engine, j

    def drive(self, system, s: _Stream, book: Book, clock: Clock) -> tuple[float, float]:
        engine, start = system
        stream = list(zip(s.link[start:], s.t_s[start:], s.view[start:]))
        due, tickets, deliveries = book.due, book.tickets, book.deliveries
        submit, now = engine.submit_frame, clock.now
        program = 0.0
        t_start = now()
        for link, t_s, row in stream:
            t0 = now()
            ticket = submit(link, t_s, row)
            t1 = now()
            program += t1 - t0
            due.append(t0)
            tickets.append(ticket)
            if ticket.results:
                deliveries.append((t1, ticket.results))
                clock.check()
        t0 = now()
        results = engine.flush()
        t1 = now()
        program += t1 - t0
        if results:
            deliveries.append((t1, results))
        _offer(book, s.link[start:], s.row[start:], 0, timed=True)
        return t1 - t_start, program

    def close(self, engine_and_start, book: Book) -> tuple[dict, dict]:
        engine, _ = engine_and_start
        return _engine_ledgers(engine, book)


def _offer(book: Book, links, rows, plan, *, timed: bool, valid=None) -> None:
    """Book the static columns of a run of submissions."""
    n = len(links)
    book.link.extend(links)
    book.row.extend(rows)
    book.plan.extend([plan] * n if isinstance(plan, int) else plan)
    book.valid.extend([True] * n if valid is None else valid)
    book.timed.extend([timed] * n)


def _engine_ledgers(engine: InferenceEngine, book: Book) -> tuple[dict, dict]:
    results = engine.flush()
    if results:
        book.problems.append(f"the client left {len(results)} frame(s) queued")
        book.deliveries.append((math.inf, results))
    if engine.arena is not None:
        try:
            engine.arena.check()
        except ReproError as error:
            book.problems.append(f"arena: {error}")
        if engine.arena.in_use:
            book.problems.append(f"arena holds {engine.arena.in_use} slot(s) after drain")
    stats = {link: engine.link_stats(link) for link in engine.link_ids}
    pending = {link: engine.queue.link_depth(link) for link in engine.link_ids}
    return stats, pending


# -------------------------------------------------------------- building


@dataclass(frozen=True)
class _Schedule:
    due: list
    link: list
    row: list
    valid: list
    view: list


class BuildingOpen(Workload):
    name = "building-open"
    loop = "open loop, 300 links x 20 Hz = 6000 frames/s"
    open_loop = True

    #: Send-time jitter around each link's 20 Hz grid.
    jitter_s = 0.002
    #: Shares of sends replaced by a NaN row and by a x50 amplitude spike.
    nan_share = 0.005
    spike_share = 0.005
    #: Share of links that go dark, and for how long, in every second.
    dark_share = 0.01
    dark_s = 0.2

    def __init__(self, links: int = 300, duration_s: float = 3.0) -> None:
        self.links = links
        self.duration_s = duration_s
        self.dark_links = max(1, round(self.dark_share * links))

    def config(self, inputs: Inputs) -> ServeConfig:
        return ServeConfig(
            max_batch=32,
            max_latency_ms=25.0,
            queue_capacity=512,
            arena_slots=544,
            guard=GuardPolicy(
                inputs.reference_stats,
                inputs.n_features,
                expected_interval_s=FRAME_PERIOD_S,
            ),
            deadline_ms=250.0,
            overload=OverloadPolicy(),
            observer=Observer(),
            auto_flush=False,
        )

    def schedule(self, inputs: Inputs, index: int) -> _Schedule:
        rng = inputs.rng(4, index)
        slots = int(self.duration_s / FRAME_PERIOD_S) + 1
        phase = rng.uniform(0.0, FRAME_PERIOD_S, self.links)
        t = (
            phase[:, None]
            + np.arange(slots)[None, :] * FRAME_PERIOD_S
            + rng.uniform(-self.jitter_s, self.jitter_s, (self.links, slots))
        ).ravel()
        link = np.repeat(np.arange(self.links), slots)
        keep = (t >= 0.0) & (t < self.duration_s)
        for second in range(math.ceil(self.duration_s)):
            start = second + rng.uniform(0.0, 1.0 - self.dark_s)
            dark = rng.choice(self.links, self.dark_links, replace=False)
            keep &= ~(np.isin(link, dark) & (t >= start) & (t < start + self.dark_s))
        order = np.argsort(t[keep], kind="stable")
        t, link = t[keep][order], link[keep][order]
        n = len(t)
        u = rng.random(n)
        nan = u < self.nan_share
        spike = (u >= self.nan_share) & (u < self.nan_share + self.spike_share)
        rows = _pool_rows(inputs, rng, n)
        nan_column = rng.integers(inputs.n_features, size=n)
        views = []
        for k, r in enumerate(rows):
            if nan[k]:
                row = inputs.rows[r].copy()
                row[nan_column[k]] = np.nan
            elif spike[k]:
                row = inputs.rows[r] * 50.0
            else:
                row = inputs.rows[r]
            views.append(row)
        names = [f"room-{k:03d}" for k in range(self.links)]
        return _Schedule(
            due=t.tolist(),
            link=[names[k] for k in link],
            row=rows.tolist(),
            valid=(~(nan | spike)).tolist(),
            view=views,
        )

    def setup(self, inputs: Inputs, s: _Schedule, book: Book, clock: Clock):
        config = self.config(inputs)
        plan = load_plan(inputs.plan_paths[0])
        engine = InferenceEngine(plan, config)
        engine.attach_fastpath(plan)
        first = config.max_batch
        for j in range(first):
            book.tickets.append(engine.submit_frame(s.link[j], s.due[j], s.view[j]))
        book.due.extend(s.due[:first])
        book.deliveries.append((0.0, engine.pump(now_s=s.due[first - 1])))
        _offer(book, s.link[:first], s.row[:first], 0, timed=False, valid=s.valid[:first])
        return engine, first

    def drive(self, system, s: _Schedule, book: Book, clock: Clock) -> tuple[float, float]:
        engine, i = system
        queue = engine.queue
        max_latency_s = queue.max_latency_s
        submit, pump = engine.submit_frame, engine.pump
        due, link, view = s.due, s.link, s.view
        n = len(due)
        first = i
        tickets, deliveries, lags = book.tickets, book.deliveries, book.lags
        program = 0.0
        clock_now = clock.now
        t_start = clock_now()
        anchor = t_start - due[i]
        while True:
            clock.check()
            now = clock_now() - anchor
            while i < n and due[i] <= now:
                t0 = clock_now()
                tickets.append(submit(link[i], due[i], view[i]))
                t1 = clock_now()
                program += t1 - t0
                lags.append(t0 - anchor - due[i])
                i += 1
            t0 = clock_now()
            ready = queue.ready(t0 - anchor)
            t1 = clock_now()
            program += t1 - t0
            if ready:
                t0 = clock_now()
                results = pump(now_s=t0 - anchor)
                t1 = clock_now()
                program += t1 - t0
                deliveries.append((t1 - anchor, results))
                continue
            oldest = queue.oldest_t_s
            if i >= n and oldest is None:
                break
            target = due[i] if i < n else math.inf
            if oldest is not None:
                target = min(target, oldest + max_latency_s)
            _wait_until(clock, anchor + target)
        wall = clock_now() - t_start
        book.due.extend(due[first:])
        _offer(book, link[first:], s.row[first:], 0, timed=True, valid=s.valid[first:])
        return wall, program

    def close(self, system, book: Book) -> tuple[dict, dict]:
        engine, _ = system
        ledger = engine.observer.ledger()
        if ledger["unaccounted"]:
            book.problems.append(f"observer ledger leaves {ledger['unaccounted']} frame(s) unaccounted")
        return _engine_ledgers(engine, book)


def _wait_until(clock: Clock, target: float) -> None:
    """Sleep, then spin, until the clock reads ``target``."""
    while True:
        remaining = target - clock.now()
        if remaining <= 0.0:
            return
        if remaining > 1e-3:
            time.sleep(remaining - 5e-4)


# ---------------------------------------------------------------- fleets


class FleetSaturated(Workload):
    name = "fleet-saturated"
    loop = "closed loop, 1 client"
    serves_tenants = True

    def __init__(self, tenants: int = 256, ticks: int = 60, own_every: int = 8) -> None:
        self.tenants = tenants
        self.ticks = ticks
        self.own_every = own_every
        self.n_plans = 1 + tenants // own_every

    def plan_of(self, k: int) -> int:
        """Tenant ``k``'s plan: every ``own_every``-th has its own, the rest share."""
        return 1 + k // self.own_every if k % self.own_every == self.own_every - 1 else 0

    def schedule(self, inputs: Inputs, index: int):
        per_tick = 2 * self.tenants
        rows = _pool_rows(inputs, inputs.rng(2, index), (self.ticks + 1) * per_tick)
        ids = [f"tenant-{k:03d}" for k in range(self.tenants)]
        ticks = []
        for tick in range(self.ticks + 1):
            base = 2 * tick * FRAME_PERIOD_S
            block = rows[tick * per_tick : (tick + 1) * per_tick].tolist()
            ticks.append(
                [
                    (ids[k], base + f * FRAME_PERIOD_S, inputs.rows[r], r, self.plan_of(k))
                    for k in range(self.tenants)
                    for f, r in enumerate(block[2 * k : 2 * k + 2])
                ]
            )
        return ids, ticks

    def setup(self, inputs: Inputs, schedule, book: Book, clock: Clock):
        ids, ticks = schedule
        shared = load_plan(inputs.plan_paths[0])
        fleet = Fleet(ServeConfig(), tile=TILE)
        for k, tenant in enumerate(ids):
            p = self.plan_of(k)
            fleet.attach(tenant, shared if p == 0 else load_plan(inputs.plan_paths[p]))
        _fleet_tick(fleet, ticks[0], book, clock, timed=False)
        return fleet

    def drive(self, fleet, schedule, book: Book, clock: Clock) -> tuple[float, float]:
        _, ticks = schedule
        program = 0.0
        t_start = clock.now()
        for frames in ticks[1:]:
            program += _fleet_tick(fleet, frames, book, clock, timed=True)
            clock.check()
        return clock.now() - t_start, program

    def close(self, fleet, book: Book) -> tuple[dict, dict]:
        return _fleet_ledgers(fleet, book, {})


def _fleet_submit(fleet: Fleet, frames, book: Book, clock: Clock, *, timed: bool) -> float:
    """Submit one tick's ``(tenant, t_s, row, pool row, plan)`` frames;
    returns the time spent inside ``submit``."""
    submit, now = fleet.submit, clock.now
    due, tickets = book.due, book.tickets
    program = 0.0
    for tenant, t_s, row, _, _ in frames:
        t0 = now()
        ticket = submit(tenant, t_s, row)
        t1 = now()
        program += t1 - t0
        due.append(t0)
        tickets.append(ticket)
    _offer(
        book,
        [f[0] for f in frames],
        [f[3] for f in frames],
        [f[4] for f in frames],
        timed=timed,
    )
    return program


def _fleet_tick(fleet: Fleet, frames, book: Book, clock: Clock, *, timed: bool) -> float:
    """Every frame of one tick, then ``tick()``; returns program time."""
    program = _fleet_submit(fleet, frames, book, clock, timed=timed)
    t0 = clock.now()
    results = fleet.tick()
    t1 = clock.now()
    book.deliveries.append((t1, results))
    return program + t1 - t0


def _fleet_ledgers(fleet: Fleet, book: Book, reports: dict) -> tuple[dict, dict]:
    results = fleet.flush()
    if results:
        book.problems.append(f"the client left {len(results)} frame(s) queued")
        book.deliveries.append((math.inf, results))
    stats = dict(reports)
    pending = {}
    for tenant in fleet.tenant_ids:
        stats[tenant] = fleet.counters(tenant)
        pending[tenant] = fleet.router.depth(tenant)
    for tenant, report in reports.items():
        if report["drained"] != report["drain_served"] + report["drain_shed"]:
            book.problems.append(f"detach of {tenant!r} is not drain-exact: {report}")
    return stats, pending


class FleetChurn(Workload):
    name = "fleet-churn"
    loop = "closed loop, 1 client"
    serves_tenants = True

    n_plans = 3
    ATTACH, DETACH, REPLACE = range(3)

    shards = 4

    def __init__(self, ticks: int = 150, start: int = 32, low: int = 24, high: int = 40) -> None:
        self.ticks = ticks
        self.start = start
        self.low = low
        self.high = high

    def schedule(self, inputs: Inputs, index: int) -> dict:
        rng = inputs.rng(3, index)
        # Exact thirds, shuffled per block of three ticks: the roster stays
        # near its start size, so per-tick work does not depend on the seed.
        blocks = [rng.permutation(3).tolist() for _ in range(math.ceil(self.ticks / 3))]
        return {
            "cohorts": rng.integers(self.n_plans, size=self.start + self.ticks).tolist(),
            "ops": [op for block in blocks for op in block][: self.ticks],
            "picks": rng.random(self.ticks).tolist(),
            "shifts": rng.integers(1, self.n_plans, size=self.ticks).tolist(),
            "rows": _pool_rows(inputs, rng, 2 * self.high * (self.ticks + 1)).tolist(),
        }

    def setup(self, inputs: Inputs, s: dict, book: Book, clock: Clock):
        plans = [load_plan(path) for path in inputs.plan_paths[: self.n_plans]]
        fleet = Fleet(
            ServeConfig(),
            plans=PlanRegistry(n_shards=self.shards),
            tile=TILE,
            rebalance_skew=1.25,
        )
        state = {"plans": plans, "live": [], "plan_of": {}, "reports": {}, "row": 0, "views": inputs.rows}
        for k in range(self.start):
            tenant = f"tenant-{k:03d}"
            fleet.attach(tenant, plans[s["cohorts"][k]])
            state["live"].append(tenant)
            state["plan_of"][tenant] = s["cohorts"][k]
        _fleet_tick(fleet, self._frames(state, s, 0), book, clock, timed=False)
        return fleet, state

    def _frames(self, state: dict, s: dict, tick: int) -> list:
        rows, views, plan_of = s["rows"], state["views"], state["plan_of"]
        frames = []
        for tenant in state["live"]:
            for f in range(2):
                r = rows[state["row"] % len(rows)]
                state["row"] += 1
                frames.append(
                    (tenant, (2 * tick + f) * FRAME_PERIOD_S, views[r], r, plan_of[tenant])
                )
        return frames

    def drive(self, system, s: dict, book: Book, clock: Clock) -> tuple[float, float]:
        fleet, state = system
        live, plan_of, plans = state["live"], state["plan_of"], state["plans"]
        now = clock.now
        program = 0.0
        added = self.start
        t_start = now()
        for tick in range(self.ticks):
            frames = self._frames(state, s, tick + 1)
            program += _fleet_submit(fleet, frames, book, clock, timed=True)
            op = s["ops"][tick]
            if op == self.ATTACH and len(live) >= self.high:
                op = self.DETACH
            elif op == self.DETACH and len(live) <= self.low:
                op = self.ATTACH
            pick = int(s["picks"][tick] * len(live))
            t0 = now()
            try:
                if op == self.ATTACH:
                    tenant = f"tenant-{added:03d}"
                    cohort = s["cohorts"][added]
                    added += 1
                    fleet.attach(tenant, plans[cohort])
                    live.append(tenant)
                    plan_of[tenant] = cohort
                elif op == self.DETACH:
                    tenant = live.pop(pick)
                    state["reports"][tenant] = fleet.detach(tenant)
                else:
                    tenant = live[pick]
                    cohort = (plan_of[tenant] + s["shifts"][tick]) % self.n_plans
                    fleet.replace_plan(tenant, plans[cohort])
                    plan_of[tenant] = cohort
            except ReproError as error:
                book.op_failures += 1
                book.problems.append(f"lifecycle op failed: {error}")
            t1 = now()
            drained = fleet.take_drained()
            t2 = now()
            book.ops += 1
            book.lifecycle_s.append(t1 - t0)
            program += t2 - t0
            if drained:
                book.deliveries.append((t2, drained))
            t0 = now()
            results = fleet.tick()
            t1 = now()
            program += t1 - t0
            book.deliveries.append((t1, results))
            clock.check()
        return now() - t_start, program

    def close(self, system, book: Book) -> tuple[dict, dict]:
        fleet, state = system
        return _fleet_ledgers(fleet, book, state["reports"])


#: Every workload, in the order ``python3 -m bench`` runs them.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (EngineSaturated, FleetSaturated, BuildingOpen, FleetChurn)
}
