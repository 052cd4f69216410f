"""The ``fleet-bench`` harness: fused vs per-tenant serving at fleet scale.

Drives N tenants × M-frames-per-second seeded synthetic traffic (rows
drawn from one simulated campaign) through two identically configured
:class:`~repro.fleet.service.Fleet` instances — fusion on and fusion
off — and reports:

* aggregate throughput of each arm and the fused-vs-unfused speedup
  (per-tenant latency is measured by the repository benchmark's
  ``fleet.service.tenant_p99_max_ms``, ``python3 -m bench``);
* the **byte-identity gate**: every probability of the fused arm must
  equal the unfused arm's bit for bit.  This is the invariant CI gates
  on; throughput numbers are machine-dependent and informational;
* per-tenant ledger/counter reconciliation from a third, untimed
  replay with live observers (observers stay off the timed arms so the
  comparison measures serving, not event logging).

The tenant population mixes one shared-plan cohort (the common "one
model, many rooms" deployment, fusion-eligible) with every
``distinct_every``-th tenant running its own freshly initialised plan
(the odd-one-out architectures that must fall back to per-tenant
dispatch).

**The churn arm** exercises fleet *elasticity*: a seeded schedule of
attach / detach / replace_plan operations interleaved with live traffic
drives two fleets (fused and unfused) through identical tenant churn —
including drain-before-detach through real ticks and automatic
skew-triggered shard rebalancing — and gates on the same deterministic
invariants: fused-vs-unfused byte identity over every probability ever
served (drain-tick results included), exact per-tenant ledger
reconciliation for every tenant that *ever* existed, drain-exact detach
audits (``drained == drain_served + drain_shed``), and zero frames
served after their tenant detached.  Speed is never gated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..benchkit import DEFAULT_SEED
from ..config import CampaignConfig
from ..data.recording import CollectionCampaign
from ..exceptions import ConfigurationError
from ..fastpath.plan import InferencePlan
from ..nn.modules import Linear, ReLU, Sequential
from ..obs.observer import Observer
from ..serve.config import ServeConfig
from .registry import PlanRegistry
from .service import Fleet


@dataclass
class FleetArmStats:
    """Throughput of one timed arm (fused or unfused)."""

    wall_s: float
    frames: int
    fusion_ratio: float

    @property
    def fps(self) -> float:
        return self.frames / self.wall_s if self.wall_s > 0 else float("inf")


@dataclass
class ChurnStats:
    """What the churn arm did and whether its invariants held."""

    ticks: int
    tenants_seen: int          #: tenants that ever attached (initial + churned in)
    attaches: int              #: mid-run attach operations
    detaches: int              #: detach operations (incl. the final drain-out)
    swaps: int                 #: replace_plan operations
    migrations: int            #: shard moves applied by rebalance passes
    frames_submitted: int
    frames_served: int
    drained_total: int         #: frames pending at some detach, drained through ticks
    byte_identical: bool
    n_compared: int
    max_abs_delta: float
    ledger_reconciled: bool
    drain_exact: bool          #: every detach: drained == drain_served + drain_shed
    post_detach_serves: int    #: results emitted for an already-detached tenant (must be 0)

    @property
    def gates_ok(self) -> bool:
        """All four CI-gated churn invariants at once."""
        return (
            self.byte_identical
            and self.ledger_reconciled
            and self.drain_exact
            and self.post_detach_serves == 0
        )

    def to_json(self) -> dict:
        return {
            "ticks": self.ticks,
            "tenants_seen": self.tenants_seen,
            "attaches": self.attaches,
            "detaches": self.detaches,
            "swaps": self.swaps,
            "migrations": self.migrations,
            "frames_submitted": self.frames_submitted,
            "frames_served": self.frames_served,
            "drained_total": self.drained_total,
            "byte_identical": self.byte_identical,
            "n_compared": self.n_compared,
            "max_abs_delta": self.max_abs_delta,
            "ledger_reconciled": self.ledger_reconciled,
            "drain_exact": self.drain_exact,
            "post_detach_serves": self.post_detach_serves,
        }


@dataclass
class FleetBenchReport:
    """Everything one fleet-bench run measured."""

    n_tenants: int
    frames_per_tenant: int
    frames_per_tick: int
    tile: int
    distinct_every: int
    n_cohorts: int
    seed: int
    fused: FleetArmStats
    unfused: FleetArmStats
    byte_identical: bool
    n_compared: int
    max_abs_delta: float
    ledger_reconciled: bool
    counters_reconciled: bool
    #: The churn arm's audit (None when churn was disabled).
    churn: ChurnStats | None = None

    @property
    def speedup(self) -> float:
        """Fused aggregate throughput over unfused."""
        return self.fused.fps / self.unfused.fps if self.unfused.fps > 0 else float("inf")

    def describe(self) -> str:
        lines = [
            f"tenants              : {self.n_tenants} "
            f"({self.n_cohorts} plan cohort(s), odd-one-out every "
            f"{self.distinct_every})",
            f"traffic              : {self.frames_per_tenant} frames/tenant, "
            f"{self.frames_per_tick}/tick, tile {self.tile}, seed {self.seed}",
            f"unfused dispatch     : {self.unfused.fps:10.0f} frames/s "
            f"({self.unfused.wall_s:.3f} s)",
            f"fused dispatch       : {self.fused.fps:10.0f} frames/s "
            f"({self.fused.wall_s:.3f} s, fusion ratio "
            f"{self.fused.fusion_ratio:.2f})",
            f"speedup              : {self.speedup:10.2f}x",
            f"byte identity        : "
            f"{'OK' if self.byte_identical else 'FAILED'} over "
            f"{self.n_compared} probabilities "
            f"(max |Δp| = {self.max_abs_delta:.3g})",
            f"ledger reconciliation: "
            f"{'OK' if self.ledger_reconciled else 'FAILED'}",
            f"counter rollups      : "
            f"{'OK' if self.counters_reconciled else 'FAILED'}",
        ]
        if self.churn is not None:
            c = self.churn
            lines += [
                f"churn                : {c.ticks} ticks, {c.tenants_seen} "
                f"tenant(s) seen, +{c.attaches}/-{c.detaches} churned, "
                f"{c.swaps} swap(s), {c.migrations} shard migration(s)",
                f"churn identity       : "
                f"{'OK' if c.byte_identical else 'FAILED'} over "
                f"{c.n_compared} probabilities (max |Δp| = {c.max_abs_delta:.3g})",
                f"churn ledger         : "
                f"{'OK' if c.ledger_reconciled else 'FAILED'}  "
                f"drain-exact: {'OK' if c.drain_exact else 'FAILED'}  "
                f"post-detach serves: {c.post_detach_serves}",
            ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON payload written as ``BENCH_fleet.json`` (CLI adds envelope).

        ``byte_identical`` (with ``ledger_reconciled``/
        ``counters_reconciled``) are the CI-gated invariants; throughput
        fields are informational.
        """
        return {
            "bench": "fleet-bench",
            "fleet": {
                "n_tenants": self.n_tenants,
                "frames_per_tenant": self.frames_per_tenant,
                "frames_per_tick": self.frames_per_tick,
                "tile": self.tile,
                "distinct_every": self.distinct_every,
                "n_cohorts": self.n_cohorts,
            },
            "identity": {
                "byte_identical": self.byte_identical,
                "n_compared": self.n_compared,
                "max_abs_delta": self.max_abs_delta,
                "ledger_reconciled": self.ledger_reconciled,
                "counters_reconciled": self.counters_reconciled,
            },
            "throughput_fps": {
                "fused": self.fused.fps,
                "unfused": self.unfused.fps,
                "speedup": self.speedup,
                "fusion_ratio": self.fused.fusion_ratio,
            },
            "wall_s": {"fused": self.fused.wall_s, "unfused": self.unfused.wall_s},
            "churn": None if self.churn is None else self.churn.to_json(),
        }


def _fresh_plan(n_inputs: int, plan_seed: int) -> InferencePlan:
    rng = np.random.default_rng(plan_seed)
    model = Sequential(
        Linear(n_inputs, 64, rng=rng),
        ReLU(),
        Linear(64, 32, rng=rng),
        ReLU(),
        Linear(32, 1, rng=rng),
    )
    return InferencePlan.from_model(model)


def _build_plans(
    tenant_ids: list[str], n_inputs: int, distinct_every: int, seed: int
) -> dict[str, InferencePlan]:
    """One shared plan for the cohort, fresh plans for odd-one-out tenants."""
    shared = _fresh_plan(n_inputs, seed)
    plans: dict[str, InferencePlan] = {}
    for i, tenant_id in enumerate(tenant_ids):
        if distinct_every and i % distinct_every == distinct_every - 1:
            plans[tenant_id] = _fresh_plan(n_inputs, seed + 1 + i)
        else:
            plans[tenant_id] = shared
    return plans


def _campaign_source(n_inputs: int, seed: int) -> np.ndarray:
    """Realistic CSI rows from one small simulated campaign."""
    n_source = 512
    config = CampaignConfig(
        duration_h=n_source / (3600.0 * 0.5), sample_rate_hz=0.5, seed=seed
    )
    dataset = CollectionCampaign(config).run()
    source = dataset.csi[:, :n_inputs]
    if source.shape[1] < n_inputs:
        raise ConfigurationError(
            f"campaign provides {source.shape[1]} subcarriers, bench needs {n_inputs}"
        )
    return source


def _make_traffic(
    tenant_ids: list[str],
    frames_per_tenant: int,
    n_inputs: int,
    seed: int,
    source: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Seeded synthetic CSI traffic per tenant, drawn from one campaign."""
    # One small simulated campaign supplies realistic CSI rows; each
    # tenant resamples its own frame sequence from it.
    if source is None:
        source = _campaign_source(n_inputs, seed)
    rng = np.random.default_rng(seed)
    return {
        tenant_id: np.ascontiguousarray(
            source[rng.integers(0, len(source), size=frames_per_tenant)]
        )
        for tenant_id in tenant_ids
    }


def _replay(
    fleet: Fleet,
    tenant_ids: list[str],
    traffic: dict[str, np.ndarray],
    frames_per_tick: int,
    rate_hz: float,
) -> tuple[dict[str, list[float]], float]:
    """Run the traffic through one fleet; returns (probs, wall_s)."""
    probabilities: dict[str, list[float]] = {t: [] for t in tenant_ids}
    frames_per_tenant = len(next(iter(traffic.values())))
    n_ticks = -(-frames_per_tenant // frames_per_tick)
    dt = 1.0 / rate_hz
    start = time.perf_counter()
    for tick_i in range(n_ticks):
        lo = tick_i * frames_per_tick
        hi = min(lo + frames_per_tick, frames_per_tenant)
        for tenant_id in tenant_ids:
            rows = traffic[tenant_id]
            for j in range(lo, hi):
                fleet.submit(tenant_id, j * dt, rows[j])
        for result in fleet.tick():
            probabilities[result.tenant_id].append(result.probability)
    wall_s = time.perf_counter() - start
    return probabilities, wall_s


# ----------------------------------------------------------------- churn arm


def _churn_ops(
    seed: int, ticks: int, n_initial: int
) -> tuple[list[tuple[str, str]], list[list[tuple[str, str, str]]]]:
    """Seeded attach/detach/swap schedule, shared verbatim by both arms.

    Returns ``(initial, schedule)`` where ``initial`` is the starting
    roster as ``(tenant_id, plan_key)`` pairs and ``schedule[i]`` is the
    list of ``(op, tenant_id, plan_key)`` operations applied before tick
    ``i``.  Ops per tick: ~35% attach a new tenant (mostly into the
    shared cohort), ~25% detach a random live tenant (roster floor 3),
    ~20% hot-swap a random tenant's plan, rest quiet.
    """
    rng = np.random.default_rng(seed)
    initial = [
        (f"churn-{i:03d}", "shared" if (i + 1) % 3 else "alt")
        for i in range(n_initial)
    ]
    attached = [tenant_id for tenant_id, _ in initial]
    next_id = n_initial
    schedule: list[list[tuple[str, str, str]]] = []
    for _ in range(ticks):
        ops: list[tuple[str, str, str]] = []
        roll = float(rng.random())
        if roll < 0.35:
            tenant_id = f"churn-{next_id:03d}"
            key_roll = float(rng.random())
            if key_roll < 0.60:
                key = "shared"
            elif key_roll < 0.85:
                key = "alt"
            else:
                key = f"solo-{next_id:03d}"
            next_id += 1
            ops.append(("attach", tenant_id, key))
            attached.append(tenant_id)
        elif roll < 0.60:
            if len(attached) > 3:
                victim = attached.pop(int(rng.integers(len(attached))))
                ops.append(("detach", victim, ""))
        elif roll < 0.80:
            if attached:
                target = attached[int(rng.integers(len(attached)))]
                key = "shared" if float(rng.random()) < 0.5 else "alt"
                ops.append(("swap", target, key))
        schedule.append(ops)
    return initial, schedule


def _churn_replay(
    fusion_enabled: bool,
    initial: list[tuple[str, str]],
    schedule: list[list[tuple[str, str, str]]],
    plan_pool: dict[str, InferencePlan],
    source: np.ndarray,
    seed: int,
    frames_per_tick: int,
    n_shards: int,
    rebalance_skew: float,
    tile: int,
):
    """Drive one fleet through the churn schedule with live observers.

    Returns ``(probs, observers, detach_reports, post_detach_serves,
    frames_submitted, fleet)``.  Traffic rows are drawn from ``source``
    by a seeded rng whose draw sequence is identical across arms because
    the op schedule (hence the live-roster sequence) is identical.
    """
    observers: dict[str, Observer] = {}
    attach_label: list[str] = []

    def factory() -> Observer:
        # Fleet.attach calls the factory synchronously, so the label
        # pushed just before the call names the observer's tenant.
        observer = Observer()
        observers[attach_label[-1]] = observer
        return observer

    fleet = Fleet(
        ServeConfig(max_latency_ms=None),
        plans=PlanRegistry(n_shards=n_shards),
        tile=tile,
        fusion_enabled=fusion_enabled,
        observer_factory=factory,
        rebalance_skew=rebalance_skew,
    )
    probs: dict[str, list[float]] = {}
    detach_reports: dict[str, dict[str, int]] = {}
    detached: set[str] = set()
    post_detach = 0
    frames_submitted = 0

    def harvest(results) -> None:
        nonlocal post_detach
        for result in results:
            if result.tenant_id in detached:
                post_detach += 1
            probs.setdefault(result.tenant_id, []).append(result.probability)

    def do_attach(tenant_id: str, key: str, t_s: float) -> None:
        attach_label.append(tenant_id)
        fleet.attach(tenant_id, plan_pool[key], now_s=t_s)
        probs.setdefault(tenant_id, [])

    def do_detach(tenant_id: str, t_s: float) -> None:
        detach_reports[tenant_id] = fleet.detach(tenant_id, now_s=t_s)
        # Drain-tick results are pre-detach serves; harvest them before
        # arming the post-detach tripwire for this tenant.
        harvest(fleet.take_drained())
        detached.add(tenant_id)

    rng = np.random.default_rng(seed + 1)
    for tenant_id, key in initial:
        do_attach(tenant_id, key, 0.0)
    for tick_i, ops in enumerate(schedule):
        t_s = float(tick_i)
        # Traffic lands *before* the tick's churn ops, so a detach or
        # swap hits a tenant with frames genuinely in flight — the drain
        # path runs against real pending work, not empty rings.
        live = list(fleet.tenant_ids)
        for j in range(frames_per_tick):
            frame_t = t_s + 0.01 * (j + 1)
            for tenant_id in live:
                row = source[int(rng.integers(len(source)))]
                fleet.submit(tenant_id, frame_t, row)
                frames_submitted += 1
        for op, tenant_id, key in ops:
            if op == "attach":
                do_attach(tenant_id, key, t_s)
            elif op == "detach":
                do_detach(tenant_id, t_s)
            else:
                fleet.replace_plan(tenant_id, plan_pool[key], now_s=t_s)
                harvest(fleet.take_drained())
        harvest(fleet.tick(t_s + 0.5))
    # Final drain-out: one last round of traffic lands and then every
    # remaining tenant detaches, the first with frames still in flight —
    # so the detach-drain path runs on every schedule, not just those
    # whose rolls happened to detach mid-traffic.  Every tenant that
    # ever attached ends DETACHED with a sealed, reconciling ledger.
    final_t = float(len(schedule))
    live = list(fleet.tenant_ids)
    for tenant_id in live:
        row = source[int(rng.integers(len(source)))]
        fleet.submit(tenant_id, final_t, row)
        frames_submitted += 1
    for tenant_id in live:
        do_detach(tenant_id, final_t)
    return probs, observers, detach_reports, post_detach, frames_submitted, fleet


def run_churn_scenario(
    *,
    ticks: int = 24,
    n_initial: int = 6,
    frames_per_tick: int = 2,
    n_inputs: int = 64,
    tile: int = 16,
    n_shards: int = 4,
    rebalance_skew: float = 1.25,
    seed: int = DEFAULT_SEED,
    source: np.ndarray | None = None,
) -> ChurnStats:
    """Run the churn arm: identical tenant churn through both dispatch arms.

    Gates (all deterministic; speed is never gated): fused-vs-unfused
    byte identity over every probability served, per-tenant ledger
    reconciliation for every tenant that ever existed, drain-exact
    detach audits, and zero post-detach serves.
    """
    if ticks < 1:
        raise ConfigurationError("ticks must be >= 1")
    if n_initial < 3:
        raise ConfigurationError("n_initial must be >= 3")
    if frames_per_tick < 1:
        raise ConfigurationError("frames_per_tick must be >= 1")
    initial, schedule = _churn_ops(seed, ticks, n_initial)
    keys = {key for _, key in initial}
    keys |= {key for ops in schedule for _, _, key in ops if key}
    plan_pool = {
        key: _fresh_plan(n_inputs, seed + 7919 + i)
        for i, key in enumerate(sorted(keys))
    }
    if source is None:
        source = _campaign_source(n_inputs, seed)
    replay_args = (
        initial, schedule, plan_pool, source, seed,
        frames_per_tick, n_shards, rebalance_skew, tile,
    )
    f_probs, f_obs, f_reports, f_post, f_submitted, f_fleet = _churn_replay(
        True, *replay_args
    )
    u_probs, u_obs, u_reports, u_post, _, _ = _churn_replay(False, *replay_args)

    byte_identical = set(f_probs) == set(u_probs)
    n_compared = 0
    max_abs_delta = 0.0
    for tenant_id in sorted(f_probs):
        a = np.asarray(f_probs[tenant_id])
        b = np.asarray(u_probs.get(tenant_id, []))
        if a.shape != b.shape:
            byte_identical = False
            continue
        n_compared += a.size
        if not np.array_equal(a, b):
            byte_identical = False
            if a.size:
                max_abs_delta = max(max_abs_delta, float(np.max(np.abs(a - b))))

    ledger_reconciled = True
    for reports, obs_map, arm_probs in (
        (f_reports, f_obs, f_probs),
        (u_reports, u_obs, u_probs),
    ):
        # Every tenant that ever attached must have both an observer and
        # a sealed detach report — churn leaves no orphans.
        if set(reports) != set(obs_map):
            ledger_reconciled = False
            continue
        for tenant_id, observer in obs_map.items():
            ledger = observer.ledger()
            report = reports[tenant_id]
            if ledger["unaccounted"] or ledger["pending"]:
                ledger_reconciled = False
            if ledger["submitted"] != report["frames_in"]:
                ledger_reconciled = False
            if ledger["answered"] != report["frames_out"]:
                ledger_reconciled = False
            if ledger["answered"] != len(arm_probs.get(tenant_id, [])):
                ledger_reconciled = False

    drain_exact = all(
        report["drained"] == report["drain_served"] + report["drain_shed"]
        for reports in (f_reports, u_reports)
        for report in reports.values()
    )
    migrations = int(
        f_fleet.metrics.counter("fleet_rebalance_migrations_total").value
    )
    n_attach_ops = sum(
        1 for ops in schedule for op, _, _ in ops if op == "attach"
    )
    n_swap_ops = sum(1 for ops in schedule for op, _, _ in ops if op == "swap")
    return ChurnStats(
        ticks=ticks,
        tenants_seen=len(f_obs),
        attaches=n_attach_ops,
        detaches=len(f_reports),
        swaps=n_swap_ops,
        migrations=migrations,
        frames_submitted=f_submitted,
        frames_served=sum(len(p) for p in f_probs.values()),
        drained_total=sum(r["drained"] for r in f_reports.values()),
        byte_identical=byte_identical,
        n_compared=n_compared,
        max_abs_delta=max_abs_delta,
        ledger_reconciled=ledger_reconciled,
        drain_exact=drain_exact,
        post_detach_serves=f_post + u_post,
    )


def run_fleet_bench(
    *,
    n_tenants: int = 64,
    frames_per_tenant: int = 64,
    frames_per_tick: int = 4,
    rate_hz: float = 20.0,
    n_inputs: int = 64,
    tile: int = 16,
    distinct_every: int = 8,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    churn_ticks: int = 24,
) -> FleetBenchReport:
    """Run the full fleet benchmark; see the module docstring.

    ``quick`` shrinks the fleet (8 tenants × 16 frames, 12 churn ticks)
    for CI smoke runs while keeping every gate — identity and
    reconciliation are scale-independent invariants.  ``churn_ticks=0``
    disables the churn arm.
    """
    if n_tenants < 1:
        raise ConfigurationError("n_tenants must be >= 1")
    if frames_per_tenant < 1:
        raise ConfigurationError("frames_per_tenant must be >= 1")
    if frames_per_tick < 1:
        raise ConfigurationError("frames_per_tick must be >= 1")
    if rate_hz <= 0:
        raise ConfigurationError("rate_hz must be positive")
    if churn_ticks < 0:
        raise ConfigurationError("churn_ticks must be >= 0")
    if quick:
        n_tenants = min(n_tenants, 8)
        frames_per_tenant = min(frames_per_tenant, 16)
        churn_ticks = min(churn_ticks, 12)

    tenant_ids = [f"room-{i:03d}" for i in range(n_tenants)]
    plans = _build_plans(tenant_ids, n_inputs, distinct_every, seed)
    n_cohorts = len({id(plan) for plan in plans.values()})
    source = _campaign_source(n_inputs, seed)
    traffic = _make_traffic(
        tenant_ids, frames_per_tenant, n_inputs, seed, source=source
    )
    config = ServeConfig(max_latency_ms=None)

    def build_fleet(fusion_enabled: bool, observer_factory=None) -> Fleet:
        fleet = Fleet(
            config,
            tile=tile,
            fusion_enabled=fusion_enabled,
            observer_factory=observer_factory,
        )
        for tenant_id in tenant_ids:
            fleet.attach(tenant_id, plans[tenant_id])
        return fleet

    # Warm the BLAS kernels and allocator once so neither timed arm pays
    # first-call costs (the warmup fleet is discarded).
    warm_ids = tenant_ids[: min(4, n_tenants)]
    warm = build_fleet(True)
    for tenant_id in warm_ids:
        warm.submit(tenant_id, 0.0, traffic[tenant_id][0])
    warm.tick()

    unfused_fleet = build_fleet(False)
    unfused_probs, unfused_wall = _replay(
        unfused_fleet, tenant_ids, traffic, frames_per_tick, rate_hz
    )
    fused_fleet = build_fleet(True)
    fused_probs, fused_wall = _replay(
        fused_fleet, tenant_ids, traffic, frames_per_tick, rate_hz
    )

    # ------------------------------------------------- byte-identity gate
    n_compared = 0
    max_abs_delta = 0.0
    byte_identical = True
    for tenant_id in tenant_ids:
        a = np.asarray(fused_probs[tenant_id])
        b = np.asarray(unfused_probs[tenant_id])
        if a.shape != b.shape:
            byte_identical = False
            continue
        n_compared += a.size
        if not np.array_equal(a, b):
            byte_identical = False
            delta = np.abs(a - b)
            if delta.size:
                max_abs_delta = max(max_abs_delta, float(delta.max()))

    # ------------------------------------- observed (untimed) reconciliation
    observed_fleet = build_fleet(True, observer_factory=lambda: Observer())
    observed_probs, _ = _replay(
        observed_fleet, tenant_ids, traffic, frames_per_tick, rate_hz
    )
    ledger_reconciled = True
    counters_reconciled = True
    for tenant_id in tenant_ids:
        ledger = observed_fleet.ledger(tenant_id)
        counters = observed_fleet.counters(tenant_id)
        if ledger["unaccounted"] or ledger["pending"]:
            ledger_reconciled = False
        if (
            ledger["submitted"] != counters["frames_in"]
            or ledger["answered"] != counters["frames_out"]
            or counters["frames_out"] != len(observed_probs[tenant_id])
        ):
            counters_reconciled = False
        metric_in = observed_fleet.metrics.counter(
            f"fleet_frames_total{{tenant={tenant_id}}}"
        ).value
        metric_out = observed_fleet.metrics.counter(
            f"fleet_frames_out_total{{tenant={tenant_id}}}"
        ).value
        if metric_in != counters["frames_in"] or metric_out != counters["frames_out"]:
            counters_reconciled = False
        if observed_probs[tenant_id] != fused_probs[tenant_id]:
            byte_identical = False

    def arm(fleet: Fleet, probs: dict[str, list[float]], wall: float) -> FleetArmStats:
        ratio = fleet.metrics.gauge("fleet_fusion_ratio").value
        return FleetArmStats(
            wall_s=wall,
            frames=sum(len(p) for p in probs.values()),
            fusion_ratio=float(ratio),
        )

    churn = None
    if churn_ticks:
        churn = run_churn_scenario(
            ticks=churn_ticks, n_inputs=n_inputs, tile=tile, seed=seed,
            source=source,
        )

    return FleetBenchReport(
        n_tenants=n_tenants,
        frames_per_tenant=frames_per_tenant,
        frames_per_tick=frames_per_tick,
        tile=tile,
        distinct_every=distinct_every,
        n_cohorts=n_cohorts,
        seed=seed,
        fused=arm(fused_fleet, fused_probs, fused_wall),
        unfused=arm(unfused_fleet, unfused_probs, unfused_wall),
        byte_identical=byte_identical,
        n_compared=n_compared,
        max_abs_delta=max_abs_delta,
        ledger_reconciled=ledger_reconciled,
        counters_reconciled=counters_reconciled,
        churn=churn,
    )
