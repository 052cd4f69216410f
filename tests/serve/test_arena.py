"""Zero-copy frame arena: unit contracts and engine-integration properties.

The load-bearing guarantees under test:

* **zero slab double-use** — generation counters turn double-release and
  use-after-recycle into typed :class:`~repro.exceptions.ServingError`s,
  and :meth:`~repro.serve.arena.FrameArena.check` audits the free-list
  bookkeeping after every campaign;
* **exact frame-ledger reconciliation** — over randomized burst/lull
  schedules with rejects, repairs, overflow, staleness and deadlines, the
  engine's per-link tallies balance to zero unaccounted frames and the
  arena drains back to zero occupancy;
* **one admission path** — with ``arena_slots > queue_capacity`` a slot is
  always free, a frame the arena cannot stage is ``rejected``, and a
  batch that raises still recycles every slot it held;
* **numeric equivalence** — the arena path (float32 slab views) matches
  the legacy owned-float64 path per frame to float32 precision, with
  identical outcome accounting.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ServingError
from repro.guard.repair import GapRepairer
from repro.serve import FrameArena, InferenceEngine, ServeConfig, SlotRef
from repro.serve.arena import FrameArena as ArenaDirect


class RowMean:
    """Row-deterministic estimator: numerics independent of batch shape."""

    def predict_proba(self, x):
        return np.asarray(x, dtype=float).mean(axis=1)


class Broken:
    """A predictor tier that always raises."""

    def predict_proba(self, x):
        raise RuntimeError("tier down")


class ShortAnswer:
    """A predictor that answers one probability too few."""

    def predict_proba(self, x):
        return np.zeros(len(x) - 1)


def _reconciles(stats):
    """Every admitted or synthesised frame reached one terminal outcome."""
    dropped = (
        stats["stale_dropped"]
        + stats["deadline_expired"]
        + stats["overflow"]
        + stats["overload_shed"]
        + stats["policy_rejected"]
    )
    return stats["frames_in"] + stats["repaired"] == stats["frames_out"] + dropped


class TestFrameArenaUnit:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            FrameArena(0, 4)
        with pytest.raises(ConfigurationError):
            FrameArena(4, 0)

    def test_acquire_copies_once_and_row_views_the_slab(self):
        arena = FrameArena(2, 3)
        source = np.array([1.0, 2.0, 3.0])
        ref = arena.acquire(source)
        source[0] = 99.0  # the caller's array is decoupled after acquire
        view = arena.row(ref)
        assert view.base is arena.slab
        np.testing.assert_array_equal(view, [1.0, 2.0, 3.0])

    def test_exhaustion_returns_none_not_error(self):
        arena = FrameArena(1, 2)
        first = arena.acquire(np.zeros(2))
        assert first is not None
        assert arena.acquire(np.zeros(2)) is None
        arena.release(first)
        assert arena.acquire(np.zeros(2)) is not None

    def test_width_mismatch_returns_none(self):
        arena = FrameArena(2, 3)
        assert arena.acquire(np.zeros(4)) is None
        assert arena.acquire(np.zeros((2, 3))) is None
        assert arena.in_use == 0

    def test_double_release_raises(self):
        arena = FrameArena(2, 2)
        ref = arena.acquire(np.zeros(2))
        arena.release(ref)
        with pytest.raises(ServingError):
            arena.release(ref)

    def test_use_after_recycle_raises(self):
        arena = FrameArena(1, 2)
        stale = arena.acquire(np.zeros(2))
        arena.release(stale)
        fresh = arena.acquire(np.ones(2))  # same slot, new generation
        assert fresh.slot == stale.slot
        with pytest.raises(ServingError):
            arena.row(stale)
        with pytest.raises(ServingError):
            arena.release(stale)
        arena.release(fresh)

    def test_forged_ref_raises(self):
        arena = FrameArena(2, 2)
        with pytest.raises(ServingError):
            arena.row(SlotRef(7, 0))
        with pytest.raises(ServingError):
            arena.release(SlotRef(0, 3))

    def test_check_and_stats_balance(self):
        arena = FrameArena(4, 2)
        refs = [arena.acquire(np.full(2, i)) for i in range(3)]
        arena.check()
        stats = arena.stats()
        assert stats["in_use"] == 3
        assert stats["acquired_total"] == 3
        for ref in refs:
            arena.release(ref)
        arena.check()
        assert arena.stats()["released_total"] == 3
        assert arena.in_use == 0

    def test_check_detects_tally_imbalance(self):
        arena = FrameArena(2, 2)
        arena.acquire(np.zeros(2))
        arena.acquired_total += 1  # corrupt the tally on purpose
        with pytest.raises(ServingError):
            arena.check()

    def test_import_path_is_the_package_export(self):
        assert FrameArena is ArenaDirect


class TestEngineArenaIntegration:
    def _config(self, **overrides):
        base = dict(
            max_batch=8,
            max_latency_ms=50.0,
            queue_capacity=32,
            arena_slots=48,
        )
        base.update(overrides)
        return ServeConfig(**base)

    def test_pending_frames_hold_slab_views(self):
        engine = InferenceEngine(RowMean(), self._config(max_batch=64,
                                                         queue_capacity=64,
                                                         arena_slots=80))
        engine.submit("a", 0.0, np.arange(4, dtype=float))
        frame = engine.queue._pending[0]
        assert frame.slot is not None
        assert frame.csi.base is engine.arena.slab
        assert engine.arena.in_use == 1
        engine.flush()
        assert engine.arena.in_use == 0

    def test_matches_legacy_path_numerically(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(loc=10.0, scale=3.0, size=(200, 6))
        arena_engine = InferenceEngine(RowMean(), self._config())
        legacy_engine = InferenceEngine(RowMean(), self._config(arena_slots=None))
        got, want = [], []
        for i, row in enumerate(rows):
            got += arena_engine.submit("a", i * 0.01, row)
            want += legacy_engine.submit("a", i * 0.01, row)
        got += arena_engine.flush()
        want += legacy_engine.flush()
        assert len(got) == len(want) == len(rows)
        for a, b in zip(got, want):
            assert (a.link_id, a.t_s, a.frame_id, a.source) == (
                b.link_id, b.t_s, b.frame_id, b.source
            )
            # float32 slab vs float64 owned rows: equal to f32 precision.
            assert a.probability == pytest.approx(b.probability, abs=1e-6)
            assert a.state == b.state
        assert arena_engine.link_stats("a") == legacy_engine.link_stats("a")
        arena_engine.arena.check()
        assert arena_engine.arena.in_use == 0

    def test_malformed_and_nonfinite_frames_reject_without_leaking(self):
        engine = InferenceEngine(RowMean(), self._config())
        engine.submit("a", 0.0, np.ones(6))
        assert not engine.submit("a", 0.1, np.ones((2, 3)))
        bad = np.ones(6)
        bad[3] = np.nan
        assert not engine.submit("a", 0.2, bad)
        engine.flush()
        stats = engine.link_stats("a")
        assert stats["rejected"] == 2
        assert stats["frames_out"] == 1
        engine.arena.check()
        assert engine.arena.in_use == 0

    def test_minimum_arena_survives_a_flooded_queue(self):
        # queue_capacity + 1 slots: the full queue plus the frame being
        # admitted, with every push past capacity evicting the oldest.
        engine = InferenceEngine(
            RowMean(),
            self._config(queue_capacity=16, arena_slots=17, auto_flush=False),
        )
        for i in range(100):
            engine.submit("a", i * 0.01, np.full(6, float(i)))
            assert engine.arena.in_use == engine.queue.depth <= 16
        engine.flush()
        stats = engine.link_stats("a")
        assert stats["frames_out"] == 16
        assert stats["overflow"] == 84
        assert _reconciles(stats)
        engine.arena.check()
        assert engine.arena.in_use == 0

    def test_gap_fills_take_no_slot(self):
        engine = InferenceEngine(
            RowMean(),
            self._config(
                repairer=GapRepairer(expected_interval_s=0.1, max_fill=5),
                auto_flush=False,
            ),
        )
        engine.submit("a", 0.0, np.ones(6))
        engine.submit("a", 0.5, np.ones(6))  # closes a 4-frame gap
        assert [f.slot is None for f in engine.queue._pending] == [
            False, True, True, True, True, False
        ]
        assert engine.arena.in_use == 2
        results = engine.flush()
        assert sum(r.repaired for r in results) == 4
        assert engine.arena.in_use == 0

    @pytest.mark.parametrize(
        "row",
        [np.ones(9), np.ones(6, dtype=object)],  # arena is width 6, float
        ids=["width-change", "object-dtype"],
    )
    def test_unstageable_row_is_rejected(self, row):
        engine = InferenceEngine(RowMean(), self._config())
        engine.submit("a", 0.0, np.ones(6))
        assert engine.arena.in_use == 1
        assert engine.submit_frame("a", 0.1, row).outcome == "rejected"
        assert engine.arena.in_use == 1
        assert engine.arena.width == 6
        engine.flush()
        stats = engine.link_stats("a")
        assert (stats["rejected"], stats["frames_in"], stats["frames_out"]) == (1, 1, 1)
        assert _reconciles(stats)
        engine.arena.check()
        assert engine.arena.in_use == 0

    def test_empty_first_row_is_rejected(self):
        engine = InferenceEngine(RowMean(), self._config())
        assert engine.submit_frame("a", 0.0, np.empty(0)).outcome == "rejected"
        assert engine.arena is None  # the arena takes its width from a stageable row
        engine.submit("a", 0.1, np.ones(6))
        assert engine.arena.width == 6

    @pytest.mark.parametrize(
        "primary, fallback",
        [(Broken(), Broken()), (ShortAnswer(), None)],
        ids=["both-tiers-raise", "wrong-answer-count"],
    )
    def test_raising_batch_recycles_its_slots(self, primary, fallback):
        engine = InferenceEngine(
            primary, self._config(max_latency_ms=None, fallback=fallback)
        )
        t = 0.0
        for _ in range(2):
            with pytest.raises(ServingError):
                for _ in range(8):  # the eighth frame fills the batch
                    engine.submit("a", t, np.ones(6))
                    t += 0.01
        engine.submit("a", t, np.ones(6))
        assert engine.arena.in_use == engine.queue.depth == 1
        engine.arena.check()

    def test_registry_mirrors_arena_tallies(self):
        engine = InferenceEngine(RowMean(), self._config())
        for i in range(20):
            engine.submit("a", i * 0.01, np.ones(6))
        engine.flush()
        assert (
            engine.registry.gauge("arena_acquired_total").value
            == engine.arena.acquired_total
        )
        assert (
            engine.registry.gauge("arena_released_total").value
            == engine.arena.released_total
        )
        assert engine.registry.gauge("arena_in_use").value == 0
        assert engine.registry.gauge("arena_slots").value == 48


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    phases=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),   # frames in the phase
            st.sampled_from([0.001, 0.01, 0.2]),      # inter-arrival dt
        ),
        min_size=1,
        max_size=6,
    ),
    arena_slots=st.integers(min_value=17, max_value=64),  # > queue_capacity
    bad_every=st.integers(min_value=5, max_value=11),
    data_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_arena_ledger_reconciles_over_random_schedules(
    phases, arena_slots, bad_every, data_seed
):
    """Burst/lull schedules with faults: exact accounting, zero double-use.

    Overflow, staleness, deadlines and malformed frames all fire at
    random; the run completing without :class:`ServingError` *is* the
    zero-double-use assertion (any slab misuse raises), and afterwards
    the engine-side ledger must balance exactly with the arena fully
    recycled.
    """
    config = ServeConfig(
        max_batch=8,
        max_latency_ms=30.0,
        queue_capacity=16,
        arena_slots=arena_slots,
        stale_after_s=0.5,
        deadline_ms=800.0,
    )
    engine = InferenceEngine(RowMean(), config)
    rng = np.random.default_rng(data_seed)
    answered = 0
    t = 0.0
    i = 0
    for n_frames, dt in phases:
        for _ in range(n_frames):
            t += dt
            i += 1
            if i % bad_every == 0:
                row = np.full(5, np.inf)  # refused at the finite gate
            else:
                row = rng.normal(loc=10.0, scale=3.0, size=5)
            answered += len(engine.submit("link", t, row))
    answered += len(engine.flush())

    stats = engine.link_stats("link")
    dropped = (
        stats["stale_dropped"]
        + stats["deadline_expired"]
        + stats["overflow"]
        + stats["overload_shed"]
        + stats["policy_rejected"]
    )
    assert stats["frames_out"] == answered
    assert stats["frames_in"] + stats["repaired"] == answered + dropped
    assert engine.queue.depth == 0
    if engine.arena is not None:
        engine.arena.check()
        assert engine.arena.in_use == 0
        assert (
            engine.arena.acquired_total
            == engine.arena.released_total
        )
