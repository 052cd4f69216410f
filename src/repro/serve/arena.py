"""Zero-copy frame arenas: preallocated slab storage for in-flight frames.

The legacy admission path allocates a fresh float64 ndarray per submitted
frame (``check_csi_row``'s ``asarray(dtype=float)``), holds it alive in
the queue, and garbage-collects it after the batch runs — at several
hundred thousand frames per second the allocator, not the GEMM, becomes
the bottleneck.  :class:`FrameArena` replaces that churn with a single
preallocated ring of contiguous float32 slabs:

* ``submit_frame`` copies the caller's row **once** into a free slab slot
  and everything downstream — guard validation, gap-repair observation,
  batch assembly, the fastpath GEMM — operates on a *view* of that slot;
* a LIFO free list recycles slots the moment a frame reaches a terminal
  outcome (answered, shed, stale, expired, evicted), so steady-state
  serving performs **zero** per-frame heap allocation;
* every slot carries a **generation counter**: a reference acquired at
  generation *g* can only be read or released while the slot is still at
  *g*.  Double-release and use-after-recycle therefore raise a typed
  :class:`~repro.exceptions.ServingError` instead of silently corrupting
  a neighbouring frame — the property suite in ``tests/serve`` asserts
  zero double-use over randomized burst/lull schedules.

The engine has one admission path per arena: a frame is either copied
into a slot or refused at the shape gate (not 1-D, a width other than the
arena's, a dtype kind outside ``fiub``, or non-finite) with the typed
``rejected`` outcome.  Gap fills keep the row the repairer built, so the
only slot holders are the queued frames plus the one being admitted, and
:class:`~repro.serve.config.ServeConfig` requires ``arena_slots >
queue_capacity``; running out of slots inside the engine is therefore a
broken invariant and raises :class:`~repro.exceptions.ServingError`.
Occupancy and recycle totals are exposed through the engine's metrics
registry (``arena_in_use`` / ``arena_acquired_total`` /
``arena_released_total``), so saturation shows up on the same dashboard
as queue depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, ServingError


@dataclass(frozen=True)
class SlotRef:
    """A capability to read and release one slab slot at one generation.

    The reference is only valid while the slot's generation counter still
    equals :attr:`generation`; the arena bumps the counter on release, so
    a stale reference fails loudly instead of aliasing the slot's next
    occupant.
    """

    slot: int
    generation: int


class FrameArena:
    """A fixed ring of contiguous float32 row slabs with a free list.

    Parameters
    ----------
    n_slots:
        Number of row slots.  Size it to cover the worst simultaneous
        in-flight population; for the engine that is ``queue_capacity +
        1``, which ``ServeConfig`` enforces.
    width:
        Row width (CSI feature count) every slot holds.
    """

    def __init__(self, n_slots: int, width: int) -> None:
        if n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        self.n_slots = int(n_slots)
        self.width = int(width)
        #: The slab storage itself; row *i* is slot *i*'s payload.
        self.slab = np.zeros((self.n_slots, self.width), dtype=np.float32)
        self._generation = np.zeros(self.n_slots, dtype=np.int64)
        self._free: list[int] = list(range(self.n_slots - 1, -1, -1))
        self._free_set = set(self._free)
        #: Lifetime tallies (mirrored into the engine registry).
        self.acquired_total = 0
        self.released_total = 0

    # ------------------------------------------------------------- occupancy

    @property
    def in_use(self) -> int:
        """Slots currently holding a live frame."""
        return self.n_slots - len(self._free)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------- lifecycle

    def acquire(self, row: np.ndarray) -> SlotRef | None:
        """Copy ``row`` into a free slot; ``None`` when the ring is full
        or ``row`` is not a ``(width,)`` vector.

        This is the *single* copy a frame pays on the arena path.  The
        cast to float32 happens during the copy itself (no intermediate
        array); non-finite float64 values saturate to ``inf`` in float32,
        so the engine's finite gate still catches them on the view.
        """
        if not self._free or np.shape(row) != (self.width,):
            return None
        slot = self._free.pop()
        self._free_set.discard(slot)
        self.slab[slot] = row
        self.acquired_total += 1
        return SlotRef(slot, int(self._generation[slot]))

    def row(self, ref: SlotRef) -> np.ndarray:
        """The live view of a reference's slot (valid until release)."""
        self._check_live(ref)
        return self.slab[ref.slot]

    def release(self, ref: SlotRef) -> None:
        """Return a slot to the free list; the reference dies here.

        Bumps the slot's generation counter so any copy of ``ref`` still
        in flight turns stale — the double-use guard the property tests
        exercise.
        """
        self._check_live(ref)
        self._generation[ref.slot] += 1
        self._free.append(ref.slot)
        self._free_set.add(ref.slot)
        self.released_total += 1

    def _check_live(self, ref: SlotRef) -> None:
        if not 0 <= ref.slot < self.n_slots:
            raise ServingError(f"slot {ref.slot} outside arena of {self.n_slots}")
        if ref.slot in self._free_set:
            raise ServingError(
                f"slot {ref.slot} is free: double release or use-after-release"
            )
        if int(self._generation[ref.slot]) != ref.generation:
            raise ServingError(
                f"slot {ref.slot} recycled: reference generation "
                f"{ref.generation} != current {int(self._generation[ref.slot])}"
            )

    # ------------------------------------------------------------ diagnostics

    def check(self) -> None:
        """Internal-consistency audit (tests call this after campaigns).

        Asserts the free list holds no duplicates, every tally balances
        (``acquired == released + in_use``) and the free bookkeeping's
        two forms agree.  Raises :class:`~repro.exceptions.ServingError`
        on any violation.
        """
        if len(self._free) != len(self._free_set):
            raise ServingError("free list contains duplicate slots")
        if not all(0 <= slot < self.n_slots for slot in self._free):
            raise ServingError("free list holds an out-of-range slot")
        if self.acquired_total - self.released_total != self.in_use:
            raise ServingError(
                f"tally imbalance: acquired {self.acquired_total} - released "
                f"{self.released_total} != in_use {self.in_use}"
            )

    def stats(self) -> dict[str, int]:
        """JSON-ready occupancy/recycle snapshot."""
        return {
            "n_slots": self.n_slots,
            "width": self.width,
            "in_use": self.in_use,
            "acquired_total": self.acquired_total,
            "released_total": self.released_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameArena({self.n_slots}x{self.width}, in_use={self.in_use}, "
            f"recycled={self.released_total})"
        )
