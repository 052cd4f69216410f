"""Host-speed-normalised time: the benchmark's clock.

The benchmark shares a small machine with other tenants. On the 2-core
host this was written on, the speed of pure-Python code drifted by 10–25%
in episodes lasting seconds. CPU time tracked wall time, so this is
contention on the host, not preemption. A 20-second run cannot average
that away, and raw medians moved by more than any useful regression bound.

So every time the benchmark reports is in **reference seconds**. Every
:data:`PROBE_EVERY_S` of wall time, at a point between two program calls,
the clock times a fixed pure-Python probe. Until the next probe, wall time
is scaled by ``REFERENCE_PROBE_S / probe``. On a host as fast as the
reference, one reference second is one second. On a host (or in an
episode) 20% slower, the scaled durations come out as they would have
been at reference speed. The probe's own time is left out.

The open-loop workload runs its send schedule on this clock as well, so
its offered load stays the same share of the machine while the machine's
speed drifts.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: The probe's time on the reference host when that host was quiet:
#: 2-vCPU Intel Xeon VM, CPython 3.11.
REFERENCE_PROBE_S = 0.00052

#: Wall time between probes.
PROBE_EVERY_S = 0.05

perf = time.perf_counter


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _probe_work() -> None:
    # Object creation, attribute access and method calls: the mix the
    # serving hot path is made of.  Of the probes tried (dict stores,
    # small numpy calls, this one), it tracked engine speed best.
    out = []
    for i in range(2500):
        out.append(_Cell(i, i).total())


def probe() -> float:
    """The probe's time in seconds: the fastest of three runs, so one
    interrupt does not skew it."""
    best = float("inf")
    for _ in range(3):
        t0 = perf()
        _probe_work()
        best = min(best, perf() - t0)
    return best


class Clock:
    """Reference-second time, rescaled at every probe.

    :meth:`now` never probes, so a difference of two ``now()`` readings
    taken around one program call is that call's duration at reference
    speed. :meth:`check` probes when one is due. Clients call it only
    between program calls, so no timed call ever spans a probe.
    """

    def __init__(self) -> None:
        #: One row per segment between probes: raw start, scale factor.
        self.raw_start = array("d")
        self.scale = array("d")
        self._ref = 0.0
        self._begin_segment()

    def _begin_segment(self) -> None:
        factor = REFERENCE_PROBE_S / probe()
        self._t = perf()
        self._f = factor
        self.raw_start.append(self._t)
        self.scale.append(factor)

    def now(self) -> float:
        """Reference seconds since the clock was made (probes left out)."""
        return self._ref + (perf() - self._t) * self._f

    def check(self) -> None:
        """Probe and rescale if :data:`PROBE_EVERY_S` has passed."""
        t = perf()
        if t - self._t >= PROBE_EVERY_S:
            self._ref += (t - self._t) * self._f
            self._begin_segment()

    def scale_at(self, raw: np.ndarray) -> np.ndarray:
        """The scale factor in force at each raw ``perf_counter`` time."""
        starts = np.frombuffer(self.raw_start, dtype=np.float64)
        k = np.searchsorted(starts, raw, side="right") - 1
        return np.frombuffer(self.scale, dtype=np.float64)[np.maximum(k, 0)]
