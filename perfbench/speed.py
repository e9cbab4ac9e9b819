"""Host speed gauge: timings scaled to one fixed reference speed.

The host this benchmark runs on shares its cores with other work, and
each core's speed shifts by up to 2x, in phases from a fraction of a
second to minutes long.  A timed stretch of a pass that falls in a slow
phase reads slow whatever the program does, so a 30-second run's median
moves with the phases it happened to meet.

The gauge is a fixed pure-Python loop (heap pushes and pops, dict stores:
the same interpreter work the simulators' inner loops do) timed on the
same core as the work (``run.py`` pins the benchmark to one CPU), at
each cut between short segments of a pass and, in-process, every
:data:`SAMPLE_EVERY_S` in between.  ``segment_seconds * REFERENCE_S
/ probe_seconds`` is the segment's time on a host where the loop takes
:data:`REFERENCE_S`: a slow phase stretches the segment and the probe
alike and cancels, a slower program stretches only the segment.  A
pass's time is the sum of each segment's median over the run's passes,
so a sample a spike hit is outvoted.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import time
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from perfbench.stats import median

#: The probe's time on an unloaded host; fixes the unit (seconds) of
#: every scaled timing.  Only ratios between runs on one host matter.
REFERENCE_S = 0.0015
_ITERATIONS = 4000
#: Timer probe period inside :meth:`PassGauge.sampling`: well under the
#: sub-second phases, at a probe cost of a few per cent.
SAMPLE_EVERY_S = 0.05


def probe() -> float:
    """Seconds the reference loop takes right now."""
    heap: list = []
    table: dict = {}
    enabled = gc.isenabled()
    # A collection of the program's garbage is not the probe's work.
    gc.disable()
    try:
        start = time.perf_counter()
        key = 0.5
        for i in range(_ITERATIONS):
            key = (key * 3.9 * (1.0 - key)) % 1.0 or 0.5
            heapq.heappush(heap, key)
            table[i % 3000] = key
            if len(heap) > 2000:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured beside ``probe_seconds``, at reference speed."""
    return seconds * REFERENCE_S / probe_seconds


def no_mark() -> None:
    """Stands in for :meth:`PassGauge.mark` on a pass run without a gauge."""


class PassGauge:
    """One pass cut into consecutive segments, with a probe at every cut.

    Call :meth:`mark` where the pass starts, at each cut, and where it
    ends.  Inside :meth:`sampling`, a timer also probes every few tens
    of milliseconds without ending the segment, so a long segment is
    tracked through the phases it spans.  Each slice between two probes
    is scaled by their mean, and a segment's time (probes excluded) is
    the sum of its scaled slices.
    """

    def __init__(self) -> None:
        #: Each segment's time at reference speed.
        self.segments: List[float] = []
        self.probes: List[float] = []
        self._open: Optional[Tuple[float, float]] = None
        self._sum = 0.0
        # A timer probe must not land inside a cut already under way.
        self._busy = False

    def _cut(self) -> None:
        end = time.perf_counter()
        probe_s = probe()
        if self._open is not None:
            start, before = self._open
            self._sum += scaled(end - start, (before + probe_s) / 2)
        self.probes.append(probe_s)
        self._open = (time.perf_counter(), probe_s)

    def mark(self) -> None:
        self._busy = True
        try:
            opened = self._open is not None
            self._cut()
            if opened:
                self.segments.append(self._sum)
                self._sum = 0.0
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy or self._open is None:
            return
        self._busy = True
        try:
            self._cut()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every :data:`SAMPLE_EVERY_S` (SIGALRM; main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_median(self) -> float:
        """Median probe seconds over the pass: how fast the host ran."""
        return median(self.probes)


def timed(fn, *args, sample: bool = True, **kwargs) -> Tuple[float, Any]:
    """``(seconds at reference speed, result)`` of one call.

    ``sample=False`` probes only before and after: for a call that waits
    on a child process, where a timer probe would compete with the child
    for the benchmark's one core.
    """
    gauge = PassGauge()
    with gauge.sampling() if sample else contextlib.nullcontext():
        gauge.mark()
        result = fn(*args, **kwargs)
        gauge.mark()
    return gauge.segments[0], result


def typical_pass(passes: Sequence[List[float]]) -> float:
    """Sum over segments of each segment's median across passes.

    Every pass must cut into the same segments in the same order.
    """
    counts = {len(segments) for segments in passes}
    if len(counts) != 1:
        raise RuntimeError(f"passes cut into different segment counts: {sorted(counts)}")
    return sum(median(column) for column in zip(*passes))
