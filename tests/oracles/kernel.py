"""Reference event loop: a heap of ``order=True`` dataclass entries.

This is the :class:`~repro.mss.kernel.Simulator` the MSS used before its
heap entries became plain ``[time, seq, callback]`` lists.  Each pending
event is a ``_ScheduledEvent`` dataclass ordered by ``(time, seq)``
through its generated ``__lt__``, cancellation sets a separate
``cancelled`` flag, and ``run`` is a ``peek``/``step`` pair per event.

:mod:`tests.mss.test_kernel` drives this oracle and the production
kernel through the same random program and requires the same fire
sequence, clock readings, ``peek`` values and ``events_processed``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.mss.kernel import SimulationError


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Returned by ``schedule``; allows cancelling a pending event."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._event.cancelled = True

    @property
    def time(self) -> float:
        """Scheduled fire time."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class Simulator:
    """The dataclass-heap event loop."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._heap: List[_ScheduledEvent] = []
        self._seq = itertools.count()
        self._events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, clock is already at {self.now}"
            )
        event = _ScheduledEvent(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Process one event; returns False when nothing is pending."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the heap drains (or the clock passes
        ``until``, leaving later events pending)."""
        while True:
            next_time = self.peek()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed
