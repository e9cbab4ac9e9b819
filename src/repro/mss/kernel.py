"""Discrete-event simulation kernel.

A minimal, deterministic event loop under everything in :mod:`repro.mss`.
A pending event is a plain list ``[time, seq, callback]`` on a heap, so
ties fire in scheduling order (``seq``: arrivals submitted before ``run()``
win ties with the events they later schedule).  Cancelling sets the
callback slot to ``None``; the entry is dropped when it reaches the top.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Tuple


class SimulationError(Exception):
    """Raised on kernel misuse (scheduling in the past, etc.)."""


class EventHandle:
    """Returned by ``schedule``; allows cancelling a pending event."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._entry[2] = None

    @property
    def time(self) -> float:
        """Scheduled fire time."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._entry[2] is None


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._heap: List[list] = []
        self._next_seq = itertools.count().__next__
        self._events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        entry = [self.now + delay, self._next_seq(), callback]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, clock is already at {self.now}"
            )
        entry = [time, self._next_seq(), callback]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Process one event; returns False when nothing is pending."""
        heap = self._heap
        while heap:
            time, _, callback = heappop(heap)
            if callback is None:
                continue
            self.now = time
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the heap drains (or the clock passes
        ``until``, leaving later events pending)."""
        heap = self._heap
        limit = float("inf") if until is None else until
        while heap:
            entry = heappop(heap)
            callback = entry[2]
            if callback is None:
                continue
            time = entry[0]
            if time > limit:
                heappush(heap, entry)
                self.now = until
                return
            self.now = time
            self._events_processed += 1
            callback()

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed


class Resource:
    """A counted resource with a FIFO wait queue (drives, robots, movers).

    Acquire by callback: if a unit is free it is granted immediately
    (synchronously); otherwise the callback queues until a release.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: ``(time queued, callback)`` in arrival order.
        self._waiters: Deque[Tuple[float, Callable[[], None]]] = deque()
        # Statistics
        self.total_acquisitions = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Callbacks waiting for a unit."""
        return len(self._waiters)

    def acquire(self, callback: Callable[[], None]) -> None:
        """Request one unit; ``callback`` runs when it is granted."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquisitions += 1
            callback()
        else:
            self._waiters.append((self.sim.now, callback))

    def release(self) -> None:
        """Return one unit, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            started, callback = self._waiters.popleft()
            self.total_wait_time += self.sim.now - started
            self.total_acquisitions += 1
            callback()
        else:
            self._in_use -= 1

    @property
    def mean_wait(self) -> float:
        """Average time spent queueing for this resource."""
        if self.total_acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.total_acquisitions
