"""Reference victim selection: a per-file dict, scalar ranks and a heap.

This is the selector the migration policies used before the resident
set became columnar.  Each resident file is a :class:`ResidentFile` in
an insertion-ordered dict; a victim query calls one scalar ``rank`` per
candidate, heapifies ``(-rank, index, file_id, size)`` tuples and pops
until enough bytes are freed.  The index tie-break makes the pop order a
stable descending sort by rank.

The tests drive an oracle and a production policy through the same
insert/access/evict/select sequence and require identical victim lists
(:mod:`tests.migration.test_victim_oracle`) and bit-identical ranks
(:mod:`tests.migration.test_rank_exact`).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import paper
from repro.migration.opt import NEVER
from repro.migration.policy import ResidentFile
from repro.util.units import DAY


@dataclass
class Activity:
    """SAAC's decayed-rate bookkeeping for one file."""

    decayed_rate: float = 0.0
    last_update: float = 0.0


class OraclePolicy:
    """Dict-of-records bookkeeping plus the lazy-heap victim selector."""

    def __init__(self) -> None:
        self.resident: Dict[int, ResidentFile] = {}

    def on_insert(self, file_id: int, size: int, time: float) -> None:
        if file_id in self.resident:
            raise ValueError(f"file {file_id} is already resident")
        self.resident[file_id] = ResidentFile(
            file_id=file_id, size=size, inserted_at=time, last_access=time
        )

    def on_access(self, file_id: int, time: float, is_write: bool) -> None:
        meta = self.resident.get(file_id)
        if meta is None:
            raise KeyError(f"file {file_id} is not resident")
        meta.last_access = time
        meta.access_count += 1

    def on_access_batch(self, file_ids: Sequence[int], times: Sequence[float]) -> None:
        for file_id, time in zip(file_ids, times):
            self.on_access(file_id, time, is_write=False)

    def on_evict(self, file_id: int) -> None:
        if self.resident.pop(file_id, None) is None:
            raise KeyError(f"file {file_id} is not resident")

    def select_victims(
        self, needed_bytes: int, now: float, protect: Optional[int] = None
    ) -> List[int]:
        chosen: List[int] = []
        freed = 0
        entries = [
            (-self.rank(meta, now), index, meta.file_id, meta.size)
            for index, meta in enumerate(self.resident.values())
            if meta.file_id != protect
        ]
        heapq.heapify(entries)
        while entries and freed < needed_bytes:
            _, _, file_id, size = heapq.heappop(entries)
            chosen.append(file_id)
            freed += size
        return chosen

    def ranks(self, now: float, protect: Optional[int] = None) -> List[float]:
        """Every candidate's scalar rank, in insertion order."""
        return [
            self.rank(meta, now)
            for meta in self.resident.values()
            if meta.file_id != protect
        ]

    def rank(self, meta: ResidentFile, now: float) -> float:
        raise NotImplementedError


class LRU(OraclePolicy):
    def rank(self, meta: ResidentFile, now: float) -> float:
        return now - meta.last_access


class FIFO(OraclePolicy):
    def rank(self, meta: ResidentFile, now: float) -> float:
        return now - meta.inserted_at


class LargestFirst(OraclePolicy):
    def rank(self, meta: ResidentFile, now: float) -> float:
        return float(meta.size)


class SmallestFirst(OraclePolicy):
    def rank(self, meta: ResidentFile, now: float) -> float:
        return -float(meta.size)


class MRU(OraclePolicy):
    def rank(self, meta: ResidentFile, now: float) -> float:
        return -(now - meta.last_access)


class Random(OraclePolicy):
    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)

    def rank(self, meta: ResidentFile, now: float) -> float:
        return float(self._rng.random())


class SpaceTime(OraclePolicy):
    def __init__(
        self,
        time_exponent: float = paper.STP_TIME_EXPONENT,
        size_exponent: float = 1.0,
    ) -> None:
        super().__init__()
        self.time_exponent = time_exponent
        self.size_exponent = size_exponent

    def rank(self, meta: ResidentFile, now: float) -> float:
        age = max(now - meta.last_access, 0.0)
        return (meta.size ** self.size_exponent) * (age ** self.time_exponent)


class SAAC(OraclePolicy):
    def __init__(self, half_life: float = 7 * DAY) -> None:
        super().__init__()
        self.half_life = half_life
        self.activity: Dict[int, Activity] = {}

    def _decay(self, activity: Activity, now: float) -> float:
        dt = max(now - activity.last_update, 0.0)
        return activity.decayed_rate * 0.5 ** (dt / self.half_life)

    def on_insert(self, file_id: int, size: int, time: float) -> None:
        super().on_insert(file_id, size, time)
        self.activity[file_id] = Activity(decayed_rate=1.0, last_update=time)

    def on_access(self, file_id: int, time: float, is_write: bool) -> None:
        super().on_access(file_id, time, is_write)
        activity = self.activity[file_id]
        activity.decayed_rate = self._decay(activity, time) + 1.0
        activity.last_update = time

    def on_evict(self, file_id: int) -> None:
        super().on_evict(file_id)
        self.activity.pop(file_id, None)

    def rank(self, meta: ResidentFile, now: float) -> float:
        age = max(now - meta.last_access, 1.0)
        residency = max(now - meta.inserted_at, 1.0)
        lifetime_rate = meta.access_count / residency
        current_rate = max(
            self._decay(self.activity[meta.file_id], now) / self.half_life, 1e-12
        )
        cooling = 1.0 + lifetime_rate / current_rate
        return meta.size * age * cooling


class Optimal(OraclePolicy):
    def __init__(self, schedule: Dict[int, Sequence[float]]) -> None:
        super().__init__()
        self.schedule = {fid: sorted(times) for fid, times in schedule.items()}

    def rank(self, meta: ResidentFile, now: float) -> float:
        times = self.schedule.get(meta.file_id)
        if not times:
            return NEVER
        idx = bisect.bisect_right(times, now)
        return times[idx] if idx < len(times) else NEVER


def saac_activity(policy, file_id: int):
    """``(decayed_rate, last_update)`` of a file in a production
    :class:`~repro.migration.saac.SAACPolicy`, read from its columns."""
    slots = policy._slots
    slot = slots.slot_of[file_id]
    return slots.cells.decayed_rate[slot], slots.cells.last_update[slot]


def oracle_for(name: str, seed: Optional[int] = None) -> OraclePolicy:
    """The oracle twin of ``repro.migration.registry.make_policy(name, seed)``."""
    factories = {
        "stp": lambda: SpaceTime(),
        "stp-1.0": lambda: SpaceTime(time_exponent=1.0, size_exponent=1.0),
        "lru": LRU,
        "fifo": FIFO,
        "largest-first": LargestFirst,
        "smallest-first": SmallestFirst,
        "mru": MRU,
        "saac": SAAC,
        "random": lambda: Random() if seed is None else Random(seed),
    }
    return factories[name]()
