"""The migration-policy interface.

A policy decides which resident files to migrate off the managed disk when
space is needed (Section 6 / the Smith [14,15] and Lawrie [10] studies the
paper builds on).  Policies see every access and answer victim queries;
the cache in :mod:`repro.hsm` owns capacity accounting.

The resident set is columnar (:class:`ResidentSet`): one numpy column per
per-file field, indexed by an insertion-ordered slot.  A victim query
ranks every candidate in one vectorized :meth:`MigrationPolicy.rank_array`
call instead of one Python call per resident file per migration wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: The per-file columns every policy keeps, in slot order.
BASE_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("file_id", np.int64),
    ("size", np.int64),
    ("inserted_at", np.float64),
    ("last_access", np.float64),
    ("access_count", np.int64),
)


@dataclass(slots=True)
class ResidentFile:
    """Metadata a policy tracks for one cached file (see
    :meth:`MigrationPolicy.metadata`)."""

    file_id: int
    size: int
    inserted_at: float
    last_access: float
    access_count: int = 1


class ResidentSet:
    """Insertion-ordered slot columns for the files a policy tracks.

    A file takes the next free slot when it is inserted; eviction only
    tombstones its slot (``live[slot] = False``) and unmaps it.  When the
    tombstones outnumber the live slots an order-preserving compaction
    squeezes them out, so eviction stays amortized O(1).  Slot order is
    therefore always insertion order, which is the tie-break every
    policy's victim order relies on.

    Each column is a numpy array attribute named after its field; slots
    ``[0, end)`` are in use and ``slot_of`` maps a resident file id to
    its slot.  ``cells`` holds a memoryview of every column with the
    same names: the per-access paths read and write single slots through
    it, because a memoryview item access uses plain Python numbers and
    costs a fraction of numpy's boxed scalar access.
    """

    def __init__(self, extra_columns: Sequence[Tuple[str, type]] = ()) -> None:
        self.dtypes: Dict[str, type] = dict(BASE_COLUMNS)
        self.dtypes.update(extra_columns)
        self.slot_of: Dict[int, int] = {}
        self.end = 0
        self.dead = 0
        self.live = np.zeros(16, dtype=bool)
        for name, dtype in self.dtypes.items():
            setattr(self, name, np.zeros(16, dtype=dtype))
        self._bind()

    def _bind(self) -> None:
        names = ("live", *self.dtypes)
        self.cells = SimpleNamespace(
            **{name: memoryview(getattr(self, name)) for name in names}
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["cells"]  # memoryviews do not pickle; rebound on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def __len__(self) -> int:
        return len(self.slot_of)

    def insert(self, file_id: int, size: int, time: float) -> int:
        """Append a file in the next slot; returns the slot."""
        if file_id in self.slot_of:
            raise ValueError(f"file {file_id} is already resident")
        slot = self.end
        if slot == len(self.live):
            self._grow()
        cells = self.cells
        cells.file_id[slot] = file_id
        cells.size[slot] = size
        cells.inserted_at[slot] = time
        cells.last_access[slot] = time
        cells.access_count[slot] = 1
        cells.live[slot] = True
        self.slot_of[file_id] = slot
        self.end = slot + 1
        return slot

    def remove(self, file_id: int) -> None:
        """Tombstone a file's slot (compacting when tombstones dominate)."""
        slot = self.slot_of.pop(file_id, None)
        if slot is None:
            raise KeyError(f"file {file_id} is not resident")
        self.cells.live[slot] = False
        self.dead += 1
        if self.dead > len(self.slot_of):
            self._compact()

    def _grow(self) -> None:
        capacity = 2 * len(self.live)
        for name in ("live", *self.dtypes):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self.end] = old[: self.end]
            setattr(self, name, new)
        self._bind()

    def _compact(self) -> None:
        keep = np.flatnonzero(self.live[: self.end])
        count = keep.size
        for name in self.dtypes:
            column = getattr(self, name)
            column[:count] = column[keep]
        self.live[:count] = True
        self.live[count : self.end] = False
        self.end = count
        self.dead = 0
        self.slot_of = dict(zip(self.file_id[:count].tolist(), range(count)))

    def candidates(self, protect: Optional[int] = None) -> "SlotView":
        """The live slots minus ``protect``, in slot order."""
        end = self.end
        index: Union[slice, np.ndarray]
        if self.dead:
            index = self.live[:end].nonzero()[0]
        else:
            index = slice(0, end)
        slot = self.slot_of.get(protect) if protect is not None else None
        if slot is not None:
            if isinstance(index, slice):
                index = np.arange(end)
            index = index[index != slot]
        return SlotView(self, index)

    def check(self) -> None:
        """Raise ``AssertionError`` if the slot map and columns disagree."""
        end = self.end
        live = self.live[:end]
        count = len(self.slot_of)
        slots = np.fromiter(self.slot_of.values(), dtype=np.int64, count=count)
        ids = np.fromiter(self.slot_of.keys(), dtype=np.int64, count=count)
        if count and (slots.min() < 0 or slots.max() >= end):
            raise AssertionError("slot map points past the last slot")
        if not live[slots].all():
            raise AssertionError("a tombstoned slot is still mapped")
        if not np.array_equal(self.file_id[slots], ids):
            raise AssertionError("slot map does not match the file id column")
        if (
            int(live.sum()) != count
            or self.dead != end - count
            or self.live[end:].any()
        ):
            raise AssertionError("slot map does not match the live slots")

    @property
    def live_bytes(self) -> int:
        """Sum of the live slots' sizes."""
        end = self.end
        return int(self.size[:end][self.live[:end]].sum())


class SlotView:
    """The candidate slots of one victim query, in slot order.

    Reading a column name (``view.size``, ``view.last_access``, or any
    extra column of the set) gathers that column for the candidates once
    and caches it; when no slot is excluded the result is a view, so a
    ranking must not write into it.
    """

    def __init__(
        self, resident: ResidentSet, index: Union[slice, np.ndarray]
    ) -> None:
        self._resident = resident
        self._index = index
        if isinstance(index, slice):
            self._count = index.stop
        else:
            self._count = int(index.size)

    def __len__(self) -> int:
        return self._count

    def __getattr__(self, name: str) -> np.ndarray:
        resident = self.__dict__.get("_resident")
        if resident is None or name not in resident.dtypes:
            raise AttributeError(name)
        column = getattr(resident, name)[self._index]
        setattr(self, name, column)
        return column


class MigrationPolicy:
    """Base class: bookkeeping plus the victim-selection hook."""

    name = "base"

    #: Whether ``rank_array`` is a monotone transform of a single static,
    #: capacity-independent per-file key (insertion time, last access,
    #: or size) at every instant.  Such policies produce nested victim
    #: orderings across capacities, so the stack-distance engine
    #: (:mod:`repro.engine.stackdist`) can replay a whole capacity sweep
    #: in one pass.  Policies with history-dependent or stochastic ranks
    #: (STP's size*age^alpha product, SAAC's decayed rates, random)
    #: must leave this False and take the per-capacity DES path.
    is_inclusion_preserving: bool = False

    #: Per-file columns a subclass keeps beside :data:`BASE_COLUMNS`.
    extra_columns: Tuple[Tuple[str, type], ...] = ()

    def __init__(self) -> None:
        self._slots = ResidentSet(self.extra_columns)

    # ------------------------------------------------------------------
    # Bookkeeping driven by the cache

    def on_insert(self, file_id: int, size: int, time: float) -> None:
        """A file has been staged onto the managed disk."""
        self._slots.insert(file_id, size, time)

    def on_access(self, file_id: int, time: float, is_write: bool) -> None:
        """A resident file has been referenced."""
        slots = self._slots
        slot = slots.slot_of.get(file_id)
        if slot is None:
            raise KeyError(f"file {file_id} is not resident")
        cells = slots.cells
        cells.last_access[slot] = time
        cells.access_count[slot] += 1

    def on_access_batch(
        self, file_ids: Sequence[int], times: Sequence[float]
    ) -> None:
        """A run of read hits on resident files, in time order.

        Called by the batch replay loop between state-changing events.
        The base implementation updates the shared bookkeeping inline;
        policies that override :meth:`on_access` (to keep extra per-access
        state, like SAAC's decayed rates) are automatically fed one event
        at a time so their hook still sees every access.
        """
        if type(self).on_access is not MigrationPolicy.on_access:
            for file_id, time in zip(file_ids, times):
                self.on_access(file_id, time, is_write=False)
            return
        slots = self._slots
        slot_of = slots.slot_of
        last_access = slots.cells.last_access
        access_count = slots.cells.access_count
        for file_id, time in zip(file_ids, times):
            slot = slot_of[file_id]  # KeyError = not resident
            last_access[slot] = time
            access_count[slot] += 1

    def on_evict(self, file_id: int) -> None:
        """A file has been migrated off the disk."""
        self._slots.remove(file_id)

    # ------------------------------------------------------------------
    # Introspection

    def is_resident(self, file_id: int) -> bool:
        """Whether the policy believes the file is on disk."""
        return file_id in self._slots.slot_of

    @property
    def resident_count(self) -> int:
        """Number of resident files."""
        return len(self._slots)

    @property
    def resident_bytes(self) -> int:
        """Bytes the policy believes are resident."""
        return self._slots.live_bytes

    def metadata(self, file_id: int) -> ResidentFile:
        """Metadata for one resident file."""
        slot = self._slots.slot_of[file_id]
        cells = self._slots.cells
        return ResidentFile(
            file_id=file_id,
            size=cells.size[slot],
            inserted_at=cells.inserted_at[slot],
            last_access=cells.last_access[slot],
            access_count=cells.access_count[slot],
        )

    def candidates(self, protect: Optional[int] = None) -> SlotView:
        """The resident files a victim query ranks (all but ``protect``)."""
        return self._slots.candidates(protect)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the resident set is inconsistent."""
        self._slots.check()

    # ------------------------------------------------------------------
    # The decision hook

    def select_victims(
        self, needed_bytes: int, now: float, protect: Optional[int] = None
    ) -> List[int]:
        """Pick files to migrate until at least ``needed_bytes`` are freed.

        ``protect`` names a file that must not be chosen (typically the
        file currently being staged).  Subclasses implement
        :meth:`rank_array`; victims are taken greedily in descending rank
        order, ties in slot (insertion) order, until the freed bytes reach
        ``needed_bytes`` -- or every candidate is taken.
        """
        view = self.candidates(protect)
        if not len(view):
            return []
        # Ranked even when nothing is needed: a stochastic policy's draws
        # must not depend on the request size.
        rank = self.rank_array(view, now)
        if needed_bytes <= 0:
            return []
        # A stable sort on -rank breaks ties by slot order, exactly the
        # (-rank, slot) order the greedy loop ``while freed < needed``
        # walks; the cumulative sizes then locate where it stops.
        order = (-rank).argsort(kind="stable")
        freed = view.size[order].cumsum()
        if needed_bytes > int(freed[-1]):
            return view.file_id[order].tolist()
        stop = int(freed.searchsorted(needed_bytes)) + 1
        return view.file_id[order[:stop]].tolist()

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        """Migration priority of every candidate (float64, slot order);
        higher ranks migrate first.

        Power terms use ``np.float_power``, never ``np.power``: on SIMD
        builds ``np.power`` may dispatch to a vector math library whose
        ``pow`` differs from libm's in the last ulp, which would change
        victim order.  ``np.float_power`` calls libm ``pow`` like Python's
        ``**`` does, so ranks stay bit-identical to the scalar formulas.
        """
        raise NotImplementedError
