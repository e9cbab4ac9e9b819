"""Single-pass multi-capacity replay: the Mattson-style stack engine.

The Section 6 sweep replays the same prepared stream once per (policy,
capacity) cell, so its cost is multiplicative in capacity points.  For
the policies whose victim ordering reduces to a *static per-file key* --
LRU (last access), FIFO (insertion time), MRU (negated last access) and
the two size policies -- every capacity's exact victim sequence can be
recovered from shared bookkeeping, so one scan over the stream yields
the full miss/migration curve for an arbitrary capacity vector.

This is the ghost-stack generalization of Mattson's stack-distance
algorithm [Mattson et al. 1970] to the HSM's byte-weighted, watermarked
cache: instead of requiring the inclusion property to hold between
capacities (watermark eviction waves and per-capacity FIFO insertion
times break strict inclusion), the engine keeps the capacity-independent
state *shared* -- last-access times, per-file sizes, dirty/write-back
scheduling, first-touch tracking -- and keeps only the genuinely
per-capacity state (residency bit, usage, lazy victim heap) separate.
Per-event cost is O(1) for the dominant hit/write path (a residency
bitmask lookup and a mask-keyed counter bump) plus per-capacity work
proportional to that capacity's misses, versus the DES's full per-event
cost at every capacity.

Exactness, not approximation: for every supported policy the emitted
:class:`~repro.hsm.metrics.HSMMetrics` rows are pinned bit-for-bit to
:func:`repro.engine.replay.replay_policy` (the DES reference) by the
equivalence suite, including watermark wave sizes, victim tie-breaking
(stable rank sort by per-capacity insertion order), lazy write-back
absorption, forced flushes, and the oversized-file bypass path.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import EventBatch
from repro.hsm.cache import CacheConfig
from repro.hsm.metrics import HSMMetrics

#: Registry policies the stack engine can replay: their DES ``rank`` is a
#: monotone transform of one capacity-independent per-file key at any
#: instant, so a lazily-updated heap reproduces the exact victim order.
#: (STP mixes size and age through a non-separable power law, SAAC keeps
#: decayed per-access state, and random draws fresh RNG ranks per wave --
#: none reduce to a static key, so they fall back to the DES.)
STACK_POLICIES = ("fifo", "largest-first", "lru", "mru", "smallest-first")

#: Capacities simulated per pass: residency is a bitmask per file, and a
#: Python int mask with <= 64 bits keeps every mask operation single-word.
MAX_CAPACITIES_PER_PASS = 64

_CACHE_FIELDS = {f.name: f.default for f in dataclasses.fields(CacheConfig)}
DEFAULT_HIGH_WATERMARK: float = _CACHE_FIELDS["high_watermark"]
DEFAULT_LOW_WATERMARK: float = _CACHE_FIELDS["low_watermark"]
DEFAULT_WRITEBACK_DELAY: Optional[float] = _CACHE_FIELDS["writeback_delay"]


class StackEngineError(ValueError):
    """The policy or stream cannot be replayed by the stack engine."""


#: Heap entries pack a victim-priority key and an insertion sequence
#: number into one int, ``key << _SEQ_BITS | seq``: the heaps then compare
#: plain ints instead of tuples, which is most of what they spend time on.
_SEQ_BITS = 48
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_MAGNITUDE = (1 << 63) - 1


def _event_keys(policy_name: str, batch: EventBatch) -> List[int]:
    """Static victim-priority key of each event's file, as ints.

    Heap order (key ascending, then insertion sequence) must equal the
    DES's stable sort on (rank descending, residency order) -- each
    policy's rank is a monotone transform of its key at any instant.
    Times become ints through their IEEE-754 bit patterns read as
    sign-magnitude, an order-preserving map that keeps -0.0 == 0.0.
    """
    if policy_name == "largest-first":
        return (-batch.size.astype(np.int64)).tolist()
    if policy_name == "smallest-first":
        return batch.size.astype(np.int64).tolist()
    bits = np.ascontiguousarray(batch.time, dtype=np.float64).view(np.int64)
    keys = np.where(bits < 0, -(bits & _MAGNITUDE), bits)
    if policy_name == "mru":
        keys = -keys
    return keys.tolist()


def supports_policy(policy_name: str) -> bool:
    """Whether one scan can produce exact curves for this policy."""
    return policy_name in STACK_POLICIES


def resolve_engine(engine: str, policy_name: str) -> bool:
    """Map an ``{auto,stack,des}`` selector to "use the stack engine?".

    ``auto`` picks the stack engine whenever the policy qualifies;
    ``stack`` insists and raises :class:`StackEngineError` when it
    cannot be honored (non-inclusion-preserving policies, and OPT).
    """
    if engine not in ("auto", "stack", "des"):
        raise ValueError(
            f"unknown engine {engine!r}; choose from ['auto', 'des', 'stack']"
        )
    if engine == "des":
        return False
    supported = supports_policy(policy_name)
    if engine == "stack" and not supported:
        raise StackEngineError(
            f"policy {policy_name!r} is not stack-replayable; use "
            f"--engine auto/des or one of {sorted(STACK_POLICIES)}"
        )
    return supported


class _MultiCapacityReplay:
    """One pass over a stream for <= 64 capacities of one policy.

    Shared (capacity-independent) per-file state lives in parallel lists
    indexed by file id: size (0 = never seen), last access time,
    residency/dirty bitmasks, and the write-back version counter.
    Per-capacity state is the usage counter, the lazy victim heap, and
    the stint map (file -> per-capacity insertion sequence number, which
    doubles as the DES's stable-sort tie-break).
    """

    def __init__(
        self,
        policy_name: str,
        capacities: Sequence[int],
        writeback_delay: Optional[float],
        high_watermark: float,
        low_watermark: float,
    ) -> None:
        if policy_name not in STACK_POLICIES:
            raise StackEngineError(
                f"policy {policy_name!r} is not stack-replayable; "
                f"choose from {sorted(STACK_POLICIES)}"
            )
        if len(capacities) > MAX_CAPACITIES_PER_PASS:
            raise ValueError("one pass handles at most 64 capacities")
        if any(c <= 0 for c in capacities):
            raise ValueError("capacity must be positive")
        if list(capacities) != sorted(set(capacities)):
            raise ValueError("capacities must be strictly increasing")
        self.policy_name = policy_name
        self.caps: List[int] = [int(c) for c in capacities]
        self.caps_arr = np.asarray(self.caps, dtype=np.int64)
        self.delay = writeback_delay
        # Same float expressions as ManagedDiskCache so threshold
        # comparisons land on identical values.
        self.high = [high_watermark * c for c in self.caps]
        self.low = [low_watermark * c for c in self.caps]

        k = len(self.caps)
        self.n_caps = k
        self.full_mask = (1 << k) - 1
        #: eligible[lvl] = capacities that can cache a file whose size
        #: exceeds capacities [0, lvl) -- the oversized-bypass boundary.
        self.eligible = [
            self.full_mask & ~((1 << lvl) - 1) for lvl in range(k + 1)
        ]

        # LRU keys go stale when a resident file is re-read (rank falls);
        # the pop loop refreshes them lazily.  MRU keys move the other
        # way (an access *raises* eviction priority), so the access path
        # pushes eagerly and stale duplicates are dropped on pop.
        self.lazy_refresh = policy_name == "lru"
        self.eager_touch = policy_name == "mru"
        # Shared per-file state, indexed by file id.  ``_last`` holds the
        # key of the file's latest access (see :func:`_event_keys`).
        self._size: List[int] = []
        self._last: List[int] = []
        self._res: List[int] = []
        self._dirty: List[int] = []
        self._ver: List[int] = []

        self.usage = [0] * k
        self.heaps: List[list] = [[] for _ in range(k)]
        # stints[k][fid]: the insertion sequence number of the file's
        # current residency stint at capacity k, or -1 when not resident.
        # Fid-indexed lists, not dicts: the stint check runs once per
        # heap pop, which is the engine's hottest read.  One counter
        # serves every capacity: it grows with stream order, so at each
        # capacity it orders stints exactly as insertion order does.
        self.stints: List[List[int]] = [[] for _ in range(k)]
        #: seq_fid[seq]: the file of insertion ``seq`` (so heap entries
        #: need carry only the key and the sequence number).
        self.seq_fid: List[int] = []
        #: Capacity indices of each residency mask seen so far, in order.
        self._bit_indices: Dict[int, List[int]] = {}

        # Shared counters (identical at every capacity).
        self.reads_total = 0
        self.writes_total = 0
        self.bytes_written_total = 0
        self.compulsory_total = 0
        self.hits_full = 0
        # Mask-keyed accumulators: one dict bump per event instead of one
        # counter bump per capacity.
        self.hit_by_mask: Dict[int, int] = {}
        self.absorb_by_mask: Dict[int, int] = {}
        self.staged_by_mask: Dict[int, int] = {}  # mask -> miss bytes
        self.flush_by_mask: Dict[int, list] = {}  # mask -> [count, bytes]
        # Direct per-capacity counters (miss-path only, so cheap).
        self.evictions = [0] * k
        self.bytes_evicted = [0] * k
        self.forced_flushes = [0] * k
        self.forced_tape_writes = [0] * k
        self.forced_flushed_bytes = [0] * k
        # Oversized-bypass accounting, histogrammed by bypass level: an
        # event at level L bypasses capacities [0, L).
        self.bypass_read_count = [0] * (k + 1)
        self.bypass_read_bytes = [0] * (k + 1)
        self.bypass_write_count = [0] * (k + 1)
        self.bypass_write_bytes = [0] * (k + 1)

        #: Shared write-back queue: (due time, file, version).  One entry
        #: per write serves every capacity; validity at pop time is the
        #: shared version check plus the per-capacity dirty bit (a forced
        #: flush clears its capacity's bit, superseding writes bump the
        #: version), which reproduces the DES's per-capacity version
        #: bookkeeping without per-capacity queues.
        self.queue: List[Tuple[float, int, int]] = []
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def _grow(self, max_fid: int) -> None:
        need = max_fid + 1 - len(self._size)
        if need > 0:
            self._size.extend([0] * need)
            self._last.extend([0] * need)
            self._res.extend([0] * need)
            self._dirty.extend([0] * need)
            self._ver.extend([0] * need)
            for stints in self.stints:
                stints.extend([-1] * need)

    # ------------------------------------------------------------------
    # The event loop

    def feed(self, batch: EventBatch) -> None:
        """Apply one time-ordered batch to every capacity."""
        n = len(batch)
        if n == 0:
            return
        sizes_np = batch.size
        if int(sizes_np.min()) <= 0:
            # Raise exactly where the DES would, with every earlier event
            # already applied.
            bad = int(np.argmax(sizes_np <= 0))
            if bad:
                self.feed(batch.slice(0, bad))
            raise ValueError("file size must be positive")
        if int(batch.file_id.min()) < 0:
            raise StackEngineError(
                "negative file ids: strip error rows before replay"
            )
        self._grow(int(batch.file_id.max()))

        ts = batch.time
        if self.first_time is None:
            self.first_time = float(ts[0])
        self.last_time = float(ts[-1])

        keys = _event_keys(self.policy_name, batch)
        if int(sizes_np.max()) > self.caps[0]:
            self._feed_general(
                batch.file_id.tolist(),
                sizes_np.tolist(),
                ts.tolist(),
                batch.is_write.tolist(),
                keys,
                np.searchsorted(self.caps_arr, sizes_np, side="left").tolist(),
            )
        else:
            self._feed_fast(
                batch.file_id.tolist(),
                sizes_np.tolist(),
                ts.tolist(),
                batch.is_write.tolist(),
                keys,
            )

    def _feed_fast(
        self,
        fids: List[int],
        szs: List[int],
        ts: List[float],
        ws: List[bool],
        keys: List[int],
    ) -> None:
        """Hot loop for batches with no oversized files (the normal case):
        every event is bypass-free, so the level/bypass bookkeeping drops
        out entirely.  Staging is :meth:`_insert_bits` inlined."""
        size_l = self._size
        last_l = self._last
        res_l = self._res
        dirty_l = self._dirty
        ver_l = self._ver
        queue = self.queue
        full = self.full_mask
        hit_by_mask = self.hit_by_mask
        absorb_by_mask = self.absorb_by_mask
        staged_by_mask = self.staged_by_mask
        eager_touch = self.eager_touch
        touch = self._touch
        delay = self.delay
        write_through = delay is None
        flush_by_mask = self.flush_by_mask
        push = heapq.heappush
        flush_due = self._flush_due
        make_room = self._make_room
        seq_fid = self.seq_fid
        usage = self.usage
        high = self.high
        stints = self.stints
        heaps = self.heaps
        bit_indices = self._bit_indices
        reads = 0
        hits_full = 0
        writes = 0
        bytes_written = 0
        compulsory = 0

        for fid, sz, t, w, key in zip(fids, szs, ts, ws, keys):
            if queue and queue[0][0] <= t:
                flush_due(t)
            sz0 = size_l[fid]
            if not w:
                reads += 1
                if sz0 == 0:
                    size_l[fid] = sz
                    compulsory += 1
                    bits = full
                else:
                    if sz0 != sz:
                        raise StackEngineError(
                            f"file {fid} changed size {sz0} -> {sz}; the "
                            "stack engine requires stable per-file sizes"
                        )
                    rmask = res_l[fid]
                    if rmask == full:
                        # The dominant path: resident everywhere, pure hit.
                        hits_full += 1
                        last_l[fid] = key
                        if eager_touch:
                            touch(fid, key, full)
                        continue
                    if rmask:
                        hit_by_mask[rmask] = hit_by_mask.get(rmask, 0) + 1
                        if eager_touch:
                            touch(fid, key, rmask)
                    bits = full & ~rmask
                staged_by_mask[bits] = staged_by_mask.get(bits, 0) + sz
            else:
                writes += 1
                bytes_written += sz
                if sz0 == 0:
                    size_l[fid] = sz
                elif sz0 != sz:
                    raise StackEngineError(
                        f"file {fid} changed size {sz0} -> {sz}; the "
                        "stack engine requires stable per-file sizes"
                    )
                rmask = res_l[fid]
                absorb = rmask & dirty_l[fid]
                if absorb:
                    absorb_by_mask[absorb] = (
                        absorb_by_mask.get(absorb, 0) + 1
                    )
                if eager_touch and rmask:
                    touch(fid, key, rmask)
                bits = full & ~rmask
            last_l[fid] = key
            if bits:
                seq = len(seq_fid)
                seq_fid.append(fid)
                entry = key << _SEQ_BITS | seq
                indices = bit_indices.get(bits)
                if indices is None:
                    indices = self._indices(bits)
                for k in indices:
                    if usage[k] + sz > high[k]:
                        make_room(k, sz, t)
                    stints[k][fid] = seq
                    push(heaps[k], entry)
                    usage[k] += sz
                res_l[fid] = full
            if w:
                if write_through:
                    # Write-through: the tape copy lands immediately at
                    # every capacity (all cached the file: no bypasses).
                    entry = flush_by_mask.get(full)
                    if entry is None:
                        flush_by_mask[full] = [1, sz]
                    else:
                        entry[0] += 1
                        entry[1] += sz
                else:
                    dirty_l[fid] = full
                    ver = ver_l[fid] + 1
                    ver_l[fid] = ver
                    push(queue, (t + delay, fid, ver))

        self.reads_total += reads
        self.hits_full += hits_full
        self.writes_total += writes
        self.bytes_written_total += bytes_written
        self.compulsory_total += compulsory

    def _feed_general(
        self,
        fids: List[int],
        szs: List[int],
        ts: List[float],
        ws: List[bool],
        keys: List[int],
        lvls: List[int],
    ) -> None:
        """Full event loop, with the oversized-file bypass."""
        size_l = self._size
        last_l = self._last
        res_l = self._res
        dirty_l = self._dirty
        ver_l = self._ver
        queue = self.queue
        full = self.full_mask
        eligible = self.eligible
        hit_by_mask = self.hit_by_mask
        absorb_by_mask = self.absorb_by_mask
        staged_by_mask = self.staged_by_mask
        eager_touch = self.eager_touch
        delay = self.delay
        flush_by_mask = self.flush_by_mask
        push = heapq.heappush
        insert_bits = self._insert_bits
        flush_due = self._flush_due

        for fid, sz, t, w, key, lvl in zip(fids, szs, ts, ws, keys, lvls):
            if queue and queue[0][0] <= t:
                flush_due(t)
            sz0 = size_l[fid]
            if sz0 == 0:
                size_l[fid] = sz
                first_touch = True
            else:
                if sz0 != sz:
                    raise StackEngineError(
                        f"file {fid} changed size {sz0} -> {sz}; the "
                        "stack engine requires stable per-file sizes"
                    )
                first_touch = False
            if not w:
                self.reads_total += 1
                rmask = res_l[fid]
                if rmask == full and not eager_touch:
                    self.hits_full += 1
                    last_l[fid] = key
                    continue
                if first_touch:
                    self.compulsory_total += 1
                if lvl:
                    self.bypass_read_count[lvl] += 1
                    self.bypass_read_bytes[lvl] += sz
                if rmask:
                    hit_by_mask[rmask] = hit_by_mask.get(rmask, 0) + 1
                    if eager_touch:
                        self._touch(fid, key, rmask)
                last_l[fid] = key
                miss_bits = eligible[lvl] & ~rmask
                if miss_bits:
                    staged_by_mask[miss_bits] = (
                        staged_by_mask.get(miss_bits, 0) + sz
                    )
                    insert_bits(fid, sz, t, key, miss_bits)
            else:
                self.writes_total += 1
                self.bytes_written_total += sz
                if lvl:
                    self.bypass_write_count[lvl] += 1
                    self.bypass_write_bytes[lvl] += sz
                can_cache = eligible[lvl]
                rmask = res_l[fid]
                absorb = rmask & dirty_l[fid]
                if absorb:
                    absorb_by_mask[absorb] = (
                        absorb_by_mask.get(absorb, 0) + 1
                    )
                if eager_touch and rmask:
                    self._touch(fid, key, rmask)
                last_l[fid] = key
                miss_bits = can_cache & ~rmask
                if miss_bits:
                    insert_bits(fid, sz, t, key, miss_bits)
                if can_cache:
                    if delay is None:
                        # Write-through: the tape copy lands immediately
                        # at every capacity that cached the file.
                        entry = flush_by_mask.get(can_cache)
                        if entry is None:
                            flush_by_mask[can_cache] = [1, sz]
                        else:
                            entry[0] += 1
                            entry[1] += sz
                    else:
                        dirty_l[fid] = can_cache
                        ver = ver_l[fid] + 1
                        ver_l[fid] = ver
                        push(queue, (t + delay, fid, ver))

    def _indices(self, mask: int) -> List[int]:
        """Capacity indices of the bits set in ``mask``, ascending."""
        indices = self._bit_indices.get(mask)
        if indices is None:
            indices = [k for k in range(self.n_caps) if mask >> k & 1]
            self._bit_indices[mask] = indices
        return indices

    def _touch(self, fid: int, key: int, rmask: int) -> None:
        """MRU only: an access raises eviction priority, so the heaps
        need an eager entry per resident capacity."""
        base = key << _SEQ_BITS
        heaps = self.heaps
        stints = self.stints
        push = heapq.heappush
        for k in self._indices(rmask):
            push(heaps[k], base | stints[k][fid])

    def _insert_bits(
        self, fid: int, sz: int, t: float, key: int, bits: int
    ) -> None:
        """Stage the file at every capacity in ``bits`` (waves included)."""
        seq_fid = self.seq_fid
        seq = len(seq_fid)
        seq_fid.append(fid)
        # One heap entry serves every capacity's heap.
        entry = key << _SEQ_BITS | seq
        usage = self.usage
        high = self.high
        stints = self.stints
        heaps = self.heaps
        push = heapq.heappush
        for k in self._indices(bits):
            if usage[k] + sz > high[k]:
                self._make_room(k, sz, t)
            stints[k][fid] = seq
            push(heaps[k], entry)
            usage[k] += sz
        self._res[fid] |= bits

    @property
    def resident_counts(self) -> List[int]:
        """Files resident at each capacity (derived from the stints)."""
        return [len(stints) - stints.count(-1) for stints in self.stints]

    # ------------------------------------------------------------------
    # Migration waves

    def _make_room(self, k: int, incoming: int, now: float) -> None:
        """Mirror of ``ManagedDiskCache._make_room`` for one capacity.

        The victim loop is the migration hot path (one iteration per
        eviction, evictions >> waves), so the pop/validate/evict cycle
        is inlined here rather than calling :meth:`_pop_victim` per
        victim.
        """
        cap = self.caps[k]
        usage = self.usage[k]
        if usage + incoming > self.high[k]:
            target = self.low[k] - incoming
        elif usage + incoming > cap:
            target = cap - incoming
        else:
            return
        needed = usage - max(target, 0.0)
        if needed <= 0:
            return
        needed = int(needed)
        heap = self.heaps[k]
        stints = self.stints[k]
        seq_fid = self.seq_fid
        size_l = self._size
        last_l = self._last
        res_l = self._res
        dirty_l = self._dirty
        lazy_refresh = self.lazy_refresh
        eager_touch = self.eager_touch
        seq_bits = _SEQ_BITS
        seq_mask = _SEQ_MASK
        bit = 1 << k
        notbit = ~bit
        pop = heapq.heappop
        replace = heapq.heapreplace
        freed = 0
        # Evictions are the pops that were not stale entries.
        evicted = len(heap)
        forced = 0
        forced_bytes = 0
        while freed < needed and heap:
            top = heap[0]
            seq = top & seq_mask
            fid = seq_fid[seq]
            if stints[fid] != seq:
                pop(heap)  # evicted or re-inserted: stale stint
                evicted -= 1
                continue
            if lazy_refresh:
                last = last_l[fid]
                if last != top >> seq_bits:
                    # Re-read since insertion: sink to its true position.
                    replace(heap, last << seq_bits | seq)
                    continue
            elif eager_touch and top >> seq_bits != last_l[fid]:
                pop(heap)  # a newer eager entry exists
                evicted -= 1
                continue
            pop(heap)
            sz = size_l[fid]
            stints[fid] = -1
            res_l[fid] &= notbit
            freed += sz
            if dirty_l[fid] & bit:
                # Migrating a dirty file forces its tape copy first.
                dirty_l[fid] &= notbit
                forced += 1
                forced_bytes += sz
        evicted -= len(heap)
        self.usage[k] = usage - freed
        self.evictions[k] += evicted
        self.bytes_evicted[k] += freed
        if forced:
            self.forced_flushes[k] += forced
            self.forced_tape_writes[k] += forced
            self.forced_flushed_bytes[k] += forced_bytes
        # Defensive tail, as in the DES: if the wave under-delivered,
        # keep evicting one victim at a time until the file fits.
        while self.usage[k] + incoming > cap and self.usage[k]:
            victim = self._pop_victim(k)
            if victim is None:
                raise RuntimeError("no victims left but cache is full")
            self._evict(k, *victim)

    def _pop_victim(self, k: int) -> Optional[Tuple[int, int]]:
        """Highest-priority valid victim at capacity ``k``, or None."""
        heap = self.heaps[k]
        stints = self.stints[k]
        last_l = self._last
        pop = heapq.heappop
        while heap:
            top = heap[0]
            seq = top & _SEQ_MASK
            fid = self.seq_fid[seq]
            if stints[fid] != seq:
                pop(heap)
                continue
            if self.lazy_refresh:
                last = last_l[fid]
                if last != top >> _SEQ_BITS:
                    heapq.heapreplace(heap, last << _SEQ_BITS | seq)
                    continue
            elif self.eager_touch and top >> _SEQ_BITS != last_l[fid]:
                pop(heap)
                continue
            pop(heap)
            return fid, self._size[fid]
        return None

    def _evict(self, k: int, fid: int, sz: int) -> None:
        self.stints[k][fid] = -1
        bit = 1 << k
        self._res[fid] &= ~bit
        self.usage[k] -= sz
        self.evictions[k] += 1
        self.bytes_evicted[k] += sz
        if self._dirty[fid] & bit:
            self._dirty[fid] &= ~bit
            self.forced_flushes[k] += 1
            self.forced_tape_writes[k] += 1
            self.forced_flushed_bytes[k] += sz

    # ------------------------------------------------------------------
    # Write-back

    def _flush_due(self, now: float) -> None:
        queue = self.queue
        ver_l = self._ver
        dirty_l = self._dirty
        size_l = self._size
        flush_by_mask = self.flush_by_mask
        while queue and queue[0][0] <= now:
            _, fid, version = heapq.heappop(queue)
            if ver_l[fid] != version:
                continue  # superseded by a later write
            mask = dirty_l[fid]
            if mask:
                entry = flush_by_mask.get(mask)
                if entry is None:
                    flush_by_mask[mask] = [1, size_l[fid]]
                else:
                    entry[0] += 1
                    entry[1] += size_l[fid]
                dirty_l[fid] = 0

    # ------------------------------------------------------------------
    # Finalization

    def finish(self) -> List[HSMMetrics]:
        """End-of-run flush, then one metrics row per capacity."""
        flush_by_mask = self.flush_by_mask
        size_l = self._size
        for fid, mask in enumerate(self._dirty):
            if mask:
                entry = flush_by_mask.get(mask)
                if entry is None:
                    flush_by_mask[mask] = [1, size_l[fid]]
                else:
                    entry[0] += 1
                    entry[1] += size_l[fid]
                self._dirty[fid] = 0

        k = self.n_caps
        hits = [self.hits_full] * k
        absorbs = [0] * k
        staged = [0] * k
        tape_writes = list(self.forced_tape_writes)
        flushed_bytes = list(self.forced_flushed_bytes)

        def expand(masked: Dict[int, int], out: List[int]) -> None:
            for mask, count in masked.items():
                while mask:
                    bit = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    out[bit] += count

        expand(self.hit_by_mask, hits)
        expand(self.absorb_by_mask, absorbs)
        expand(self.staged_by_mask, staged)
        for mask, (count, nbytes) in flush_by_mask.items():
            while mask:
                bit = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                tape_writes[bit] += count
                flushed_bytes[bit] += nbytes

        span = 0.0
        if self.first_time is not None:
            span = (self.last_time or 0.0) - self.first_time

        rows: List[HSMMetrics] = []
        for i in range(k):
            bypassed_reads = sum(self.bypass_read_count[i + 1 :])
            bypassed_writes = sum(self.bypass_write_count[i + 1 :])
            bypass_read_bytes = sum(self.bypass_read_bytes[i + 1 :])
            bypass_write_bytes = sum(self.bypass_write_bytes[i + 1 :])
            rows.append(
                HSMMetrics(
                    reads=self.reads_total,
                    read_hits=hits[i],
                    read_misses=self.reads_total - hits[i],
                    compulsory_misses=self.compulsory_total,
                    bytes_staged=staged[i] + bypass_read_bytes,
                    writes=self.writes_total,
                    bytes_written=self.bytes_written_total,
                    tape_writes=tape_writes[i] + bypassed_writes,
                    bytes_flushed=flushed_bytes[i] + bypass_write_bytes,
                    rewrites_absorbed=absorbs[i],
                    evictions=self.evictions[i],
                    bytes_evicted=self.bytes_evicted[i],
                    forced_flushes=self.forced_flushes[i],
                    bypassed_reads=bypassed_reads,
                    bypassed_writes=bypassed_writes,
                    span_seconds=span,
                )
            )
        return rows


def multi_capacity_replay(
    batches: Iterable[EventBatch],
    policy_name: str,
    capacities: Sequence[int],
    writeback_delay: Optional[float] = DEFAULT_WRITEBACK_DELAY,
    high_watermark: float = DEFAULT_HIGH_WATERMARK,
    low_watermark: float = DEFAULT_LOW_WATERMARK,
) -> List[HSMMetrics]:
    """Exact per-capacity metrics for every capacity in one scan.

    ``capacities`` may be unsorted and may contain duplicates; the result
    list matches its order (duplicates get equal, independent rows).
    More than 64 distinct capacities are handled in several passes, so
    ``batches`` must be re-iterable (a list, as ``prepare_stream``
    returns) when that limit is exceeded.
    """
    if not supports_policy(policy_name):
        raise StackEngineError(
            f"policy {policy_name!r} is not stack-replayable; "
            f"choose from {sorted(STACK_POLICIES)}"
        )
    requested = [int(c) for c in capacities]
    if not requested:
        return []
    if any(c <= 0 for c in requested):
        raise ValueError("capacity must be positive")
    from repro.verify.invariants import (
        StackInvariantChecker, invariant_context, invariants_enabled,
    )

    unique = sorted(set(requested))
    by_capacity: Dict[int, HSMMetrics] = {}
    if len(unique) > MAX_CAPACITIES_PER_PASS:
        batches = list(batches)
    for start in range(0, len(unique), MAX_CAPACITIES_PER_PASS):
        group = unique[start : start + MAX_CAPACITIES_PER_PASS]
        replay = _MultiCapacityReplay(
            policy_name, group, writeback_delay, high_watermark, low_watermark
        )
        checker = (
            StackInvariantChecker(replay) if invariants_enabled() else None
        )
        with invariant_context(
            engine="stack", policy=policy_name, capacities=group,
            writeback_delay=writeback_delay,
            high_watermark=high_watermark, low_watermark=low_watermark,
        ):
            for batch in batches:
                replay.feed(batch)
                if checker is not None:
                    checker.after_batch(batch)
            if checker is not None:
                checker.at_finish()
        for capacity, metrics in zip(group, replay.finish()):
            by_capacity[capacity] = metrics
    seen: set = set()
    rows: List[HSMMetrics] = []
    for capacity in requested:
        metrics = by_capacity[capacity]
        if capacity in seen:
            metrics = dataclasses.replace(metrics)
        seen.add(capacity)
        rows.append(metrics)
    return rows


__all__ = [
    "MAX_CAPACITIES_PER_PASS",
    "STACK_POLICIES",
    "StackEngineError",
    "multi_capacity_replay",
    "resolve_engine",
    "supports_policy",
]
