"""The hierarchical storage manager: cache + policy + prefetch, replaying
a reference stream and reporting migration metrics.

This is the engine behind the Section 6 experiments: compare STP / LRU /
size / SAAC / OPT at various managed-disk capacities, toggle lazy
write-back, and measure what prefetching buys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.hsm.cache import CacheConfig, ManagedDiskCache
from repro.hsm.metrics import HSMMetrics
from repro.hsm.prefetch import PrefetchConfig, SequentialPrefetcher
from repro.migration.policy import MigrationPolicy
from repro.namespace.model import Namespace

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch

#: One reference: (file_id, size_bytes, time_seconds, is_write).
Event = Tuple[int, int, float, bool]


@dataclass
class HSMConfig:
    """Complete HSM experiment configuration."""

    cache: CacheConfig
    prefetch: PrefetchConfig = field(default_factory=lambda: PrefetchConfig(enabled=False))

    @staticmethod
    def with_capacity(
        capacity_bytes: int,
        writeback_delay: Optional[float] = 4 * 3600.0,
        prefetch: bool = False,
        prefetch_depth: int = 2,
    ) -> "HSMConfig":
        """Convenience constructor used by the benches."""
        return HSMConfig(
            cache=CacheConfig(
                capacity_bytes=capacity_bytes, writeback_delay=writeback_delay
            ),
            prefetch=PrefetchConfig(enabled=prefetch, depth=prefetch_depth),
        )


class HSM:
    """A managed disk tier in front of the tape archive."""

    def __init__(
        self,
        config: HSMConfig,
        policy: MigrationPolicy,
        namespace: Optional[Namespace] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.cache = ManagedDiskCache(config.cache, policy)
        self.prefetcher: Optional[SequentialPrefetcher] = None
        if config.prefetch.enabled:
            if namespace is None:
                raise ValueError("prefetching needs the namespace for siblings")
            self.prefetcher = SequentialPrefetcher(namespace, config.prefetch)

    @property
    def metrics(self) -> HSMMetrics:
        """Counters accumulated so far."""
        return self.cache.metrics

    def handle(self, event: Event) -> None:
        """Apply one reference."""
        file_id, size, time, is_write = event
        if self.prefetcher is not None and not is_write:
            if self.cache.is_resident(file_id) and self.prefetcher.consume_hit(file_id):
                self.metrics.prefetch_hits += 1
        outcome = self.cache.access(file_id, size, time, is_write)
        if self.prefetcher is not None:
            for evicted in outcome.evicted:
                self.prefetcher.cancel(evicted)
            if not is_write and not outcome.hit:
                self._prefetch_around(file_id, time)

    def _handle_each(
        self,
        file_ids: List[int],
        sizes: List[int],
        times: List[float],
        is_write: List[bool],
    ) -> None:
        """Apply one batch's columns through :meth:`handle`, event by event."""
        handle = self.handle
        for event in zip(file_ids, sizes, times, is_write):
            handle(event)

    def _prefetch_around(self, file_id: int, time: float) -> None:
        assert self.prefetcher is not None
        for sibling_id, sibling_size in self.prefetcher.candidates(file_id):
            if self.cache.is_resident(sibling_id):
                continue
            if sibling_size > self.config.cache.capacity_bytes // 4:
                continue  # do not wipe the cache for speculation
            self.metrics.prefetches_issued += 1
            self.metrics.bytes_staged += sibling_size
            self.cache._insert(sibling_id, sibling_size, time, dirty=False)
            self.prefetcher.note_prefetched(sibling_id)

    def replay(self, batches: Iterable["EventBatch"]) -> HSMMetrics:
        """Replay a stream of columnar :class:`EventBatch`es.

        Each batch goes through the cache's batch access path (buffered
        hit runs, no per-event allocations), or, with prefetching
        enabled, through :meth:`handle` event by event, because every
        access outcome feeds the prefetcher.  Either way the metrics are
        those of applying the events one at a time.

        With ``REPRO_CHECK_INVARIANTS=1`` every batch is followed by a
        conservation-law check (and ``flush_all`` by the at-finalize
        laws); the ``hsm-batch`` fault point lets the chaos harness
        corrupt a counter deliberately to prove the checker catches it.
        """
        from repro.engine.resilience import fault_point
        from repro.verify.invariants import (
            HSMInvariantChecker, invariants_enabled,
        )

        checker = (
            HSMInvariantChecker(
                self.cache, prefetch=self.prefetcher is not None
            )
            if invariants_enabled()
            else None
        )
        faulted = bool(os.environ.get("REPRO_FAULT_PLAN"))
        step = (
            self.cache.access_batch if self.prefetcher is None else self._handle_each
        )
        for index, batch in enumerate(batches):
            step(
                batch.file_id.tolist(),
                batch.size.tolist(),
                batch.time.tolist(),
                batch.is_write.tolist(),
            )
            if faulted and "corrupt" in fault_point("hsm-batch", f"batch:{index}"):
                self.cache.metrics.read_hits += 1
            if checker is not None:
                checker.after_batch(batch)
        self.cache.flush_all()
        if checker is not None:
            checker.finalize()
        return self.metrics
