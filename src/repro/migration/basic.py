"""The simple baseline policies the prior studies compared against.

Lawrie et al. [10] evaluated "pure LRU, pure length (migrate large files
first)" against Smith's STP; we add FIFO, smallest-first and random as
additional controls.
"""

from __future__ import annotations

import numpy as np

from repro.migration.policy import MigrationPolicy, SlotView


class LRUPolicy(MigrationPolicy):
    """Migrate the least recently used file first."""

    name = "lru"
    is_inclusion_preserving = True

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        return now - slots.last_access


class FIFOPolicy(MigrationPolicy):
    """Migrate the longest-resident file first, ignoring reuse."""

    name = "fifo"
    is_inclusion_preserving = True

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        return now - slots.inserted_at


class LargestFirstPolicy(MigrationPolicy):
    """Lawrie's "pure length": migrate the biggest file first."""

    name = "largest-first"
    is_inclusion_preserving = True

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        return slots.size.astype(np.float64)


class SmallestFirstPolicy(MigrationPolicy):
    """Migrate the smallest file first (a deliberately bad control)."""

    name = "smallest-first"
    is_inclusion_preserving = True

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        return -slots.size.astype(np.float64)


class RandomPolicy(MigrationPolicy):
    """Uniformly random victims."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        # One draw per candidate in slot order: the same stream as one
        # scalar ``random()`` per candidate.
        return self._rng.random(len(slots))


class MRUPolicy(MigrationPolicy):
    """Migrate the most recently used file (pathological control)."""

    name = "mru"
    is_inclusion_preserving = True

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        return -(now - slots.last_access)
