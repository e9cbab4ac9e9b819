"""SAAC: migrate files whose activity is declining (Lawrie et al. [10]).

The paper describes SAAC as the policy "which migrated files that became
less active".  We implement it as a space-age product damped by an
activity trend: each file keeps an exponentially decayed access rate, and
files whose recent rate has fallen relative to their lifetime rate rank
higher for migration.
"""

from __future__ import annotations

import numpy as np

from repro.migration.policy import MigrationPolicy, SlotView
from repro.util.units import DAY


class SAACPolicy(MigrationPolicy):
    """Space-Age-Activity-Change policy."""

    name = "saac"

    #: Decayed access rate and the time it was last brought up to date.
    extra_columns = (("decayed_rate", np.float64), ("last_update", np.float64))

    def __init__(self, half_life: float = 7 * DAY) -> None:
        super().__init__()
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life

    def on_insert(self, file_id: int, size: int, time: float) -> None:
        super().on_insert(file_id, size, time)
        slot = self._slots.slot_of[file_id]
        cells = self._slots.cells
        cells.decayed_rate[slot] = 1.0
        cells.last_update[slot] = time

    def on_access(self, file_id: int, time: float, is_write: bool) -> None:
        super().on_access(file_id, time, is_write)
        slot = self._slots.slot_of[file_id]
        cells = self._slots.cells
        # Python floats, so ``**`` is the libm pow the vectorized
        # ``float_power`` in :meth:`rank_array` matches.
        dt = max(time - cells.last_update[slot], 0.0)
        decayed = cells.decayed_rate[slot] * 0.5 ** (dt / self.half_life)
        cells.decayed_rate[slot] = decayed + 1.0
        cells.last_update[slot] = time

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        """Large, old, and *cooling* files migrate first.

        Lifetime rate = accesses / residency; current rate = decayed rate.
        The (1 + lifetime/current) factor grows as activity falls off.
        """
        half_life = self.half_life
        age = np.maximum(now - slots.last_access, 1.0)
        residency = np.maximum(now - slots.inserted_at, 1.0)
        lifetime_rate = slots.access_count / residency
        dt = np.maximum(now - slots.last_update, 0.0)
        decayed = slots.decayed_rate * np.float_power(0.5, dt / half_life)
        current_rate = np.maximum(decayed / half_life, 1e-12)
        cooling = 1.0 + lifetime_rate / current_rate
        return slots.size * age * cooling
