"""Space-Time Product policies (Smith [14,15]).

Smith's result, restated in Section 2.3: among criteria that use only the
last reference time, the best migrates the files with the highest value of
``size * (time since last reference) ** alpha`` with alpha ~= 1.4
(written STP**1.4).  Lawrie et al. [10] found the same criterion best on
an unrelated system.  The generalized form below exposes both exponents so
the ablation bench can sweep them.
"""

from __future__ import annotations

import numpy as np

from repro.core import paper
from repro.migration.policy import MigrationPolicy, SlotView


class SpaceTimePolicy(MigrationPolicy):
    """Migrate the largest-and-coldest files first."""

    def __init__(
        self,
        time_exponent: float = paper.STP_TIME_EXPONENT,
        size_exponent: float = 1.0,
    ) -> None:
        super().__init__()
        if time_exponent < 0 or size_exponent < 0:
            raise ValueError("exponents must be non-negative")
        self.time_exponent = time_exponent
        self.size_exponent = size_exponent
        self.name = f"stp(t^{time_exponent:g},s^{size_exponent:g})"

    def rank_array(self, slots: SlotView, now: float) -> np.ndarray:
        """size^beta * age^alpha (``float_power``: see the base class)."""
        age = np.maximum(now - slots.last_access, 0.0)
        return np.float_power(slots.size, self.size_exponent) * np.float_power(
            age, self.time_exponent
        )


def classic_stp() -> SpaceTimePolicy:
    """Smith's plain space-time product (alpha = beta = 1)."""
    return SpaceTimePolicy(time_exponent=1.0, size_exponent=1.0)


def stp_14() -> SpaceTimePolicy:
    """The STP**1.4 variant the paper cites as best."""
    return SpaceTimePolicy(time_exponent=paper.STP_TIME_EXPONENT, size_exponent=1.0)
