"""Order statistics and operation accounting for benchmark results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_count(n: int, pct: float) -> int:
    """Samples strictly beyond the ``pct``-th percentile of ``n`` samples."""
    return n - math.ceil(n * pct / 100.0)


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile, or None when < 10 samples lie beyond it.

    A refused request is passed in as ``inf``: it misses any latency
    limit, so it lands in the tail instead of being dropped.
    """
    n = len(values)
    if n == 0 or tail_count(n, pct) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    rank = max(math.ceil(n * pct / 100.0), 1)
    return float(ordered[rank - 1])


@dataclass
class Ops:
    """Attempted vs failed operations; ``fail_ratio`` = failed / attempted.

    An operation fails if it raised, was refused (HTTP 429/503), or
    produced a simulated output that disagrees with its check.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def mismatch(self, reason: str, count: int = 1) -> None:
        """Mark already-attempted operations failed by an output check."""
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
