"""Reference record walks: the per-record and per-tuple implementations.

Every analysis, the HSM replay and the MSS replay have one production
implementation in ``src/``, and it consumes columnar
:class:`~repro.engine.batch.EventBatch` streams.  This module keeps the
straightforward walks those columnar paths were derived from -- one
``TraceRecord`` or one ``(file_id, size, time, is_write)`` tuple at a
time -- so the tests can pin the production numbers against an
independent reference:

* :mod:`tests.analysis.test_columnar_equivalence` compares every figure
  and table reduction (integers exact, floats to 1e-12) and the MSS
  replay;
* :mod:`tests.engine.test_replay_equivalence` and
  :mod:`tests.engine.test_stream` compare the HSM reference stream and
  the batch replay for every policy;
* the 5x throughput gates in ``benchmarks/`` time these walks against
  the columnar paths.

Nothing here is used outside the test and benchmark suites.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.intervals import IntervalAnalysis
from repro.analysis.latency import LatencyDistributions
from repro.analysis.overall import OverallStatistics
from repro.analysis.rates import RateProfile
from repro.analysis.refcounts import ReferenceCounts
from repro.analysis.sizes import DynamicSizeDistribution
from repro.hsm.manager import HSM, HSMConfig
from repro.hsm.metrics import HSMMetrics
from repro.migration.opt import OptimalPolicy
from repro.migration.policy import MigrationPolicy
from repro.migration.registry import make_policy
from repro.mss.metrics import MetricsCollector
from repro.mss.request import MSSRequest
from repro.mss.system import MSSSystem
from repro.namespace.model import Namespace
from repro.trace.filters import dedupe_for_file_analysis, strip_errors
from repro.trace.record import Device, TraceRecord
from repro.trace.stats import TraceStatistics
from repro.util.timeutil import DAY_NAMES, TraceCalendar
from repro.util.units import DAY, HOUR, WEEK, bytes_to_gb

#: One HSM reference: (file_id, size_bytes, time_seconds, is_write).
Event = Tuple[int, int, float, bool]


# ---------------------------------------------------------------------------
# Figures 4-6: binned byte rates


def _accumulate(
    records: Iterable[TraceRecord],
    bin_of: "callable",
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sum bytes per bin for reads and writes; also returns the span."""
    read_bytes = np.zeros(n_bins)
    write_bytes = np.zeros(n_bins)
    first = None
    last = None
    for record in records:
        if record.is_error:
            continue
        if first is None:
            first = record.start_time
        last = record.start_time
        idx = bin_of(record.start_time)
        if record.is_write:
            write_bytes[idx] += record.file_size
        else:
            read_bytes[idx] += record.file_size
    if first is None or last is None or last <= first:
        raise ValueError("need a non-degenerate record stream")
    return read_bytes, write_bytes, last - first


def _profile(read_bytes, write_bytes, bin_labels, hours_per_bin) -> RateProfile:
    return RateProfile(
        bin_labels=bin_labels,
        read_gb_per_hour=bytes_to_gb(read_bytes) / hours_per_bin,
        write_gb_per_hour=bytes_to_gb(write_bytes) / hours_per_bin,
    )


def hourly_profile(records: Iterable[TraceRecord]) -> RateProfile:
    """Figure 4: average GB/hour by hour of day (0 = midnight)."""
    read_bytes, write_bytes, span = _accumulate(
        records, lambda t: int((t % DAY) // HOUR), 24
    )
    labels = [f"{h:02d}" for h in range(24)]
    return _profile(read_bytes, write_bytes, labels, max(span / DAY, 1.0))


def weekly_profile(records: Iterable[TraceRecord]) -> RateProfile:
    """Figure 5: average GB/hour by day of week (0 = Sunday)."""
    calendar = TraceCalendar()
    read_bytes, write_bytes, span = _accumulate(
        records, calendar.day_of_week, 7
    )
    hours_per_bin = max(span / WEEK, 1.0) * 24.0
    return _profile(read_bytes, write_bytes, list(DAY_NAMES), hours_per_bin)


def secular_series(
    records: Iterable[TraceRecord], n_weeks: int = 104
) -> RateProfile:
    """Figure 6: average GB/hour for each trace week."""
    read_bytes, write_bytes, _ = _accumulate(
        records,
        lambda t: min(int(t // WEEK), n_weeks - 1),
        n_weeks,
    )
    return _profile(
        read_bytes, write_bytes, [f"w{w}" for w in range(n_weeks)], WEEK / HOUR
    )


def rate_series(
    records: Iterable[TraceRecord],
    bin_seconds: float = HOUR,
    direction: Optional[bool] = None,
    span_seconds: Optional[float] = None,
) -> np.ndarray:
    """Bytes moved per bin; ``direction`` None = both, else is_write."""
    horizon = 0.0
    buffered = []
    for record in records:
        if record.is_error:
            continue
        if direction is not None and record.is_write != direction:
            continue
        buffered.append((record.start_time, record.file_size))
        horizon = max(horizon, record.start_time)
    if not buffered:
        raise ValueError("no matching records")
    span = span_seconds if span_seconds is not None else horizon + bin_seconds
    n_bins = int(np.ceil(span / bin_seconds))
    series = np.zeros(n_bins)
    for time, size in buffered:
        idx = min(int(time // bin_seconds), n_bins - 1)
        series[idx] += size
    return series


# ---------------------------------------------------------------------------
# Figures 7 and 9: interreference gaps


def system_interarrivals(records: Iterable[TraceRecord]) -> IntervalAnalysis:
    """Figure 7: gaps between consecutive request start times."""
    times = [r.start_time for r in records]
    if len(times) < 2:
        raise ValueError("need at least two records")
    gaps = np.diff(np.asarray(times))
    if np.any(gaps < 0):
        raise ValueError("records must be time-ordered")
    return IntervalAnalysis(intervals=gaps)


def file_interreference(records: Iterable[TraceRecord]) -> IntervalAnalysis:
    """Figure 9: per-file gaps on an already-deduped stream."""
    by_file: Dict[str, List[float]] = {}
    for record in records:
        by_file.setdefault(record.mss_path, []).append(record.start_time)
    gaps: List[float] = []
    for times in by_file.values():
        if len(times) < 2:
            continue
        times.sort()
        gaps.extend(float(b - a) for a, b in zip(times, times[1:]))
    if not gaps:
        raise ValueError("no file was referenced twice")
    return IntervalAnalysis(intervals=np.asarray(gaps))


# ---------------------------------------------------------------------------
# Figure 8, Figure 10, Figure 3 and Table 3


def reference_counts(records: Iterable[TraceRecord]) -> ReferenceCounts:
    """Count per-file reads and writes from a (deduped) record stream."""
    counts: Dict[str, Tuple[int, int]] = {}
    for record in records:
        reads, writes = counts.get(record.mss_path, (0, 0))
        if record.is_write:
            counts[record.mss_path] = (reads, writes + 1)
        else:
            counts[record.mss_path] = (reads + 1, writes)
    if not counts:
        raise ValueError("no records")
    reads = np.fromiter((rw[0] for rw in counts.values()), dtype=np.int64)
    writes = np.fromiter((rw[1] for rw in counts.values()), dtype=np.int64)
    return ReferenceCounts(reads=reads, writes=writes)


def dynamic_distribution(records: Iterable[TraceRecord]) -> DynamicSizeDistribution:
    """Collect per-access sizes from successful references."""
    reads: List[int] = []
    writes: List[int] = []
    for record in records:
        if record.is_error:
            continue
        if record.is_write:
            writes.append(record.file_size)
        else:
            reads.append(record.file_size)
    if not reads or not writes:
        raise ValueError("need both reads and writes")
    return DynamicSizeDistribution(
        read_sizes=np.asarray(reads, dtype=float),
        write_sizes=np.asarray(writes, dtype=float),
    )


def latency_distributions(records: Iterable[TraceRecord]) -> LatencyDistributions:
    """Collect Figure 3 samples from records carrying latencies."""
    buckets: Dict[Device, List[float]] = {d: [] for d in Device.storage_devices()}
    for record in records:
        if record.is_error:
            continue
        buckets[record.storage_device].append(record.startup_latency)
    samples = {}
    for device, values in buckets.items():
        if not values:
            raise ValueError(f"no successful references to {device}")
        samples[device] = np.asarray(values)
    return LatencyDistributions(samples=samples)


def overall_statistics(records: Iterable[TraceRecord]) -> OverallStatistics:
    """Accumulate Table 3 from a raw record stream (errors included)."""
    return OverallStatistics(TraceStatistics().add_all(records))


# ---------------------------------------------------------------------------
# HSM: per-tuple reference stream and replay


def events_from_trace(trace, deduped: bool = True) -> List[Event]:
    """Reference stream for HSM replay from a synthetic trace.

    Failed references are dropped; by default the 8-hour dedupe is
    applied.  Sizes are clamped to at least one byte.
    """
    records = strip_errors(trace.iter_records())
    if deduped:
        records = dedupe_for_file_analysis(records)
    events: List[Event] = []
    for record in records:
        entry = trace.namespace.file_by_path(record.mss_path)
        events.append(
            (entry.file_id, max(entry.size, 1), record.start_time, record.is_write)
        )
    return events


def opt_from_events(events: Iterable[Tuple[int, float]]) -> OptimalPolicy:
    """OPT's schedule built with per-event dict appends."""
    schedule: Dict[int, List[float]] = {}
    for file_id, time in events:
        schedule.setdefault(file_id, []).append(time)
    return OptimalPolicy(schedule)


def run_policy(
    events: List[Event],
    policy_name: str,
    capacity_bytes: int,
    namespace: Optional[Namespace] = None,
    writeback_delay: Optional[float] = 4 * 3600.0,
    prefetch: bool = False,
) -> HSMMetrics:
    """Run one named policy over an event stream, one ``handle`` per event."""
    if policy_name == "opt":
        policy: MigrationPolicy = opt_from_events(
            (file_id, time) for file_id, _, time, _ in events
        )
    else:
        policy = make_policy(policy_name)
    config = HSMConfig.with_capacity(
        capacity_bytes, writeback_delay=writeback_delay, prefetch=prefetch
    )
    hsm = HSM(config, policy, namespace=namespace)
    for event in events:
        hsm.handle(event)
    hsm.cache.flush_all()
    return hsm.metrics


# ---------------------------------------------------------------------------
# MSS: record replay


def mss_replay(
    system: MSSSystem, records: Iterable[TraceRecord]
) -> Tuple[List[TraceRecord], MetricsCollector]:
    """Replay a record stream; returns (records with simulated times, metrics).

    Failed references pass through untouched.  Records must be
    time-ordered.
    """
    requests: List[Tuple[TraceRecord, Optional[MSSRequest]]] = []
    for record in records:
        if record.is_error:
            requests.append((record, None))
            continue
        request = system.submit(
            path=record.mss_path,
            size=record.file_size,
            is_write=record.is_write,
            device=record.storage_device,
            when=record.start_time,
        )
        requests.append((record, request))
    system.run()
    out: List[TraceRecord] = []
    for record, request in requests:
        if request is None:
            out.append(record)
            continue
        out.append(
            record.with_times(
                startup_latency=request.startup_latency,
                transfer_time=request.transfer_time,
            )
        )
    return out, system.metrics
