"""MSCP, network topology, metrics, and full-system replay tests."""

import hashlib

import numpy as np
import pytest

from repro.engine.batch import DEVICE_ORDER, EventBatch
from repro.mss.metrics import MetricsCollector
from repro.mss.network import ncar_topology
from repro.mss.request import MSSRequest
from repro.mss.system import MSSConfig, MSSSystem
from repro.trace.record import Device
from repro.util.units import MB


# ---------------------------------------------------------------------------
# Network topology (Figure 2)


def test_topology_nodes_and_networks():
    topo = ncar_topology()
    assert "cray-ymp" in topo.nodes
    assert "ibm-3090" in topo.nodes
    assert len(topo.links_by_network("MASnet")) == 4
    assert len(topo.links_by_network("LDN")) >= 3


def test_topology_neighbors():
    topo = ncar_topology()
    assert "ibm-3090" in topo.neighbors("cray-ymp")
    assert "mss-disk" in topo.neighbors("cray-ymp")


def test_topology_path_bandwidth():
    topo = ncar_topology()
    direct = topo.path_bandwidth(["cray-ymp", "mss-disk"])
    through_3090 = min(
        topo.path_bandwidth(["cray-ymp", "ibm-3090"]),
        topo.path_bandwidth(["ibm-3090", "mss-disk"]),
    )
    # The LDN direct path beats the MASnet detour (Section 3.1).
    assert direct > through_3090


def test_topology_validation():
    topo = ncar_topology()
    with pytest.raises(ValueError):
        topo.path_bandwidth(["cray-ymp"])
    with pytest.raises(ValueError):
        topo.path_bandwidth(["cray-ymp", "vaxen"])  # no direct link
    with pytest.raises(ValueError):
        topo.add_node("cray-ymp")
    with pytest.raises(ValueError):
        topo.add_link("cray-ymp", "nonexistent", "LDN", MB)


# ---------------------------------------------------------------------------
# System-level behaviour


def test_submit_and_run_single_request():
    system = MSSSystem(MSSConfig(seed=1))
    request = system.submit("/u/f.dat", 4 * MB, False, Device.MSS_DISK, when=10.0)
    system.run()
    assert request.completion_time is not None
    assert request.arrival_time == 10.0
    assert request.startup_latency > 0
    assert system.metrics.total_completed == 1


def test_submit_rejects_unknown_device():
    system = MSSSystem(MSSConfig(seed=1))
    with pytest.raises(ValueError):
        system.mscp.submit(
            MSSRequest(0, "/f", 1, False, Device.CRAY, 0.0), lambda r: None
        )


def _head(trace, n):
    """The first ``n`` events of a trace as one batch."""
    return next(trace.iter_batches(chunk_size=n))


def _replay(trace, batches, seed):
    system = MSSSystem(MSSConfig(seed=seed))
    return system.replay_columns(batches, trace.namespace.path_of)


def test_replay_preserves_record_count_and_order(dense_trace):
    batch = _head(dense_trace, 2000)
    (replayed,), metrics = _replay(dense_trace, [batch], seed=2)
    assert len(replayed) == len(batch)
    for name in ("file_id", "time", "size", "is_write", "device", "error"):
        assert np.array_equal(getattr(replayed, name), getattr(batch, name))
    assert metrics.total_completed == int((batch.error == 0).sum())


def test_replay_fills_latencies(dense_trace):
    (replayed,), _ = _replay(dense_trace, [_head(dense_trace, 2000)], seed=3)
    good = replayed.good()
    assert np.all(good.latency > 0)
    assert np.all(good.transfer > 0)


def test_replay_passes_errors_through(dense_trace):
    batch = _head(dense_trace, 3000)
    (replayed,), _ = _replay(dense_trace, [batch], seed=4)
    assert int((replayed.error != 0).sum()) == int((batch.error != 0).sum())


def test_replay_latency_ordering(dense_trace):
    """Disk must beat silo, silo must beat shelf (Figure 3 ordering)."""
    _, metrics = _replay(dense_trace, dense_trace.iter_batches(), seed=5)
    disk = np.mean(metrics.device_samples(Device.MSS_DISK))
    silo = np.mean(metrics.device_samples(Device.TAPE_SILO))
    shelf = np.mean(metrics.device_samples(Device.TAPE_SHELF))
    assert disk < silo < shelf
    # Paper: the silo is 2-2.5x faster than manual mounting overall.
    assert shelf / silo > 1.5


def test_replay_is_deterministic(dense_trace):
    batch = _head(dense_trace, 1500)
    (a,), _ = _replay(dense_trace, [batch], seed=6)
    (b,), _ = _replay(dense_trace, [batch], seed=6)
    assert np.array_equal(a.latency, b.latency)


# ---------------------------------------------------------------------------
# Metrics collector


def test_metrics_collector_cells():
    collector = MetricsCollector()
    request = MSSRequest(0, "/f", MB, False, Device.MSS_DISK, 0.0)
    request.mscp_grant_time = 1.0
    request.device_grant_time = 2.0
    request.seek_done_time = 3.0
    request.first_byte_time = 3.0
    request.completion_time = 5.0
    collector.record(request)
    cell = collector.cell(Device.MSS_DISK, False)
    assert cell.startup.count == 1
    assert cell.startup.mean == pytest.approx(3.0)
    assert cell.transfer.mean == pytest.approx(2.0)
    assert collector.mean_startup(Device.MSS_DISK, False) == pytest.approx(3.0)
    summary = collector.summary()
    assert "disk-read" in summary


def test_metrics_empty_cell():
    collector = MetricsCollector()
    assert collector.cell(Device.TAPE_SILO, True).startup.count == 0
    with pytest.raises(ValueError):
        collector.device_cdf(Device.TAPE_SILO)


# ---------------------------------------------------------------------------
# Exact pin of the whole MSS path


def _golden_batch():
    """A fixed, generator-independent request stream for the digest pin.

    Bursts of simultaneous arrivals overrun the twelve bitfile movers,
    tape-heavy device mix and shared directories force cartridge mounts
    as well as mount hits, and a few error rows are passed through.
    """
    rng = np.random.default_rng(1993)
    n = 900
    gaps = rng.exponential(40.0, n)
    gaps[rng.random(n) < 0.35] = 0.0  # tied arrivals
    file_id = rng.integers(0, 400, n).astype(np.int64)
    return EventBatch(
        file_id=file_id,
        size=rng.integers(1, 64 * MB, n).astype(np.int64),
        time=np.cumsum(gaps),
        is_write=rng.random(n) < 0.3,
        device=rng.choice(3, n, p=[0.4, 0.4, 0.2]).astype(np.int8),
        error=(rng.random(n) < 0.03).astype(np.int8),
    )


def _golden_path(file_id):
    return f"/u/dir{file_id % 23}/hist{file_id:04d}"


#: sha256 of the golden replay's ``latency``/``transfer`` columns and every
#: metrics cell's ``(count, total, mount.total)``, computed with the
#: dataclass-heap kernel that ``tests/oracles/kernel.py`` preserves.
GOLDEN_REPLAY_DIGEST = (
    "00c3dac74df4c0b1dc5bea51052f752609e006073c95a3dcb33c81dee3cb2f65"
)


def test_replay_columns_golden_digest():
    system = MSSSystem(MSSConfig(seed=11))
    (replayed,), metrics = system.replay_columns([_golden_batch()], _golden_path)
    assert system.silo.mounts_performed and system.silo.mount_hits
    assert system.shelf.mounts_performed
    assert system.mscp.mover_queue_wait > 0
    digest = hashlib.sha256()
    digest.update(replayed.latency.tobytes())
    digest.update(replayed.transfer.tobytes())
    for device in DEVICE_ORDER:
        for is_write in (False, True):
            cell = metrics.cell(device, is_write)
            digest.update(repr((
                device.value, is_write, cell.startup.count,
                cell.startup.total, cell.mount.total,
            )).encode())
    assert digest.hexdigest() == GOLDEN_REPLAY_DIGEST
