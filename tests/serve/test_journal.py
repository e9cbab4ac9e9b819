"""Write-ahead journal: frame integrity, torn-tail repair, snapshots."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.serve.journal import (
    SNAPSHOTS_KEPT,
    STATE_LAYOUT,
    SessionJournal,
    _digest,
    decode_batch,
    encode_batch,
    write_bytes_atomic,
)
from tests.serve.conftest import synth_chunks


def _assert_batches_equal(a, b):
    for name in ("file_id", "size", "time", "is_write", "device", "error",
                 "user", "latency", "transfer"):
        left, right = getattr(a, name), getattr(b, name)
        if left is None or right is None:
            assert left is None and right is None, name
        else:
            assert left.dtype == right.dtype, name
            np.testing.assert_array_equal(left, right, err_msg=name)


def test_encode_decode_roundtrip_preserves_all_columns(chunk_stream):
    for batch in chunk_stream:
        _assert_batches_equal(decode_batch(encode_batch(batch)), batch)


def test_roundtrip_without_optional_columns():
    batch = synth_chunks(1, 50)[0]
    stripped = type(batch)(
        file_id=batch.file_id, size=batch.size, time=batch.time,
        is_write=batch.is_write, device=batch.device, error=batch.error,
    )
    _assert_batches_equal(decode_batch(encode_batch(stripped)), stripped)


def test_append_replay_roundtrip(tmp_path, chunk_stream):
    journal = SessionJournal(tmp_path / "s")
    for batch in chunk_stream:
        journal.append(batch)
    journal.close()
    assert journal.frame_count() == len(chunk_stream)
    for original, replayed in zip(chunk_stream, journal.replay()):
        _assert_batches_equal(replayed, original)
    # skip= resumes mid-journal
    tail = list(journal.replay(skip=4))
    assert len(tail) == len(chunk_stream) - 4
    _assert_batches_equal(tail[0], chunk_stream[4])


@pytest.mark.parametrize("chop", [1, 10, 1000])
def test_torn_tail_is_detected_and_repaired(tmp_path, chunk_stream, chop):
    journal = SessionJournal(tmp_path / "s")
    for batch in chunk_stream:
        journal.append(batch)
    journal.close()
    # Tear the tail the way a crashed mid-write would.
    size = journal.journal_path.stat().st_size
    with open(journal.journal_path, "r+b") as handle:
        handle.truncate(size - chop)
    assert journal.frame_count() == len(chunk_stream) - 1
    assert journal.repair() == len(chunk_stream) - 1
    # Re-append lands on a clean boundary.
    journal.append(chunk_stream[-1])
    journal.close()
    assert journal.frame_count() == len(chunk_stream)
    _assert_batches_equal(
        list(journal.replay())[-1], chunk_stream[-1]
    )


def test_corrupt_mid_frame_stops_scan_at_damage(tmp_path, chunk_stream):
    journal = SessionJournal(tmp_path / "s")
    offsets = [journal.append(batch) for batch in chunk_stream]
    journal.close()
    # Flip one byte inside frame 2's payload: frames 0-1 stay usable.
    data = bytearray(journal.journal_path.read_bytes())
    data[offsets[2] + 40] ^= 0xFF
    journal.journal_path.write_bytes(bytes(data))
    assert journal.frame_count() == 2
    assert journal.repair() == 2


def test_snapshot_roundtrip_and_pruning(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    for applied in (4, 8, 12):
        journal.write_snapshot(applied, {"applied": applied, "x": [applied]})
    applied, state = journal.load_snapshot()
    assert applied == 12 and state == {"applied": 12, "x": [12]}
    snapshots = sorted(p.name for p in (tmp_path / "s").glob("snapshot-*.pkl"))
    assert len(snapshots) == SNAPSHOTS_KEPT


def test_corrupt_newest_snapshot_falls_back(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    journal.write_snapshot(4, "older")
    newest = journal.write_snapshot(8, "newest")
    data = bytearray(newest.read_bytes())
    data[-1] ^= 0xFF  # bit rot: digest check must reject it
    newest.write_bytes(bytes(data))
    assert journal.load_snapshot() == (4, "older")


def write_unversioned_snapshot(journal, applied, state):
    """A snapshot as written before records carried a state layout."""
    payload = pickle.dumps({"applied": applied, "state": state})
    path = journal.session_dir / f"snapshot-{applied:010d}.pkl"
    write_bytes_atomic(path, _digest(payload) + payload)
    return path


@pytest.mark.parametrize("layout", [None, STATE_LAYOUT - 1, STATE_LAYOUT + 1])
def test_other_state_layout_is_skipped(tmp_path, layout):
    journal = SessionJournal(tmp_path / "s")
    journal.write_snapshot(4, "current layout")
    if layout is None:
        write_unversioned_snapshot(journal, 8, "old layout")
    else:
        payload = pickle.dumps({"applied": 8, "layout": layout, "state": "other"})
        write_bytes_atomic(
            journal.session_dir / "snapshot-0000000008.pkl",
            _digest(payload) + payload,
        )
    assert journal.load_snapshot() == (4, "current layout")


def test_no_snapshot_means_empty_state(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    assert journal.load_snapshot() == (0, None)
    assert journal.frame_count() == 0
    assert list(journal.replay()) == []
