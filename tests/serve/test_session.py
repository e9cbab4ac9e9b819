"""ReplaySession / JournaledSession: incremental replay correctness.

The anchor property: an incremental session fed chunk-by-chunk computes
exactly what the offline engine computes on the whole stream -- same
HSM counters, same tenant Table-3 cells -- and a journaled session
re-opened at any point recovers that state bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.batch import EventBatch
from repro.engine.stream import BlockDeduper
from repro.hsm.manager import HSM, HSMConfig
from repro.migration.registry import make_policy
from repro.serve.session import (
    JournaledSession,
    ReplaySession,
    SequenceGap,
    SessionError,
    SessionSpec,
)
from tests.serve.conftest import synth_chunks

CAPACITY = 16 * 1024 * 1024


def _assert_close(a, b, path=""):
    """Recursive dict equality with float tolerance (merge-order ulps)."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _assert_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=1e-9), path
    else:
        assert a == b, path


def _spec(**overrides) -> SessionSpec:
    base = dict(name="t", policy="lru", capacity_bytes=CAPACITY,
                labels=("alpha", "beta"), snapshot_every=None)
    base.update(overrides)
    base.pop("snapshot_every", None)
    return SessionSpec(**base)


def _offline_metrics(chunks, spec: SessionSpec):
    """The batch engine's answer on the same stream (reference)."""
    hsm = HSM(
        HSMConfig.with_capacity(
            spec.capacity_bytes, writeback_delay=spec.writeback_delay
        ),
        make_policy(spec.policy, seed=spec.policy_seed),
    )
    deduper = BlockDeduper()
    for chunk in chunks:
        good = chunk.good()
        if spec.deduped and len(good):
            good = deduper.apply(good)
        if len(good):
            hsm.cache.access_batch(
                good.file_id.tolist(),
                np.maximum(good.size, 1).tolist(),
                good.time.tolist(),
                good.is_write.tolist(),
            )
    hsm.cache.flush_all()
    return hsm.metrics


class TestSessionSpec:
    def test_rejects_opt_policy(self):
        with pytest.raises(SessionError, match="OPT"):
            _spec(policy="opt")

    def test_rejects_unknown_policy(self):
        with pytest.raises(SessionError, match="unknown policy"):
            _spec(policy="nope")

    @pytest.mark.parametrize("field,value", [
        ("name", ""), ("capacity_bytes", 0), ("labels", ()),
        ("window_seconds", 0.0),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(SessionError):
            _spec(**{field: value})

    def test_dict_roundtrip(self):
        spec = _spec(scenario={"name": "flash-crowd"})
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        payload = _spec().to_dict()
        payload["future_field"] = 1
        assert SessionSpec.from_dict(payload) == _spec()


class TestReplaySession:
    def test_matches_offline_engine(self, chunk_stream):
        spec = _spec()
        session = ReplaySession(spec)
        for chunk in chunk_stream:
            session.feed(chunk)
        session.finalize()
        reference = _offline_metrics(chunk_stream, spec)
        hsm = session.metrics()["hsm"]
        assert hsm["reads"] == reference.reads
        assert hsm["read_misses"] == reference.read_misses
        assert hsm["bytes_staged"] == reference.bytes_staged
        assert hsm["bytes_written"] == reference.bytes_written
        assert hsm["evictions"] == reference.evictions
        assert hsm["read_miss_ratio"] == reference.read_miss_ratio

    def test_chunking_is_invisible(self, chunk_stream):
        spec = _spec()
        coarse = ReplaySession(spec)
        for chunk in chunk_stream:
            coarse.feed(chunk)
        fine = ReplaySession(spec)
        for chunk in chunk_stream:
            for piece in chunk.chunks(97):
                fine.feed(piece)
        # HSM counters are integer state transitions: exact.  Tenant
        # moments accumulate floats in merge order, so re-chunking may
        # differ at the last ulp (recovery replays identical chunks and
        # is tested exact elsewhere).
        assert coarse.metrics()["hsm"] == fine.metrics()["hsm"]
        _assert_close(coarse.metrics()["tenants"], fine.metrics()["tenants"])

    def test_tenant_attribution_covers_all_events(self, chunk_stream):
        session = ReplaySession(_spec())
        for chunk in chunk_stream:
            session.feed(chunk)
        tenants = session.metrics()["tenants"]
        assert set(tenants) == {"alpha", "beta"}
        raw_total = sum(len(chunk) for chunk in chunk_stream)
        good_total = sum(
            int(np.count_nonzero(chunk.error == 0)) for chunk in chunk_stream
        )
        # Table-3 cells count successful references; errors are tracked
        # in each tenant's error fraction.
        assert sum(t["references"] for t in tenants.values()) == good_total
        assert session.events_ingested == raw_total

    def test_rejects_time_regression(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[1])
        with pytest.raises(SessionError, match="time order"):
            session.feed(chunk_stream[0])

    def test_rejects_feed_after_finalize(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        session.finalize()
        with pytest.raises(SessionError, match="finalized"):
            session.feed(chunk_stream[1])

    def test_finalize_is_idempotent(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        assert session.finalize() == session.finalize()

    def test_rolling_window_evicts_old_chunks(self):
        chunks = synth_chunks(10, 200)
        # Window narrower than the stream: old chunks must drop out.
        span = float(chunks[-1].time[-1] - chunks[0].time[0])
        session = ReplaySession(_spec(window_seconds=span / 4))
        for chunk in chunks:
            session.feed(chunk)
        window = session.metrics()["window"]
        assert 0 < window["chunks"] < len(chunks)
        assert window["events"] < session.events_ingested
        assert window["events_per_stream_hour"] > 0

    def test_empty_chunk_is_harmless(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        ack = session.feed(EventBatch.empty())
        assert ack["events"] == 0
        session.feed(chunk_stream[1])
        assert session.applied_chunks == 3


class TestJournaledSession:
    def test_reopen_recovers_bit_identically(self, tmp_path, chunk_stream):
        spec = _spec()
        uninterrupted = ReplaySession(spec)
        for chunk in chunk_stream:
            uninterrupted.feed(chunk)

        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=2)
        for seq, chunk in enumerate(chunk_stream[:4]):
            journaled.feed(chunk, seq)
        journaled.close()

        # A different process would do exactly this after a restart.
        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == 4
        for seq, chunk in enumerate(chunk_stream[4:], start=4):
            recovered.feed(chunk, seq)
        assert recovered.session.metrics() == uninterrupted.metrics()

    def test_reopen_without_snapshot_replays_journal(self, tmp_path, chunk_stream):
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=10_000)
        for seq, chunk in enumerate(chunk_stream):
            journaled.feed(chunk, seq)
        journaled.journal.close()  # no snapshot written: journal-only recovery

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == len(chunk_stream)
        reference = ReplaySession(spec)
        for chunk in chunk_stream:
            reference.feed(chunk)
        assert recovered.session.metrics() == reference.metrics()

    @pytest.mark.parametrize("policy", ["lru", "saac"])
    def test_pre_columnar_snapshot_falls_back_to_journal(
        self, tmp_path, chunk_stream, policy
    ):
        """A snapshot from before the columnar resident set (the policy
        pickled as a per-file ``_resident`` dict, record unstamped)
        unpickles cleanly but would crash the first feed; recovery must
        skip it and replay the journal to the uninterrupted state."""
        from repro.migration.policy import ResidentFile
        from tests.serve.test_journal import write_unversioned_snapshot

        spec = _spec(policy=policy, deduped=False)
        uninterrupted = ReplaySession(spec)
        for chunk in chunk_stream:
            uninterrupted.feed(chunk)

        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=10_000)
        for seq, chunk in enumerate(chunk_stream[:4]):
            journaled.feed(chunk, seq)
        journaled.journal.close()
        old = journaled.session
        old_policy = old.hsm.cache.policy
        resident = {
            file_id: old_policy.metadata(file_id)
            for file_id in old_policy._slots.slot_of
        }
        assert all(isinstance(m, ResidentFile) for m in resident.values())
        old_policy.__dict__.clear()
        old_policy.__dict__["_resident"] = resident
        write_unversioned_snapshot(journaled.journal, 4, old)
        with pytest.raises(AttributeError):  # the hazard the stamp guards
            old.feed(chunk_stream[4])

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == 4
        for seq, chunk in enumerate(chunk_stream[4:], start=4):
            recovered.feed(chunk, seq)
        assert recovered.session.metrics() == uninterrupted.metrics()

    def test_duplicate_chunk_acks_without_reapplying(self, tmp_path, chunk_stream):
        journaled = JournaledSession.create(tmp_path / "s", _spec())
        journaled.feed(chunk_stream[0], 0)
        before = journaled.session.metrics()
        ack = journaled.feed(chunk_stream[0], 0)
        assert ack["duplicate"] is True
        assert journaled.session.metrics() == before

    def test_sequence_gap_is_refused(self, tmp_path, chunk_stream):
        journaled = JournaledSession.create(tmp_path / "s", _spec())
        journaled.feed(chunk_stream[0], 0)
        with pytest.raises(SequenceGap):
            journaled.feed(chunk_stream[1], 5)

    def test_create_refuses_existing_dir(self, tmp_path):
        JournaledSession.create(tmp_path / "s", _spec())
        with pytest.raises(SessionError, match="exists"):
            JournaledSession.create(tmp_path / "s", _spec())

    def test_open_refuses_non_session_dir(self, tmp_path):
        (tmp_path / "x").mkdir()
        with pytest.raises(SessionError):
            JournaledSession.open(tmp_path / "x")
