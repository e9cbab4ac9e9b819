"""The benchmark's own logic: percentiles, failure accounting, checks."""

from __future__ import annotations

import math
import time

import pytest

from perfbench import ingest, speed, sweep
from perfbench.common import Context
from perfbench.stats import Ops, percentile
from perfbench.tracing import Tracer, self_seconds_by_name, sum_check


# ---------------------------------------------------------------------------
# Percentile selection


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989.0
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(100)), 90) == 89.0
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(20)), 50) == 9.0
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(10_000)), 99.9) == 9989.0
    assert percentile([], 50) is None


def test_refused_requests_land_in_the_tail():
    ok = [1.0] * 990
    assert percentile(ok + [math.inf] * 10, 99) == 1.0
    assert percentile(ok + [math.inf] * 11, 99) == math.inf


# ---------------------------------------------------------------------------
# fail_ratio accounting


def test_ops_fail_ratio():
    ops = Ops()
    ops.ok(8)
    ops.fail("refused 429")
    ops.mismatch("digest")
    assert (ops.attempted, ops.failed) == (9, 2)
    assert ops.fail_ratio == pytest.approx(2 / 9)
    assert ops.reasons == {"refused 429": 1, "digest": 1}


class _Chunk:
    def __len__(self):
        return 100


class _RefusingClient:
    """Refuses the first feed with 429 and the first poll with 503."""

    def __init__(self):
        self.refused = set()

    def _maybe_refuse(self, kind, status):
        from repro.serve.client import ServeUnavailable

        if kind not in self.refused:
            self.refused.add(kind)
            raise ServeUnavailable(status, "busy", retry_after=0.0)

    def feed(self, name, chunk, seq=None):
        self._maybe_refuse("feed", 429)
        return {"seq": seq}

    def metrics(self, name):
        self._maybe_refuse("poll", 503)
        return {}

    def finalize(self, name):
        return {"name": name, "hsm": {"read_misses": 3}}


class _FakeServer:
    client = _RefusingClient()


def test_refused_requests_count_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "RETRY_PAUSE", 0.0)
    ctx = Context(workload="live-ingest", seed=1, seconds=0, trace=False, out=tmp_path)
    run = ingest.ingest_pass(ctx, _FakeServer(), "s", [_Chunk()] * 8, Tracer(enabled=False))
    # 9 feed attempts (one refused), 2 polls (one refused), finalize.
    assert ctx.ops.attempted == 9 + 2 + 1
    assert ctx.ops.failed == 2
    assert run["refused"] == {429: 1, 503: 1}
    assert run["feed_ms"].count(math.inf) == 1
    assert run["events"] == 800


def test_final_metrics_mismatch_counts_as_failed(tmp_path):
    ctx = Context(workload="live-ingest", seed=1, seconds=0, trace=False, out=tmp_path)
    reference = {"name": "a", "hsm": {"read_misses": 3}}
    skewed = {"name": "b", "hsm": {"read_misses": 4}}
    ctx.ops.ok(2)
    ingest.check(ctx, [{"final": dict(reference, name="b")}, {"final": skewed}], reference)
    assert (ctx.ops.attempted, ctx.ops.failed) == (2, 1)


# ---------------------------------------------------------------------------
# Output check on a real (tiny) sweep


@pytest.fixture
def tiny_sweep(monkeypatch, tmp_path):
    monkeypatch.setattr(sweep, "SCALE", 0.002)
    monkeypatch.setattr(sweep, "WORKERS", 1)
    monkeypatch.setattr(sweep, "N_FRACTIONS", 2)
    monkeypatch.setattr(sweep, "POLICIES", ("stp", "lru", "fifo"))
    monkeypatch.setattr(sweep, "STACK_POLICIES", ("lru", "fifo"))

    def run(skew: bool) -> Context:
        ctx = Context(workload="policy-sweep", seed=7, seconds=0, trace=False,
                      out=tmp_path, skew=skew)
        tracer = Tracer(enabled=False)
        cache_dir, store, _ = sweep.prepare_store(ctx, tracer)
        passes = [sweep.one_pass(ctx, cache_dir, tracer) for _ in range(2)]
        sweep.check(ctx, passes, store)
        return ctx

    return run


def test_sweep_check_passes_on_unchanged_code(tiny_sweep):
    ctx = tiny_sweep(skew=False)
    assert ctx.ops.attempted == 2 * 3 * 2 + 2
    assert ctx.ops.failed == 0


def test_skewed_cell_counter_trips_the_check(tiny_sweep):
    ctx = tiny_sweep(skew=True)
    assert ctx.ops.failed > 0
    assert any("stack engine != DES" in reason for reason in ctx.ops.reasons)


# ---------------------------------------------------------------------------
# Tracing


def test_self_times_sum_to_the_root():
    tracer = Tracer()
    with tracer.span("bench.pass"):
        with tracer.span("a"):
            time.sleep(0.01)
            with tracer.span("b"):
                time.sleep(0.01)
        with tracer.span("b"):
            time.sleep(0.005)
    root = tracer.root("bench.pass")
    selfs = self_seconds_by_name(tracer, root)
    assert sum(selfs.values()) == pytest.approx(root.seconds, abs=1e-9)
    assert selfs["b"] >= 0.015 - 1e-3
    check = sum_check(tracer, "bench.pass")
    assert check["layer_self_sum_s"] + check["harness_self_s"] == pytest.approx(
        check["traced_wall_s"], abs=1e-9
    )


def test_patch_records_spans_and_restores():
    class Box:
        def work(self, n):
            return n * 2

    tracer = Tracer()
    with tracer.patched():
        tracer.patch(Box, "work", lambda args, kwargs: f"box.{args[1]}",
                     lambda attrs, args, kwargs, result: attrs.update(out=result))
        assert Box().work(3) == 6
    assert Box().work(4) == 8  # restored: no new span
    assert [(s.name, s.attrs) for s in tracer.spans] == [("box.3", {"out": 6})]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x") as attrs:
        attrs["k"] = 1
    assert tracer.spans == []


# ---------------------------------------------------------------------------
# Host speed gauge


def test_scaled_cancels_a_uniform_slowdown():
    part, probe = 0.2, speed.REFERENCE_S
    assert speed.scaled(2 * part, 2 * probe) == pytest.approx(part)
    assert speed.scaled(2 * part, probe) == pytest.approx(2 * part)


def test_typical_pass_sums_per_segment_medians():
    # Segment 0's slow sample in pass 1 and segment 2's in pass 2 are outvoted.
    passes = [[1.0, 5.0, 0.1], [9.0, 5.0, 0.1], [1.0, 5.0, 0.7]]
    assert speed.typical_pass(passes) == pytest.approx(1.0 + 5.0 + 0.1)
    with pytest.raises(RuntimeError):
        speed.typical_pass([[1.0], [1.0, 2.0]])


def test_gauge_scales_slices_by_their_bracketing_probes(monkeypatch):
    ref = speed.REFERENCE_S
    probes = iter([ref, 3 * ref, ref, ref])
    clock = iter([0.0, 0.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    gauge = speed.PassGauge()
    gauge.mark()
    gauge._on_alarm(None, None)  # a timer probe: a cut inside the segment
    gauge.mark()
    gauge.mark()
    # 2 s at mean probe 2*ref, then 1 s at 2*ref; then 1 s at ref.
    assert gauge.segments == [pytest.approx(1.5), pytest.approx(1.0)]
