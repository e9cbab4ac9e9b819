"""``live-ingest``: a scenario streamed into a ``repro serve`` subprocess.

Set-up composes the ``mixed-tenant`` scenario (NCAR plus a flash crowd
plus nightly backups, about 27 % writes) into small chunks, starts the
server and submits an ``lru`` session.  A pass is one closed-loop
client: each chunk is sent with ``ServeClient.feed`` only after the
previous ack, a ``metrics`` poll goes out every few chunks, and a
``finalize`` ends it.  Every pass gets a fresh server and session.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks, speed
from perfbench.common import (
    REPO, SETUP_REPEATS, Context, child_env, proc_peak_rss_mib, timed_passes,
)
from perfbench.stats import median, percentile
from perfbench.tracing import Tracer, sum_check

SCENARIO = "mixed-tenant"
SCALE = 0.01
DAYS = 365.0
CHUNK_EVENTS = 100
POLL_EVERY = 4
#: Managed-disk capacity as a share of the referenced bytes.
CAPACITY_FRACTION = 0.05
SNAPSHOT_EVERY = 16
#: A refused chunk is re-sent after this pause (the closed loop waits).
RETRY_PAUSE = 0.05
#: The in-process split replays the stream until it has this many chunk
#: samples, enough for a p99 with 10 samples beyond it.
SPLIT_SAMPLES = 1000
#: Chunks per gauge segment of a pass (about 0.05 s; see perfbench.speed).
PART_CHUNKS = 8


def compose_chunks(seed: int, tracer: Tracer) -> Tuple[Any, List[Any]]:
    from repro.engine import rechunk
    from repro.scenarios.compositor import compose
    from repro.scenarios.library import build_scenario

    spec = build_scenario(SCENARIO, scale=SCALE, seed=seed, days=DAYS)
    with tracer.span("scenarios.compose") as attrs:
        batches = [batch for batch in compose(spec) if len(batch)]
        attrs["events"] = sum(len(batch) for batch in batches)
    return spec, list(rechunk(iter(batches), CHUNK_EVENTS))


def referenced_bytes(chunks: List[Any]) -> int:
    """Bytes of the distinct files the stream references."""
    ids = np.concatenate([chunk.file_id for chunk in chunks])
    sizes = np.concatenate([chunk.size for chunk in chunks])
    keep = ids >= 0
    _, first = np.unique(ids[keep], return_index=True)
    return int(np.maximum(sizes[keep][first], 1).sum())


def session_spec(name: str, scenario, chunks: List[Any], seed: int) -> dict:
    return {
        "name": name,
        "policy": "lru",
        "capacity_bytes": int(referenced_bytes(chunks) * CAPACITY_FRACTION),
        "labels": list(scenario.tenants),
        "policy_seed": seed,
    }


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: Path) -> None:
        from repro.serve.client import ServeClient, read_endpoint

        self.log = open(data_dir.parent / f"{data_dir.name}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir), "--snapshot-every", str(SNAPSHOT_EVERY)],
            env=child_env(), cwd=REPO, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                host, port = read_endpoint(data_dir)
                self.client = ServeClient(host, port)
                self.client.ping(retries=20)
                break
            except (OSError, ValueError, KeyError):
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.01)

    def stop(self) -> float:
        """Drain the server; returns its peak RSS in MiB."""
        try:
            peak = proc_peak_rss_mib(self.proc.pid)
        finally:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        return peak


def start_session(ctx: Context, index: int, scenario, chunks, tracer: Tracer):
    """Fresh server + submitted session; returns (server, name)."""
    data_dir = Path(tempfile.mkdtemp(prefix=f"serve-{index}-", dir=ctx.out))
    name = f"bench-{index}"
    with tracer.span("bench.server_start"):
        server = Server(data_dir)
        server.client.submit(session_spec(name, scenario, chunks, ctx.seed))
    return server, name


def ingest_pass(ctx: Context, server: Server, name: str, chunks: List[Any],
                tracer: Tracer,
                gauge: Optional[speed.PassGauge] = None) -> Dict[str, Any]:
    """Closed-loop feed of every chunk, polls between, then finalize.

    A ``gauge`` is cut where the pass starts, every :data:`PART_CHUNKS`
    chunks (their polls included), before the finalize and where the
    pass ends.
    """
    run: Dict[str, Any] = {
        "events": 0, "feed_ms": [], "poll_ms": [], "refused": {429: 0, 503: 0},
        "retries": 0,
    }
    client = server.client
    mark = gauge.mark if gauge is not None else speed.no_mark
    mark()
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        for seq, chunk in enumerate(chunks):
            if seq and seq % PART_CHUNKS == 0:
                mark()
            if not _feed(ctx, client, name, seq, chunk, tracer, run):
                # Not retryable: the rest of the stream cannot apply.
                ctx.ops.fail("chunk never sent", len(chunks) - seq - 1)
                break
            if seq % POLL_EVERY == POLL_EVERY - 1:
                _poll(ctx, client, name, tracer, run)
        mark()
        with tracer.span("serve.client.finalize"):
            run["final"] = client.finalize(name)
        ctx.ops.ok()
    run["wall"] = time.perf_counter() - start
    mark()
    if ctx.skew:
        run["final"]["hsm"]["read_misses"] += 1
    return run


def _feed(ctx: Context, client, name: str, seq: int, chunk, tracer: Tracer,
          run: Dict[str, Any]) -> bool:
    """Send one chunk until acked; a refusal is a failed attempt, re-sent."""
    from repro.serve.client import ServeClientError, ServeUnavailable

    while True:
        sent = time.perf_counter()
        try:
            with tracer.span("serve.client.feed"):
                client.feed(name, chunk, seq=seq)
        except ServeUnavailable as exc:
            # Refused: misses any latency limit, then re-sent.
            run["feed_ms"].append(math.inf)
            run["refused"][exc.status] = run["refused"].get(exc.status, 0) + 1
            run["retries"] += 1
            ctx.ops.fail(f"feed refused {exc.status}")
            time.sleep(RETRY_PAUSE)
            continue
        except ServeClientError as exc:
            run["feed_ms"].append(math.inf)
            ctx.ops.fail(f"feed error {exc.status}")
            return False
        run["feed_ms"].append((time.perf_counter() - sent) * 1e3)
        run["events"] += len(chunk)
        ctx.ops.ok()
        return True


def _poll(ctx: Context, client, name: str, tracer: Tracer,
          run: Dict[str, Any]) -> None:
    """One ``GET .../metrics`` read beside the writes."""
    from repro.serve.client import ServeUnavailable

    sent = time.perf_counter()
    try:
        with tracer.span("serve.client.metrics"):
            client.metrics(name)
    except ServeUnavailable as exc:
        run["poll_ms"].append(math.inf)
        run["refused"][exc.status] = run["refused"].get(exc.status, 0) + 1
        ctx.ops.fail(f"poll refused {exc.status}")
        return
    run["poll_ms"].append((time.perf_counter() - sent) * 1e3)
    ctx.ops.ok()


def reference_final(scenario, chunks: List[Any], seed: int) -> dict:
    """The final metrics an in-process ReplaySession reaches on the chunks."""
    from repro.serve.session import ReplaySession, SessionSpec

    spec = SessionSpec.from_dict(session_spec("bench-0", scenario, chunks, seed))
    session = ReplaySession(spec)
    for chunk in chunks:
        session.feed(chunk)
    return session.finalize()


def check(ctx: Context, passes: List[Dict[str, Any]], reference: dict) -> None:
    """Served final metrics == in-process replay; digest vs references."""
    references = checks.load_references(ctx.workload, ctx.seed)
    expected = _comparable(reference)
    for run in passes:
        got = _comparable(run["final"])
        digest = {"final": checks.digest_text(got)}
        if got != expected or checks.mismatched(digest, references):
            ctx.ops.mismatch("final metrics")
    ctx.info["digests"] = {"final": checks.digest_text(expected)}


def _comparable(final: dict) -> str:
    """Final metrics minus the per-session name, as canonical JSON."""
    return checks.canonical({k: v for k, v in final.items() if k != "name"})


def _setup(ctx: Context, tracer: Tracer):
    """Compose the chunks SETUP_REPEATS times; all must agree."""
    samples, digests = [], set()
    for _ in range(SETUP_REPEATS):
        seconds, (scenario, chunks) = speed.timed(compose_chunks, ctx.seed, tracer)
        samples.append(seconds)
        digests.add(checks.digest_text(repr([
            (c.file_id.tobytes(), c.time.tobytes(), c.size.tobytes()) for c in chunks
        ])))
    ctx.ops.ok()
    if len(digests) != 1:
        ctx.ops.mismatch("composition not deterministic")
    return scenario, chunks, median(samples)


def _run_passes(ctx: Context, scenario, chunks, tracers,
                gauged: bool = False) -> Tuple[list, list]:
    """Timed passes, each on a fresh server; ``tracers(i)`` picks a tracer.

    Server start-up times come back at reference speed.
    """
    starts: List[float] = []

    def one(i: int) -> Dict[str, Any]:
        tracer = tracers(i)
        seconds, (server, name) = speed.timed(
            start_session, ctx, i, scenario, chunks, tracer, sample=False)
        starts.append(seconds)
        try:
            gauge = speed.PassGauge() if gauged else None
            run = ingest_pass(ctx, server, name, chunks, tracer, gauge)
            run["gauge"] = gauge
        finally:
            run_rss = server.stop()
        run["peak_rss_mb"] = run_rss
        run["tracer"] = tracer
        return run

    return timed_passes(ctx.seconds, 2, one), starts


def _latency_info(ctx: Context, passes: List[Dict[str, Any]]) -> Dict[str, float]:
    feeds = [ms for run in passes for ms in run["feed_ms"]]
    polls = [ms for run in passes for ms in run["poll_ms"]]
    out = {}
    for name, samples, pct in (("chunk_p50_ms", feeds, 50), ("chunk_p99_ms", feeds, 99),
                               ("poll_p50_ms", polls, 50), ("poll_p90_ms", polls, 90)):
        value = percentile(samples, pct)
        if value is not None:
            out[name] = value
    ctx.info["chunk_samples"], ctx.info["poll_samples"] = len(feeds), len(polls)
    ctx.info.update({k: round(v, 4) for k, v in out.items()})
    return out


def measure(ctx: Context) -> Dict[str, float]:
    tracer = Tracer(enabled=False)
    scenario, chunks, compose_s = _setup(ctx, tracer)
    passes, starts = _run_passes(ctx, scenario, chunks, lambda i: tracer, gauged=True)
    check(ctx, passes, reference_final(scenario, chunks, ctx.seed))
    _latency_info(ctx, passes)
    pass_s = speed.typical_pass([run["gauge"].segments for run in passes])
    ctx.info["pass_walls_s"] = [run["wall"] for run in passes]
    ctx.info["chunks_per_pass"] = len(chunks)
    ctx.info["events_per_s"] = passes[0]["events"] / pass_s
    return {
        "setup_s": compose_s + median(starts),
        "pass_s": pass_s,
        "peak_rss_mb": median([run["peak_rss_mb"] for run in passes]),
    }


# ---------------------------------------------------------------------------
# Traced run: client spans over HTTP, plus the server's work split in-process


def inprocess_split(ctx: Context, scenario, chunks, tracer: Tracer) -> dict:
    """Replay the chunks through SessionJournal + ReplaySession, traced.

    The stream is replayed into fresh sessions until SPLIT_SAMPLES chunks
    have gone through; returns the final metrics of the last session.
    """
    from repro.analysis.accumulators import OverallAccumulator
    from repro.serve.journal import SessionJournal, decode_batch, encode_batch
    from repro.serve.session import JournaledSession, ReplaySession, SessionSpec

    spec = SessionSpec.from_dict(session_spec("bench-0", scenario, chunks, ctx.seed))
    with tracer.patched():
        tracer.patch(SessionJournal, "append", "serve.journal.append")
        tracer.patch(SessionJournal, "write_snapshot", "serve.journal.snapshot")
        tracer.patch(ReplaySession, "feed", "serve.session.feed")
        tracer.patch(ReplaySession, "metrics", "serve.session.metrics")
        tracer.patch(OverallAccumulator, "add", "analysis.tenant_add")
        for _ in range(math.ceil(SPLIT_SAMPLES / len(chunks))):
            session_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=ctx.out))
            with tracer.span("bench.inprocess"):
                journaled = JournaledSession.create(
                    session_dir / "bench-0", spec, snapshot_every=SNAPSHOT_EVERY
                )
                for seq, chunk in enumerate(chunks):
                    with tracer.span("serve.journal.encode"):
                        payload = encode_batch(chunk)
                    with tracer.span("serve.journal.decode"):
                        batch = decode_batch(payload)
                    journaled.feed(batch, seq=seq)
                    if seq % POLL_EVERY == POLL_EVERY - 1:
                        journaled.session.metrics()
                final = journaled.finalize()
    return final


def _split_metrics(tracer: Tracer) -> Dict[str, float]:
    spans = [span for root in tracer.spans if root.name == "bench.inprocess"
             for span in tracer.descendants(root)]

    def ms(name: str) -> List[float]:
        return [s.seconds * 1e3 for s in spans if s.name == name]

    out: Dict[str, float] = {}
    for key, name, pct in (
        ("serve.journal.encode_ms", "serve.journal.encode", 50),
        ("serve.journal.decode_ms", "serve.journal.decode", 50),
        ("serve.journal.append_p50_ms", "serve.journal.append", 50),
        ("serve.journal.append_p99_ms", "serve.journal.append", 99),
        ("serve.journal.snapshot_ms", "serve.journal.snapshot", 50),
        ("serve.session.feed_p50_ms", "serve.session.feed", 50),
        ("serve.session.feed_p99_ms", "serve.session.feed", 99),
        ("serve.session.metrics_ms", "serve.session.metrics", 50),
    ):
        value = percentile(ms(name), pct)
        out[key] = 0.0 if value is None else value
    # OverallAccumulator.add runs once per tenant per chunk: sum per chunk.
    per_chunk: Dict[str, float] = {}
    for span in spans:
        if span.name == "analysis.tenant_add":
            parent = span.parent
            per_chunk[parent] = per_chunk.get(parent, 0.0) + span.seconds * 1e3
    out["analysis.tenant_add_ms"] = median(list(per_chunk.values())) if per_chunk else 0.0
    replays = sum(1 for root in tracer.spans if root.name == "bench.inprocess")
    out["serve.snapshots"] = len(ms("serve.journal.snapshot")) / replays
    return out


def traced(ctx: Context) -> Dict[str, float]:
    """Traced set-up, alternating untraced/traced HTTP passes, split."""
    setup_tracer = Tracer()
    scenario, chunks = compose_chunks(ctx.seed, setup_tracer)
    compose = setup_tracer.root("scenarios.compose")
    passes, _ = _run_passes(
        ctx, scenario, chunks, lambda i: Tracer(enabled=bool(i % 2))
    )
    untraced = [run for i, run in enumerate(passes) if not i % 2]
    traced_runs = [run for i, run in enumerate(passes) if i % 2]
    split_tracer = Tracer()
    final = inprocess_split(ctx, scenario, chunks, split_tracer)
    check(ctx, passes, final)

    out = _latency_info(ctx, untraced)
    out = {f"serve.client.{k}": v for k, v in out.items()}
    out.update(_split_metrics(split_tracer))
    out["scenarios.compose_s"] = compose.seconds
    out["scenarios.events_per_s"] = compose.attrs["events"] / compose.seconds
    out["serve.http_overhead_ms"] = out.get("serve.client.chunk_p50_ms", 0.0) - (
        out["serve.journal.decode_ms"] + out["serve.journal.append_p50_ms"]
        + out["serve.session.feed_p50_ms"]
    )
    out["serve.chunks"] = float(sum(len(run["feed_ms"]) for run in passes))
    out["serve.refused_429"] = float(sum(run["refused"].get(429, 0) for run in passes))
    out["serve.shed_503"] = float(sum(run["refused"].get(503, 0) for run in passes))
    out["serve.retries"] = float(sum(run["retries"] for run in passes))
    out["hsm.serve.evictions"] = float(final["hsm"]["evictions"])
    out["hsm.serve.tape_writes"] = float(final["hsm"]["tape_writes"])
    out["trace.overhead_s"] = (
        median([run["wall"] for run in traced_runs])
        - median([run["wall"] for run in untraced])
    )
    ctx.info["untraced_walls_s"] = [run["wall"] for run in untraced]
    ctx.info["traced_walls_s"] = [run["wall"] for run in traced_runs]
    ctx.info["trace_check"] = sum_check(traced_runs[-1]["tracer"], "bench.pass")
    ctx.info["split_check"] = sum_check(split_tracer, "bench.inprocess")
    return out
