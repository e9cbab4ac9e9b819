"""``policy-sweep``: ``run_sweep`` over a warm prepared store.

Set-up generates the seed's trace and writes the prepared HSM store the
sweep reads (what a capacity planner pays once); each pass then sweeps
8 policies x 4 log-spaced capacity fractions in one process.  ``stp``,
``saac`` and ``random`` take the per-cell DES, the other five the stack
engine.  One worker keeps the load to a single process: on a host of a
few shared cores, a pool as wide as the host times the scheduler (a cell
stalled behind a neighbour stalls the whole grid), not the sweep.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import checks, speed
from perfbench.common import (
    SETUP_REPEATS, Context, generation_metrics, peak_rss_mib, timed_passes,
    trace_generation,
)
from perfbench.stats import median
from perfbench.tracing import Tracer, self_seconds_by_name, sum_check

SCALE = 0.005
WORKERS = 1
POLICIES = ("stp", "saac", "random", "lru", "fifo", "mru",
            "largest-first", "smallest-first")
STACK_POLICIES = ("lru", "fifo", "mru", "largest-first", "smallest-first")
DES_POLICIES = ("stp", "saac", "random")
N_FRACTIONS = 4
#: Fewest timed passes per run; each task's median needs a few samples.
MIN_PASSES = 3


def workload_config(seed: int):
    """The config ``run_sweep`` derives for one seed (so the store is hit)."""
    from repro.workload.config import WorkloadConfig

    return WorkloadConfig(scale=SCALE, seed=seed, fill_latencies=False)


def sweep_config(seed: int, cache_dir: str):
    from repro.engine.sweep import SweepConfig, log_spaced_fractions

    return SweepConfig(
        policies=POLICIES,
        capacity_fractions=log_spaced_fractions(N_FRACTIONS),
        seeds=(seed,),
        scale=SCALE,
        workers=WORKERS,
        cache_dir=cache_dir,
    )


def prepare_store(ctx: Context, tracer: Tracer) -> Tuple[str, Any, float]:
    """Generate and write the prepared store into a fresh cache dir."""
    from repro.engine.store import open_or_generate

    cache_dir = tempfile.mkdtemp(prefix="store-", dir=ctx.out)
    start = time.perf_counter()
    with tracer.span("bench.setup"):
        store = open_or_generate(workload_config(ctx.seed), cache_dir, variant="hsm")
    return cache_dir, store, time.perf_counter() - start


def one_pass(ctx: Context, cache_dir: str, tracer: Tracer,
             gauge: Optional[speed.PassGauge] = None) -> Dict[str, Any]:
    """One timed ``run_sweep``; rows come back as per-cell counter dicts.

    A ``gauge`` is marked where the pass starts and ends (and, through
    :func:`_task_cuts`, around each grid task).
    """
    from repro.engine.sweep import run_sweep

    config = sweep_config(ctx.seed, cache_dir)
    mark = gauge.mark if gauge is not None else speed.no_mark
    mark()
    start = time.perf_counter()
    with tracer.span("bench.pass"), tracer.span("engine.sweep.run_sweep"):
        result = run_sweep(config)
    wall = time.perf_counter() - start
    mark()
    # A pool (``WORKERS > 1``) kills its workers without joining them;
    # reap them here.
    while multiprocessing.active_children():
        time.sleep(0.01)
    if ctx.skew:
        row = _skew_target(result.rows)
        row.metrics.read_misses += 1
    cells = {
        f"{row.policy}@{row.capacity_fraction!r}": checks.metrics_dict(row.metrics)
        for row in result.rows
    }
    return {"wall": wall, "cells": cells, "result": result}


def _skew_target(rows):
    """The cell a ``--skew`` run perturbs: one the stack check re-runs."""
    fraction = max(row.capacity_fraction for row in rows)
    return next(row for row in rows
                if row.policy == STACK_POLICIES[0] and row.capacity_fraction == fraction)


def check(ctx: Context, passes: List[Dict[str, Any]], store) -> None:
    """Cell digests vs references and pass 1; stack cells vs the DES."""
    from repro.engine.replay import replay_policy

    references = checks.load_references(ctx.workload, ctx.seed)
    first = passes[0]["cells"]
    for run in passes:
        result = run["result"]
        expected = len(POLICIES) * N_FRACTIONS
        ctx.ops.ok(expected)
        if result.failed_cells or len(result.rows) != expected:
            ctx.ops.mismatch("failed or missing cells",
                             max(len(result.failed_cells), 1))
        digests = {key: checks.digest_json(cell) for key, cell in run["cells"].items()}
        bad = set(checks.mismatched(digests, references))
        bad |= {key for key, cell in run["cells"].items() if cell != first.get(key)}
        if bad:
            ctx.ops.mismatch("cell digest", len(bad))
            ctx.info["mismatched"] = sorted(bad)
    ctx.info["digests"] = {
        key: checks.digest_json(cell) for key, cell in first.items()
    }
    # Any seed: one capacity per stack policy, replayed through the DES.
    batches = store.batches()
    last = passes[-1]["result"]
    fraction = max(row.capacity_fraction for row in last.rows)
    for policy in STACK_POLICIES:
        row = next(r for r in last.rows
                   if r.policy == policy and r.capacity_fraction == fraction)
        des = replay_policy(batches, policy, row.capacity_bytes,
                            writeback_delay=last.config.writeback_delay)
        ctx.ops.ok()
        if checks.metrics_dict(des) != checks.metrics_dict(row.metrics):
            ctx.ops.mismatch(f"{policy}@{fraction:.4g}: stack engine != DES")


def _events(store) -> int:
    return int(sum(len(batch) for batch in store.batches()))


@contextlib.contextmanager
def _task_cuts(gauges: List[speed.PassGauge]) -> Iterator[None]:
    """Cut the pass of ``gauges[-1]`` before and after each grid task.

    A task is one DES cell or one stack policy's capacities.
    """
    import repro.engine.sweep as module

    names = ("replay_policy", "multi_capacity_replay")
    originals = {name: getattr(module, name) for name in names}

    def timed(original):
        def call(*args, **kwargs):
            gauges[-1].mark()
            try:
                return original(*args, **kwargs)
            finally:
                gauges[-1].mark()
        return call

    for name, original in originals.items():
        setattr(module, name, timed(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def measure(ctx: Context) -> Dict[str, float]:
    tracer = Tracer(enabled=False)
    setups = [speed.timed(prepare_store, ctx, tracer) for _ in range(SETUP_REPEATS)]
    cache_dir, store, _ = setups[-1][1]
    cells_events = _events(store) * len(POLICIES) * N_FRACTIONS
    gauges: List[speed.PassGauge] = []

    def gauged_pass(i: int) -> Dict[str, Any]:
        gauges.append(speed.PassGauge())
        with gauges[-1].sampling():
            return one_pass(ctx, cache_dir, tracer, gauges[-1])

    with _task_cuts(gauges):
        passes = timed_passes(ctx.seconds, MIN_PASSES, gauged_pass)
    check(ctx, passes, store)
    pass_s = speed.typical_pass([gauge.segments for gauge in gauges])
    setup_samples = [seconds for seconds, _ in setups]
    ctx.info["pass_walls_s"] = [run["wall"] for run in passes]
    ctx.info["probe_median_ms"] = median([g.probe_median() for g in gauges]) * 1e3
    ctx.info["setup_samples_s"] = setup_samples
    ctx.info["events_per_s"] = cells_events / pass_s
    return {
        "setup_s": median(setup_samples),
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mib(children=True),
    }


def _install_layer_spans(tracer: Tracer) -> None:
    import repro.engine.store
    import repro.engine.sweep
    import repro.workload.generator

    def count_events(attrs, args, kwargs, result) -> None:
        attrs["events"] = sum(len(batch) for batch in result)

    def des_cell(attrs, args, kwargs, metrics) -> None:
        attrs["events"] = sum(len(batch) for batch in args[0])
        attrs["evictions"] = metrics.evictions

    def stack_group(attrs, args, kwargs, rows) -> None:
        attrs["events"] = sum(len(batch) for batch in args[0])

    trace_generation(tracer, repro.workload.generator)
    tracer.patch(repro.engine.store, "write_cached", "engine.store.write")
    tracer.patch(repro.engine.store.TraceStore, "batches", "engine.store.read",
                 count_events)
    tracer.patch(repro.engine.sweep, "replay_policy",
                 lambda args, kwargs: f"hsm.des.{args[1]}", des_cell)
    tracer.patch(repro.engine.sweep, "multi_capacity_replay",
                 lambda args, kwargs: f"engine.stackdist.{args[1]}", stack_group)


def _layer_metrics(tracer: Tracer, run: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers: setup spans, then the cells under ``run_sweep``."""
    result = run["result"]
    out: Dict[str, float] = {}
    setup = tracer.root("bench.setup")
    selfs = self_seconds_by_name(tracer, setup)
    out.update(generation_metrics(tracer.descendants(setup), selfs))
    out["engine.store.write_s"] = selfs.get("engine.store.write", 0.0)

    root = tracer.root("engine.sweep.run_sweep")
    # In process (one worker) or spilled back from forked pool workers.
    cells = [s for s in tracer.descendants(root) if s is not root]
    reads = [s for s in cells if s.name == "engine.store.read"]
    read_s = sum(s.seconds for s in reads)
    out["engine.store.read_s"] = read_s
    out["engine.store.read_events_per_s"] = (
        sum(s.attrs["events"] for s in reads) / read_s if read_s else 0.0
    )
    for prefix, policies in (("hsm.des", DES_POLICIES),
                             ("engine.stackdist", STACK_POLICIES)):
        for policy in policies:
            spans = [s for s in cells if s.name == f"{prefix}.{policy}"]
            seconds = sum(s.seconds for s in spans)
            out[f"{prefix}.{policy}_s"] = seconds
            out[f"{prefix}.{policy}.events_per_s"] = (
                sum(s.attrs["events"] for s in spans) / seconds if seconds else 0.0
            )
            if prefix == "hsm.des":
                out[f"{prefix}.{policy}.evictions"] = float(
                    sum(s.attrs["evictions"] for s in spans)
                )
    busy = sum(s.seconds for s in cells)
    out["engine.sweep.prepare_s"] = result.prepare_seconds
    out["engine.sweep.replay_s"] = result.replay_seconds
    out["engine.sweep.des_cells"] = float(result.des_cells)
    out["engine.sweep.stack_cells"] = float(result.stack_cells)
    out["engine.sweep.retries"] = float(result.retries)
    out["engine.sweep.worker_idle_s"] = WORKERS * result.replay_seconds - busy
    return out


def traced(ctx: Context) -> Dict[str, float]:
    """Traced set-up once, then alternating untraced/traced sweeps."""
    spill = tempfile.mkdtemp(prefix="spans-", dir=ctx.out)
    tracer = Tracer(spill_dir=spill)
    with tracer.patched():
        _install_layer_spans(tracer)
        cache_dir, store, _ = prepare_store(ctx, tracer)
    layers: List[Dict[str, float]] = []
    walls: Tuple[List[float], List[float]] = ([], [])

    def alternate(i: int) -> Dict[str, Any]:
        if not i % 2:
            run = one_pass(ctx, cache_dir, Tracer(enabled=False))
        else:
            with tracer.patched():
                _install_layer_spans(tracer)
                run = one_pass(ctx, cache_dir, tracer)
            tracer.collect_spills()
            layers.append(_layer_metrics(tracer, run))
            ctx.info["trace_check"] = sum_check(tracer, "bench.pass")
        walls[i % 2].append(run["wall"])
        return run

    passes = timed_passes(ctx.seconds, 2, alternate)
    check(ctx, passes, store)
    out = {key: median([layer[key] for layer in layers]) for key in layers[0]}
    out["trace.overhead_s"] = median(walls[1]) - median(walls[0])
    ctx.info["untraced_walls_s"], ctx.info["traced_walls_s"] = walls
    return out
