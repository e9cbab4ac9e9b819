"""``paper-report``: one cold regeneration of every registered experiment.

A pass builds the two-year base study and the dense DES study the way
``repro report`` does (no cache dir, single process) and runs all 18
experiments through ``run_experiment``.  Generation, the MSS kernel, the
analyses and Section 6's DES policy replays do the work; the stack engine
and ``serve`` stay idle.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks, speed
from perfbench.common import (
    Context, generation_metrics, import_seconds, peak_rss_mib, timed_passes,
    trace_generation,
)
from perfbench.stats import median
from perfbench.tracing import Tracer, self_seconds_by_name, sum_check

#: Population fraction of the base study (the dense study doubles it).
SCALE = 0.005
#: Section 6 runs these DES policies; the stack-replayable ones are
#: re-checked against the stack engine at the same capacity.
S6_POLICIES = ("opt", "stp", "lru", "saac", "fifo", "random", "largest-first")
S6_STACK_POLICIES = ("lru", "fifo", "largest-first")
#: The counter a ``--skew`` run perturbs on one S6 policy.
SKEW_POLICY, SKEW_COUNTER = "lru", "read_misses"
#: Digest placeholder for an experiment that raised (always a failure).
RAISED = "raised"


def _policy_of(args: tuple, kwargs: dict) -> str:
    return kwargs.get("policy_name", args[1] if len(args) > 1 else "?")


class _S6Capture:
    """Keeps Section 6's per-policy DES results for the stack cross-check."""

    def __init__(self, skew: bool) -> None:
        self.skew = skew
        self.results: Dict[str, Any] = {}
        self.capacity = 0

    def install(self, tracer: Tracer) -> None:
        import repro.engine

        def on_result(attrs, args, kwargs, metrics) -> None:
            policy = _policy_of(args, kwargs)
            if self.skew and policy == SKEW_POLICY:
                setattr(metrics, SKEW_COUNTER, getattr(metrics, SKEW_COUNTER) + 1)
            self.results[policy] = metrics
            self.capacity = kwargs.get("capacity_bytes", args[2])
            attrs["events"] = sum(len(batch) for batch in args[0])
            attrs["evictions"] = metrics.evictions

        tracer.patch(
            repro.engine, "replay_policy",
            lambda args, kwargs: f"hsm.des.{_policy_of(args, kwargs)}",
            on_result,
        )


def _install_layer_spans(tracer: Tracer) -> None:
    import repro.core.study
    import repro.engine.replay
    from repro.mss.system import MSSSystem

    def on_replay(attrs, args, kwargs, result) -> None:
        attrs["sim_events"] = args[0].sim.events_processed

    def on_prepare(attrs, args, kwargs, batches) -> None:
        attrs["events"] = sum(len(batch) for batch in batches)

    trace_generation(tracer, repro.core.study)
    tracer.patch(MSSSystem, "replay_columns", "mss.replay", on_replay)
    tracer.patch(repro.engine.replay, "prepare_stream", "engine.stream.prepare",
                 on_prepare)


def one_pass(ctx: Context, tracer: Tracer,
             gauge: Optional[speed.PassGauge] = None) -> Dict[str, Any]:
    """Regenerate every experiment cold, then check what it produced.

    A ``gauge`` is cut where the pass starts, before each experiment
    and where the pass ends: the studies' construction and each
    experiment are its segments.
    """
    from repro.core.experiments import experiment_ids, needs_dense_study, run_experiment
    from repro.core.study import Study, StudyConfig
    from repro.workload.config import WorkloadConfig

    capture = _S6Capture(ctx.skew)
    mark = gauge.mark if gauge is not None else speed.no_mark
    with tracer.patched():
        capture.install(tracer)
        mark()
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            base = Study(StudyConfig(workload=WorkloadConfig(scale=SCALE, seed=ctx.seed)))
            dense = Study(StudyConfig.dense(scale=min(SCALE * 2, 0.05), seed=ctx.seed))
            digests = {}
            for exp_id in experiment_ids():
                study = dense if needs_dense_study(exp_id) else base
                mark()
                with tracer.span(f"analysis.{exp_id}"):
                    try:
                        result = run_experiment(exp_id, study)
                    except Exception:
                        digests[exp_id] = RAISED
                        continue
                digests[exp_id] = checks.digest_text(result.render())
        wall = time.perf_counter() - start
        mark()
    check_s6(ctx, base.event_batches(), capture)
    return {
        "wall": wall,
        "digests": digests,
        "events": base.trace.n_events + dense.trace.n_events,
    }


def check_s6(ctx: Context, batches, capture: _S6Capture) -> None:
    """Section 6's stack-replayable DES rows must match the stack engine."""
    from repro.engine.stackdist import multi_capacity_replay

    for policy in S6_STACK_POLICIES:
        des = capture.results.get(policy)
        if des is None:
            ctx.ops.fail(f"S6 {policy}: no DES row")
            continue
        (stack,) = multi_capacity_replay(batches, policy, [capture.capacity])
        ctx.ops.ok()
        if checks.metrics_dict(stack) != checks.metrics_dict(des):
            ctx.ops.mismatch(f"S6 {policy}: DES != stack engine")


def check_digests(ctx: Context, passes: List[Dict[str, Any]]) -> None:
    """Experiment digests vs the shipped references and the first pass."""
    references = checks.load_references(ctx.workload, ctx.seed)
    first = passes[0]["digests"]
    for run in passes:
        bad = set(checks.mismatched(run["digests"], references))
        bad |= {k for k in first if run["digests"].get(k) != first[k]}
        bad |= {k for k, digest in run["digests"].items() if digest == RAISED}
        ctx.ops.ok(len(run["digests"]))
        if bad:
            ctx.ops.mismatch("experiment digest", len(bad))
            ctx.info["mismatched"] = sorted(bad)
    ctx.info["digests"] = first


def measure(ctx: Context) -> Dict[str, float]:
    setup = import_seconds(["repro.core.experiments", "repro.core.study"])
    gauges: List[speed.PassGauge] = []

    def gauged_pass(i: int) -> Dict[str, Any]:
        gauges.append(speed.PassGauge())
        with gauges[-1].sampling():
            return one_pass(ctx, Tracer(enabled=False), gauges[-1])

    passes = timed_passes(ctx.seconds, 2, gauged_pass)
    check_digests(ctx, passes)
    pass_s = speed.typical_pass([gauge.segments for gauge in gauges])
    ctx.info["pass_walls_s"] = [run["wall"] for run in passes]
    ctx.info["events_per_s"] = passes[0]["events"] / pass_s
    return {
        "setup_s": setup,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mib(),
    }


def _layer_metrics(tracer: Tracer) -> Dict[str, float]:
    root = tracer.root("bench.pass")
    selfs = self_seconds_by_name(tracer, root)
    spans = tracer.descendants(root)

    def total(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    out = generation_metrics(spans, selfs)
    mss = selfs.get("mss.replay", 0.0)
    out["mss.replay_s"] = mss
    out["mss.sim_events"] = total("mss.replay", "sim_events")
    out["mss.sim_events_per_s"] = out["mss.sim_events"] / mss if mss else 0.0
    prep = selfs.get("engine.stream.prepare", 0.0)
    out["engine.stream.prepare_s"] = prep
    out["engine.stream.events_per_s"] = (
        total("engine.stream.prepare", "events") / prep if prep else 0.0
    )
    for name, seconds in selfs.items():
        if name.startswith("analysis.") and name != "analysis.S6":
            out[f"{name}_s"] = seconds
    for policy in S6_POLICIES:
        name = f"hsm.des.{policy}"
        seconds = selfs.get(name, 0.0)
        out[f"{name}_s"] = seconds
        out[f"{name}.events_per_s"] = total(name, "events") / seconds if seconds else 0.0
        out[f"{name}.evictions"] = total(name, "evictions")
    return out


def traced(ctx: Context) -> Dict[str, float]:
    """Alternate untraced and traced passes; per-layer medians + overhead."""
    layers: List[Dict[str, float]] = []
    walls: Tuple[List[float], List[float]] = ([], [])

    def alternate(i: int) -> Dict[str, Any]:
        tracer = Tracer(enabled=bool(i % 2))
        if tracer.enabled:
            _install_layer_spans(tracer)
        run = one_pass(ctx, tracer)
        walls[i % 2].append(run["wall"])
        if tracer.enabled:
            layers.append(_layer_metrics(tracer))
            ctx.info["trace_check"] = sum_check(tracer, "bench.pass")
        return run

    passes = timed_passes(ctx.seconds, 2, alternate)
    check_digests(ctx, passes)
    out = {key: median([layer.get(key, 0.0) for layer in layers]) for key in layers[0]}
    out["trace.overhead_s"] = median(walls[1]) - median(walls[0])
    ctx.info["untraced_walls_s"], ctx.info["traced_walls_s"] = walls
    return out

