"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-report --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs untraced and traced passes side by side
and reports the per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Every invocation is also recorded as a bench RunRecord under
``--runs-dir`` (default ``.perfbench_out/runs``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Workload name -> module under perfbench/.
WORKLOADS = {
    "paper-report": "paper_report",
    "policy-sweep": "sweep",
    "live-ingest": "ingest",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs-dir", default=None,
                        help="registry runs root for the bench RunRecord "
                        "(default .perfbench_out/runs)")
    parser.add_argument("--skew", action="store_true",
                        help="perturb one simulated counter after the program "
                        "computes it, to show the output check trips")
    return parser.parse_args(argv)


def metric_specs(trace: bool) -> list:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so servers and scratch are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and the server it starts: the speed probe
    # (perfbench/speed.py) must run on the core the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (REPO / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(REPO))

    import importlib

    from perfbench.common import OUT, Context

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), out=scratch, skew=args.skew,
    )
    try:
        measured = module.traced(ctx) if ctx.trace else module.measure(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for spec in metric_specs(ctx.trace):
        name = spec["name"]
        if name not in measured and not ctx.trace:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        # Per-layer metrics of layers this workload never enters read 0.
        value = float(measured.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": spec["unit"]}

    record(args, ctx, metrics)
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:44s} {metric['value']:16.6g} {metric['unit']}")
    for key, value in sorted(ctx.info.items()):
        if key != "digests":
            print(f"{args.workload:13s} {key}: {value}")
    print(f"{args.workload:13s} fail_ratio {ctx.ops.fail_ratio:.6g} "
          f"({ctx.ops.failed}/{ctx.ops.attempted}) {ctx.ops.reasons or ''}")
    result = {
        "correct": ctx.ops.failed == 0,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record(args: argparse.Namespace, ctx, metrics: dict) -> None:
    """One bench RunRecord per invocation (``repro runs`` reads these)."""
    from repro.registry import record_bench_run

    from perfbench.common import OUT

    runs_dir = args.runs_dir or str(OUT / "runs")
    payload = {name: metric["value"] for name, metric in metrics.items()}
    payload["fail_ratio"] = ctx.ops.fail_ratio
    payload["attempted"] = ctx.ops.attempted
    payload["failed"] = ctx.ops.failed
    info = {k: v for k, v in ctx.info.items() if k != "digests"}
    record_bench_run(
        runs_dir,
        # No dots: the registry reads dotted names as metric breakdowns.
        f"perfbench-{args.workload}" + ("-traced" if ctx.trace else ""),
        payload,
        config={"seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "skew": args.skew, "info": info},
    )


if __name__ == "__main__":
    sys.exit(main())
