"""Shared run context and helpers for the workload modules."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

from perfbench import speed
from perfbench.stats import Ops, median

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: Scratch space and RunRecords; git ignores it.
OUT = REPO / ".perfbench_out"
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: An interpreter import takes well under a second and its spawn-to-spawn
#: noise is wide, so its median needs more samples than the other set-ups.
IMPORT_REPEATS = 9


@dataclass
class Context:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    out: Path
    skew: bool = False
    ops: Ops = field(default_factory=Ops)
    #: Human-readable extras and RunRecord payload (sample counts etc).
    info: Dict[str, Any] = field(default_factory=dict)


def timed_passes(
    seconds: float, minimum: int, one_pass: Callable[[int], Any]
) -> List[Any]:
    """Run ``one_pass(i)`` until ``seconds`` elapse (and ``minimum`` ran)."""
    start = time.perf_counter()
    results: List[Any] = []
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(one_pass(len(results)))
    return results


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def import_seconds(modules: List[str]) -> float:
    """Median time of a fresh interpreter importing ``modules``.

    Each sample is scaled to the reference host speed (:mod:`perfbench.speed`).
    """
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(IMPORT_REPEATS):
        seconds, _ = speed.timed(
            subprocess.run, [sys.executable, "-c", code], sample=False,
            env=child_env(), check=True, cwd=REPO,
        )
        samples.append(seconds)
    return median(samples)


def peak_rss_mib(children: bool = False) -> float:
    """High-water RSS of this process (and, optionally, reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def trace_generation(tracer, owner: Any) -> None:
    """Span ``owner.generate_trace`` as ``workload.generate`` with counts."""

    def on_trace(attrs, args, kwargs, trace) -> None:
        attrs["events"] = trace.n_events
        attrs["stages"] = dict(trace.stage_seconds)

    tracer.patch(owner, "generate_trace", "workload.generate", on_trace)


def generation_metrics(spans: List[Any], self_seconds: Dict[str, float]) -> Dict[str, float]:
    """``workload.*`` per-layer metrics from the generate spans of a pass."""
    seconds = self_seconds.get("workload.generate", 0.0)
    generated = [span for span in spans if span.name == "workload.generate"]
    out = {
        "workload.generate_s": seconds,
        "workload.events_per_s": (
            sum(span.attrs["events"] for span in generated) / seconds
            if seconds else 0.0
        ),
    }
    for span in generated:
        for stage, stage_seconds in span.attrs["stages"].items():
            key = f"workload.stage.{stage}_s"
            out[key] = out.get(key, 0.0) + stage_seconds
    return out
