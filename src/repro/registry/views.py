"""Derived read-views over the registry: trajectories and bench files.

``repro runs trajectory`` renders a named benchmark's metric history
across every indexed bench run, and ``BENCH_sweep.json`` is regenerated
here from the index merged with the history the file already holds:
the benchmark writes a RunRecord, the record is indexed, and the file
gains the new points without losing the ones a fresh clone's empty
index never saw.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.registry.index import DB_FILENAME, RegistryError, RegistryIndex

#: ``format`` marker of the regenerated BENCH view file.
BENCH_VIEW_FORMAT = "repro-bench-view-v1"

#: The benchmark whose view lives at the repo root (the ROADMAP's sweep
#: perf trajectory, seeded by PR 6).
BENCH_SWEEP_BENCHMARK = "stackdist_sweep"


def _format_when(created_at: Optional[float]) -> str:
    if created_at is None:
        return "--"
    import datetime

    stamp = datetime.datetime.fromtimestamp(
        created_at, tz=datetime.timezone.utc
    )
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def render_trajectory(
    index: RegistryIndex,
    benchmark: str,
    metric: Optional[str] = None,
) -> str:
    """The perf history of one benchmark as a table + scaled bars.

    ``metric`` picks the bar column; the default prefers ``speedup``
    (the gate metric every throughput bench reports) and falls back to
    the benchmark's first top-level metric.
    """
    from repro.analysis.render import TextTable

    history = index.bench_history(benchmark)
    if not history:
        known = index.benchmarks()
        hint = f"; indexed benchmarks: {', '.join(known)}" if known else \
            "; no bench runs indexed yet"
        raise RegistryError(f"no bench runs for {benchmark!r}{hint}")
    metric_names: List[str] = []
    for point in history:
        for name in point["metrics"]:
            if name not in metric_names:
                metric_names.append(name)
    if metric is None:
        metric = "speedup" if "speedup" in metric_names else metric_names[0]
    elif metric not in metric_names:
        raise RegistryError(
            f"benchmark {benchmark!r} has no metric {metric!r}; "
            f"choose from {', '.join(metric_names)}"
        )
    values = [
        point["metrics"].get(metric) for point in history
    ]
    numeric = [
        value for value in values
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    peak = max((abs(value) for value in numeric), default=0.0)
    table = TextTable(
        ["run", "recorded (UTC)", *metric_names, f"{metric} trend"],
        title=f"Perf trajectory: {benchmark} ({len(history)} runs)",
    )
    for point, value in zip(history, values):
        bar = ""
        if peak > 0 and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            bar = "#" * max(1, round(24 * abs(value) / peak))
        table.add_row(
            point["run_hash"][:12],
            _format_when(point["created_at"]),
            *(
                f"{point['metrics'][name]:g}"
                if isinstance(point["metrics"].get(name), (int, float))
                and not isinstance(point["metrics"].get(name), bool)
                else str(point["metrics"].get(name, "--"))
                for name in metric_names
            ),
            bar,
        )
    return table.render()


def bench_view_payload(
    index: RegistryIndex, benchmark: str
) -> Dict[str, Any]:
    """The BENCH view document: newest run's full payload + history.

    ``latest`` is the newest run's nested metric payload exactly as the
    benchmark recorded it (per-policy breakdowns included); ``history``
    is the top-level metric trajectory, oldest first.
    """
    history = index.bench_history(benchmark)
    if not history:
        raise RegistryError(f"no bench runs for {benchmark!r}")
    newest = history[-1]
    record = index.get_record(newest["run_hash"])
    latest = (record.get("metrics") or {}).get(benchmark, {})
    return {
        "format": BENCH_VIEW_FORMAT,
        "benchmark": benchmark,
        "runs_indexed": len(history),
        "latest_run": newest["run_hash"],
        "latest": latest,
        "history": [
            {
                "run": point["run_hash"],
                "created_at": point["created_at"],
                **point["metrics"],
            }
            for point in history
        ],
    }


def refresh_bench_view(
    runs_root: Union[str, Path],
    benchmark: str,
    out_path: Union[str, Path],
) -> Dict[str, Any]:
    """(Re)index a runs root and rewrite one benchmark's view file.

    The whole pipeline behind ``BENCH_sweep.json``: fold new run dirs
    into ``registry.sqlite``, derive the view, merge in the history
    already in ``out_path`` (deduplicated by run hash, ordered by
    ``created_at``, ``latest`` from the newest point), write it
    atomically.  Returns the written payload.
    """
    runs_root = Path(runs_root)
    with RegistryIndex.open(runs_root / DB_FILENAME) as index:
        index.index_root(runs_root)
        payload = bench_view_payload(index, benchmark)
    out_path = Path(out_path)
    try:
        previous = json.loads(out_path.read_text())
    except (OSError, ValueError):
        previous = {}
    if previous.get("benchmark") == benchmark and "history" in previous:
        points = {p["run"]: p for p in previous["history"] + payload["history"]}
        history = sorted(
            points.values(), key=lambda p: (p.get("created_at") or 0, p["run"])
        )
        if history[-1]["run"] != payload["latest_run"]:
            payload["latest"] = previous["latest"]
            payload["latest_run"] = previous["latest_run"]
        payload.update(history=history, runs_indexed=len(history))
    tmp = out_path.with_name(out_path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    tmp.replace(out_path)
    return payload
