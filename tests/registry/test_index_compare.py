"""The SQLite index + compare gate: idempotence, bit-identity, tolerances.

The acceptance contract: indexing a mixed-kind runs root builds a
database whose cell values reproduce the run-dir JSON numbers exactly
(binary64 for binary64, int for int), identical runs compare clean at
zero tolerance, and an injected skew trips the gate.
"""

from __future__ import annotations

import json

import pytest

from repro.registry.compare import Tolerance, compare_cells, compare_runs
from repro.registry.emit import (
    record_bench_run,
    record_chaos_run,
    record_run,
    record_verify_run,
)
from repro.registry.index import DB_FILENAME, RegistryError, RegistryIndex
from repro.registry.record import RECORD_FILENAME, load_run_record


def _sweep_like_run(root, value: float = 0.8023, created_at: float = 10.0):
    return record_run(
        root,
        kind="sweep",
        config={"policies": ["lru"]},
        rows=[
            {
                "cell": "classic:s0:lru:0.01",
                "policy": "lru",
                "seed": 0,
                "capacity_fraction": 0.01,
                "values": {
                    "read_miss_ratio": value,
                    "reads": 12345,
                    "capacity_bytes": 987654321,
                },
                "meta": {"attempts": 1, "status": "ok"},
            },
        ],
        created_at=created_at,
    )


@pytest.fixture()
def index(tmp_path):
    with RegistryIndex.open(tmp_path / DB_FILENAME) as idx:
        yield idx


def test_mixed_kind_root_indexes_and_reindexes_idempotently(tmp_path, index):
    _sweep_like_run(tmp_path)
    record_bench_run(tmp_path, "b", {"speedup": 3.5}, created_at=20.0)
    record_verify_run(tmp_path, {
        "seed": 0, "cases": 1, "engines": ["des", "stack"], "ok": True,
        "results": [{"case": 0, "ok": True, "events": 9,
                     "config": {"policy": "lru"}}],
    })
    record_chaos_run(tmp_path, {
        "master_seed": 0, "episodes": 1, "kinds": ["kill"], "ok": True,
        "results": [{"episode": 0, "kind": "kill", "ok": True,
                     "checks": {"recovered": True}}],
    })

    stats = index.index_root(tmp_path)
    assert stats["indexed"] == 4 and not stats["skipped"]
    assert stats["kinds"] == {"sweep": 1, "bench": 1, "verify": 1, "chaos": 1}

    again = index.index_root(tmp_path)
    assert again["indexed"] == 0 and again["unchanged"] == 4


def test_indexed_values_are_bit_identical_to_run_dir_json(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path, value=0.1 + 0.2)  # 0.30000000000000004
    index.index_root(tmp_path)
    record = load_run_record(run_dir)
    run_hash = record.run_hash()

    from_db = index.cells(run_hash)
    from_json = json.loads((run_dir / RECORD_FILENAME).read_text())
    [row] = from_json["rows"]
    for metric, value in row["values"].items():
        stored = from_db[row["cell"]][metric]
        assert stored == value
        assert type(stored) is type(value)
    # And the full record payload survives projection losslessly.
    assert index.get_record(run_hash) == from_json


def test_unknown_keys_survive_reindex(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path)
    payload = json.loads((run_dir / RECORD_FILENAME).read_text())
    payload["future_field"] = {"nested": True}
    (run_dir / RECORD_FILENAME).write_text(json.dumps(payload))

    index.index_root(tmp_path)
    index.index_root(tmp_path)  # idempotent re-index
    [run] = index.runs()
    stored = index.get_record(run["run_hash"])
    assert stored["future_field"] == {"nested": True}


def test_rewritten_run_dir_replaces_stale_rows(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path, value=0.5)
    index.index_root(tmp_path)
    old_hash = load_run_record(run_dir).run_hash()

    # The dir is rewritten in place (a resumed sweep, a re-run bench).
    record = load_run_record(run_dir)
    record.rows[0]["values"]["read_miss_ratio"] = 0.25
    from repro.registry.record import write_run_record

    write_run_record(run_dir, record)
    stats = index.index_record(load_run_record(run_dir))
    assert stats == "replaced"
    hashes = [run["run_hash"] for run in index.runs()]
    assert old_hash not in hashes and len(hashes) == 1


def test_self_compare_is_exact_at_zero_tolerance(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path, value=0.1 + 0.2)
    index.index_root(tmp_path)
    run_hash = load_run_record(run_dir).run_hash()
    result = compare_runs(index, run_hash, run_hash)
    assert result.ok and result.n_cells == 1


def test_skew_trips_the_gate_with_readable_diff(tmp_path, index):
    left = _sweep_like_run(tmp_path, value=0.8023, created_at=10.0)
    right = _sweep_like_run(tmp_path, value=0.8123, created_at=20.0)
    index.index_root(tmp_path)
    lhash = load_run_record(left).run_hash()
    rhash = load_run_record(right).run_hash()

    result = compare_runs(index, lhash, rhash)
    assert not result.ok
    [diff] = result.diffs
    assert diff.metric == "read_miss_ratio"
    assert (diff.left, diff.right) == (0.8023, 0.8123)
    rendered = result.render()
    assert "read_miss_ratio" in rendered and "classic:s0:lru:0.01" in rendered

    # A loose-enough relative tolerance accepts the skew...
    assert compare_runs(index, lhash, rhash, Tolerance(rel=0.02)).ok
    # ...and so does an absolute one; a tighter one does not.
    assert compare_runs(index, lhash, rhash, Tolerance(abs=0.011)).ok
    assert not compare_runs(index, lhash, rhash, Tolerance(abs=0.001)).ok


def test_missing_cells_and_metrics_are_regressions():
    left = {"a": {"m": 1}, "b": {"m": 2, "n": 3}}
    right = {"a": {"m": 1}, "c": {"m": 4}}
    result = compare_cells(left, {**left, "b": {"m": 2}})
    assert not result.ok  # metric n vanished
    assert result.diffs[0].right == "<absent>"
    result = compare_cells(left, right)
    assert result.only_left == ["b"] and result.only_right == ["c"]
    assert not result.ok


def test_promote_and_baseline_round_trip(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path)
    index.index_root(tmp_path)
    run_hash = load_run_record(run_dir).run_hash()
    index.promote("default", run_hash)
    assert index.baseline("default")["run_hash"] == run_hash
    with pytest.raises(RegistryError, match="no baseline named"):
        index.baseline("nightly")
    with pytest.raises(RegistryError, match="not an indexed run"):
        index.promote("default", "feedfeedfeedfeed")


def test_resolve_by_prefix_name_and_ambiguity(tmp_path, index):
    run_dir = _sweep_like_run(tmp_path)
    record_bench_run(tmp_path, "b", {"speedup": 1.0}, created_at=20.0)
    index.index_root(tmp_path)
    run_hash = load_run_record(run_dir).run_hash()
    assert index.resolve(run_hash[:6])["run_hash"] == run_hash
    assert index.resolve(run_dir.name)["run_hash"] == run_hash
    with pytest.raises(RegistryError, match="no indexed run"):
        index.resolve("zzzz")
    with pytest.raises(RegistryError, match="ambiguous"):
        index.resolve("")  # empty prefix matches everything


def test_bench_history_and_trajectory(tmp_path, index):
    record_bench_run(
        tmp_path, "stackdist_sweep",
        {"speedup": 3.5, "per_policy": {"lru": {"t": 1.0}}}, created_at=10.0,
    )
    record_bench_run(
        tmp_path, "stackdist_sweep", {"speedup": 4.5}, created_at=20.0,
    )
    index.index_root(tmp_path)
    history = index.bench_history("stackdist_sweep")
    assert [point["metrics"]["speedup"] for point in history] == [3.5, 4.5]
    # Dotted breakdown keys stay out of the top-level trajectory.
    assert "per_policy.lru.t" not in history[0]["metrics"]

    from repro.registry.views import bench_view_payload, render_trajectory

    rendered = render_trajectory(index, "stackdist_sweep")
    assert "3.5" in rendered and "4.5" in rendered
    with pytest.raises(RegistryError, match="no bench runs"):
        render_trajectory(index, "nope")
    with pytest.raises(RegistryError, match="no metric"):
        render_trajectory(index, "stackdist_sweep", metric="bogus")

    view = bench_view_payload(index, "stackdist_sweep")
    assert view["runs_indexed"] == 2
    assert view["latest"]["speedup"] == 4.5
    assert [point["speedup"] for point in view["history"]] == [3.5, 4.5]


def test_open_existing_requires_a_database(tmp_path):
    with pytest.raises(RegistryError, match="runs index"):
        RegistryIndex.open_existing(tmp_path / DB_FILENAME)


def test_bench_view_merges_committed_history(tmp_path):
    from repro.registry.views import refresh_bench_view

    out = tmp_path / "BENCH_sweep.json"
    committed = tmp_path / "committed-runs"
    for speedup, created_at in ((3.0, 10.0), (3.5, 20.0), (4.0, 30.0)):
        record_bench_run(
            committed, "stackdist_sweep", {"speedup": speedup},
            created_at=created_at,
        )
    assert len(refresh_bench_view(committed, "stackdist_sweep", out)["history"]) == 3

    # A fresh clone: an empty runs root plus one new bench run.
    fresh = tmp_path / "fresh-runs"
    record_bench_run(fresh, "stackdist_sweep", {"speedup": 5.0}, created_at=40.0)
    view = refresh_bench_view(fresh, "stackdist_sweep", out)
    assert [point["speedup"] for point in view["history"]] == [3.0, 3.5, 4.0, 5.0]
    assert view["latest"]["speedup"] == 5.0
    assert view["latest_run"] == view["history"][-1]["run"]
    assert json.loads(out.read_text()) == view
    # Re-running adds nothing.
    assert refresh_bench_view(fresh, "stackdist_sweep", out) == view

    # A point older than the committed newest slots in by created_at and
    # leaves ``latest`` on the newest point.
    older = tmp_path / "older-runs"
    record_bench_run(older, "stackdist_sweep", {"speedup": 2.0}, created_at=15.0)
    view = refresh_bench_view(older, "stackdist_sweep", out)
    assert [point["speedup"] for point in view["history"]] == [
        3.0, 2.0, 3.5, 4.0, 5.0,
    ]
    assert view["latest"]["speedup"] == 5.0
    assert view["runs_indexed"] == 5
