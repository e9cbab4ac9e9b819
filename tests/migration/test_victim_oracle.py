"""The columnar victim selector against the dict-and-heap oracle.

Hypothesis drives a production policy and its oracle twin
(:mod:`tests.oracles.victims`) through the same arbitrary sequence of
inserts, accesses, access runs, evictions and victim queries.  Every
query must return the identical victim list, every invalid operation
must fail the same way on both, and the per-file metadata must agree at
the end.  Sizes and times are drawn from small pools so ties are common;
queries cover ``protect``, ``needed <= 0`` and ``needed`` beyond the
resident bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.migration.opt import OptimalPolicy
from repro.migration.registry import available_policies, make_policy
from repro.migration.saac import SAACPolicy
from tests.oracles import victims as oracle

FILE_IDS = st.integers(0, 11)
SIZES = st.one_of(
    st.integers(0, 40),
    st.sampled_from([7, 7, 100, 2**52 - 1, 2**52, 2**52 + 1]),
)
TIMES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.5, 86_400.0]),
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
)
NEEDED = st.one_of(
    st.integers(-5, 0), st.integers(1, 150), st.just(2**53), st.just(10**30)
)

OPS = st.lists(
    st.one_of(
        # Inserts listed twice: drawn twice as often, so sets grow.
        st.tuples(st.just("insert"), FILE_IDS, SIZES, TIMES),
        st.tuples(st.just("insert"), FILE_IDS, SIZES, TIMES),
        st.tuples(st.just("access"), FILE_IDS, TIMES, st.booleans()),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(FILE_IDS, TIMES), min_size=1, max_size=6),
        ),
        st.tuples(st.just("evict"), FILE_IDS),
        st.tuples(
            st.just("select"), NEEDED, TIMES,
            st.one_of(st.none(), FILE_IDS), st.booleans(),
        ),
    ),
    max_size=60,
)

SCHEDULES = st.dictionaries(FILE_IDS, st.lists(TIMES, max_size=4), max_size=12)

POLICIES = available_policies() + ["opt"]


def _outcome(call):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", call()
    except (KeyError, ValueError) as exc:
        return "raised", type(exc)


def _apply(target, op):
    kind = op[0]
    if kind == "insert":
        _, file_id, size, time = op
        return target.on_insert(file_id, size, time)
    if kind == "access":
        _, file_id, time, is_write = op
        return target.on_access(file_id, time, is_write)
    if kind == "batch":
        pairs = op[1]
        return target.on_access_batch(
            [file_id for file_id, _ in pairs], [time for _, time in pairs]
        )
    if kind == "evict":
        return target.on_evict(op[1])
    _, needed, now, protect, _ = op
    return target.select_victims(needed, now, protect=protect)


def _pair(name, seed, schedule):
    if name == "opt":
        return OptimalPolicy(schedule), oracle.Optimal(schedule)
    return make_policy(name, seed=seed), oracle.oracle_for(name, seed=seed)


def _run(name, seed, schedule, ops):
    policy, reference = _pair(name, seed, schedule)
    for op in ops:
        got = _outcome(lambda: _apply(policy, op))
        want = _outcome(lambda: _apply(reference, op))
        assert got == want, op
        if op[0] == "select" and op[-1] and got[0] == "ok":
            for victim in got[1]:  # evict the wave, as the cache does
                policy.on_evict(victim)
                reference.on_evict(victim)
        policy.check_invariants()
    assert policy.resident_count == len(reference.resident)
    for file_id, meta in reference.resident.items():
        assert policy.metadata(file_id) == meta
        if isinstance(policy, SAACPolicy):
            activity = reference.activity[file_id]
            assert oracle.saac_activity(policy, file_id) == (
                activity.decayed_rate, activity.last_update
            )


@pytest.mark.parametrize("name", POLICIES)
@given(seed=st.integers(0, 2**16), schedule=SCHEDULES, ops=OPS)
@settings(max_examples=60, deadline=None)
def test_victims_match_heap_oracle(name, seed, schedule, ops):
    _run(name, seed, schedule, ops)


@pytest.mark.parametrize("name", ["lru", "largest-first", "random", "saac"])
def test_large_tied_sets_match_oracle(name):
    """Hundreds of residents with heavy rank ties: small and large
    requests both match the oracle."""
    policy, reference = _pair(name, 3, {})
    for file_id in range(700):
        size, time = 1 + file_id % 5, float(file_id % 9)
        policy.on_insert(file_id, size, time)
        reference.on_insert(file_id, size, time)
    for file_id in range(0, 700, 3):
        policy.on_evict(file_id)
        reference.on_evict(file_id)
    for needed in (1, 9, 40, 200, 1500, 10**9):
        assert policy.select_victims(needed, 20.0, protect=5) == \
            reference.select_victims(needed, 20.0, protect=5)
