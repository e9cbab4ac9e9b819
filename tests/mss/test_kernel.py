"""Event-loop and resource tests, including ordering properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mss.kernel import Resource, SimulationError, Simulator
from tests.oracles.kernel import Simulator as OracleSimulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0
    assert sim.events_processed == 3


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(1.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_schedule_during_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(2.0, lambda: fired.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [1.0, 3.0]


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_peek_and_step():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    assert sim.peek() == 3.0
    assert sim.step() is True
    assert sim.step() is False
    assert sim.peek() is None


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_arbitrary_delays_fire_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, (lambda t: (lambda: fired.append(t)))(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Differential: the production kernel against the dataclass-heap oracle


class _Boom(Exception):
    """Raised by a program's callback to interrupt ``run``/``step``."""


#: Few distinct delays, zero among them, so tied fire times are common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 7.25])


def _event(children):
    return st.fixed_dictionaries({
        "delay": _DELAYS,
        "absolute": st.booleans(),
        "children": children,
        "cancel": st.none() | st.integers(0, 60),
        "raises": st.integers(0, 11).map(lambda k: k == 0),
    })


_EVENTS = st.recursive(
    _event(st.just([])),
    lambda events: _event(st.lists(events, max_size=3)),
    max_leaves=6,
)

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _EVENTS),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.just(("cancel-head",)),
    st.tuples(st.just("run"), st.none() | _DELAYS),
    st.just(("step",)),
    st.just(("peek",)),
)


def _execute(sim, program):
    """Run one program; returns everything observable about the kernel."""
    log = []
    handles = []
    fired = set()

    def schedule(spec):
        label = len(handles)

        def fire():
            fired.add(label)
            log.append(("fire", label, sim.now, sim.events_processed))
            for child in spec["children"]:
                schedule(child)
            if spec["cancel"] is not None:
                handles[spec["cancel"] % len(handles)].cancel()
            if spec["raises"]:
                raise _Boom(label)

        if spec["absolute"]:
            handles.append(sim.schedule_at(sim.now + spec["delay"], fire))
        else:
            handles.append(sim.schedule(spec["delay"], fire))

    def guarded(action):
        try:
            return action()
        except _Boom as exc:
            return ("raised", exc.args[0])

    for op in program:
        kind = op[0]
        if kind == "schedule":
            schedule(op[1])
        elif kind == "cancel" and handles:
            handle = handles[op[1] % len(handles)]
            handle.cancel()
            log.append(("cancel", op[1] % len(handles), handle.time, handle.cancelled))
        elif kind == "cancel-head":
            pending = [
                (handle.time, label)
                for label, handle in enumerate(handles)
                if label not in fired and not handle.cancelled
            ]
            if pending:
                handles[min(pending)[1]].cancel()
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            log.append(("run", guarded(lambda: sim.run(until))))
        elif kind == "step":
            log.append(("step", guarded(sim.step)))
        elif kind == "peek":
            log.append(("peek", sim.peek()))
        log.append(("clock", sim.now, sim.events_processed))
    while guarded(sim.run) is not None:
        log.append(("resume", sim.now, sim.events_processed))
    log.append(("end", sim.peek(), sim.now, sim.events_processed))
    return log


@given(st.lists(_OPS, min_size=4, max_size=40))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_dataclass_oracle(program):
    assert _execute(Simulator(), program) == _execute(OracleSimulator(), program)


# ---------------------------------------------------------------------------
# Resource


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    granted = []
    resource.acquire(lambda: granted.append(1))
    resource.acquire(lambda: granted.append(2))
    assert granted == [1, 2]
    assert resource.in_use == 2


def test_resource_queues_beyond_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    granted = []
    resource.acquire(lambda: granted.append("first"))
    resource.acquire(lambda: granted.append("second"))
    assert granted == ["first"]
    assert resource.queue_length == 1
    resource.release()
    assert granted == ["first", "second"]
    assert resource.queue_length == 0


def test_resource_fifo_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    granted = []
    resource.acquire(lambda: granted.append(0))
    for i in (1, 2, 3):
        resource.acquire((lambda k: (lambda: granted.append(k)))(i))
    for _ in range(3):
        resource.release()
    assert granted == [0, 1, 2, 3]


def test_resource_wait_time_accounting():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.acquire(lambda: None)

    waited = []
    sim.schedule(0.0, lambda: resource.acquire(lambda: waited.append(sim.now)))
    sim.schedule(10.0, resource.release)
    sim.run()
    assert waited == [10.0]
    assert resource.mean_wait == pytest.approx(10.0 / 2)  # two acquisitions


def test_resource_release_of_idle_raises():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
