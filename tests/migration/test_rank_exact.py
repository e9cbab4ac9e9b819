"""``rank_array`` equals the scalar rank formulas bit for bit.

Victim order follows the ranks, so an ulp of difference can reorder a
wave and change every downstream counter.  STP and SAAC raise to
non-integer powers; these tests pin their vectorized ranks to the
oracle's Python ``**`` (libm ``pow``) on adversarial inputs: age 0, age
exactly 1.0, ``dt = 0``, sizes around 2**52, and very cold files.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.migration.saac import SAACPolicy
from repro.migration.stp import SpaceTimePolicy
from repro.util.units import DAY
from tests.oracles import victims as oracle

NOW = 1e9

#: (file_id, size, inserted_at, accessed_at or None): a file inserted and
#: then, optionally, accessed once.
FILES = [
    (0, 100, NOW, None),                       # age 0, dt 0, residency 0
    (1, 100, NOW - 1.0, None),                 # age exactly 1.0
    (2, 100, NOW - 5.0, NOW),                  # accessed at now: dt 0
    (3, 2**52 - 1, NOW - 3.0, None),           # sizes around 2**52
    (4, 2**52, NOW - 3.0, NOW - 1.0),
    (5, 2**52 + 1, NOW - 0.5, None),
    (6, 2**53 + 1, NOW - 7.25, None),          # not exact as a float64
    (7, 1, 0.0, None),                         # very cold: ~31 years
    (8, 3, 0.0, 1.0),                          # very cold, one early access
    (9, 12_345, NOW - 0.1, NOW - 0.05),        # younger than one second
    (10, 7, NOW - 1e-9, None),
]


def _load(policy, reference):
    for file_id, size, inserted, accessed in FILES:
        for target in (policy, reference):
            target.on_insert(file_id, size, inserted)
            if accessed is not None:
                target.on_access(file_id, accessed, is_write=False)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_bit_identical(policy, reference, now):
    got = policy.rank_array(policy.candidates(), now)
    want = reference.ranks(now)
    assert got.dtype == np.float64
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "time_exponent, size_exponent",
    [(1.4, 1.0), (1.0, 1.0), (0.5, 1.0), (2.0, 0.5), (1.4, 1.4), (0.0, 1.0)],
)
@pytest.mark.parametrize("now", [NOW, NOW + 1.0, NOW + 1e-6])
def test_stp_rank_array_is_bit_identical(time_exponent, size_exponent, now):
    policy = SpaceTimePolicy(time_exponent, size_exponent)
    reference = oracle.SpaceTime(time_exponent, size_exponent)
    _load(policy, reference)
    _assert_bit_identical(policy, reference, now)


@pytest.mark.parametrize("half_life", [7 * DAY, 1.0, 0.3, 1e-3])
@pytest.mark.parametrize("now", [NOW, NOW + 1.0, NOW + 3 * DAY])
def test_saac_rank_array_is_bit_identical(half_life, now):
    policy = SAACPolicy(half_life=half_life)
    reference = oracle.SAAC(half_life=half_life)
    _load(policy, reference)
    _assert_bit_identical(policy, reference, now)


@given(
    files=st.lists(
        st.tuples(
            st.integers(1, 2**53),
            st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
            st.lists(
                st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    now=st.floats(0.0, 2e9, allow_nan=False, allow_infinity=False),
    alpha=st.sampled_from([1.4, 1.0, 0.7, 2.5]),
    half_life=st.sampled_from([7 * DAY, 1.0, 17.5]),
)
@settings(max_examples=150, deadline=None)
def test_ranks_bit_identical_on_arbitrary_state(files, now, alpha, half_life):
    pairs = [
        (SpaceTimePolicy(alpha, 1.0), oracle.SpaceTime(alpha, 1.0)),
        (SAACPolicy(half_life=half_life), oracle.SAAC(half_life=half_life)),
    ]
    for policy, reference in pairs:
        for file_id, (size, inserted, accesses) in enumerate(files):
            for target in (policy, reference):
                target.on_insert(file_id, size, inserted)
                for time in accesses:
                    target.on_access(file_id, time, is_write=False)
        _assert_bit_identical(policy, reference, now)


def test_float_power_matches_python_pow():
    """The rule the rankings rest on: ``np.float_power`` is libm ``pow``,
    the function Python's float ``**`` calls, on the exponents the
    policies use.  (``np.power`` is not held to this: on SIMD builds it
    may use a vector math library that differs in the last ulp.)"""
    rng = np.random.default_rng(1993)
    bases = np.concatenate([
        rng.random(5_000) * 1e7,
        np.exp(rng.random(5_000) * 60.0),
        np.arange(1.0, 2_001.0),
    ])
    for exponent in (1.4, 0.5, 2.5):
        got = np.float_power(bases, exponent)
        want = [base ** exponent for base in bases.tolist()]
        assert _bits(got) == _bits(want)
    exponents = rng.random(10_000) * 80.0
    got = np.float_power(0.5, exponents)
    want = [0.5 ** x for x in exponents.tolist()]
    assert _bits(got) == _bits(want)
    assert math.isfinite(float(got.min()))
