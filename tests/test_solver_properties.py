"""Property test of the exact solver against the exhaustive oracle, on
random small instances whose capacities span seventy binary orders of
magnitude, so that a bound losing a small capacity beside a large one to
rounding would show as a wrong allocation."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncofdm_alloc.model import ProblemInstance
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.solver import solve

# a capacity: zero, a power of two from 2^-30 to 2^40, a few tenths (their
# sums round), any value in that range, or a value within two ulps of
# 1 + 2^-49 times such a power (a row of those ties or nearly ties)
_CAPACITY = st.one_of(
    st.just(0.0),
    st.integers(-30, 40).map(lambda k: 2.0 ** k),
    st.integers(1, 4).map(lambda k: k * 0.1),
    st.floats(2.0 ** -30, 2.0 ** 40),
    st.tuples(st.integers(-30, 40), st.integers(-2, 2)).map(
        lambda kj: 2.0 ** kj[0] * (1.0 + kj[1] * 2.0 ** -50)))


@st.composite
def _instances(draw):
    """An instance of 2-4 links on at most 6 channels, any span bound."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 6))
    cap = np.array([[draw(_CAPACITY) for _ in range(m)] for _ in range(n)])
    return ProblemInstance(capacity=cap, span_bound=draw(st.integers(1, m)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_solve_is_the_oracle(inst):
    res, oracle = solve(inst), brute_force(inst)
    assert res.proven_optimal
    assert (res.allocation.owner_vector()
            == oracle.allocation.owner_vector())
    assert res.maxmin.hex() == oracle.maxmin.hex()
