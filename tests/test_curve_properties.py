"""Property tests of one realization's trade-off curve (`scenario._curve`),
and of the value-only solves it runs, on random small instances, against
the exhaustive oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncofdm_alloc.model import ProblemInstance
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.scenario import _curve
from ncofdm_alloc.solver import DEFAULT_NODE_BUDGET, solve

# a capacity: one of a few round values (ties and zeros), any value, or one
# of a few values within a few ulps of 5e6 (a row of those is near-flat)
_CAPACITY = st.one_of(
    st.sampled_from([0.0, 1e6, 2e6, 3e6]),
    st.floats(0.0, 1e7),
    st.integers(0, 3).map(lambda k: 5e6 * (1.0 + k * 2.0 ** -45)))


@st.composite
def _curves(draw):
    """An instance of 1-3 links on at most 7 channels, and an increasing
    list of span bounds."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    cap = np.array([[draw(_CAPACITY) for _ in range(m)] for _ in range(n)])
    inst = ProblemInstance(capacity=cap, span_bound=m)
    b_values = sorted(draw(st.sets(st.integers(1, m), min_size=1)))
    return inst, b_values


def _exact(inst, b_values):
    return [brute_force(inst.with_span_bound(b)).maxmin for b in b_values]


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@_SETTINGS
@given(_curves())
def test_curve_is_the_oracle_row(case):
    inst, b_values = case
    row, proven = _curve(inst, b_values, DEFAULT_NODE_BUDGET)
    assert proven
    assert [v.hex() for v in row] == [v.hex() for v in _exact(inst, b_values)]


@_SETTINGS
@given(_curves(), st.integers(0, 12))
def test_truncated_curve_is_monotone_and_never_above_the_oracle(case, budget):
    inst, b_values = case
    row, proven = _curve(inst, b_values, budget)
    exact = _exact(inst, b_values)
    assert all(v1 <= v2 for v1, v2 in zip(row, row[1:]))
    assert all(v <= x for v, x in zip(row, exact))
    if proven:
        assert row == exact


@_SETTINGS
@given(_curves())
def test_value_only_solve_is_the_oracle_value(case):
    # at every span bound, alone, warm-started from the optimum one bound
    # lower (which fits), under the optimum one bound higher as a ceiling,
    # and with both, as the curve's solves run
    inst, _ = case
    m = inst.num_channels
    exact = [brute_force(inst.with_span_bound(b)) for b in range(1, m + 1)]
    for b in range(1, m + 1):
        warm = exact[b - 2].allocation if b > 1 else None
        ceiling = exact[min(b, m - 1)].maxmin
        for kwargs in ({}, {"warm_start": warm}, {"ceiling": ceiling},
                       {"warm_start": warm, "ceiling": ceiling}):
            res = solve(inst.with_span_bound(b), tie_break=False, **kwargs)
            assert res.proven_optimal
            assert res.maxmin.hex() == exact[b - 1].maxmin.hex(), (b, kwargs)
