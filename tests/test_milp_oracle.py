"""Full-scale cross-check of the exact solver against a MILP solver.

`oracle.brute_force` stops at a few links and channels. Here the
max-min program written out in the `solver` module docstring is handed
to HiGHS through `scipy.optimize.milp`, on full `grid4x12` instances
and on wider draws of it.
The branch-and-bound optimum must be at least the value of the MILP's
(rounded, re-evaluated) allocation, and at least HiGHS's proven upper
bound less a small tolerance. Skipped when scipy is not installed.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ncofdm_alloc.model import AllocationMatrix, evaluate_rates, rng_streams
from ncofdm_alloc.scenario import (
    GRID4X12,
    InterfererSpec,
    LinkSpec,
    instance_from_gains,
    realize_gains,
)
from ncofdm_alloc.solver import solve

optimize = pytest.importorskip("scipy.optimize")

# HiGHS stops once its gap is below this; the bound check allows as much
_REL_GAP = 1e-7


def _milp(inst):
    """Solve the program with HiGHS, capacities in Mbit/s. Returns the
    rounded allocation and HiGHS's upper bound on the max-min rate in
    bit/s."""
    n, m_total, b = inst.num_links, inst.num_channels, inst.span_bound
    cap = inst.capacity / 1e6
    # variables: a[l, m] row-major, then t, then hi[l], then lo[l]
    n_a = n * m_total
    t_col, hi_col, lo_col = n_a, n_a + 1, n_a + 1 + n
    n_var = n_a + 1 + 2 * n

    def a_col(l, m):
        return l * m_total + m

    rows, upper = [], []

    def add(coeffs, ub):
        row = np.zeros(n_var)
        for col, v in coeffs:
            row[col] += v
        rows.append(row)
        upper.append(ub)

    for l in range(n):
        # t <= sum_m c_lm a_lm
        add([(t_col, 1.0)] + [(a_col(l, m), -cap[l, m])
                              for m in range(m_total)], 0.0)
        for m in range(m_total):
            ch = m + 1
            # hi_l >= ch * a_lm and lo_l <= ch * a_lm + M (1 - a_lm)
            add([(a_col(l, m), ch), (hi_col + l, -1.0)], 0.0)
            add([(lo_col + l, 1.0), (a_col(l, m), m_total - ch)], m_total)
        # hi_l - lo_l + 1 <= b
        add([(hi_col + l, 1.0), (lo_col + l, -1.0)], b - 1)
    for m in range(m_total):
        add([(a_col(l, m), 1.0) for l in range(n)], 1.0)

    objective = np.zeros(n_var)
    objective[t_col] = -1.0
    integrality = np.zeros(n_var)
    integrality[:n_a] = 1
    lower = np.zeros(n_var)
    upper_bounds = np.full(n_var, np.inf)
    upper_bounds[:n_a] = 1.0
    upper_bounds[hi_col:] = m_total
    res = optimize.milp(
        objective, integrality=integrality,
        bounds=optimize.Bounds(lower, upper_bounds),
        constraints=optimize.LinearConstraint(np.array(rows), -np.inf,
                                              np.array(upper)),
        options={"mip_rel_gap": _REL_GAP, "time_limit": 120.0})
    assert res.success, res.message
    entries = np.rint(res.x[:n_a]).reshape(n, m_total).astype(np.int8)
    return AllocationMatrix(entries), -res.mip_dual_bound * 1e6


# every interference environment of the benchmark and CI sweeps; b = 12
# is b >= M, where largest-first runs alone
@pytest.mark.parametrize("active", [("A", "B", "C"), ("A",), (), ("C",)],
                         ids=["ABC", "A", "none", "C"])
@pytest.mark.parametrize("b", [4, 8, 12])
@pytest.mark.parametrize("entry", [0, 5])
def test_grid_optimum_matches_highs(entry, b, active):
    gen, = rng_streams(np.random.default_rng((1000, entry)), 1)
    gains = realize_gains(GRID4X12, gen)
    inst = instance_from_gains(GRID4X12, gains,
                               set(active)).with_span_bound(b)
    res = solve(inst)
    assert res.proven_optimal
    allocation, upper_bound = _milp(inst)
    assert max(allocation.spans()) <= b
    # the MILP's allocation is feasible, so it cannot beat the exact optimum
    assert res.maxmin >= evaluate_rates(inst, allocation).maxmin
    # and HiGHS's proven bound confirms that optimum to within its gap
    assert res.maxmin >= upper_bound * (1.0 - 2 * _REL_GAP)


# link distances of the wider configs below, the first n of them used
_DISTANCES = (1.0, math.sqrt(5.0), math.sqrt(2.0), 2.0, 1.5, 2.5, 1.2, 1.8)


def _wide_instance(n, m_total, b):
    """The fading draw (1000, 0) of grid4x12 widened to n links on m_total
    channels, with interferer C active on channels 3M/4..M-1."""
    cfg = replace(
        GRID4X12, num_channels=m_total,
        links=tuple(LinkSpec(id=f"L{l + 1}", distance=d)
                    for l, d in enumerate(_DISTANCES[:n])),
        interferers=(InterfererSpec(
            name="C", channels=tuple(range(3 * m_total // 4, m_total)),
            db_above_noise=33.0),))
    gains = realize_gains(cfg, np.random.default_rng((1000, 0)))
    return instance_from_gains(cfg, gains, {"C"}).with_span_bound(b)


# draws where the needy-set bound does much of the pruning: the solver's
# nodes, 34,642 and 5,581 without that bound
@pytest.mark.parametrize("n, m_total, b, nodes", [
    (4, 16, 8, 24_300),
    (5, 12, 5, 2_561),
])
def test_needy_set_bound_reach_pinned(n, m_total, b, nodes):
    inst = _wide_instance(n, m_total, b)
    res = solve(inst)
    assert res.proven_optimal
    assert res.nodes_explored == nodes
    allocation, upper_bound = _milp(inst)
    assert res.maxmin >= evaluate_rates(inst, allocation).maxmin
    assert res.maxmin >= upper_bound * (1.0 - 2 * _REL_GAP)
