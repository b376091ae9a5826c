import numpy as np
import pytest

from ncofdm_alloc.model import (
    AllocationMatrix,
    ProblemInstance,
    RateResult,
    ValidationError,
    evaluate_rates,
)
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.solver import SolveResult, solve, verify_solution


def _instance(cap, b=None):
    cap = np.asarray(cap, dtype=float)
    return ProblemInstance(num_links=cap.shape[0], num_channels=cap.shape[1],
                           channel_bandwidth=1e5, capacity=cap,
                           span_bound=b if b is not None else cap.shape[1])


def _random_instance(rng, n_range=(1, 3), m_range=(2, 8)):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    b = int(rng.integers(1, m + 1))
    cap = rng.uniform(0, 10e6, size=(n, m))
    return _instance(cap, b)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_single_link_takes_everything():
    res = solve(_instance([[1e6, 2e6, 3e6]], b=3))
    assert res.maxmin == 6e6
    assert res.proven_optimal
    assert list(res.allocation.entries[0]) == [1, 1, 1]


def test_single_link_best_window():
    res = solve(_instance([[1e6, 2e6, 3e6]], b=2))
    assert res.maxmin == 5e6
    assert res.allocation.occupied_channels(0) == (2, 3)


def test_two_link_cross_pattern():
    # confirmed against the exhaustive oracle below before freezing
    inst = _instance([[4e6, 1e6, 1e6, 4e6], [1e6, 4e6, 4e6, 1e6]], b=2)
    res = solve(inst)
    oracle = brute_force(inst)
    assert res.maxmin == oracle.maxmin == 5e6


def test_all_interfered_link_gets_zero():
    # one link with zero capacity everywhere: allocation still returned
    inst = _instance([[0.0, 0.0], [1e6, 2e6]])
    res = solve(inst)
    assert res.maxmin == 0.0
    assert res.proven_optimal
    assert verify_solution(inst, res)


def test_solver_matches_oracle_randomized():
    rng = np.random.default_rng(101)
    for _ in range(60):
        inst = _random_instance(rng)
        res = solve(inst)
        oracle = brute_force(inst)
        assert res.proven_optimal
        assert res.maxmin == oracle.maxmin
        assert verify_solution(inst, res)
        assert verify_solution(inst, oracle)


def test_monotone_in_span_bound():
    rng = np.random.default_rng(55)
    for _ in range(20):
        cap = rng.uniform(0, 10e6, size=(2, 6))
        values = [solve(_instance(cap, b)).maxmin for b in range(1, 7)]
        assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))


def test_capacity_scaling():
    rng = np.random.default_rng(77)
    cap = rng.uniform(0, 10e6, size=(3, 6))
    base = solve(_instance(cap, 3))
    doubled = solve(_instance(cap * 2.0, 3))
    assert doubled.maxmin == 2.0 * base.maxmin        # exact for powers of 2
    scaled = solve(_instance(cap * 0.37, 3))
    assert scaled.maxmin == pytest.approx(0.37 * base.maxmin, rel=1e-12)


def test_span_bound_m_is_unconstrained_optimum():
    rng = np.random.default_rng(88)
    cap = rng.uniform(0, 10e6, size=(2, 5))
    top = solve(_instance(cap, 5))
    assert top.maxmin == brute_force(_instance(cap, 5)).maxmin
    for b in range(1, 5):
        assert solve(_instance(cap, b)).maxmin <= top.maxmin


def test_node_budget_degrades_gracefully():
    rng = np.random.default_rng(3)
    inst = _instance(rng.uniform(0, 10e6, size=(3, 8)), 8)
    res = solve(inst, node_budget=10)
    assert not res.proven_optimal
    assert res.nodes_explored >= 10
    assert verify_solution(inst, res)     # incumbent is still feasible
    full = solve(inst)
    assert full.proven_optimal
    assert res.maxmin <= full.maxmin


def test_deterministic_reruns():
    rng = np.random.default_rng(5)
    inst = _instance(rng.uniform(0, 10e6, size=(3, 7)), 4)
    a = solve(inst)
    b = solve(inst)
    assert a.maxmin == b.maxmin
    assert np.array_equal(a.allocation.entries, b.allocation.entries)


def test_warm_start_validation():
    inst = _instance([[1e6, 2e6], [3e6, 4e6]], b=1)
    with pytest.raises(ValidationError):
        solve(inst, warm_start=[[1, 0, 0], [0, 1, 0]])     # shape mismatch
    with pytest.raises(ValidationError):
        solve(inst, warm_start=[[1, 0], [1, 0]])           # not orthogonal
    with pytest.raises(ValidationError):
        solve(inst, warm_start=[[1, 1], [0, 0]])           # span > b
    good = solve(inst, warm_start=[[1, 0], [0, 1]])
    assert good.maxmin == solve(inst).maxmin


def test_warm_start_never_worsens():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cap = rng.uniform(0, 10e6, size=(2, 6))
        cold = solve(_instance(cap, 3))
        warm = solve(_instance(cap, 4), warm_start=cold.allocation)
        assert warm.maxmin >= cold.maxmin


# ---------------------------------------------------------------------------
# verify_solution
# ---------------------------------------------------------------------------

def test_verify_accepts_solver_output():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = _random_instance(rng)
        assert verify_solution(inst, solve(inst))


def _forged(inst, allocation):
    allocation = AllocationMatrix(np.asarray(allocation, dtype=np.int8))
    per_channel = inst.capacity * allocation.entries
    per_link = per_channel.sum(axis=1)
    rates = RateResult(per_channel=per_channel, per_link=per_link,
                       maxmin=float(per_link.min()))
    return SolveResult(allocation=allocation, rates=rates,
                       maxmin=rates.maxmin, proven_optimal=True,
                       nodes_explored=0, wall_time=0.0)


def test_verify_rejects_shared_channel():
    inst = _instance([[1e6, 2e6], [3e6, 4e6]])
    assert not verify_solution(inst, _forged(inst, [[1, 0], [1, 0]]))


def test_verify_rejects_span_violation():
    inst = _instance([[1e6, 2e6, 3e6]], b=2)
    assert not verify_solution(inst, _forged(inst, [[1, 0, 1]]))


def test_verify_rejects_wrong_rates():
    inst = _instance([[1e6, 2e6]])
    res = solve(inst)
    wrong = RateResult(per_channel=res.rates.per_channel,
                       per_link=res.rates.per_link + 1.0,
                       maxmin=res.maxmin + 1.0)
    forged = SolveResult(allocation=res.allocation, rates=wrong,
                         maxmin=wrong.maxmin, proven_optimal=True,
                         nodes_explored=0, wall_time=0.0)
    assert not verify_solution(inst, forged)
