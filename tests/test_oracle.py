import numpy as np
import pytest

from ncofdm_alloc.model import ProblemInstance, ValidationError
from ncofdm_alloc.oracle import EnumerationBudgetError, brute_force
from ncofdm_alloc.scenario import check_b_values
from ncofdm_alloc.solver import solve, verify_solution


def _instance(cap, b=None):
    cap = np.asarray(cap, dtype=float)
    return ProblemInstance(capacity=cap,
                           span_bound=b if b is not None else cap.shape[1])


def test_single_link_picks_best_channel():
    res = brute_force(_instance([[1e6, 2e6]], b=1))
    assert res.maxmin == 2e6
    assert list(np.flatnonzero(res.allocation.entries[0]) + 1) == [2]


def test_two_links_diagonal():
    res = brute_force(_instance([[3e6, 1e6], [1e6, 3e6]], b=1))
    assert res.maxmin == 3e6
    assert verify_solution(_instance([[3e6, 1e6], [1e6, 3e6]], b=1), res)


def test_enumeration_count_unpruned():
    # with b = M the span filter never triggers: all (N+1)^M leaves visited
    res = brute_force(_instance([[1e6, 2e6, 3e6], [3e6, 2e6, 1e6]], b=3))
    assert res.nodes_explored == 27


def test_enumeration_count_shrinks_with_pruning():
    unpruned = brute_force(_instance(np.ones((2, 4)) * 1e6, b=4))
    pruned = brute_force(_instance(np.ones((2, 4)) * 1e6, b=1))
    assert unpruned.nodes_explored == 3 ** 4
    assert pruned.nodes_explored < unpruned.nodes_explored


def test_budget_error():
    inst = _instance(np.ones((3, 8)) * 1e6)
    with pytest.raises(EnumerationBudgetError):
        brute_force(inst, max_assignments=1000)


def test_matches_solver_on_random_instances():
    rng = np.random.default_rng(314)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        b = int(rng.integers(1, m + 1))
        inst = _instance(rng.uniform(0, 10e6, size=(n, m)), b)
        assert brute_force(inst).maxmin == solve(inst).maxmin


def test_maxmin_monotone_in_b():
    rng = np.random.default_rng(21)
    cap = rng.uniform(0, 10e6, size=(2, 6))
    values = [brute_force(_instance(cap, b)).maxmin for b in range(1, 7)]
    assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))
    assert values[-1] == max(values)


def test_check_b_values():
    assert check_b_values([1, 2, 5], 6) == (1, 2, 5)
    with pytest.raises(ValidationError):
        check_b_values([2, 2], 6)
    with pytest.raises(ValidationError):
        check_b_values([3, 1], 6)
    with pytest.raises(ValidationError):
        check_b_values([0, 2], 6)
    with pytest.raises(ValidationError):
        check_b_values([2, 7], 6)
    with pytest.raises(ValidationError):
        check_b_values([], 6)
    with pytest.raises(ValidationError):
        check_b_values([1, 4], 6, lower=3)
    # a fractional bound is rejected, not truncated
    with pytest.raises(ValidationError, match="span bound must be an integer"):
        check_b_values([3.7, 6], 6)
    with pytest.raises(ValidationError, match="span bound must be an integer"):
        check_b_values([True, 6], 6)
    assert check_b_values(np.array([2, 6]), 6) == (2, 6)
