import bisect
import concurrent.futures
import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from ncofdm_alloc.model import (
    AllocationMatrix,
    ProblemInstance,
    RateResult,
    ValidationError,
    evaluate_rates,
    rng_streams,
)
from ncofdm_alloc import solver
from ncofdm_alloc.guardband import insert_guardbands, validate_guardbands
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.scenario import GRID4X12, instance_from_gains, realize_gains
from ncofdm_alloc.solver import (
    _STACK_MARGIN,
    SolveResult,
    solve,
    verify_solution,
)


def _instance(cap, b=None):
    cap = np.asarray(cap, dtype=float)
    return ProblemInstance(capacity=cap,
                           span_bound=b if b is not None else cap.shape[1])


def _random_instance(rng, n_range=(1, 3), m_range=(2, 8)):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    b = int(rng.integers(1, m + 1))
    cap = rng.uniform(0, 10e6, size=(n, m))
    return _instance(cap, b)


def _assert_matches_oracle(inst):
    res, oracle = solve(inst), brute_force(inst)
    assert res.proven_optimal
    assert res.maxmin.hex() == oracle.maxmin.hex()
    assert np.array_equal(res.allocation.entries, oracle.allocation.entries)


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
    assert list(np.flatnonzero(res.allocation.entries[0]) + 1) == [2, 3]


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


@pytest.mark.parametrize("shape, b", [((3, 8), 3), ((4, 12), 4)])
def test_all_zero_capacities_take_no_node(shape, b):
    # every allocation ties at (0, 0), so the tie order picks the empty
    # one, the least matrix, with no search, warm start or not
    n, m_total = shape
    inst = _instance(np.zeros(shape), b)
    empty = [-1] * m_total
    if m_total <= 8:        # brute_force enumerates 3 x 8, not 4 x 12
        assert brute_force(inst).allocation.owner_vector() == empty
    # contiguous blocks of at most b channels
    warm = AllocationMatrix.from_owner_vector(
        [m * n // m_total for m in range(m_total)], n)
    for kwargs in ({}, {"warm_start": warm}):
        res = solve(inst, **kwargs)
        assert res.proven_optimal and res.nodes_explored == 0
        assert res.maxmin == 0.0
        assert res.allocation.owner_vector() == empty


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


@pytest.mark.parametrize("budget", [float("nan"), True, 2.5, None, "5", -1])
def test_node_budget_must_be_a_nonnegative_integer(budget):
    inst = _instance(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="node_budget"):
        solve(inst, node_budget=budget)
    assert solve(inst, node_budget=np.int64(1_000)).proven_optimal


def _grid_ceiling(entry):
    """A grid draw under A, B and C, and its proven optimum at b = 12."""
    inst = _grid_instance(entry, {"A", "B", "C"}, 12)
    top = solve(inst)
    assert top.proven_optimal
    return inst, top.maxmin


@pytest.mark.parametrize("entry, b", [(21, 5), (21, 8), (9, 9), (5, 11)])
def test_ceiling_ends_the_search_where_it_is_reached(entry, b):
    # the optimum at b equals the one at b = 12, so an allocation that
    # reaches that ceiling is optimal: the search stops there, proven
    inst, ceiling = _grid_ceiling(entry)
    inst = inst.with_span_bound(b)
    full = solve(inst)
    capped = solve(inst, ceiling=ceiling)
    assert full.maxmin == ceiling
    assert capped.proven_optimal
    assert capped.maxmin.hex() == full.maxmin.hex()
    assert 0 < capped.nodes_explored < full.nodes_explored
    assert verify_solution(inst, capped)


def test_ceiling_met_by_the_warm_start_takes_no_node():
    inst, ceiling = _grid_ceiling(21)
    inst = inst.with_span_bound(7)
    full = solve(inst)
    res = solve(inst, warm_start=full.allocation, ceiling=ceiling)
    assert res.proven_optimal
    assert res.nodes_explored == 0
    assert res.maxmin.hex() == full.maxmin.hex()


@pytest.mark.parametrize("entry, b", [(9, 3), (9, 8), (5, 6), (21, 4)])
def test_ceiling_above_the_optimum_changes_nothing(entry, b):
    inst, top = _grid_ceiling(entry)
    inst = inst.with_span_bound(b)
    full = solve(inst)
    assert full.maxmin < top
    for ceiling in (top, math.nextafter(full.maxmin, math.inf), math.inf):
        res = solve(inst, ceiling=ceiling)
        assert res.allocation.owner_vector() == full.allocation.owner_vector()
        assert res.maxmin.hex() == full.maxmin.hex()
        assert res.nodes_explored == full.nodes_explored
        assert res.proven_optimal


@pytest.mark.parametrize("ceiling", [float("nan"), True, "5"])
def test_ceiling_must_be_a_number(ceiling):
    inst = _instance(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="ceiling"):
        solve(inst, ceiling=ceiling)


def test_block_candidates_tied_in_value_and_total_keep_the_tie_order():
    # every block matching of equal capacities ties in maxmin and total, so
    # the first incumbent, returned at once with no node to search, is the
    # one whose allocation matrix is lexicographically smallest
    inst = _instance(np.ones((3, 6)))
    res = solve(inst, node_budget=0)
    assert not res.proven_optimal
    assert res.allocation.owner_vector() == [2, 2, 1, 1, 0, 0]
    assert np.array_equal(res.allocation.entries,
                          brute_force(inst).allocation.entries)


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


def test_exact_ties_match_oracle():
    # capacities from {0, 1, 2, 3} Mbit/s tie often, zero-capacity channels
    # included; every other case has b = M, where the search visits channels
    # largest-first and must still land on the oracle's allocation matrix
    rng = np.random.default_rng(2024)
    for case in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9 if n < 3 else 8))
        b = m if case % 2 == 0 else int(rng.integers(1, m + 1))
        inst = _instance(rng.integers(0, 4, size=(n, m)) * 1e6, b)
        res, oracle = solve(inst), brute_force(inst)
        assert res.proven_optimal
        assert res.maxmin.hex() == oracle.maxmin.hex()
        assert np.array_equal(res.allocation.entries,
                              oracle.allocation.entries)


def test_exact_ties_match_oracle_across_slices(monkeypatch):
    # small instances finish inside the first index-order slice; one-node
    # slices hand the search back and forth between index order and
    # largest-first, so below b = M both orders and every hand-over of the
    # shared incumbent meet the oracle too
    monkeypatch.setattr(solver, "_SLICE_NODES", 1)
    test_exact_ties_match_oracle()
    rng = np.random.default_rng(2025)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9 if n < 3 else 8))
        b = int(rng.integers(1, m))
        inst = _instance(rng.integers(0, 4, size=(n, m)) * 0.1, b)
        res, oracle = solve(inst), brute_force(inst)
        assert res.proven_optimal
        assert res.maxmin.hex() == oracle.maxmin.hex()
        assert np.array_equal(res.allocation.entries,
                              oracle.allocation.entries)


def test_total_tie_in_the_last_bit_matches_oracle():
    # the oracle's allocation totals one ulp more than another allocation
    # with the same maxmin; the total-rate bounds add in another order than
    # the leaf totals, so a subtree whose bound lies within rounding of the
    # incumbent's total must still be searched
    cap = np.array([[2, 2, 0, 1, 3, 0, 2, 0],
                    [3, 1, 2, 1, 3, 0, 0, 3],
                    [1, 1, 3, 2, 3, 3, 3, 0]]) * 0.1
    inst = _instance(cap, b=8)
    res, oracle = solve(inst), brute_force(inst)
    assert res.allocation.owner_vector() == [1, 0, 2, 0, 0, 2, 2, 1]
    assert res.maxmin.hex() == oracle.maxmin.hex()
    assert np.array_equal(res.allocation.entries, oracle.allocation.entries)


@pytest.mark.parametrize("cap, b, maxmin", [
    ([[0.1, 0.2, 0.3, 0.2, 0, 0.2], [0.2, 0.3, 0, 0.1, 0.1, 0.2]], 6,
     "0x1.3333333333334p-1"),
    ([[0, 0.1, 0.2, 0.2, 0, 0.1 * 3, 0.1 * 3],
      [0.1, 0.1, 0.1 * 3, 0.1, 0.2, 0.1, 0.1 * 3]], 7,
     "0x1.6666666666667p-1"),
], ids=["six-channels", "seven-channels"])
def test_maxmin_exact_to_the_last_bit(cap, b, maxmin):
    # a subtree whose value bound lies within rounding of the incumbent can
    # hold a leaf one ulp above it: bounds add capacities in another order
    # than the leaves, so no subtree is cut for only tying the incumbent
    inst = _instance(np.array(cap), b)
    res, oracle = solve(inst), brute_force(inst)
    assert res.maxmin.hex() == maxmin == oracle.maxmin.hex()
    assert np.array_equal(res.allocation.entries, oracle.allocation.entries)


def test_value_only_maxmin_exact_to_the_last_bit():
    # near-flat rows within 3 ulps of 5e6, so optima differ only in their
    # last bits: a value-only solve that counted a link's channels for a
    # strict gain in floats alone (against inc - r + slack) cut the
    # optimum's subtree and returned 0x1.312d000000099p+22 at b = 1
    ulp = 2.0 ** -45
    cap = np.array([[1 + ulp, 1, 1 + 3 * ulp, 1 + ulp, 1 + 2 * ulp, 1],
                    [1 + ulp, 1 + 3 * ulp, 1 + ulp, 1 + 3 * ulp, 1,
                     1 + 3 * ulp]]) * 5e6
    for b in range(1, 7):
        inst = _instance(cap, b)
        res = solve(inst, tie_break=False)
        assert res.proven_optimal
        assert res.maxmin.hex() == brute_force(inst).maxmin.hex()
    res = solve(_instance(cap, 1), tie_break=False)
    assert res.maxmin.hex() == "0x1.312d0000001cap+22"


def test_capacity_that_rounds_away_stays_unassigned():
    # 1 + 1e-17 == 1, so giving the tiny channels to the link changes no
    # rate and no total, and the tie order prefers them unassigned; the
    # "leave unassigned" branch must not be skipped for them
    res = solve(_instance([[1.0, 1e-17, 1e-20]]))
    assert res.allocation.owner_vector() == [0, -1, -1]
    # capacities spread over 25 orders of magnitude
    rng = np.random.default_rng(909)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 8 if n < 3 else 7))
        cap = (rng.uniform(0, 1, size=(n, m))
               * 10.0 ** rng.integers(-25, 1, size=(n, m)))
        _assert_matches_oracle(_instance(cap, int(rng.integers(1, m + 1))))


# b = 12 owner vectors of three grid4x12 draws with interferers A, B, C
# (the one realization of a sweep seeded with the generator (1000, entry),
# as in the benchmark's sweep pool), recorded with the index-order search;
# the largest-first search must reproduce them
_B12_PINS = {
    0: ([0, 0, 0, 1, 2, 2, 2, 3, 3, 2, 3, 1], "0x1.11c8762526ec0p+22"),
    5: ([3, 2, 0, 1, 3, 2, 0, 1, 2, 2, 0, 3], "0x1.138ca568d547cp+22"),
    12: ([3, 2, 0, 1, 2, 0, 0, 1, 2, 3, 2, 3], "0x1.123cdb141e1cep+22"),
}


@pytest.mark.parametrize("entry", sorted(_B12_PINS))
def test_grid_b12_allocation_pinned(entry):
    gen, = rng_streams(np.random.default_rng((1000, entry)), 1)
    gains = realize_gains(GRID4X12, gen)
    inst = instance_from_gains(GRID4X12, gains,
                               {"A", "B", "C"}).with_span_bound(12)
    res = solve(inst)
    owners, maxmin = _B12_PINS[entry]
    assert res.proven_optimal
    assert res.allocation.owner_vector() == owners
    assert res.maxmin.hex() == maxmin
    # index order needs ~6e5 nodes here, largest-first 4.9e3 to 1.4e4, and
    # 1.1e3 to 2.8e3 with the pairwise-exchange rule
    assert res.nodes_explored <= 50_000


def _grid_instance(entry, active, b):
    gen, = rng_streams(np.random.default_rng((1000, entry)), 1)
    gains = realize_gains(GRID4X12, gen)
    return instance_from_gains(GRID4X12, gains, active).with_span_bound(b)


@pytest.mark.parametrize("entry, owners, maxmin", [
    (0, [0, 3, 2, 3, 2, 2, 1, 3, 1, 0, 1, 0], "0x1.73becd8357d4ap+22"),
    (5, [3, 2, 0, 2, 1, 2, 3, 1, 3, 1, 0, 0], "0x1.736f8def7f874p+22"),
])
def test_grid_b12_under_interferer_a_alone(entry, owners, maxmin):
    # many clean channels of near-equal capacity: largest-first took
    # 107,781 and 110,225 nodes here proving optimality over every way to
    # share them, and ~3e3 to 5e3 once improving swaps are cut
    res = solve(_grid_instance(entry, {"A"}, 12))
    assert res.proven_optimal
    assert res.allocation.owner_vector() == owners
    assert res.maxmin.hex() == maxmin
    assert res.nodes_explored <= 10_000


# b < M owner vectors of the same draws, recorded with the index-order
# search alone; the race of index order and largest-first must reproduce
# them
_BELOW_M_PINS = {
    (0, 6): ([0, 0, 0, 3, 2, 2, 2, 3, 1, 2, 1, 1], "0x1.11c8762526ec0p+22"),
    (0, 8): ([0, 0, 0, 3, 2, 2, 2, 1, 3, 2, 3, 1], "0x1.11c8762526ec0p+22"),
    (5, 6): ([3, 0, 0, 3, 3, 2, 0, 1, 2, 2, 2, 1], "0x1.12cef11cf3b24p+22"),
    (5, 8): ([2, 2, 0, 1, 2, 2, 0, 1, 0, 3, 3, 3], "0x1.1322f54fc96f2p+22"),
    (12, 6): ([1, 1, 0, 1, 2, 0, 0, 2, 2, 3, 3, 3], "0x1.123cdb141e1cep+22"),
    (12, 8): ([3, 3, 0, 3, 2, 0, 0, 1, 2, 2, 2, 1], "0x1.123cdb141e1cep+22"),
}


@pytest.mark.parametrize("entry, b", sorted(_BELOW_M_PINS))
def test_grid_below_m_allocation_pinned(entry, b):
    res = solve(_grid_instance(entry, {"A", "B", "C"}, b))
    owners, maxmin = _BELOW_M_PINS[entry, b]
    assert res.proven_optimal
    assert res.allocation.owner_vector() == owners
    assert res.maxmin.hex() == maxmin
    if b == 8:
        # index order alone needs ~85k nodes here, the race 3k to 8k, 3k to
        # 4k with the pairwise-exchange rule (strict turns of 1,024 nodes),
        # and 1.6k to 2.5k when the turn goes to the search closer to done
        assert res.nodes_explored <= 20_000


def test_grid_race_overhead_where_index_order_wins():
    # with interferer A alone index order proved b = 8 in 1,399 nodes (789
    # with the pairwise-exchange rule) and largest-first needed ~8e4; the
    # race may spend at most 4x the former (1,046 nodes when the turn goes
    # to the search closer to done)
    res = solve(_grid_instance(5, {"A"}, 8))
    assert res.proven_optimal
    assert res.allocation.owner_vector() == [3, 2, 0, 2, 3, 0, 3, 1, 2, 0,
                                             1, 1]
    assert res.maxmin.hex() == "0x1.73410ce5b733ep+22"
    assert res.nodes_explored <= 4 * 1399


# nodes of the full solves: at b = 8 index order and largest-first take
# turns, at b = 12 largest-first runs alone
_FULL_NODES = {8: 2543, 12: 1196}


@pytest.mark.parametrize("b", [8, 12])
@pytest.mark.parametrize("budget",
                         [0, 1, 255, 256, 257, 1023, 1024, 1025, 3000])
def test_race_budget_exhaustion_leaves_no_thread(budget, b):
    # the budget runs out at the first node, around the end of the first
    # turn, or while the two orders take turns; a budget above the full
    # solve's nodes does not bind
    threads = threading.active_count()
    inst = _grid_instance(0, {"A", "B", "C"}, b)
    res = solve(inst, node_budget=budget)
    full = _FULL_NODES[b]
    assert res.proven_optimal == (budget >= full)
    assert res.nodes_explored == min(budget + 1, full)
    assert verify_solution(inst, res)
    assert res.maxmin.hex() == "0x1.11c8762526ec0p+22"
    assert threading.active_count() == threads


# entries 0, 3 and 10 at b = 5, 7 and 9, per interference environment: the
# total nodes, recorded with the needy-set bound once each turn went to the
# search closer to done; the race must not need more
_ENVIRONMENT_NODES = {"A,B,C": 16_647, "C": 71_312, "A": 7_603, "none": 12_041}


@pytest.mark.parametrize("env", sorted(_ENVIRONMENT_NODES))
def test_race_node_ceiling_per_environment(env):
    active = set(env.split(",")) - {"none"}
    total = 0
    for entry in (0, 3, 10):
        for b in (5, 7, 9):
            res = solve(_grid_instance(entry, active, b))
            assert res.proven_optimal
            total += res.nodes_explored
    assert total <= _ENVIRONMENT_NODES[env]


# the benchmark's realloc-cli traffic: grid4x12 at rng seeds 1-8 and b = 4,
# solved with no interferer and then, warm-started from that allocation,
# with A alone and with C alone. Index order settles each solve alone, so
# these pin its search; (owners, maxmin) recorded when every link's bound
# was evaluated at every node and every block candidate was scored from its
# owner vector, and nodes with the needy-set bound
_GRID_B4_PINS = {
    (1, "none"): (354, [0, 0, 0, 3, 3, 3, 2, 2, 1, 2, 1, 1],
                  "0x1.affe862f2a403p+22"),
    (1, "A"): (124, [0, 0, 3, 0, 3, 3, 2, 2, 1, 2, 1, 1],
               "0x1.53b6084703684p+22"),
    (1, "C"): (704, [3, 3, 3, 1, 1, 1, 2, 2, 0, 2, 0, 0],
               "0x1.5425901f88f33p+22"),
    (2, "none"): (321, [3, 3, 0, 3, 0, 0, 2, 2, 1, 2, 1, 1],
                  "0x1.afb683224a982p+22"),
    (2, "A"): (135, [0, 0, 1, 0, 1, 1, 2, 2, 2, 3, 3, 3],
               "0x1.52ad5ae7a5e5ap+22"),
    (2, "C"): (709, [2, 2, 2, 3, 3, 3, 1, 1, 0, 1, 0, 0],
               "0x1.5429e2cc44a5ep+22"),
    (3, "none"): (349, [0, 0, 2, 0, 2, 2, 1, 1, 3, 1, 3, 3],
                  "0x1.affadb9578426p+22"),
    (3, "A"): (129, [0, 0, 2, 0, 2, 2, 1, 1, 3, 1, 3, 3],
               "0x1.534d6a88b3588p+22"),
    (3, "C"): (726, [2, 2, 2, 1, 1, 3, 1, 3, 3, 0, 0, 0],
               "0x1.55018961267aep+22"),
    (4, "none"): (284, [1, 1, 3, 1, 3, 3, 2, 2, 0, 2, 0, 0],
                  "0x1.b045d80ef242cp+22"),
    (4, "A"): (134, [0, 0, 3, 0, 3, 3, 2, 2, 1, 2, 1, 1],
               "0x1.53b815d9f1912p+22"),
    (4, "C"): (721, [1, 1, 3, 1, 3, 3, 2, 2, 2, 0, 0, 0],
               "0x1.5492deae5f3dep+22"),
    (5, "none"): (203, [1, 1, 1, 3, 3, 3, 2, 2, 2, 0, 0, 0],
                  "0x1.af6735e6da472p+22"),
    (5, "A"): (136, [0, 0, 3, 0, 3, 3, 2, 2, 2, 1, 1, 1],
               "0x1.53174cff04e82p+22"),
    (5, "C"): (731, [2, 2, 3, 2, 3, 3, 1, 1, 1, 0, 0, 0],
               "0x1.540b1f2be105bp+22"),
    (6, "none"): (227, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3],
                  "0x1.b0c911ba96fd0p+22"),
    (6, "A"): (124, [0, 0, 1, 0, 1, 1, 2, 2, 2, 3, 3, 3],
               "0x1.54d29224ee7d0p+22"),
    (6, "C"): (760, [3, 3, 3, 1, 1, 1, 2, 2, 2, 0, 0, 0],
               "0x1.53a0f09f07e48p+22"),
    (7, "none"): (263, [1, 1, 2, 1, 2, 2, 0, 0, 3, 0, 3, 3],
                  "0x1.af07330aea67ep+22"),
    (7, "A"): (129, [0, 0, 1, 0, 1, 1, 3, 3, 3, 2, 2, 2],
               "0x1.538e92e701154p+22"),
    (7, "C"): (728, [1, 1, 3, 1, 3, 3, 2, 2, 0, 2, 0, 0],
               "0x1.53ea5ef55d046p+22"),
    (8, "none"): (206, [1, 1, 2, 1, 2, 2, 0, 0, 3, 0, 3, 3],
                  "0x1.b03cee06136b0p+22"),
    (8, "A"): (129, [0, 0, 1, 0, 1, 1, 2, 2, 3, 2, 3, 3],
               "0x1.526681c3cd968p+22"),
    (8, "C"): (829, [1, 1, 2, 1, 2, 2, 3, 3, 3, 0, 0, 0],
               "0x1.549d9a62e9ed6p+22"),
}


def _grid_b4_results(seed):
    cfg = replace(GRID4X12, rng_seed=seed, span_bound=4)
    gains = realize_gains(cfg, None)
    base = solve(instance_from_gains(cfg, gains, set()))
    results = {"none": base}
    for env in ("A", "C"):
        results[env] = solve(instance_from_gains(cfg, gains, {env}),
                             warm_start=base.allocation)
    return results


@pytest.mark.parametrize("seed", range(1, 9))
def test_grid_b4_realloc_node_counts_pinned(seed):
    for env, res in _grid_b4_results(seed).items():
        nodes, owners, maxmin = _GRID_B4_PINS[seed, env]
        assert res.proven_optimal
        assert res.nodes_explored == nodes
        assert res.allocation.owner_vector() == owners
        assert res.maxmin.hex() == maxmin


# ---------------------------------------------------------------------------
# node counts at five and six links, and the needy-set bound
# ---------------------------------------------------------------------------

# per link count n, the nodes of a uniform and of a near-equal draw on 12
# channels at b = 3, 5, 7 and 12
_FIVE_SIX_LINK_NODES = {
    (5, "uniform"): [640, 1267, 2298, 499],
    (5, "near-equal"): [1220, 13872, 4455, 7922],
    (6, "uniform"): [213, 1741, 1097, 1506],
    (6, "near-equal"): [2240, 5458, 6741, 12964],
}


@pytest.mark.parametrize("n, kind", sorted(_FIVE_SIX_LINK_NODES))
def test_subset_bound_node_counts_pinned(n, kind):
    rng = np.random.default_rng(n)
    draws = {"uniform": rng.uniform(0, 1, size=(n, 12)),
             "near-equal": 1 + rng.integers(0, 4, size=(n, 12)) * 1e-6}
    nodes = [solve(_instance(draws[kind], b)).nodes_explored
             for b in (3, 5, 7, 12)]
    assert nodes == _FIVE_SIX_LINK_NODES[n, kind]


def test_small_capacity_beside_a_huge_one_matches_oracle():
    # with link 1 at rate 1 and link 0 at 1 - t, channel 2's t lifts the
    # pair's average to the incumbent 1; a bound that took t from the
    # suffix sums (t + 2^40) - 2^40 = 0 would fall below it and prune
    t = 2.0 ** -20
    cap = [[0, 1 - t, t, 0, 2.0 ** 40], [1, 0, 0, 0, 0]]
    warm = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    for b in range(1, 6):
        inst = _instance(cap, b)
        oracle = brute_force(inst)
        for res in (solve(inst), solve(inst, warm_start=warm)):
            assert res.proven_optimal
            assert (res.allocation.owner_vector()
                    == oracle.allocation.owner_vector())
            assert res.maxmin.hex() == oracle.maxmin.hex()


@pytest.mark.parametrize("n", [5, 6])
def test_subset_bounds_match_oracle(n, slice_nodes):
    rng = np.random.default_rng(900 + n)
    for case in range(30):
        m = int(rng.integers(3, 7))
        kind = case % 3
        if kind == 0:
            cap = rng.uniform(0, 1, size=(n, m))
        elif kind == 1:
            cap = 1 + rng.integers(0, 4, size=(n, m)) * 1e-6
        else:
            cap = (rng.uniform(0, 1, size=(n, m))
                   * 10.0 ** rng.integers(-25, 1, size=(n, m)))
        _assert_matches_oracle(_instance(cap, int(rng.integers(1, m + 1))))


# per link count n, the nodes of a uniform draw and, for n <= 3, a draw of
# tenths that tie often, on 12 channels at b = 1, 6 and 12
_LINK_COUNT_NODES = {
    (1, "uniform"): [31, 35, 12],
    (1, "tenths"): [59, 75, 13],
    (2, "uniform"): [109, 49, 43],
    (2, "tenths"): [290, 182, 201],
    (3, "uniform"): [474, 162, 171],
    (3, "tenths"): [930, 1278, 2687],
    (7, "uniform"): [2775, 10867, 3601],
    (8, "uniform"): [2458, 7410, 2368],
}


@pytest.mark.parametrize("n, kind", sorted(_LINK_COUNT_NODES))
def test_link_count_node_counts_pinned(n, kind):
    rng = np.random.default_rng(100 + n)
    draws = {"uniform": rng.uniform(0, 1, size=(n, 12)),
             "tenths": rng.integers(0, 4, size=(n, 12)) * 0.1}
    nodes = [solve(_instance(draws[kind], b)).nodes_explored
             for b in (1, 6, 12)]
    assert nodes == _LINK_COUNT_NODES[n, kind]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_link_count_matches_oracle(n):
    # the bound test at every link count, on at most 6e4 oracle leaves
    rng = np.random.default_rng(1300 + n)
    m_max = max(m for m in range(2, 9) if (n + 1) ** m <= 60_000)
    for case in range(9):
        m = int(rng.integers(2, m_max + 1))
        kind = case % 3
        if kind == 0:
            cap = rng.uniform(0, 1, size=(n, m))
        elif kind == 1:
            cap = rng.integers(0, 4, size=(n, m)) * 0.1
        else:
            cap = 1 + rng.integers(0, 4, size=(n, m)) * 1e-6
        _assert_matches_oracle(_instance(cap, int(rng.integers(1, m + 1))))


def _loop_bound(t, b, rate, lo, hi, held, idx, inc):
    """The bound test of a node written from its definitions: the rule
    that prunes the node, or None. A link's count is the number of
    positions its bitmask in held holds, and every link's gain is capped by
    its best width-b window of unvisited capacities. The needy-set sum is
    the best capacity of any link at each unvisited position, summed from
    position M-1 down."""
    n, m_total = len(rate), len(t.visit)
    last, remaining = m_total - 1, m_total - idx
    slack = inc * 1e-12
    dead = inc - slack
    needy = [l for l in range(n) if rate[l] <= inc]
    needed, reach = 0, -1
    for l in needy:
        count = bin(held[l]).count("1")
        if count:
            e = min(lo[l] + b - 1, last)
            reach = max(reach, t.reach_pos[e])
            sums = t.topk(l, idx, hi[l] - b + 1, e)
            slots = min(len(sums) - 1, b - count)
        else:
            reach = last
            slots = min(b, remaining)
            sums = t.topk(l, idx, t.first[idx], t.final[idx])
        gain = min(sums[slots], t.best_window[l][idx])
        if rate[l] + gain < dead:
            return "link"
        deficit = inc - rate[l] - slack
        if deficit > 0.0:
            k = bisect.bisect_left(sums, deficit, 1, slots + 1)
            if k > slots:
                return "link count"
            needed += k
    if needed > remaining:
        return "count"
    if len(needy) < 2:
        return None
    if needed > max(0, reach - idx + 1):
        return "needy count"
    best = 0.0
    for q in range(m_total - 1, idx - 1, -1):
        best += max(row[q] for row in t.vcap)
    rate_sum = 0.0
    for l in needy:
        rate_sum += rate[l]
    if (rate_sum + best) / len(needy) < dead:
        return "needy average"
    return None


@pytest.mark.parametrize("cap, state, idx, inc, rule", [
    # at depth 2, link 0 holding channel 0 can still reach channel 2 only
    # and needs it, and link 1 holding channel 1 needs channels 2 and 3:
    # three channels for the two positions 2..3 they reach. Channel 4's
    # 10 keeps their average above the incumbent
    ([[1, 0, 1, 0, 10], [0, 1, 0.5, 0.5, 0]],
     ([1.0, 1.0], [0, 1], [0, 1], [0b01, 0b10]), 2, 1.9, "needy count"),
    # at the root each link can still collect 2 and their needs fit, but
    # the best capacities, 2 in all, average 1 over the two links
    ([[1, 1, 0, 0], [1, 1, 0, 0]],
     ([0.0, 0.0], [4, 4], [-1, -1], [0, 0]), 0, 1.5, "needy average"),
])
def test_needy_set_bound_prunes_where_no_link_does(cap, state, idx, inc,
                                                   rule):
    b = 3
    t = solver._at_bound(solver._Tables(_instance(cap, b)), 0, b)
    assert _loop_bound(t, b, *state, idx, inc) == rule
    assert solver._bound(*state, t, b)(idx, inc)
    # with one link above the incumbent no needy set is left to prune
    rate = [inc * 2, state[0][1]]
    assert _loop_bound(t, b, rate, *state[1:], idx, inc) is None
    assert not solver._bound(rate, *state[1:], t, b)(idx, inc)


@pytest.mark.parametrize("n", range(1, 9))
def test_bound_test_matches_its_loops(n):
    # random search states of both visit orders: rates, ranges and held
    # positions from a random partial assignment within the span bound
    rng = np.random.default_rng(1400 + n)
    outcomes = []
    for case in range(4):
        m = int(rng.integers(4, 11))
        if case < 2:
            cap = (rng.uniform(0, 1, size=(n, m)) if case % 2
                   else rng.integers(0, 4, size=(n, m)) * 0.1)
        else:
            # links that rank the channels alike compete for them, so that
            # more needy-set bounds prune
            cap = rng.uniform(0, 1, size=m) * rng.uniform(0.8, 1, size=(n, m))
            if case % 2:
                cap = np.round(cap * 4) * 0.1
        b = int(rng.integers(1, m + 1))
        tables = solver._Tables(_instance(cap, b))
        for order in (0, 1):
            t = solver._at_bound(tables, order, b)
            for _ in range(150):
                idx = int(rng.integers(0, m))
                rate, lo, hi, held = [0.0] * n, [m] * n, [-1] * n, [0] * n
                for p in range(idx):
                    l, c = int(rng.integers(-1, n)), t.visit[p]
                    if l >= 0 and max(hi[l], c) - min(lo[l], c) < b:
                        rate[l] += t.vcap[l][p]
                        lo[l], hi[l] = min(lo[l], c), max(hi[l], c)
                        held[l] |= 1 << p
                # about the smallest link's optimistic rate, so that many
                # states pass the per-link bounds and reach the needy set
                ceiling = min(r + sum(sorted(row[idx:])[::-1][:b])
                              for r, row in zip(rate, t.vcap))
                inc = ceiling * float(rng.uniform(0.5, 1.05))
                bound = solver._bound(rate, lo, hi, held, t, b)
                rule = _loop_bound(t, b, rate, lo, hi, held, idx, inc)
                assert bound(idx, inc) == (rule is not None)
                outcomes.append(rule)
    assert None in outcomes and set(outcomes) != {None}


def test_race_is_deterministic_under_thread_switching(monkeypatch):
    # the two searches share the incumbent and the node count; they must
    # hand over strictly, whatever the interpreter's thread switching, and
    # concurrent solves must not see each other's state
    monkeypatch.setattr(solver, "_SLICE_NODES", 64)
    inst = _grid_instance(5, {"A", "B", "C"}, 7)
    ref = solve(inst)
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, inst) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(saved)
    for res in results:
        assert res.nodes_explored == ref.nodes_explored
        assert res.allocation.owner_vector() == ref.allocation.owner_vector()
        assert res.maxmin.hex() == ref.maxmin.hex()


def test_race_error_in_a_turn_reaches_the_caller(monkeypatch):
    # only largest-first's tables fail, so the error comes from the later
    # turn in which it joins the race
    at_bound = solver._at_bound

    def broken(tables, i, b):
        if i == 1:
            raise RuntimeError("table build failed")
        return at_bound(tables, i, b)

    monkeypatch.setattr(solver, "_at_bound", broken)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="table build failed"):
        solve(_grid_instance(0, {"A", "B", "C"}, 8))
    assert threading.active_count() == threads


@pytest.mark.parametrize("order", [0, 1], ids=["index", "largest-first"])
def test_window_tables_match_their_definition(order, monkeypatch):
    # whole-number capacities, so that every window sum is exact
    rng = np.random.default_rng(812)
    cap = rng.integers(0, 40, size=(3, 9)).astype(float)
    n, m_total = cap.shape
    tables = solver._Tables(_instance(cap))
    # one-node turns, so that both orders search and fill their memos
    monkeypatch.setattr(solver, "_SLICE_NODES", 1)
    assert solve(_instance(cap, 4), tables=tables).proven_optimal

    def topk(row, channels):
        return list(itertools.accumulate(
            sorted((row[m] for m in channels), reverse=True), initial=0.0))

    for b in (1, 2, 4, 9):
        t = solver._at_bound(tables, order, b)
        for l in range(n):
            for p in range(m_total):
                unvisited = t.visit[p:]
                windows = [math.fsum(cap[l][m] for m in unvisited
                                     if s <= m < s + b)
                           for s in range(m_total - b + 1)]
                assert t.best_window[l][p] == max(windows)
    t = tables.order(order)
    # the lists the search built for unanchored links, at the key of every
    # unvisited channel, hold those channels' sums
    built = [key for key in t.memo
             if key[2:] == (t.first[key[1]], t.final[key[1]])]
    assert built
    for l, p, a, e in built:
        assert t.memo[l, p, a, e] == topk(cap[l].tolist(), t.visit[p:])
    assert t.best_suffix[m_total] == 0.0
    for p in range(m_total):
        unvisited = t.visit[p:]
        # the best capacity of any link per unvisited channel, summed
        assert t.best_suffix[p] == math.fsum(cap[:, m].max()
                                             for m in unvisited)
        for l in range(n):
            row = cap[l].tolist()
            tail = t.topk(l, p, t.first[p], t.final[p])
            assert t.topk(l, p, -m_total, 2 * m_total) is tail
            for a in range(-m_total, m_total):
                for e in range(max(a, 0), m_total + 2):
                    got = t.topk(l, p, a, e)
                    assert got == topk(row, [m for m in unvisited
                                             if a <= m <= e])
                    # a window clamped to the unvisited range holds the
                    # same channels, and gives the same list
                    assert got is t.topk(l, p, max(a, t.first[p]),
                                         min(e, t.final[p]))


def test_solver_tables_are_bound_to_their_matrix():
    inst = _grid_instance(0, {"A", "B", "C"}, 5)
    tables = solver._Tables(inst.with_span_bound(12))
    assert solve(inst, tables=tables).maxmin == solve(inst).maxmin
    capacity = inst.capacity.copy()
    capacity[2, 7] *= 1.5
    other = replace(inst, capacity=capacity)
    with pytest.raises(ValidationError, match="another capacity matrix"):
        solve(other, tables=tables)
    with pytest.raises(ValidationError, match="another capacity matrix"):
        solve(inst, tables=solver._Tables(other))


def test_solver_tables_carry_only_a_proven_race_order():
    # largest-first alone at b = M and a budget-truncated race leave the
    # carried order as it was; a race that largest-first completes sets it,
    # and the next race starts with largest-first, saving index order's turn
    inst = _grid_instance(0, {"A", "B", "C"}, 12)
    tables = solver._Tables(inst)
    assert solve(inst, tables=tables).proven_optimal
    assert tables.lead == 0
    inst = inst.with_span_bound(5)
    assert not solve(inst, tables=tables, node_budget=500).proven_optimal
    assert tables.lead == 0
    first = solve(inst, tables=tables)
    assert first.nodes_explored == solve(inst).nodes_explored == 989
    assert tables.lead == 1
    again = solve(inst, tables=tables)
    assert again.nodes_explored == 732
    assert again.maxmin.hex() == first.maxmin.hex()


# ---------------------------------------------------------------------------
# invariants, with the default slices and with one-node slices that make
# index order and largest-first share every solve below b = M
# ---------------------------------------------------------------------------

@pytest.fixture(params=[None, 1], ids=["default-slice", "one-node-slice"])
def slice_nodes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(solver, "_SLICE_NODES", request.param)


def test_power_of_two_scaling_is_exact(slice_nodes):
    rng = np.random.default_rng(404)
    for _ in range(30):
        base_inst = _random_instance(rng, n_range=(2, 3), m_range=(3, 8))
        base = solve(base_inst)
        for k in (-3, 5):
            inst = _instance(base_inst.capacity * 2.0 ** k,
                             base_inst.span_bound)
            res = solve(inst)
            assert res.maxmin == 2.0 ** k * base.maxmin
            assert np.array_equal(res.allocation.entries,
                                  base.allocation.entries)


def test_link_permutation_keeps_maxmin(slice_nodes):
    rng = np.random.default_rng(505)
    for _ in range(30):
        inst = _random_instance(rng, n_range=(2, 3), m_range=(3, 8))
        perm = rng.permutation(inst.num_links)
        permuted = _instance(inst.capacity[perm], inst.span_bound)
        assert solve(permuted).maxmin == solve(inst).maxmin


def test_maxmin_does_not_decrease_in_b(slice_nodes):
    rng = np.random.default_rng(606)
    for _ in range(12):
        inst = _random_instance(rng, n_range=(2, 3), m_range=(4, 8))
        values = [solve(inst.with_span_bound(b)).maxmin
                  for b in range(1, inst.num_channels + 1)]
        assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# the pairwise-exchange rule against the oracle, with the default slices and
# with one-node slices
# ---------------------------------------------------------------------------

def test_exchange_near_equal_capacities_below_m(slice_nodes):
    # a swap that fits both links' current ranges can break the span cap
    # once later channels widen a range, so the rule must test every range
    # the two links can still reach
    near = [[1.000002, 1.000003, 1.000003, 1.000003, 1.000001],
            [1.000003, 1.000001, 1.000002, 1.000002, 1.000001]]
    _assert_matches_oracle(_instance(near, 3))
    rng = np.random.default_rng(707)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(4, 8 if n < 3 else 7))
        cap = 1 + rng.integers(0, 4, size=(n, m)) * 1e-6
        _assert_matches_oracle(_instance(cap, int(rng.integers(2, m))))


def test_exchange_margin_with_tiny_capacities(slice_nodes):
    # capacities near 1e-10 that differ by ~1e-17, beside rates of order 1:
    # a swap between them moves the rates by less than rounding, so it does
    # not beat the original, and a margin relative to the two capacities
    # alone would cut the tie order's optimum; the margin must scale with
    # all capacities
    t0, t1, t2, t3 = (1e-10 * (1 + k * 1e-7) for k in range(4))
    _assert_matches_oracle(_instance([[t3, 2.0, 3.0, t0, t1],
                                      [t0, t1, 2.0, t0, t1]]))
    rng = np.random.default_rng(808)
    for case in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(3, 8 if n < 3 else 7))
        b = m if case % 2 else int(rng.integers(2, m + 1))
        big = rng.integers(1, 4, size=(n, m)) * 1.0
        tiny = 1e-10 * (1 + rng.integers(0, 4, size=(n, m)) * 1e-7)
        cap = np.where(rng.random((n, m)) < 0.5, big, tiny)
        _assert_matches_oracle(_instance(cap, b))


def test_search_depth_margin_suffices():
    # the deepest admitted search runs under a lowered recursion limit
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_STACK_MARGIN + 200)
    try:
        res = solve(_instance(np.ones((1, 200)), b=2))
        with pytest.raises(ValidationError, match="search depth"):
            solve(_instance(np.ones((1, 201)), b=2))
    finally:
        sys.setrecursionlimit(saved)
    assert res.proven_optimal and res.maxmin == 2.0


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
    return SolveResult(allocation=allocation,
                       rates=RateResult(inst.capacity * allocation.entries),
                       proven_optimal=True, nodes_explored=0, wall_time=0.0)


_SHARED = [[1, 0], [1, 0]]


@pytest.mark.parametrize("consume", [
    lambda inst: verify_solution(inst, _forged(inst, _SHARED)),
    lambda inst: evaluate_rates(inst, _SHARED),
    lambda inst: solve(inst, warm_start=_SHARED),
    lambda inst: insert_guardbands(_SHARED, RateResult(inst.capacity)),
    lambda inst: validate_guardbands(_SHARED),
], ids=["forged_result", "evaluate_rates", "warm_start", "insert_guardbands",
        "validate_guardbands"])
def test_shared_channel_rejected_with_one_message(consume):
    # the allocation's constructor refuses it before any consumer runs
    inst = _instance([[1e6, 2e6], [3e6, 4e6]])
    with pytest.raises(ValidationError,
                       match="^allocation shares a channel between links$"):
        consume(inst)


def test_verify_rejects_span_violation():
    inst = _instance([[1e6, 2e6, 3e6]], b=2)
    assert not verify_solution(inst, _forged(inst, [[1, 0, 1]]))


def test_verify_rejects_wrong_rates():
    inst = _instance([[1e6, 2e6]])
    res = solve(inst)
    wrong = RateResult(res.rates.per_channel + res.allocation.entries)
    forged = SolveResult(allocation=res.allocation, rates=wrong,
                         proven_optimal=True, nodes_explored=0, wall_time=0.0)
    assert not verify_solution(inst, forged)
