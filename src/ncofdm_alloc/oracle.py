"""Exhaustive ground-truth solver, a cross-check for the tests.

Every channel is tried against every link (and against "unassigned"), so
the result is the global optimum by construction. The span cap is applied
incrementally during enumeration, which is what makes moderately sized
instances tractable; anything bigger than the configured assignment budget
is rejected up front.

Enumeration order is fixed (channel-major, value order: unassigned, link 1,
..., link N), and each complete assignment is ranked by the solver's own
tie order (`solver._beats`), so both report the same max-min value on the
same instance, computed with the same arithmetic. No product path calls
this module.
"""

from __future__ import annotations

import time

from .model import ProblemInstance, sequential_sum
from .solver import SolveResult, _beats, _result

DEFAULT_ASSIGNMENT_BUDGET = 450_000_000


class EnumerationBudgetError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def brute_force(inst: ProblemInstance, *,
                max_assignments: int = DEFAULT_ASSIGNMENT_BUDGET) -> SolveResult:
    """Enumerate every orthogonal, span-feasible assignment and return the
    max-min optimum.

    `nodes_explored` counts complete assignments reached (with the span cap
    at its maximum nothing is pruned, so the count is (N+1)^M).
    """
    n, m_total, b = inst.num_links, inst.num_channels, inst.span_bound
    total_assignments = (n + 1) ** m_total
    if total_assignments > max_assignments:
        raise EnumerationBudgetError(
            f"(N+1)^M = {total_assignments} exceeds the enumeration budget "
            f"of {max_assignments}")
    t_start = time.perf_counter()
    cap = [[float(x) for x in row] for row in inst.capacity]

    owner = [-1] * m_total
    rate = [0.0] * n
    lo = [m_total] * n
    leaves = 0
    best_owner = None
    best_value = best_total = 0.0

    def rec(idx):
        nonlocal leaves, best_owner, best_value, best_total
        if idx == m_total:
            leaves += 1
            value, total = min(rate), sequential_sum(rate)
            if _beats(n, value, total, owner, best_value, best_total,
                      best_owner):
                best_owner = owner.copy()
                best_value, best_total = value, total
            return
        # value order: unassigned first, then links in index order
        rec(idx + 1)
        for l in range(n):
            if lo[l] < m_total:
                if idx - lo[l] + 1 > b:
                    continue
                old = rate[l]
                owner[idx] = l
                rate[l] = old + cap[l][idx]
                rec(idx + 1)
                rate[l] = old
                owner[idx] = -1
            else:
                owner[idx] = l
                rate[l] = cap[l][idx]
                lo[l] = idx
                rec(idx + 1)
                rate[l] = 0.0
                lo[l] = m_total
                owner[idx] = -1

    rec(0)
    return _result(inst, best_owner, True, leaves, t_start)
