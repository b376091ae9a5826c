"""Exact branch-and-bound solver for max-min rate channel allocation.

The program solved is the mixed-integer linear program below, with binary
a_lm (link l on channel m, channels 1-based) and capacities c_lm:

    max t  subject to, for every link l and channel m:
        t <= sum_m c_lm * a_lm
        sum_l a_lm <= 1                        (orthogonality)
        hi_l >= m * a_lm,  lo_l <= m * a_lm + M * (1 - a_lm)
        hi_l - lo_l + 1 <= b                   (span cap)

The hi/lo pair linearizes the span's max/min definition; an all-zero row
is feasible with hi = 0 and lo = M.

The search assigns channels in ascending index order; at each channel it
tries giving the channel to one of the links or leaving it unassigned.
Feasibility pruning enforces the per-link span cap incrementally. Bound
pruning uses three admissible (never underestimating) devices:

* per-link optimistic bounds: current rate plus the best the link could
  still collect from span-compatible remaining channels, also capped by
  the number of channels that still fit in its span window;
* subset averages: for any set S of links, the final minimum rate is at
  most the average over S of (current rate + remaining capacity reachable
  by S), where each remaining channel is counted once at the best rate of
  any compatible link in S;
* a counting cut: each link needs some minimum number of remaining
  channels to beat the incumbent, and those needs must fit into the
  remaining channel count (and, per subset, into the channels the subset
  can actually reach).

One dominance rule is applied on top: the "leave unassigned" branch is
skipped whenever some link could absorb the channel without constraining
its own future window (an anchored link whose window still covers the
channel, or an unanchored link whose fresh window would cover the whole
tail). Any completion that wastes such a channel is weakly beaten by
handing the channel to that link, so the optimal value is unaffected.

A subtree is pruned when its value bound falls strictly below the
incumbent, so the optimal value is exact. When the value bound exactly
equals the incumbent the subtree may still hold an equal-value allocation
with a larger total rate, so it is pruned only if an optimistic total-rate
bound also fails to beat the incumbent's total; this keeps the tie order
of `_beats` effective rather than decorative. Exact float equality is rare
off the tie manifolds, so the extra exploration is cheap.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationMatrix,
    ProblemInstance,
    RateResult,
    ValidationError,
    as_allocation,
    evaluate_rates,
    link_rate,
    sequential_sum,
    spectral_span,
)

DEFAULT_NODE_BUDGET = 100_000_000

# Subset-average bounds are enumerated only for small link counts; beyond
# this the per-link bounds and the counting cut still guarantee exactness.
_MAX_SUBSET_LINKS = 6


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exact solve (or of a budget-truncated search)."""

    allocation: AllocationMatrix
    rates: RateResult
    maxmin: float
    proven_optimal: bool
    nodes_explored: int
    wall_time: float


def verify_solution(inst: ProblemInstance, result: SolveResult) -> bool:
    """Independent check of a solve result: orthogonality, span caps, rate
    accounting and max-min consistency. Never raises; False on any defect."""
    try:
        alloc = result.allocation
        if alloc.entries.shape != (inst.num_links, inst.num_channels):
            return False
        if not alloc.is_orthogonal():
            return False
        for l in range(inst.num_links):
            if spectral_span(alloc.entries[l]) > inst.span_bound:
                return False
        expected = inst.capacity * alloc.entries
        if not np.array_equal(result.rates.per_channel, expected):
            return False
        for l in range(inst.num_links):
            if float(result.rates.per_link[l]) != link_rate(
                    inst.capacity[l], alloc.entries[l]):
                return False
        if result.rates.maxmin != min(float(x) for x in result.rates.per_link):
            return False
        if result.maxmin != result.rates.maxmin:
            return False
    except Exception:
        return False
    return True


# ---------------------------------------------------------------------------
# Incumbent bookkeeping
# ---------------------------------------------------------------------------

def _owner_key(owner, n):
    """Row-major flattening of the allocation matrix, for lexicographic ties."""
    return tuple(1 if o == l else 0 for l in range(n) for o in owner)


def _beats(n, value, total, owner, inc_value, inc_total, inc_owner):
    """The tie order every solver applies to a complete allocation: larger
    maxmin, then larger total rate, then the lexicographically smallest
    allocation matrix. Anything beats an absent incumbent (None)."""
    if inc_owner is None:
        return True
    if value != inc_value:
        return value > inc_value
    if total != inc_total:
        return total > inc_total
    return _owner_key(owner, n) < _owner_key(inc_owner, n)


def _metric(owners, cap, n, m_total):
    """(maxmin, total) of an owner vector under the canonical arithmetic."""
    rates = [0.0] * n
    for m in range(m_total):
        l = owners[m]
        if l >= 0:
            rates[l] += cap[l][m]
    return min(rates), sequential_sum(rates)


def _result(inst, owners, proven, nodes, t_start) -> SolveResult:
    """The SolveResult of an owner vector, rates re-evaluated canonically."""
    allocation = AllocationMatrix.from_owner_vector(owners, inst.num_links)
    rates = evaluate_rates(inst, allocation)
    return SolveResult(allocation=allocation,
                       rates=rates,
                       maxmin=rates.maxmin,
                       proven_optimal=proven,
                       nodes_explored=nodes,
                       wall_time=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Warm-start heuristics
# ---------------------------------------------------------------------------

def _block_candidates(n, m_total, b):
    """Contiguous equal blocks assigned to links, all matchings tried."""
    base, extra = divmod(m_total, n)
    sizes = [min(b, base + (1 if i < extra else 0)) for i in range(n)]
    starts, pos = [], 0
    for s in sizes:
        starts.append(pos)
        pos += s
    out = []
    perms = itertools.permutations(range(n)) if n <= 6 else [tuple(range(n))]
    for perm in perms:
        owners = [-1] * m_total
        for i, l in enumerate(perm):
            for m in range(starts[i], starts[i] + sizes[i]):
                owners[m] = l
        out.append(owners)
    return out


def _greedy_candidate(cap, n, m_total, b):
    """Ascending channels, each given to the currently poorest link that can
    still take it without breaking its span window."""
    owners = [-1] * m_total
    rate = [0.0] * n
    lo = [m_total] * n
    for m in range(m_total):
        best = -1
        for l in range(n):
            if lo[l] < m_total and m - lo[l] + 1 > b:
                continue
            if best < 0 or rate[l] < rate[best]:
                best = l
        if best >= 0:
            owners[m] = best
            rate[best] += cap[best][m]
            if lo[best] == m_total:
                lo[best] = m
    return owners


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------

def solve(inst: ProblemInstance, *,
          node_budget: int = DEFAULT_NODE_BUDGET,
          warm_start=None) -> SolveResult:
    """Exactly maximize the minimum link rate subject to orthogonal
    assignment and the per-link span cap.

    Returns a provably optimal allocation unless `node_budget` search nodes
    are exhausted first, in which case the best incumbent is returned with
    proven_optimal=False. Ties between optima are broken deterministically
    (total rate, then lexicographic), so repeated runs agree bit-for-bit.
    """
    t_start = time.perf_counter()
    n, m_total, b = inst.num_links, inst.num_channels, inst.span_bound
    if node_budget < 0:
        raise ValidationError("node_budget must be >= 0")
    cap = [[float(x) for x in row] for row in inst.capacity]

    # --- static tables ------------------------------------------------
    def _topk_cums(values):
        cums = [0.0]
        for v in sorted(values, reverse=True):
            cums.append(cums[-1] + v)
        return cums

    # suf[l][k]: plain float suffix sum of cap[l][k:]
    suf = []
    for l in range(n):
        row = [0.0] * (m_total + 1)
        for k in range(m_total - 1, -1, -1):
            row[k] = row[k + 1] + cap[l][k]
        suf.append(row)
    # best_window[l][k]: best sum of a width-b window starting at or after k
    best_window = []
    for l in range(n):
        row = [0.0] * (m_total + 1)
        best = 0.0
        for k in range(m_total - 1, -1, -1):
            win = suf[l][k] - suf[l][min(k + b, m_total)]
            if win > best:
                best = win
            row[k] = best
        best_window.append(row)
    # win_topk[l][i][e][j]: sum of the j largest capacities of cap[l][i..e]
    win_topk = []
    for l in range(n):
        per_i = []
        for i in range(m_total):
            per_e = [None] * m_total
            for e in range(i, m_total):
                per_e[e] = _topk_cums(cap[l][i:e + 1])
            per_i.append(per_e)
        win_topk.append(per_i)
    # ssuf[mask][k]: suffix sums of the per-channel max over links in mask;
    # mask_topk[mask][k][j]: sum of the j largest of those maxima in [k:]
    use_subsets = 2 <= n <= _MAX_SUBSET_LINKS
    ssuf = None
    mask_topk = {}
    subset_items = []
    if use_subsets:
        ssuf = [[0.0] * (m_total + 1) for _ in range(1 << n)]
        for mask in range(1, 1 << n):
            members = [l for l in range(n) if mask & (1 << l)]
            maxrow = [max(cap[l][k] for l in members) for k in range(m_total)]
            row = ssuf[mask]
            for k in range(m_total - 1, -1, -1):
                row[k] = row[k + 1] + maxrow[k]
            if len(members) >= 2:
                subset_items.append((mask, tuple(members)))
                mask_topk[mask] = [_topk_cums(maxrow[k:])
                                   for k in range(m_total + 1)]

    # --- incumbent ------------------------------------------------------
    candidates = _block_candidates(n, m_total, b)
    candidates.append(_greedy_candidate(cap, n, m_total, b))
    candidates.append([-1] * m_total)
    if warm_start is not None:
        ws = as_allocation(warm_start)
        if ws.entries.shape != (n, m_total):
            raise ValidationError("warm start shape mismatch")
        if not ws.is_orthogonal():
            raise ValidationError("warm start is not orthogonal")
        if any(s > b for s in ws.spans()):
            raise ValidationError("warm start violates the span bound")
        candidates.append(ws.owner_vector())

    best_owner = None
    best_value = best_total = 0.0
    for owners in candidates:
        value, total = _metric(owners, cap, n, m_total)
        if _beats(n, value, total, owners, best_value, best_total, best_owner):
            best_owner = list(owners)
            best_value, best_total = value, total

    # --- DFS ------------------------------------------------------------
    owner = [-1] * m_total
    rate = [0.0] * n
    lo = [m_total] * n
    cnt = [0] * n
    nodes = 0
    e_cache = [0] * n
    k_cache = [0] * n
    slots_cache = [0] * n

    def dfs(idx, rate=rate, lo=lo, cnt=cnt, owner=owner, cap=cap,
            e_cache=e_cache, k_cache=k_cache, slots_cache=slots_cache,
            win_topk=win_topk, best_window=best_window,
            subset_items=subset_items, ssuf=ssuf, mask_topk=mask_topk,
            b=b, n=n, m_total=m_total, use_subsets=use_subsets):
        nonlocal nodes, best_owner, best_value, best_total
        if idx == m_total:
            value, total = min(rate), sequential_sum(rate)
            if _beats(n, value, total, owner, best_value, best_total,
                      best_owner):
                best_owner = owner.copy()
                best_value, best_total = value, total
            return
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExceeded
        inc = best_value
        remaining = m_total - idx
        last = m_total - 1
        # bound sums reorder the additions that produced the incumbent, so
        # equality tests get a relative slack of a few hundred ulps
        slack = inc * 1e-12
        dead = inc - slack

        # per-link bounds plus the counting cut; a subtree whose value
        # bound only ties the incumbent survives just when its optimistic
        # total rate could still beat the incumbent's total
        total_bound = 0.0
        tie_possible = False
        needed = 0
        needy_mask = 0
        none_dominated = False
        for l in range(n):
            r_l = rate[l]
            if lo[l] < m_total:
                e = lo[l] + b - 1
                if e > last:
                    e = last
                e_cache[l] = e
                if e < idx:
                    slots = 0
                    topk = (0.0,)
                else:
                    none_dominated = True
                    slots = b - cnt[l]
                    width = e - idx + 1
                    if width < slots:
                        slots = width
                    topk = win_topk[l][idx][e]
                gain = topk[slots]
            else:
                e_cache[l] = last
                if idx + b >= m_total:
                    none_dominated = True
                slots = b if b < remaining else remaining
                topk = win_topk[l][idx][last]
                gain = topk[slots]
                bw = best_window[l][idx]
                if bw < gain:
                    gain = bw
            slots_cache[l] = slots
            ub_l = r_l + gain
            total_bound += ub_l
            if ub_l < dead:
                return
            if ub_l <= inc:
                tie_possible = True
            if r_l <= inc:
                deficit = inc - r_l - slack
                if deficit > 0.0:
                    j = 1
                    while j <= slots and topk[j] < deficit:
                        j += 1
                    if j > slots:
                        return
                    needed += j
                    k_cache[l] = j
                else:
                    k_cache[l] = 0
                needy_mask |= 1 << l
            else:
                k_cache[l] = 0
        if needed > remaining:
            return
        if tie_possible and total_bound <= best_total:
            return

        # subset averages and subset counting, over needy links only (a
        # subset whose members all exceed the incumbent can never prune,
        # and mixed subsets are dominated by their needy core)
        if use_subsets and needy_mask:
            for mask, members in subset_items:
                if mask & ~needy_mask:
                    continue
                rate_sum = 0.0
                needed_s = 0
                slots_s = 0
                for l in members:
                    rate_sum += rate[l]
                    needed_s += k_cache[l]
                    slots_s += slots_cache[l]
                ordered = sorted(members, key=e_cache.__getitem__)
                reach = e_cache[ordered[-1]] - idx + 1
                if reach < 0:
                    reach = 0
                if needed_s > (reach if reach < slots_s else slots_s):
                    return
                cur_mask = mask
                start = idx
                cap_sum = 0.0
                for l in ordered:
                    e = e_cache[l]
                    if start <= e:
                        srow = ssuf[cur_mask]
                        cap_sum += srow[start] - srow[e + 1]
                        start = e + 1
                    cur_mask &= ~(1 << l)
                    if start >= m_total:
                        break
                cards = slots_s if slots_s < remaining else remaining
                topk_s = mask_topk[mask][idx]
                if len(topk_s) - 1 > cards:
                    capped = topk_s[cards]
                    if capped < cap_sum:
                        cap_sum = capped
                ub_s = (rate_sum + cap_sum) / len(members)
                if ub_s < dead:
                    return
                if ub_s <= inc and total_bound <= best_total:
                    return

        # branch: poorest link first (stable sort keeps index order on
        # ties), unassigned last when not dominated
        order = sorted(range(n), key=rate.__getitem__)
        for l in order:
            if lo[l] < m_total:
                if idx - lo[l] + 1 > b:
                    continue
                old_rate = rate[l]
                owner[idx] = l
                rate[l] = old_rate + cap[l][idx]
                cnt[l] += 1
                dfs(idx + 1)
                rate[l] = old_rate
                cnt[l] -= 1
                owner[idx] = -1
            else:
                owner[idx] = l
                rate[l] = cap[l][idx]
                lo[l] = idx
                cnt[l] = 1
                dfs(idx + 1)
                rate[l] = 0.0
                lo[l] = m_total
                cnt[l] = 0
                owner[idx] = -1
        if not none_dominated:
            dfs(idx + 1)

    proven = True
    try:
        dfs(0)
    except _BudgetExceeded:
        proven = False

    return _result(inst, best_owner, proven, nodes, t_start)
