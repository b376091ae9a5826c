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

The search visits channels one at a time; at each channel it tries giving
the channel to one of the links or leaving it unassigned. Each link keeps
the range [lo, hi] of the (0-based) channel numbers it holds, so the
search runs under any visit order: channel m fits link l iff
max(hi, m) - min(lo, m) + 1 <= b, and the link's final channels lie in a
width-b window starting in [max(0, hi - b + 1), min(lo, M - b)].

Two visit orders are used. Index order is fast on some inputs; largest-
first, descending capacity summed over links (stable on ties), is the
classic remedy for number partitioning (Korf, AIJ 1998 and IJCAI 2009),
which the problem becomes when many near-equal interfered channels must
be shared. Neither wins everywhere below b = M, so the two race in turns
of `_SLICE_NODES` nodes (an algorithm portfolio, Gomes & Selman, AIJ
2001), each resumed where its last turn ended and sharing the best
allocation found so far, until one completes; it proves the result. Each
search is a generator that yields when its turn is over, so both run in
the caller's thread, one at a time. Largest-first gathers a link's window
top-k sums from its unvisited channels and keeps each gathered list for
the later nodes that ask for the same window (see `_largest_first`).

A turn goes to the search that looks closer to done, by Knuth's estimate
(Math. Comp. 1975) of the finished share d of its tree: the root weighs
1, a node splits its weight evenly over the children it searches, and a
leaf, a pruned node or a childless node finishes its own weight. A node
lists its children before it searches the first, so d is read off the
path when a turn ends. A search that has used u nodes has an estimated
u (1 - d) / d left, infinitely many while d = 0. Index order runs first,
alone while its estimate stays within `_LEAD` turns, so a solve it
settles there builds no largest-first table. Otherwise a largest-first
search joins and takes the next turn. From then on each turn goes to the
search with fewer nodes left, but no search may get more than `_LEAD`
times the other's nodes (at least one turn) ahead. The estimate reads
only node counts and the search path, so the turns and node counts are
deterministic. `node_budget` caps the nodes of all turns together. Where
one order is much faster, the race costs up to about (`_LEAD` + 1) times
its nodes, plus two turns. At b >= M no window binds and largest-first
runs alone.

The result is still exact and bit-identical whichever order finishes: a
completed search has visited, or soundly pruned, every allocation that
could beat the shared incumbent, and every leaf is mapped back to index
order and ranked by `_beats` on the original capacities, with the
canonical arithmetic. Feasibility pruning enforces the per-link span cap
incrementally. Bound pruning uses three admissible (never
underestimating) devices:

* per-link optimistic bounds: current rate plus the best the link could
  still collect from the unvisited channels of its feasible windows, also
  capped by the number of channels that still fit in its span window;
* subset averages: for any set S of links, the final minimum rate is at
  most the average over S of (current rate + remaining capacity reachable
  by S), where each remaining channel is counted once at the best rate of
  any compatible link in S;
* a counting cut: each link needs some minimum number of remaining
  channels to beat the incumbent, and those needs must fit into the
  remaining channel count (and, per subset, into the channels the subset
  can actually reach).

A subtree is pruned only when a value bound falls below the incumbent by
more than a relative slack of 1e-12. Bounds add capacities in another
order than the leaves, so a leaf can exceed its subtree's bound by an
ulp, and a subtree whose bound only ties the incumbent is searched.

A subset average is evaluated in full only when a cheap pre-test fails.
The subset's capacity bound is at least each member's gain (the per-link
bound less the link's rate): its suffix-sum segments cover every position
the member reaches with the member in their mask, and its top-k cap takes
at least as many per-channel maxima as the member has slots. So when the
members' rates plus the largest gain reach the subset's size times the
pruning threshold (the incumbent less the slack), plus the margin of the
dominance rules below, the average cannot prune: that margin lies far
above the rounding of these sums, at most about M ulps of the total
capacity. The pre-test clears only subsets that could never have pruned,
so every prune, and every node count, is as without it.

Two dominance rules are applied on top. Each skips a branch only when
every completion of it is beaten, under `_beats`, by a feasible
allocation elsewhere; the unique best allocation is beaten by none, so no
rule ever cuts its path. Both rely on a margin of 1e-9 times the sum of
all capacities: it lies far above the rounding of any rate or total sum,
so a change by more than the margin moves the canonical sums too. A
capacity or a difference within it may round away, and is left to the
tie order (which, for instance, prefers a channel unassigned).

* Leave unassigned: the branch is skipped whenever some link with a
  capacity above the margin on the channel can take it without losing a
  window start that could still hold a later channel, i.e. when
  min(lo, M - b, u_max) <= m <= max(b - 1, hi, u_min), with
  [u_min, u_max] the range of the channels visited after m (in index
  order: an anchored link whose window still covers m, or an unanchored
  link whose fresh window would cover the whole tail). Handing the
  channel to that link raises its rate, and so the total.
* Pairwise exchange, the dominance criterion of bin completion (Martello
  & Toth, "Knapsack Problems", 1990; Korf, IJCAI 2003): giving channel m
  to link l is skipped when an earlier-visited channel x held by another
  link o would be worth more than m to l, and m more than x to o, each by
  more than the margin, and the swap keeps both links within b in every
  completion. The swap then raises both links' rates, so it keeps the
  minimum and raises the total. A margin relative to the two capacities
  alone would let a swap of tiny capacities round away and cut the tie
  order's optimum. The span test bounds what later channels can add: a
  link holding [lo, hi] can still reach up to
  hi' = max(hi, min(u_max, lo + b - 1)) and down to
  lo' = min(lo, max(u_min, hi - b + 1)), so a channel x fits it in every
  completion when hi' - b < x < lo' + b; at b >= M every swap fits. Each
  link's held positions are a bitmask, and each visit order keeps, per
  position and link, the bitmasks of the positions the link prefers by
  more than the margin and of those it prefers less. A node then costs
  one AND per link, a branch one more, and the span test runs only on
  the surviving bits.

The search recurses once per channel, a chain of generators that counts
against the interpreter's recursion limit as calls do, so instances with
more channels than that limit allows, less `_STACK_MARGIN` frames, are
rejected before any table is built.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

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

# Stack frames left to the caller when the search recurses once per channel.
_STACK_MARGIN = 200

# Below b = M, index order and largest-first take turns of this many nodes,
# index order first.
_SLICE_NODES = 256

# Largest-first joins once index order's estimate of the nodes it has left
# exceeds this many turns, and no search may get more than this many times
# the other's nodes (at least one turn) ahead.
_LEAD = 4


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
# Visit orders
# ---------------------------------------------------------------------------

class _PerDepth(dict):
    """A table whose row for a depth is built by `build(depth)` on first
    use, so set-up pays only for the depths a search reaches."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, depth):
        row = self[depth] = self._build(depth)
        return row


def _topk_cums(values):
    """[0, v1, v1 + v2, ...] over the values sorted largest first."""
    return list(itertools.accumulate(sorted(values, reverse=True),
                                     initial=0.0))


def _unvisited_range(visit):
    """first[p], final[p]: the lowest and highest channel at positions
    p..M-1 of the visit order; M and -1 at p = M."""
    m_total = len(visit)
    first = itertools.accumulate(reversed(visit), min, initial=m_total)
    final = itertools.accumulate(reversed(visit), max, initial=-1)
    return list(first)[::-1], list(final)[::-1]


def _order(visit, vcap, n, m_total, b, tail_topk, best_window, window_topk):
    """The tables one visit order's search reads. Depth p decides channel
    visit[p], and the channels still unvisited there sit at positions
    p..M-1; vcap is the capacity matrix with its columns in visit order.

    tail_topk[l][p][j]: sum of the j largest of link l's unvisited
    capacities; best_window[l][p]: the best sum of unvisited capacities in
    one width-b window; window_topk(l, p, a, e): the sums of the j largest
    unvisited capacities in channels a..e, for j = 0 up to their number or
    at least up to b; reach_pos[e]: the last position of a channel numbered
    at most e; dom_lo[p]/dom_hi[p]: the "leave unassigned" dominance
    limits; u_min[p]/u_max[p]: the lowest and highest channel visited after
    depth p; margin, exchange and below: the dominance margin and the
    pairwise-exchange bitmasks; ssuf/mask_topk: the subset tables.
    `_index_order` and `_largest_first` supply the first three."""
    last = m_total - 1
    position = [0] * m_total
    for p, m in enumerate(visit):
        position[m] = p
    reach_pos = list(itertools.accumulate(position, max))
    # giving channel visit[p] to a link never costs a completion when the
    # link's feasible window starts that can still hold a later channel stay
    # feasible; those starts lie within the later channels' index range
    first, final = _unvisited_range(visit)
    dom_lo = [min(m_total - b, final[p + 1]) for p in range(m_total)]
    dom_hi = [max(b - 1, first[p + 1]) for p in range(m_total)]
    # pairwise exchange: exchange[p] = (better, worse), where better[l]
    # holds bit q when link l gains more than the margin by holding channel
    # visit[q] instead of visit[p], and worse[l] bit q when it loses more;
    # a depth's row is built on its first visit
    margin = 1e-9 * math.fsum(itertools.chain.from_iterable(vcap))
    ranks = []
    for row in vcap:
        # ascending capacities, and the positions of the k smallest
        ranked = sorted(range(m_total), key=row.__getitem__)
        smallest = list(itertools.accumulate((1 << q for q in ranked),
                                             operator.or_, initial=0))
        ranks.append((row, [row[q] for q in ranked], smallest))

    def exchange_row(p):
        better, worse = [], []
        for row, ascending, smallest in ranks:
            c = row[p]
            better.append(smallest[-1] ^ smallest[
                bisect.bisect_right(ascending, c + margin)])
            worse.append(smallest[bisect.bisect_left(ascending, c - margin)])
        return better, worse

    # below[c] holds the positions of the channels numbered under c
    below = list(itertools.accumulate((1 << p for p in position),
                                      operator.or_, initial=0))
    # ssuf[mask][p]: suffix sums of the per-channel max over links in mask;
    # mask_topk[mask][p][j]: sum of the j largest of those maxima in [p:]
    ssuf = None
    mask_topk = {}
    if 2 <= n <= _MAX_SUBSET_LINKS:
        ssuf = [[0.0] * (m_total + 1) for _ in range(1 << n)]
        for mask in range(1, 1 << n):
            rows = [vcap[l] for l in range(n) if mask & (1 << l)]
            # rows[0] twice, so that max gets two arguments for one row
            maxrow = list(map(max, rows[0], *rows))
            row = ssuf[mask]
            for k in range(last, -1, -1):
                row[k] = row[k + 1] + maxrow[k]
            if len(rows) >= 2:
                mask_topk[mask] = [_topk_cums(maxrow[k:])
                                   for k in range(m_total + 1)]
    return SimpleNamespace(visit=visit, position=position, vcap=vcap,
                           tail_topk=tail_topk, best_window=best_window,
                           window_topk=window_topk, reach_pos=reach_pos,
                           dom_lo=dom_lo, dom_hi=dom_hi, u_min=first[1:],
                           u_max=final[1:], exchange=_PerDepth(exchange_row),
                           below=below, margin=margin, ssuf=ssuf,
                           mask_topk=mask_topk)


def _index_order(cap, n, m_total, b):
    """Channels in index order. The channels a link can still reach are then
    one run idx..e of the index, so window top-k sums are a table."""
    last = m_total - 1
    # suf[l][k]: plain float suffix sum of cap[l][k:]
    suf = []
    for l in range(n):
        row = [0.0] * (m_total + 1)
        for k in range(last, -1, -1):
            row[k] = row[k + 1] + cap[l][k]
        suf.append(row)
    # best_window[l][k]: best sum of a width-b window starting at or after k
    best_window = []
    for l in range(n):
        row = [0.0] * (m_total + 1)
        best = 0.0
        for k in range(last, -1, -1):
            win = suf[l][k] - suf[l][min(k + b, m_total)]
            if win > best:
                best = win
            row[k] = best
        best_window.append(row)
    # win_topk[l][i][e]: sum of the j largest capacities of cap[l][i..e],
    # built only where the search reads it: e - i < b (an anchored window)
    # and e = M - 1 (the tail)
    win_topk = []
    for l in range(n):
        row = cap[l]
        per_i = []
        for i in range(m_total):
            per_e = [None] * m_total
            for e in range(i, min(i + b, last)):
                per_e[e] = _topk_cums(row[i:e + 1])
            per_e[last] = _topk_cums(row[i:])
            per_i.append(per_e)
        win_topk.append(per_i)
    tail_topk = [[per_e[last] for per_e in per_i] for per_i in win_topk]
    empty = (0.0,)

    def window_topk(l, idx, a, e):
        return win_topk[l][idx][e] if e >= idx else empty

    return _order(list(range(m_total)), cap, n, m_total, b, tail_topk,
                  best_window, window_topk)


def _largest_first(cap, n, m_total, b):
    """Channels in descending order of their capacity summed over links
    (stable on ties). The unvisited channels are scattered over the index,
    so window top-k sums are gathered from each link's unvisited channels
    sorted by capacity: O(N·M²) tables. A gathered list is kept for every
    later node that asks for the same (link, depth, window); an anchored
    link's window is set by its range [lo, hi], one of at most M·b, so the
    memo holds at most N·M²·b lists of at most b + 1 sums. It belongs to
    these tables, so it lives as long as the one search that reads them."""
    col_sums = [sequential_sum(cap[l][m] for l in range(n))
                for m in range(m_total)]
    visit = sorted(range(m_total), key=col_sums.__getitem__, reverse=True)
    vcap = [[row[m] for m in visit] for row in cap]
    last = m_total - 1
    # ranked[l][p]: the channels at positions p..M-1, largest capacity
    # first, and tail_topk[l][p] their running sums
    tail_topk, ranked = [], []
    for l in range(n):
        desc, neg, chans = [], [], []
        tops, ranks = [None] * m_total, [None] * m_total
        for p in range(last, -1, -1):
            c = vcap[l][p]
            i = bisect.bisect_right(neg, -c)
            neg.insert(i, -c)
            desc.insert(i, c)
            chans.insert(i, visit[p])
            tops[p] = list(itertools.accumulate(desc, initial=0.0))
            ranks[p] = chans[:]
        tail_topk.append(tops)
        ranked.append(ranks)
    # best_window[l][p]: the best width-b window sum of the capacities at
    # positions p..M-1, each window summed from position M-1 down
    starts = m_total - b + 1
    best_window = []
    for row in vcap:
        wins = [0.0] * starts
        best = [0.0] * (m_total + 1)
        for p in range(last, -1, -1):
            m = visit[p]
            for s in range(max(0, m - b + 1), min(m, starts - 1) + 1):
                wins[s] += row[p]
            best[p] = max(wins)
        best_window.append(best)
    first, final = _unvisited_range(visit)
    memo = {}

    def window_topk(l, idx, a, e):
        if a <= first[idx] and final[idx] <= e:
            return tail_topk[l][idx]
        key = (l, idx, a, e)
        cums = memo.get(key)
        if cums is None:
            row = cap[l]
            cums = memo[key] = [0.0]
            total = 0.0
            for m in ranked[l][idx]:
                if a <= m <= e:
                    total += row[m]
                    cums.append(total)
                    if len(cums) > b:
                        break
        return cums

    return _order(visit, vcap, n, m_total, b, tail_topk, best_window,
                  window_topk)


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
    max_channels = sys.getrecursionlimit() - _STACK_MARGIN
    if m_total > max_channels:
        raise ValidationError(
            f"num_channels={m_total} exceeds the search depth limit of "
            f"{max_channels} (recursion limit {sys.getrecursionlimit()} "
            f"minus {_STACK_MARGIN} frames for the caller)")
    cap = [[float(x) for x in row] for row in inst.capacity]

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
    # a window wider than the band is the band: b is clamped to M
    b = min(b, m_total)
    last = m_total - 1
    nodes = 0
    stop_at = node_budget

    def search(t):
        """One complete DFS over the tables t of a visit order, sharing the
        incumbent, as a generator that yields the estimated finished share
        of its tree whenever the node count passes stop_at."""
        # owner[p] is the owner of channel visit[p]; [lo, hi] is the range
        # of channel numbers a link holds (lo = M, hi = -1 while it holds none)
        owner = [-1] * m_total
        rate = [0.0] * n
        lo = [m_total] * n
        hi = [-1] * n
        cnt = [0] * n
        # held[l]: the positions link l holds, one bit each
        held = [0] * n
        e_cache = [0] * n
        k_cache = [0] * n
        slots_cache = [0] * n
        gain_cache = [0.0] * n
        # subsets_of[needy]: the subsets with a subset bound whose members
        # are all needy, with their members and size
        subsets = [(mask, tuple(l for l in range(n) if mask & (1 << l)))
                   for mask in t.mask_topk]
        subsets_of = [[(mask, members, len(members))
                       for mask, members in subsets if mask & needy == mask]
                      for needy in range(1 << n)] if subsets else []

        # kids[p]: the children of the node at depth p, in search order:
        # the links it gives channel visit[p] to, then -1 if it also leaves
        # the channel unassigned
        kids = [None] * m_total

        def dfs(idx, rate=rate, lo=lo, hi=hi, cnt=cnt, held=held,
                owner=owner, kids=kids, cap=t.vcap, cap_index=cap,
                visit=t.visit, position=t.position, e_cache=e_cache,
                k_cache=k_cache, slots_cache=slots_cache,
                gain_cache=gain_cache, tail_topk=t.tail_topk,
                best_window=t.best_window, window_topk=t.window_topk,
                reach_pos=t.reach_pos, dom_lo=t.dom_lo, dom_hi=t.dom_hi,
                u_min=t.u_min, u_max=t.u_max, exchange=t.exchange,
                margin=t.margin, below=t.below, subsets_of=subsets_of,
                ssuf=t.ssuf, mask_topk=t.mask_topk, b=b, n=n, m_total=m_total,
                last=last, bisect_left=bisect.bisect_left):
            nonlocal nodes, best_owner, best_value, best_total
            if idx == m_total:
                owners = [owner[p] for p in position]
                value, total = _metric(owners, cap_index, n, m_total)
                if _beats(n, value, total, owners, best_value, best_total,
                          best_owner):
                    best_owner = owners
                    best_value, best_total = value, total
                return
            nodes += 1
            if nodes > stop_at:
                yield idx
            inc = best_value
            remaining = m_total - idx
            # bound sums reorder the additions that produced the incumbent,
            # so equality tests get a relative slack of a few hundred ulps
            slack = inc * 1e-12
            dead = inc - slack

            # per-link bounds plus the counting cut
            needed = 0
            needy_mask = 0
            for l in range(n):
                r_l = rate[l]
                if cnt[l]:
                    # the link's windows start in [hi-b+1, lo], so it can
                    # still reach channels hi-b+1..e, at most b - cnt of them
                    e = lo[l] + b - 1
                    if e > last:
                        e = last
                    e_cache[l] = reach_pos[e]
                    free = b - cnt[l]
                    topk = window_topk(l, idx, hi[l] - b + 1, e)
                    slots = len(topk) - 1
                    if slots > free:
                        slots = free
                    gain = topk[slots]
                else:
                    e_cache[l] = last
                    slots = b if b < remaining else remaining
                    topk = tail_topk[l][idx]
                    gain = topk[slots]
                    bw = best_window[l][idx]
                    if bw < gain:
                        gain = bw
                slots_cache[l] = slots
                gain_cache[l] = gain
                if r_l + gain < dead:
                    return
                if r_l <= inc:
                    deficit = inc - r_l - slack
                    if deficit > 0.0:
                        # topk is nondecreasing: capacities are >= 0
                        j = bisect_left(topk, deficit, 1, slots + 1)
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

            # subset averages and subset counting, over needy links only (a
            # subset whose members all exceed the incumbent can never prune,
            # and mixed subsets are dominated by their needy core)
            if needy_mask and subsets_of:
                for mask, members, size in subsets_of[needy_mask]:
                    rate_sum = 0.0
                    needed_s = 0
                    slots_s = 0
                    e_max = -1
                    g_max = 0.0
                    for l in members:
                        rate_sum += rate[l]
                        needed_s += k_cache[l]
                        slots_s += slots_cache[l]
                        e = e_cache[l]
                        if e > e_max:
                            e_max = e
                        gain = gain_cache[l]
                        if gain > g_max:
                            g_max = gain
                    reach = e_max - idx + 1
                    if reach < 0:
                        reach = 0
                    if needed_s > (reach if reach < slots_s else slots_s):
                        return
                    # the subset's capacity bound is at least any member's
                    # gain, so this average cannot fall below dead (see the
                    # module docstring)
                    if rate_sum + g_max >= size * dead + margin:
                        continue
                    ordered = sorted(members, key=e_cache.__getitem__)
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
                    if (rate_sum + cap_sum) / size < dead:
                        return

            # branch: poorest link first (stable sort keeps index order on
            # ties), the channel fitting when the link's range stays within
            # b; unassigned last, unless some link with a capacity above
            # the margin takes the channel without losing a usable window
            # start
            m = visit[idx]
            none_dominated = False
            d_lo = dom_lo[idx]
            d_hi = dom_hi[idx]
            # pairwise exchange. A link with range [lo, hi] can still reach
            # up to hi' = max(hi, min(u_hi, lo + b - 1)) and down to
            # lo' = min(lo, max(u_lo, hi - b + 1)), with [u_lo, u_hi] the
            # range of the unvisited channels, so a channel x fits it in
            # every completion when hi' - b < x < lo' + b. swappable: the
            # positions whose owner would rather have m, and which m fits
            # in every completion
            u_lo = u_min[idx]
            u_hi = u_max[idx]
            swappable = 0
            wanted, wants_m = exchange[idx]
            for o in range(n):
                swaps = held[o] & wants_m[o]
                if swaps and b < m_total:
                    lo_o = lo[o]
                    hi_o = hi[o]
                    reach = lo_o + b - 1
                    if reach > u_hi:
                        reach = u_hi
                    if reach < hi_o:
                        reach = hi_o
                    if m <= reach - b:
                        continue
                    reach = hi_o - b + 1
                    if reach < u_lo:
                        reach = u_lo
                    if reach > lo_o:
                        reach = lo_o
                    if m >= reach + b:
                        continue
                swappable |= swaps
            branch = []
            for l in sorted(range(n), key=rate.__getitem__):
                lo_l = lo[l]
                hi_l = hi[l]
                new_lo = m if m < lo_l else lo_l
                new_hi = m if m > hi_l else hi_l
                if new_hi - new_lo >= b:
                    continue
                c = cap[l][idx]
                if (not none_dominated and c > margin
                        and (m >= lo_l or m >= d_lo)
                        and (m <= hi_l or m <= d_hi)):
                    none_dominated = True
                # l would rather hold some swappable channel x that fits it
                # in every completion: swapping x and m raises both links'
                # rates, so the swap beats every completion of this branch
                swaps = swappable & wanted[l]
                if swaps and b < m_total:
                    reach = new_lo + b - 1
                    if reach > u_hi:
                        reach = u_hi
                    if reach < new_hi:
                        reach = new_hi
                    x_lo = reach - b + 1
                    reach = new_hi - b + 1
                    if reach < u_lo:
                        reach = u_lo
                    if reach > new_lo:
                        reach = new_lo
                    x_hi = reach + b
                    if x_lo < 0:
                        x_lo = 0
                    if x_hi > m_total:
                        x_hi = m_total
                    swaps &= below[x_hi] ^ below[x_lo]
                if not swaps:
                    branch.append(l)
            # the children are listed before the first is searched, so the
            # finished share of the tree can be read off the path; -1
            # leaves the channel unassigned
            if not none_dominated:
                branch.append(-1)
            kids[idx] = branch
            for l in branch:
                owner[idx] = l
                if l < 0:
                    yield from dfs(idx + 1)
                    break
                lo_l = lo[l]
                hi_l = hi[l]
                old_rate = rate[l]
                old_held = held[l]
                rate[l] = old_rate + cap[l][idx]
                lo[l] = m if m < lo_l else lo_l
                hi[l] = m if m > hi_l else hi_l
                cnt[l] += 1
                held[l] = old_held | 1 << idx
                yield from dfs(idx + 1)
                rate[l] = old_rate
                lo[l] = lo_l
                hi[l] = hi_l
                cnt[l] -= 1
                held[l] = old_held

        try:
            for depth in dfs(0):
                # Knuth's estimate of the finished share of the tree: the
                # root weighs 1, and each node splits its weight evenly over
                # its children; the children left of the path are finished
                done = 0.0
                weight = 1.0
                for p in range(depth):
                    branch = kids[p]
                    weight /= len(branch)
                    done += weight * branch.index(owner[p])
                yield done
        finally:
            # dfs refers to itself; breaking that cycle frees the search's
            # state and tables when it ends, not at a later full collection
            dfs = None

    # the race of the module docstring (largest-first alone at b >= M):
    # used[i] nodes so far and left[i] estimated nodes to go, for index
    # order (0) and largest-first (1)
    turn = max(_SLICE_NODES, 1)
    if b >= m_total:
        runs = [search(_largest_first(cap, n, m_total, b))]
    else:
        runs = [search(_index_order(cap, n, m_total, b))]
    used = [0, 0]
    left = [math.inf, math.inf]
    i = 0
    proven = False
    while True:
        start = nodes
        stop_at = min(start + turn, node_budget)
        try:
            done = next(runs[i])
        except StopIteration:
            proven = True
            break
        if nodes > node_budget:
            break
        used[i] += nodes - start
        left[i] = used[i] * (1.0 - done) / done if done > 0.0 else math.inf
        if len(runs) == 1:
            if b < m_total and left[0] > _LEAD * turn:
                runs.append(search(_largest_first(cap, n, m_total, b)))
                i = 1
            continue
        i = 0 if left[0] <= left[1] else 1
        if used[i] >= _LEAD * max(used[1 - i], turn):
            i = 1 - i

    return _result(inst, best_owner, proven, nodes, t_start)
