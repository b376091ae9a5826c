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
the caller's thread, one at a time. The two orders share one table
pipeline and differ only in the visit permutation: every per-link bound
reads the sums of the j largest unvisited capacities of a link, within a
window or not, gathered by one memoized function (see `_order`).

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

Several solves of one capacity matrix, such as the span bounds of one
sweep realization, can share a `_Tables` of it. It holds each order's
tables that depend only on the capacities, built on the order's first
use: the visit order and the capacities in it, each link's ranking of
the channels, the memo of top-k sums gathered from them, the suffix sums
of the best capacity per channel, and the reach, unvisited-range and
exchange tables. A search builds only what depends on b: the best window
sums. The object also carries the race order: a race below b = M starts
with the order that completed the last proven race below b = M on it,
and the other joins under the same gate and turn rules (largest-first
alone at b >= M, and a truncated solve, record nothing). A fresh object
starts with index order, and a solve given none builds its own, so a
solve on its own keeps its node count; a shared one changes node counts
only, never a proven result.

The result is still exact and bit-identical whichever order finishes: a
completed search has visited, or soundly pruned, every allocation that
could beat the shared incumbent, and every leaf is mapped back to index
order and ranked by `_beats` on the original capacities, with the
canonical arithmetic that `model.RateResult` applies to derive the
result's per-link rates and its maxmin from its per-channel rates.
Feasibility pruning enforces the per-link span cap incrementally. Bound
pruning uses three admissible (never underestimating) devices:

* per-link optimistic bounds, one rule for every link: a link holding
  c channels in [lo, hi] (lo = M, hi = -1 while it holds none) can still
  reach the unvisited channels numbered hi - b + 1..lo + b - 1, at most
  b - c of them, so its bound is its rate plus the b - c largest
  capacities among them, capped by its best width-b window of unvisited
  capacities, since the channels it gains all lie in one such window;
* a per-link counting cut: each link needs some minimum number of
  remaining channels to beat the incumbent, and those needs must fit into
  the remaining channel count;
* the needy-set bound, over the needy links (those at or below the
  incumbent) when there are two or more: the channels they need together
  must fit into the positions from the current depth up to the furthest
  one any of them can reach (into their slots together they fit, since
  each link's needs fit its own), and the final minimum rate is at most
  their average final rate, so at most their rates plus the sum over the
  unvisited positions of the best capacity of any link, over their count.

A subtree is pruned only when a value bound falls below the incumbent by
more than a relative slack of 1e-12. Bounds add capacities in another
order than the leaves, so a leaf can exceed its subtree's bound by an
ulp, and a subtree whose bound only ties the incumbent is searched. Every
value bound is a float sum of capacities >= 0 (the needy-set bound then
divided by a count), so its rounding error is at most about one ulp of
its value per term, and it sums at most 2M + N terms: about 1.8e-13 of
its value at the 800 channels the default recursion limit allows, inside
the slack. That is why the needy-set bound sums the best capacities over
every unvisited position, from position M-1 down, and takes no
difference of suffix sums to stop at the needy links' furthest reach: a
small capacity t within the reach followed by a large one beyond it
would round away in (t + big) - big, and the bound could fall below its
exact value by an ulp of the total capacity, more than the slack when
the incumbent is small beside it.

A node's bound test (`_bound`) is one closure per search, bound to its
tables and state lists. Per-link bounds are computed only for links at or
below the incumbent. A link above it cannot prune by its own bound, which
is its rate plus a gain >= 0 and so above the pruning threshold, and the
needy-set bound reads only the needy links, so nothing reads its bound.
Skipping it changes no prune.

The first incumbent is the best, under `_beats`, of a few candidates: the
equal contiguous blocks dealt to the links in every order (for up to six
links), the empty allocation and any warm start. A block candidate is
scored from each link's block sums, each summed from 0.0 in channel
order as a leaf's rates are, so its (maxmin, total) are the canonical
ones, and its owner vector is built only to break a tie.

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

A node's entry, its count, the end of a turn past the turn's last node,
and its bound test, runs in its parent's branch loop (the root's in
`search`), and a parent ranks its leaf children there too, so only a
node that branches is a generator. The search recurses once per channel,
a chain of generators that counts against the interpreter's recursion
limit as calls do, so instances with more channels than that limit
allows, less `_STACK_MARGIN` frames, are rejected before any table is
built.
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
    as_int,
    evaluate_rates,
    sequential_sum,
    spectral_span,
)

DEFAULT_NODE_BUDGET = 100_000_000

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
    proven_optimal: bool
    nodes_explored: int
    wall_time: float

    @property
    def maxmin(self) -> float:
        return self.rates.maxmin


def verify_solution(inst: ProblemInstance, result: SolveResult) -> bool:
    """Independent check of a solve result: orthogonality, span caps and
    per-channel rates at capacity (the per-link rates and maxmin are
    derived from those). Never raises; False on any defect."""
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
    return SolveResult(allocation=allocation,
                       rates=evaluate_rates(inst, allocation),
                       proven_optimal=proven,
                       nodes_explored=nodes,
                       wall_time=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Warm-start heuristics
# ---------------------------------------------------------------------------

def _best_block(cap, n, m_total, b):
    """(value, total, owners) of the best, under `_beats`, of the contiguous
    equal blocks assigned to links, all matchings tried. A matching's rates
    are its links' block sums, each summed from 0.0 in channel order as
    `_metric` sums them, so (value, total) equal `_metric`'s; an owner
    vector is built only to break a tie in (value, total), and for the
    result."""
    base, extra = divmod(m_total, n)
    sizes = [min(b, base + (1 if i < extra else 0)) for i in range(n)]
    starts = list(itertools.accumulate(sizes, initial=0))
    # sums[l][i]: link l's rate on block i
    sums = [[sequential_sum(row[starts[i]:starts[i + 1]]) for i in range(n)]
            for row in cap]

    def owners(perm):
        out = [-1] * m_total
        for i, l in enumerate(perm):
            out[starts[i]:starts[i + 1]] = [l] * sizes[i]
        return out

    best = best_key = None
    perms = itertools.permutations(range(n)) if n <= 6 else [tuple(range(n))]
    for perm in perms:
        rates = [0.0] * n
        for i, l in enumerate(perm):
            rates[l] = sums[l][i]
        key = (min(rates), sequential_sum(rates))
        if best is None or key > best_key or (
                key == best_key
                and _beats(n, *key, owners(perm), *best_key, owners(best))):
            best, best_key = perm, key
    return (*best_key, owners(best))


# ---------------------------------------------------------------------------
# Visit orders
# ---------------------------------------------------------------------------

def _unvisited_range(visit):
    """first[p], final[p]: the lowest and highest channel at positions
    p..M-1 of the visit order; M and -1 at p = M."""
    m_total = len(visit)
    first = itertools.accumulate(reversed(visit), min, initial=m_total)
    final = itertools.accumulate(reversed(visit), max, initial=-1)
    return list(first)[::-1], list(final)[::-1]


def _order(cap, visit):
    """The tables of one visit order that depend only on the capacities.
    Depth p decides channel visit[p], and the channels still unvisited
    there sit at positions p..M-1; vcap is the capacity matrix with its
    columns in visit order.

    ranking[l]: link l's positions, best capacity first; topk(l, p, a, e):
    the sums [0, v1, v1 + v2, ...] of link l's capacities at the unvisited
    channels numbered a..e, taken in ranking order, so largest first; memo:
    its lists by (l, p, a, e); best_suffix[p]: the sum over positions
    p..M-1 of the best capacity of any link there, summed from position
    M-1 down; reach_pos[e]: the last position of a channel numbered at
    most e; first[p]/final[p]: the lowest and highest unvisited
    channel at depth p, and u_min[p]/u_max[p] those visited after depth p;
    margin, exchange and below: the dominance margin and the
    pairwise-exchange bitmasks, exchange[p] filled by the search from
    exchange_row(p) on its first visit of depth p, by bisections in each
    link's capacities in ascending order, its ranking reversed.

    The unvisited channels may be scattered over the index, so topk
    gathers them from the ranking, and stops once it has them all: their
    count is that of the window's bits in a bitmask of the unvisited
    channel numbers. It keeps each list for every later node, of any
    search of this order at any span bound, that asks for the same
    channels: the window is clamped to [first[p], final[p]], so windows
    that differ only outside it share one list, and every link that holds
    no channel reads the one list of all unvisited channels. A link's
    window is set by its range [lo, hi], one of at most M·b, so a span
    bound adds at most N·M²·b lists of at most 2b sums, plus one list of
    at most M sums per link and depth."""
    n, m_total = len(cap), len(visit)
    vcap = [[row[m] for m in visit] for row in cap]
    position = [0] * m_total
    for p, m in enumerate(visit):
        position[m] = p
    reach_pos = list(itertools.accumulate(position, max))
    first, final = _unvisited_range(visit)
    ranking = [sorted(range(m_total), key=row.__getitem__, reverse=True)
               for row in vcap]
    # vcap[0] twice, so that max gets two arguments for one link
    best = list(map(max, vcap[0], *vcap))
    best_suffix = list(itertools.accumulate(reversed(best),
                                            initial=0.0))[::-1]
    # unvisited[p]: the channel numbers at positions p..M-1, one bit each
    unvisited = list(itertools.accumulate((1 << m for m in reversed(visit)),
                                          operator.or_, initial=0))[::-1]
    memo = {}

    def topk(l, p, a, e):
        if a < first[p]:
            a = first[p]
        if e > final[p]:
            e = final[p]
        key = (l, p, a, e)
        sums = memo.get(key)
        if sums is None:
            sums = memo[key] = [0.0]
            # the scan stops once it has every unvisited channel a..e
            want = 0
            if a <= e:
                want = ((unvisited[p] >> a) & ((2 << (e - a)) - 1)).bit_count()
            if want:
                row = vcap[l]
                total = 0.0
                for q in ranking[l]:
                    if q >= p and a <= visit[q] <= e:
                        total += row[q]
                        sums.append(total)
                        want -= 1
                        if not want:
                            break
        return sums

    # pairwise exchange: exchange[p] = (better, worse), where better[l]
    # holds bit q when link l gains more than the margin by holding channel
    # visit[q] instead of visit[p], and worse[l] bit q when it loses more;
    # the search fills a depth's row from exchange_row on its first visit
    margin = 1e-9 * math.fsum(itertools.chain.from_iterable(vcap))
    ranks = []
    for row, ranked in zip(vcap, ranking):
        # ascending capacities, and the positions of the k smallest (no
        # bisection below splits a run of equal capacities)
        rising = ranked[::-1]
        smallest = list(itertools.accumulate((1 << q for q in rising),
                                             operator.or_, initial=0))
        ranks.append((row, [row[q] for q in rising], smallest))

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
    return SimpleNamespace(visit=visit, position=position, vcap=vcap,
                           memo=memo, topk=topk,
                           best_suffix=best_suffix,
                           reach_pos=reach_pos, first=first, final=final,
                           u_min=first[1:], u_max=final[1:],
                           exchange=[None] * m_total,
                           exchange_row=exchange_row, below=below,
                           margin=margin)


class _Tables:
    """The solver tables of one capacity matrix that do not depend on the
    span bound, for every solve of that matrix. `order(i)` builds the part
    of visit order i (0 index order, 1 largest-first) on its first use,
    with the memo of top-k sums that its searches at every b share, and
    `_at_bound` the part that depends on b, per search. `lead` is the visit
    order that completed the last proven race below b = M; the next race
    starts with it."""

    def __init__(self, inst: ProblemInstance):
        self.capacity = inst.capacity
        self.cap = [[float(x) for x in row] for row in inst.capacity]
        self.lead = 0
        self._orders = [None, None]

    def order(self, i):
        """Visit order i's shared tables: channels in index order, or in
        descending order of their capacity summed over links (stable on
        ties)."""
        if self._orders[i] is None:
            cap = self.cap
            visit = list(range(len(cap[0])))
            if i:
                col_sums = [sequential_sum(col) for col in zip(*cap)]
                visit.sort(key=col_sums.__getitem__, reverse=True)
            self._orders[i] = _order(cap, visit)
        return self._orders[i]


def _at_bound(tables, i, b):
    """The tables a search of visit order i at span bound b reads: the
    order's shared tables plus best_window[l][p], the best sum of unvisited
    capacities in one width-b window."""
    order = tables.order(i)
    visit = order.visit
    m_total = len(visit)
    # best_window[l][p]: the best width-b window sum of the capacities at
    # positions p..M-1, each window summed from position M-1 down
    starts = m_total - b + 1
    best_window = []
    for row in order.vcap:
        wins = [0.0] * starts
        best = [0.0] * (m_total + 1)
        for p in range(m_total - 1, -1, -1):
            m = visit[p]
            for s in range(max(0, m - b + 1), min(m, starts - 1) + 1):
                wins[s] += row[p]
            best[p] = max(wins)
        best_window.append(best)
    return SimpleNamespace(**vars(order), best_window=best_window)


# ---------------------------------------------------------------------------
# The bound test of a node
# ---------------------------------------------------------------------------

def _bound(rate, lo, hi, held, t, b):
    """The bound test of one search, on its state lists and its tables t:
    bound(idx, inc) is True when the node at depth idx is pruned against
    the incumbent value inc. A link's channel count is the number of bits
    of its held positions, held[l]. It runs the per-link bounds, each
    capped by the link's best window, and the counting cut over the links
    at or below the incumbent, then, when there are two or more of them,
    their needy-set bound (see the module docstring)."""
    m_total = len(t.visit)

    def bound(idx, inc, memo_get=t.memo.get, topk=t.topk, first=t.first,
              final=t.final, reach_pos=t.reach_pos,
              best_window=t.best_window, best_suffix=t.best_suffix,
              bisect_left=bisect.bisect_left):
        remaining = m_total - idx
        slack = inc * 1e-12
        dead = inc - slack
        # the lowest and highest unvisited channel
        f = first[idx]
        fi = final[idx]
        # the needy links' count, needed channels, rates and the last
        # position any of them can reach
        needy = needed = 0
        rate_sum = 0.0
        reach = -1
        for l, r in enumerate(rate):
            if r > inc:
                continue
            # a link holding c channels (the bits of held[l]) has windows
            # starting in [hi - b + 1, lo], so it can still reach channels
            # hi - b + 1..lo + b - 1, at most b - c of them; the channels
            # above fi are visited. An unanchored link (lo = M, hi = -1)
            # reaches every unvisited channel. Either way the channels it
            # gains lie in one width-b window, so its best one caps the gain.
            e = lo[l] + b - 1
            if e > fi:
                e = fi
            a = hi[l] - b + 1
            u = memo_get((l, idx, a if a > f else f, e))
            if u is None:
                u = topk(l, idx, a, e)
            s = len(u) - 1
            free = b - held[l].bit_count()
            if s > free:
                s = free
            g = u[s]
            if best_window[l][idx] < g:
                g = best_window[l][idx]
            e = reach_pos[e]
            if r + g < dead:
                return True
            # the sums are nondecreasing (capacities are >= 0), so a
            # bisection finds the channels the link needs
            deficit = inc - r - slack
            if deficit > 0.0:
                k = bisect_left(u, deficit, 1, s + 1)
                if k > s:
                    return True
                needed += k
                if needed > remaining:
                    return True
            needy += 1
            rate_sum += r
            if e > reach:
                reach = e
        if needy > 1:
            # each link's needs fit its slots, so theirs fit their slots
            # together; they must also fit the positions idx..reach
            if needed and needed > reach - idx + 1:
                return True
            if (rate_sum + best_suffix[idx]) / needy < dead:
                return True
        return False

    return bound


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------

class _CeilingReached(Exception):
    """Raised through the search when the incumbent reaches the ceiling."""


def solve(inst: ProblemInstance, *,
          node_budget: int = DEFAULT_NODE_BUDGET,
          warm_start=None, tables: _Tables | None = None,
          ceiling: float | None = None) -> SolveResult:
    """Exactly maximize the minimum link rate subject to orthogonal
    assignment and the per-link span cap.

    Returns a provably optimal allocation unless `node_budget` search nodes
    are exhausted first, in which case the best incumbent is returned with
    proven_optimal=False. Ties between optima are broken deterministically
    (total rate, then lexicographic), so repeated runs agree bit-for-bit.

    `tables` (a `_Tables` of this instance's capacity matrix, any span
    bound; a ValidationError otherwise) lets several solves of one matrix
    share the tables that do not depend on b, and carries the visit order
    that completed the last proven race into the next. A proven result is
    the same with or without it; without it the solve builds its own, so
    its node count is that of a solve on its own.

    `ceiling`, when given, is a value the caller has proven that no
    allocation at this span bound exceeds, such as the proven optimum at a
    larger bound of the same matrix. The search then ends, proven, at the
    first incumbent that reaches it, a warm start or heuristic included
    (with 0 nodes). Such an incumbent is an optimum, since its maxmin
    cannot lie above the ceiling, but not necessarily the tie-broken one
    that a solve without a ceiling returns; its maxmin is the same float.
    A ceiling above the optimum is never reached and changes nothing, node
    count included. It must be a real number: NaN, a boolean or a string is
    a ValidationError.
    """
    t_start = time.perf_counter()
    n, m_total, b = inst.num_links, inst.num_channels, inst.span_bound
    node_budget = as_int(node_budget, "node_budget")
    if node_budget < 0:
        raise ValidationError("node_budget must be >= 0")
    if ceiling is None:
        ceiling = math.inf
    elif (isinstance(ceiling, bool)
          or not isinstance(ceiling, (int, float, np.integer, np.floating))
          or math.isnan(ceiling)):
        raise ValidationError(f"ceiling must be a number, got {ceiling!r}")
    max_channels = sys.getrecursionlimit() - _STACK_MARGIN
    if m_total > max_channels:
        raise ValidationError(
            f"num_channels={m_total} exceeds the search depth limit of "
            f"{max_channels} (recursion limit {sys.getrecursionlimit()} "
            f"minus {_STACK_MARGIN} frames for the caller)")
    if tables is None:
        tables = _Tables(inst)
    elif not np.array_equal(tables.capacity, inst.capacity):
        raise ValidationError(
            "solver tables were built for another capacity matrix")
    cap = tables.cap

    # --- incumbent ------------------------------------------------------
    best_value, best_total, best_owner = _best_block(cap, n, m_total, b)
    candidates = [[-1] * m_total]
    if warm_start is not None:
        ws = as_allocation(warm_start)
        if ws.entries.shape != (n, m_total):
            raise ValidationError("warm start shape mismatch")
        if not ws.is_orthogonal():
            raise ValidationError("warm start is not orthogonal")
        if any(s > b for s in ws.spans()):
            raise ValidationError("warm start violates the span bound")
        candidates.append(ws.owner_vector())

    for owners in candidates:
        value, total = _metric(owners, cap, n, m_total)
        if _beats(n, value, total, owners, best_value, best_total, best_owner):
            best_owner = list(owners)
            best_value, best_total = value, total
    if best_value >= ceiling:
        return _result(inst, best_owner, True, 0, t_start)

    # --- DFS ------------------------------------------------------------
    nodes = 0
    stop_at = node_budget

    def search(t):
        """One complete DFS over the tables t of a visit order, sharing the
        incumbent, as a generator that yields the estimated finished share
        of its tree whenever the node count passes stop_at."""
        nonlocal nodes
        # owner[p] is the owner of channel visit[p]; [lo, hi] is the range
        # of channel numbers a link holds (lo = M, hi = -1 while it holds none)
        owner = [-1] * m_total
        rate = [0.0] * n
        lo = [m_total] * n
        hi = [-1] * n
        # held[l]: the positions link l holds, one bit each
        held = [0] * n
        bound = _bound(rate, lo, hi, held, t, b)

        # kids[p]: the children of the node at depth p, in search order:
        # the links it gives channel visit[p] to, then -1 if it also leaves
        # the channel unassigned
        kids = [None] * m_total

        def dfs(idx, rate=rate, lo=lo, hi=hi, held=held,
                owner=owner, kids=kids, cap=t.vcap, cap_index=cap,
                visit=t.visit, position=t.position, bound=bound,
                u_min=t.u_min, u_max=t.u_max, exchange=t.exchange,
                exchange_row=t.exchange_row, margin=t.margin,
                below=t.below, b=b, n=n, m_total=m_total):
            """The node at depth idx past its entry, which its parent ran:
            its branching and its children."""
            nonlocal nodes, best_owner, best_value, best_total
            # branch: poorest link first (stable sort keeps index order on
            # ties), the channel fitting when the link's range stays within
            # b; unassigned last, unless some link with a capacity above
            # the margin takes the channel without losing a usable window
            # start
            m = visit[idx]
            u_lo = u_min[idx]
            u_hi = u_max[idx]
            # giving channel m to a link never costs a completion when the
            # link's feasible window starts that can still hold a later
            # channel stay feasible; those starts lie within [u_lo, u_hi]
            none_dominated = False
            d_lo = u_hi if u_hi < m_total - b else m_total - b
            d_hi = u_lo if u_lo > b - 1 else b - 1
            # pairwise exchange. A link with range [lo, hi] can still reach
            # up to hi' = max(hi, min(u_hi, lo + b - 1)) and down to
            # lo' = min(lo, max(u_lo, hi - b + 1)), with [u_lo, u_hi] the
            # range of the unvisited channels, so a channel x fits it in
            # every completion when hi' - b < x < lo' + b. swappable: the
            # positions whose owner would rather have m, and which m fits
            # in every completion
            swappable = 0
            rows = exchange[idx]
            if rows is None:
                rows = exchange[idx] = exchange_row(idx)
            wanted, wants_m = rows
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
            child = idx + 1
            if child == m_total:
                # the children are leaves, ranked by the owner vector alone
                for l in branch:
                    owner[idx] = l
                    owners = [owner[p] for p in position]
                    value, total = _metric(owners, cap_index, n, m_total)
                    if _beats(n, value, total, owners, best_value,
                              best_total, best_owner):
                        best_owner = owners
                        best_value, best_total = value, total
                        if value >= ceiling:
                            raise _CeilingReached
                return
            for l in branch:
                owner[idx] = l
                if l >= 0:
                    lo_l = lo[l]
                    hi_l = hi[l]
                    old_rate = rate[l]
                    old_held = held[l]
                    rate[l] = old_rate + cap[l][idx]
                    lo[l] = m if m < lo_l else lo_l
                    hi[l] = m if m > hi_l else hi_l
                    held[l] = old_held | 1 << idx
                # the child's entry: it counts, ends the turn past stop_at,
                # and is searched unless its bound test prunes it
                nodes += 1
                if nodes > stop_at:
                    yield child
                if not bound(child, best_value):
                    yield from dfs(child)
                if l >= 0:
                    rate[l] = old_rate
                    lo[l] = lo_l
                    hi[l] = hi_l
                    held[l] = old_held

        # the root's entry, as a parent runs each child's, then its search
        try:
            nodes += 1
            if nodes > stop_at:
                yield 0.0
            if bound(0, best_value):
                return
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
            # state and its b-dependent tables when it ends, not at a later
            # full collection
            dfs = None

    # the race of the module docstring (largest-first alone at b >= M),
    # started by the order that completed the last proven race: used[i]
    # nodes so far and left[i] estimated nodes to go, for index order (0)
    # and largest-first (1)
    turn = max(_SLICE_NODES, 1)
    i = tables.lead if b < m_total else 1
    runs = {i: search(_at_bound(tables, i, b))}
    used = [0, 0]
    left = [math.inf, math.inf]
    proven = False
    while True:
        start = nodes
        stop_at = min(start + turn, node_budget)
        try:
            done = next(runs[i])
        except (StopIteration, _CeilingReached):
            proven = True
            break
        if nodes > node_budget:
            break
        used[i] += nodes - start
        left[i] = used[i] * (1.0 - done) / done if done > 0.0 else math.inf
        if len(runs) == 1:
            if b < m_total and left[i] > _LEAD * turn:
                i = 1 - i
                runs[i] = search(_at_bound(tables, i, b))
            continue
        i = 0 if left[0] <= left[1] else 1
        if used[i] >= _LEAD * max(used[1 - i], turn):
            i = 1 - i
    if proven and b < m_total:
        tables.lead = i

    return _result(inst, best_owner, proven, nodes, t_start)
