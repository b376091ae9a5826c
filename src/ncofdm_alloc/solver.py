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
pipeline and differ only in the visit permutation: every bound reads the
sums of the j largest unvisited capacities of a link, or of the best
link per channel of a subset, within a window or not, gathered by one
memoized function (see `_order`).

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
use: the visit order and the capacities in it, the best capacity per
channel of each link and subset of links, the memo of top-k sums
gathered from them, and the reach, unvisited-range, exchange and subset
tables. A search builds only what depends on b: the best window sums.
The object also carries the race order: a race below b = M starts
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

A node's bound test, the per-link bounds, the counting cut and the subset
bounds, is Python source generated once per link count and compiled once
per process (`_bound_test`); each search binds it to its tables. It
unrolls the loops over the links and the subsets into straight code on
locals, and reads a memoized top-k list with one dict lookup, calling
`topk` only on a miss. The full subset average stays one shared function,
which keeps the source small (about 330 lines at four links). The test
repeats every float operation of those loops in their order: a subset's
rates are summed in member order, by extending the sum of the subset
without its last member, whose block runs first. The sum starts from the
first member rather than from 0.0, which changes no bit, since rates are
sums from 0.0 of capacities >= 0 and so never -0.0. The counting cut is
tested each time a link adds its needs; they only grow, so it fails there
exactly when it fails over all links. A prune only ends the node,
whichever bound makes it, so the test prunes exactly where the loops
would, and every node count is theirs.

A subset average is evaluated in full only when a cheap pre-test fails.
Each member l keeps the top-k list u_l its own bound read (its window's
when anchored, the tail's otherwise). With s the members' slots together,
the subset's capacity bound is at least u_l[min(s, len(u_l) - 1)]: its
suffix-sum segments cover every position in [idx, e_l] with l in their
mask, so they add up to at least u_l's last sum, and its top-k cap takes
min(s, remaining) per-channel maxima over every unvisited channel, so at
least that many of l's largest. So when the members' rates plus one such
sum reach the subset's size times the pruning threshold (the incumbent
less the slack), plus the margin of the dominance rules below, the
average cannot prune: that margin lies far above the rounding of these
sums, at most about M ulps of the total capacity. The pre-test clears
only subsets that could never have pruned, so every prune, and every node
count, is as without it.

Per-link bounds are computed only for links at or below the incumbent. A
link above it cannot prune by its own bound, which is its rate plus a
gain >= 0 and so above the pruning threshold, and the subset bounds visit
only subsets of the needy links (those at or below the incumbent), so
nothing reads its bound. Skipping it changes no prune.

The first incumbent is the best, under `_beats`, of a few candidates: the
equal contiguous blocks dealt to the links in every order (for up to six
links), a greedy fill, the empty allocation and any warm start. A block
candidate is scored from each link's block sums, each summed from 0.0 in
channel order as a leaf's rates are, so its (maxmin, total) are the
canonical ones, and its owner vector is built only to break a tie.

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
import functools
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

    rows[mask][q]: the best capacity at position q over the links in mask
    (link l is the mask 1 << l; the larger masks serve the subset bounds),
    ranking[mask] the positions, best first, and ssuf[mask] the suffix
    sums of rows[mask]; topk(mask, p, a, e): the sums [0, v1, v1 + v2, ...]
    of rows[mask] over the unvisited channels numbered a..e, taken in
    ranking order, so largest first; memo: its lists by (mask, p, a, e);
    tails[p][mask]: topk over every unvisited channel, filled by the
    search on first use; average: a subset's full average bound;
    reach_pos[e]: the last position of a channel numbered at most e;
    first[p]/final[p]: the lowest and highest unvisited channel at depth
    p, and u_min[p]/u_max[p] those visited after depth p; margin, exchange
    and below: the dominance margin and the pairwise-exchange bitmasks,
    exchange[p] filled by the search from exchange_row(p) on its first
    visit of depth p.

    The unvisited channels may be scattered over the index, so topk
    gathers them from the ranking, and stops once it has them all: their
    count is that of the window's bits in a bitmask of the unvisited
    channel numbers. It keeps each list for every later node, of any
    search of this order at any span bound, that asks for the same
    channels: the window is clamped to [first[p], final[p]], so windows
    that differ only outside it share one list, and one that covers every
    unvisited channel is the tail. An anchored link's window is set by its
    range [lo, hi], one of at most M·b, so a span bound adds at most
    N·M²·b lists of at most 2b sums; the tails add one list per mask and
    depth."""
    n, m_total = len(cap), len(visit)
    vcap = [[row[m] for m in visit] for row in cap]
    position = [0] * m_total
    for p, m in enumerate(visit):
        position[m] = p
    reach_pos = list(itertools.accumulate(position, max))
    first, final = _unvisited_range(visit)
    rows, ranking, ssuf = {}, {}, {}
    for mask in (range(1, 1 << n) if n <= _MAX_SUBSET_LINKS
                 else [1 << l for l in range(n)]):
        members = [vcap[l] for l in range(n) if mask & (1 << l)]
        # members[0] twice, so that max gets two arguments for one row
        row = rows[mask] = list(map(max, members[0], *members))
        ranking[mask] = sorted(range(m_total), key=row.__getitem__,
                               reverse=True)
        ssuf[mask] = list(itertools.accumulate(reversed(row),
                                               initial=0.0))[::-1]
    # unvisited[p]: the channel numbers at positions p..M-1, one bit each
    unvisited = list(itertools.accumulate((1 << m for m in reversed(visit)),
                                          operator.or_, initial=0))[::-1]
    memo = {}
    tails = [{} for _ in range(m_total)]

    def topk(mask, p, a, e):
        if a < first[p]:
            a = first[p]
        if e > final[p]:
            e = final[p]
        key = (mask, p, a, e)
        sums = memo.get(key)
        if sums is None:
            sums = memo[key] = [0.0]
            # the scan stops once it has every unvisited channel a..e
            want = 0
            if a <= e:
                want = ((unvisited[p] >> a) & ((2 << (e - a)) - 1)).bit_count()
            if want:
                row = rows[mask]
                total = 0.0
                for q in ranking[mask]:
                    if q >= p and a <= visit[q] <= e:
                        total += row[q]
                        sums.append(total)
                        want -= 1
                        if not want:
                            break
        return sums

    def average(idx, mask, members, reach, rate_sum, slots):
        """The subset average of mask at depth idx: the members' rate_sum
        plus the capacity the subset can still reach, over its size.
        reach[i] is the last position members[i] can reach, and slots the
        members' free slots together."""
        cur_mask = mask
        start = idx
        cap_sum = 0.0
        # members by reach, stable on ties
        for e, l in sorted(zip(reach, members)):
            if start <= e:
                srow = ssuf[cur_mask]
                cap_sum += srow[start] - srow[e + 1]
                start = e + 1
            cur_mask &= ~(1 << l)
            if start >= m_total:
                break
        remaining = m_total - idx
        cards = slots if slots < remaining else remaining
        tail = tails[idx]
        sums = tail.get(mask)
        if sums is None:
            sums = tail[mask] = topk(mask, idx, first[idx], final[idx])
        if len(sums) - 1 > cards:
            capped = sums[cards]
            if capped < cap_sum:
                cap_sum = capped
        return (rate_sum + cap_sum) / len(members)

    # pairwise exchange: exchange[p] = (better, worse), where better[l]
    # holds bit q when link l gains more than the margin by holding channel
    # visit[q] instead of visit[p], and worse[l] bit q when it loses more;
    # the search fills a depth's row from exchange_row on its first visit
    margin = 1e-9 * math.fsum(itertools.chain.from_iterable(vcap))
    ranks = []
    for row in vcap:
        # ascending capacities, and the positions of the k smallest
        rising = sorted(range(m_total), key=row.__getitem__)
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
                           memo=memo, topk=topk, average=average,
                           tails=tails,
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
# The bound test of a node, generated per link count
# ---------------------------------------------------------------------------

# Link l's bound and its part of the counting cut, for a link at or below
# the incumbent. An anchored link's windows start in [hi - b + 1, lo], so
# it can still reach channels hi - b + 1..e, at most b - cnt of them; the
# sums are nondecreasing (capacities are >= 0), so a bisection finds the
# channels it needs. r{l}, s{l}, k{l} and e{l}: its rate, slots, needed
# channels and last reachable position, and u{l} and n{l} its top-k list
# and that list's last index, for the subset blocks
_LINK_SOURCE = """
        r{l} = rate[{l}]
        if r{l} <= inc:
            c = cnt[{l}]
            if c:
                e = lo[{l}] + b - 1
                e{l} = reach_pos[e if e < last else last]
                a = hi[{l}] - b + 1
                u{l} = memo_get(({bit}, idx, a if a > f else f,
                                 e if e < fi else fi))
                if u{l} is None:
                    u{l} = topk({bit}, idx, a, e)
                n{l} = s{l} = len(u{l}) - 1
                if s{l} > b - c:
                    s{l} = b - c
                g = u{l}[s{l}]
            else:
                e{l} = last
                s{l} = slots
                n{l} = remaining
                u{l} = tail.get({bit})
                if u{l} is None:
                    u{l} = tail[{bit}] = topk({bit}, idx, f, fi)
                g = u{l}[s{l}]
                if bw{l}[idx] < g:
                    g = bw{l}[idx]
            if r{l} + g < dead:
                return True
            deficit = inc - r{l} - slack
            k{l} = 0
            if deficit > 0.0:
                k{l} = bisect_left(u{l}, deficit, 1, s{l} + 1)
                if k{l} > s{l}:
                    return True
                needed += k{l}
                if needed > remaining:
                    return True
            needy |= {bit}"""

# One subset's counting cut, then its average unless the pre-test clears
# it: some member's top-k sum at the subset's slots reaches top. Its
# reach, slots, needed channels and rate sum (e_, s_, k_ and r_ with its
# mask) extend those of the subset without its last member l, a link or a
# smaller subset whose block ran before, by l's
_SUBSET_SOURCE = """
        if needy & {mask} == {mask}:
            e_{mask} = e{l} if e{l} > e{prev} else e{prev}
            s_{mask} = s{prev} + s{l}
            k_{mask} = k{prev} + k{l}
            r_{mask} = r{prev} + r{l}
            reach = e_{mask} - idx + 1 if e_{mask} >= idx else 0
            if k_{mask} > (reach if reach < s_{mask} else s_{mask}):
                return True
            top = {size} * dead + margin - r_{mask}
            if ({clear}
                    and average(idx, {mask}, {members}, ({reach}),
                                r_{mask}, s_{mask}) < dead):
                return True"""


def _bound_source(n):
    """Python source of `bind`, which binds the bound test of a node with n
    links to the tables of one search and its state lists. The test
    returns True when the node is pruned. It unrolls the per-link bounds,
    the counting cut and, for n <= `_MAX_SUBSET_LINKS`, one block per
    subset of two or more links; the module docstring says how it stays
    bit-identical to the loops it replaces."""
    links = range(n)
    windows = "".join(f", bw{l}=t.best_window[{l}]" for l in links)
    out = [f"""
def bind(rate, lo, hi, cnt, t, b, bisect_left):
    def bound(idx, inc, rate=rate, lo=lo, hi=hi, cnt=cnt, b=b,
              m_total=len(t.visit), last=len(t.visit) - 1,
              memo_get=t.memo.get, topk=t.topk, tails=t.tails,
              first=t.first, final=t.final, reach_pos=t.reach_pos,
              average=t.average, margin=t.margin,
              bisect_left=bisect_left{windows}):
        remaining = m_total - idx
        slack = inc * 1e-12
        dead = inc - slack
        slots = b if b < remaining else remaining
        tail = tails[idx]
        # the lowest and highest unvisited channel
        f = first[idx]
        fi = final[idx]
        needed = 0
        needy = 0"""]
    out += [_LINK_SOURCE.format(l=l, bit=1 << l) for l in links]
    subsets = range(3, 1 << n) if n <= _MAX_SUBSET_LINKS else ()
    for mask in subsets:
        members = [l for l in links if mask >> l & 1]
        if len(members) < 2:
            continue
        *rest, l = members
        prev = rest[0] if len(rest) == 1 else f"_{mask ^ 1 << l}"
        out.append(_SUBSET_SOURCE.format(
            mask=mask, l=l, prev=prev, size=len(members),
            members=tuple(members),
            reach=", ".join(f"e{m}" for m in members),
            clear="\n                    and ".join(
                f"u{m}[s_{mask} if s_{mask} < n{m} else n{m}] < top"
                for m in members)))
    out.append("""
        return False
    return bound
""")
    return "".join(out)


@functools.cache
def _bound_test(n):
    """`bind` for n links, compiled once per process."""
    namespace = {}
    exec(compile(_bound_source(n), f"<bound test, {n} links>", "exec"),
         namespace)
    return namespace["bind"]


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
    candidates = [_greedy_candidate(cap, n, m_total, b), [-1] * m_total]
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
        # owner[p] is the owner of channel visit[p]; [lo, hi] is the range
        # of channel numbers a link holds (lo = M, hi = -1 while it holds none)
        owner = [-1] * m_total
        rate = [0.0] * n
        lo = [m_total] * n
        hi = [-1] * n
        cnt = [0] * n
        # held[l]: the positions link l holds, one bit each
        held = [0] * n
        bound = _bound_test(n)(rate, lo, hi, cnt, t, b, bisect.bisect_left)

        # kids[p]: the children of the node at depth p, in search order:
        # the links it gives channel visit[p] to, then -1 if it also leaves
        # the channel unassigned
        kids = [None] * m_total

        def dfs(idx, rate=rate, lo=lo, hi=hi, cnt=cnt, held=held,
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
                    cnt[l] += 1
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
                    cnt[l] -= 1
                    held[l] = old_held

        def root():
            """The root's entry, as a parent runs each child's, then its
            search."""
            nonlocal nodes
            nodes += 1
            if nodes > stop_at:
                yield 0
            if not bound(0, best_value):
                yield from dfs(0)

        try:
            for depth in root():
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
