"""The largest-first half of the solver's race, loaded on first use.

`solver.solve` needs this module only at b >= M, or when index order has
not settled a solve within its first slice of nodes. Most solves of a
few hundred nodes never get there (such as the `b = 4` solves of the
grid scenario), so they, and the start-up of every CLI run, do not pay
for compiling and loading it.
"""

from __future__ import annotations

import bisect
import itertools
import threading

from .model import sequential_sum
from .solver import _Stop, _order, _unvisited_range


def largest_first(cap, n, m_total, b):
    """Channels in descending order of their capacity summed over links
    (stable on ties). The unvisited channels are scattered over the index,
    so window top-k sums are gathered at the node from each link's
    unvisited channels sorted by capacity: O(N·M²) tables."""
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

    def window_topk(l, idx, a, e, k):
        if a <= first[idx] and final[idx] <= e:
            return tail_topk[l][idx]
        row = cap[l]
        cums = [0.0]
        total = 0.0
        for m in ranked[l][idx]:
            if a <= m <= e:
                total += row[m]
                cums.append(total)
                if len(cums) > k:
                    break
        return cums

    return _order(visit, vcap, n, m_total, b, tail_topk, best_window,
                  window_topk)


class Coroutine:
    """Runs `target(pause)` on a thread of its own, as a coroutine of the
    caller: exactly one of the two runs at any time, so the target may share
    the caller's state without locks. `resume()` runs the target until it
    calls `pause()` (returns True) or ends (returns False); `close()` makes
    a pending `pause()` raise _Stop and waits for the thread to end."""

    def __init__(self, target):
        self._target = target
        self._run_turn = threading.Semaphore(0)
        self._turn_over = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._closing = False
        self._ended = False
        self._error = None

    def _main(self):
        self._run_turn.acquire()
        try:
            self._target(self._pause)
        except _Stop:
            pass
        except BaseException as exc:  # re-raised in the caller's thread
            self._error = exc
        self._ended = True
        self._turn_over.release()

    def _pause(self):
        self._turn_over.release()
        self._run_turn.acquire()
        if self._closing:
            raise _Stop

    def resume(self) -> bool:
        if self._thread.ident is None:
            self._thread.start()
        self._run_turn.release()
        self._turn_over.acquire()
        if self._error is not None:
            raise self._error
        return not self._ended

    def close(self):
        if self._thread.is_alive():
            self._closing = True
            self._run_turn.release()
            self._thread.join()
