"""A fixed piece of Python work, timed next to the benchmark's ops.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU cloud
host the same op took anywhere from 2.6 to 4.4 s within ten minutes, and
the median op time of 20-second windows spread by 28 % (interquartile
range over median) with the program unchanged. That drift is the host's,
not the program's, so the gated op metrics divide each op's time by the
time of this probe, run on the same host just before and just after the
op's batch (`run.close_batch`). The probe does not touch the package,
so a change to the package moves the ratio just as it moves the op time.

The probe mixes the two kinds of work the package spends its time on: a
recursive branch-and-bound over float lists, like the solver's search,
and dictionary and integer work, like the CLI and the bookkeeping around
it. Its inputs are fixed, and so is its result, which `probe_ns` checks.
"""

from __future__ import annotations

import time

_ITEMS = tuple(((i * 37) % 101) / 7.0 + 1.0 for i in range(9))
_LINKS = 3
_COUNT = 36000
_EXPECTED = ((23.142857142856133, 19084), 239975437)


def _search() -> tuple[float, int]:
    """Max-min split of `_ITEMS` over `_LINKS` bins by exhaustive DFS with
    a simple bound; returns the optimum and the nodes visited."""
    rate = [0.0] * _LINKS
    best = 0.0
    nodes = 0

    def dfs(i):
        nonlocal best, nodes
        nodes += 1
        if i == len(_ITEMS):
            value = min(rate)
            if value > best:
                best = value
            return
        if min(rate) + sum(_ITEMS[i:]) <= best:
            return
        for link in range(_LINKS):
            rate[link] += _ITEMS[i]
            dfs(i + 1)
            rate[link] -= _ITEMS[i]

    dfs(0)
    return best, nodes


def _bookkeeping() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(_COUNT):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    return acc % 1_000_000_007 + len(counts)


def probe_ns() -> int:
    """Run the probe once; return its wall time in nanoseconds."""
    t0 = time.perf_counter_ns()
    out = (_search(), _bookkeeping())
    took = time.perf_counter_ns() - t0
    if out != _EXPECTED:
        raise RuntimeError(f"probe result changed: {out}")
    return took
