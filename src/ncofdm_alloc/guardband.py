"""Guardband insertion: null one channel at every cross-link boundary.

The pass scans channels left to right, remembering the previous channel's
owner. When the current channel belongs to a different (real) link than the
previous one, exactly one of the two boundary channels is nulled, chosen by
comparing what each link would retain after losing its boundary channel.

Semantics worth knowing before editing:

* Link totals are read from the input and are NOT updated as channels get
  nulled; only the per-channel rates are zeroed. A link whose channel was
  just nulled therefore compares with a stale (higher) residual at the next
  boundary. This is intentional, the pass is a faithful single sweep.
* The previous-owner tracker advances on every channel, including empty
  ones, so a gap already acts as a guard and suppresses the comparison.
* In "cut-poorer" mode (the default) the link left with the smaller
  residual loses its channel. "cut-richer" flips the comparison, which
  protects the minimum rate instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationMatrix,
    RateResult,
    ValidationError,
    as_allocation,
)

GUARDBAND_MODES = ("cut-poorer", "cut-richer")


@dataclass(frozen=True)
class NulledChannel:
    """One null action: the boundary that triggered it (1-based channel
    pair) and the (link index, 1-based channel) that was cleared."""

    boundary: tuple[int, int]
    link: int
    channel: int


@dataclass(frozen=True)
class GuardbandReport:
    output_allocation: AllocationMatrix
    nulled: tuple[NulledChannel, ...]
    rate_deltas: np.ndarray        # per link, bits/s, <= 0
    output_rates: RateResult


def _check_consistent(alloc: AllocationMatrix, rates: RateResult) -> None:
    if rates.per_channel.shape != alloc.entries.shape:
        raise ValidationError("rates and allocation shapes differ")
    if np.any((alloc.entries == 0) & (rates.per_channel != 0)):
        raise ValidationError("nonzero rate on an unassigned channel")


def insert_guardbands(allocation, rates: RateResult,
                      mode: str = "cut-poorer") -> GuardbandReport:
    """Run the boundary-nulling sweep over an orthogonal allocation.

    `rates` must be consistent with the allocation: zero where unassigned.
    """
    if mode not in GUARDBAND_MODES:
        raise ValidationError(f"mode must be one of {GUARDBAND_MODES}")
    alloc = as_allocation(allocation)
    _check_consistent(alloc, rates)

    m_total = alloc.num_channels
    entries = np.array(alloc.entries)
    per_channel = np.array(rates.per_channel)
    totals = [float(x) for x in rates.per_link]   # static during the sweep
    owners = alloc.owner_vector()
    events: list[NulledChannel] = []

    prev_owner = owners[0]
    prev_chan = 0
    for m in range(1, m_total):
        cur_owner = owners[m]
        if cur_owner != prev_owner and cur_owner >= 0 and prev_owner >= 0:
            residual_new = totals[cur_owner] - float(per_channel[cur_owner, m])
            residual_prev = totals[prev_owner] - float(per_channel[prev_owner, prev_chan])
            cut_new = residual_new <= residual_prev
            if mode == "cut-richer":
                cut_new = not cut_new
            if cut_new:
                target_link, target_chan = cur_owner, m
            else:
                target_link, target_chan = prev_owner, prev_chan
            entries[target_link, target_chan] = 0
            per_channel[target_link, target_chan] = 0.0
            events.append(NulledChannel(boundary=(m, m + 1),
                                        link=target_link,
                                        channel=target_chan + 1))
        prev_owner = cur_owner
        prev_chan = m

    out_rates = RateResult(per_channel)
    return GuardbandReport(output_allocation=AllocationMatrix(entries),
                           nulled=tuple(events),
                           rate_deltas=out_rates.per_link - rates.per_link,
                           output_rates=out_rates)


def validate_guardbands(allocation) -> bool:
    """True when no two adjacent channels belong to two different links."""
    owners = as_allocation(allocation).owner_vector()
    for a, b in zip(owners, owners[1:]):
        if a >= 0 and b >= 0 and a != b:
            return False
    return True
