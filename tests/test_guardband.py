import numpy as np
import pytest

from ncofdm_alloc.guardband import (
    NulledChannel,
    insert_guardbands,
    validate_guardbands,
)
from ncofdm_alloc.model import (
    ProblemInstance,
    RateResult,
    ValidationError,
    evaluate_rates,
    spectral_span,
)


def _rates_for(cap, allocation):
    cap = np.asarray(cap, dtype=float)
    inst = ProblemInstance(capacity=cap, span_bound=cap.shape[1])
    return evaluate_rates(inst, allocation)


def _random_orthogonal(rng, n, m):
    owners = rng.integers(-1, n, size=m)
    a = np.zeros((n, m), dtype=np.int8)
    for mm, l in enumerate(owners):
        if l >= 0:
            a[l, mm] = 1
    return a


# ---------------------------------------------------------------------------
# hand-traced regressions
# ---------------------------------------------------------------------------

def test_trace_equal_rate_adjacent_blocks():
    # two links on {1,2} and {3,4}, every channel worth 1: the boundary at
    # channel 3 compares residuals 1 <= 1, so the newly entered link loses
    # its channel 3
    a = [[1, 1, 0, 0], [0, 0, 1, 1]]
    rates = _rates_for(np.ones((2, 4)), a)
    report = insert_guardbands(a, rates)
    assert report.nulled == (NulledChannel(boundary=(2, 3), link=1, channel=3),)
    assert np.array_equal(report.output_allocation.entries,
                          [[1, 1, 0, 0], [0, 0, 0, 1]])
    assert list(report.rate_deltas) == [0.0, -1.0]
    assert validate_guardbands(report.output_allocation)


def test_trace_gap_already_guards():
    # L1 on {1}, gap at 2, L2 on {3}: the tracker passes through the empty
    # channel, so no comparison fires and nothing is nulled
    a = [[1, 0, 0, 0], [0, 0, 1, 0]]
    rates = _rates_for(np.ones((2, 4)), a)
    report = insert_guardbands(a, rates)
    assert report.nulled == ()
    assert np.array_equal(report.output_allocation.entries, a)


def test_trace_three_single_channel_links():
    # L1{1}, L2{2}, L3{3}, unit rates. First boundary nulls L2's channel 2;
    # at the second boundary L2's residual reads stale (its per-channel rate
    # was zeroed but its total was not), so L3 loses channel 3 as well.
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rates = _rates_for(np.ones((3, 3)), a)
    report = insert_guardbands(a, rates)
    assert report.nulled == (
        NulledChannel(boundary=(1, 2), link=1, channel=2),
        NulledChannel(boundary=(2, 3), link=2, channel=3),
    )
    assert np.array_equal(report.output_allocation.entries,
                          [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_single_link_untouched():
    a = [[1, 1, 1, 0]]
    rates = _rates_for([[2.0, 3.0, 4.0, 5.0]], a)
    report = insert_guardbands(a, rates)
    assert report.nulled == ()
    assert np.array_equal(report.output_allocation.entries, a)
    assert list(report.rate_deltas) == [0.0]


def test_cut_richer_mode_flips_the_boundary_choice():
    a = [[1, 1, 0, 0], [0, 0, 1, 1]]
    rates = _rates_for(np.ones((2, 4)), a)
    report = insert_guardbands(a, rates, mode="cut-richer")
    assert report.nulled == (NulledChannel(boundary=(2, 3), link=0, channel=2),)
    assert np.array_equal(report.output_allocation.entries,
                          [[1, 0, 0, 0], [0, 0, 1, 1]])


def test_unequal_rates_pick_the_poorer_side():
    # L1 keeps 9 after losing its boundary channel, L2 keeps 1: default mode
    # cuts L2 (the poorer residual), the flipped mode cuts L1
    cap = np.array([[9.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    a = [[1, 1, 0], [0, 0, 1]]
    rates = _rates_for(cap, a)
    poorer = insert_guardbands(a, rates)
    assert poorer.nulled[0].link == 1 and poorer.nulled[0].channel == 3
    richer = insert_guardbands(a, rates, mode="cut-richer")
    assert richer.nulled[0].link == 0 and richer.nulled[0].channel == 2


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_random_allocations_valid_and_idempotent():
    rng = np.random.default_rng(404)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 14))
        a = _random_orthogonal(rng, n, m)
        cap = rng.uniform(0, 10e6, size=(n, m))
        rates = _rates_for(cap, a)
        report = insert_guardbands(a, rates)
        out = report.output_allocation
        assert validate_guardbands(out)
        again = insert_guardbands(out, report.output_rates)
        assert np.array_equal(again.output_allocation.entries, out.entries)
        assert again.nulled == ()
        # rates never increase, spans never grow (the output's constructor
        # has checked orthogonality)
        assert (report.rate_deltas <= 0).all()
        assert report.output_rates.per_link.sum() <= rates.per_link.sum()
        for l in range(n):
            assert spectral_span(out.entries[l]) <= spectral_span(a[l])
            lost = rates.per_link[l] - report.output_rates.per_link[l]
            # a later sweep step may re-null an already empty cell, so the
            # loss accounting goes over distinct cells
            cells = {(e.link, e.channel) for e in report.nulled if e.link == l}
            nulled_rates = sum(float(rates.per_channel[ll, ch - 1])
                               for ll, ch in cells)
            assert lost == pytest.approx(nulled_rates, rel=1e-12, abs=1e-9)


def test_one_null_per_boundary_for_block_allocations():
    # blocks of length >= 2 keep boundaries channel-disjoint, so the sweep
    # nulls exactly one channel per cross-link boundary
    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        owner = []
        for l in rng.permutation(n):
            size = int(rng.integers(2, 4))
            owner.extend([int(l)] * size)
            if rng.random() < 0.3:
                owner.append(-1)
        m = len(owner)
        a = np.zeros((n, m), dtype=np.int8)
        for mm, l in enumerate(owner):
            if l >= 0:
                a[l, mm] = 1
        boundaries = sum(
            1 for mm in range(1, m)
            if owner[mm] >= 0 and owner[mm - 1] >= 0 and owner[mm] != owner[mm - 1])
        cap = rng.uniform(1, 10e6, size=(n, m))
        report = insert_guardbands(a, _rates_for(cap, a))
        assert len(report.nulled) == boundaries
        nulled_cells = {(e.link, e.channel) for e in report.nulled}
        assert len(nulled_cells) == boundaries


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_guardbands_cases():
    assert validate_guardbands(np.zeros((2, 4), dtype=int))
    assert validate_guardbands([[1, 0, 1, 0], [0, 0, 0, 1]]) is False
    assert validate_guardbands([[1, 1, 0, 0], [0, 0, 0, 1]])
    assert validate_guardbands([[1, 1, 0, 0], [0, 0, 1, 1]]) is False


def test_rejects_inconsistent_rates():
    a = [[1, 0], [0, 1]]
    bad_support = RateResult(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        insert_guardbands(a, bad_support)


def test_rejects_unknown_mode():
    a = [[1, 0]]
    rates = _rates_for([[1.0, 1.0]], a)
    with pytest.raises(ValidationError):
        insert_guardbands(a, rates, mode="sideways")
