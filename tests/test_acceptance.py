"""Acceptance suite: one test per criterion, printing a line per result.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines
(allow a minute or two; the trade-off sweep and the full-scale solves
dominate).

Known red: the strict-recovery-rate clause (criterion 4b) measures 83/100
against a 90% target at the default free-space / 1.5 GHz / 0.1 mW
settings. The re-solved optimum value is implementation-independent, and
the tie-broken baseline is pinned, so the rate is a property of the
scenario itself: at this SINR regime the interference hit often lands on
exactly the link that is optimal to leave in place. The clause passes at
lower received-power regimes. See test_criterion_4b for the check itself.
"""

import itertools
import time

import numpy as np

from ncofdm_alloc.cli import main as cli_main
from ncofdm_alloc.guardband import insert_guardbands, validate_guardbands
from ncofdm_alloc.model import (
    ProblemInstance,
    compute_capacity,
    compute_sinr,
    evaluate_rates,
    path_loss_gain,
    sample_rician_power_gain,
    spectral_span,
)
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.scenario import (
    builtin_scenario,
    instance_from_gains,
    realize_gains,
    reallocation_experiment,
    sweep,
)
from ncofdm_alloc.solver import solve, verify_solution

WORKERS = 2


def _ok(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}", flush=True)


def _instance(cap, b):
    cap = np.asarray(cap, dtype=float)
    return ProblemInstance(capacity=cap, span_bound=b)


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    count = 200
    for _ in range(count):
        n = int(rng.choice([2, 3]))
        m = int(rng.choice([6, 8]))
        lower = -(-m // n)
        b = int(rng.integers(lower, m + 1))
        cap = rng.uniform(0.0, 10e6, size=(n, m))
        inst = _instance(cap, b)
        res = solve(inst)
        oracle = brute_force(inst)
        assert res.proven_optimal
        assert res.maxmin == oracle.maxmin
        assert verify_solution(inst, res)
        assert verify_solution(inst, oracle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(1, f"{count} random instances, solver == oracle exactly "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. full-scale exactness
# ---------------------------------------------------------------------------

def test_criterion_2_full_scale_proven_optimal():
    cfg = builtin_scenario("grid4x12")
    gains = realize_gains(cfg, cfg.rng_seed)
    names = cfg.interferer_names()
    solves = 0
    worst = 0.0
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            inst = instance_from_gains(cfg, gains, set(subset))
            for b in range(3, 13):
                res = solve(inst.with_span_bound(b))
                assert res.proven_optimal, (subset, b)
                assert res.wall_time < 10.0, (subset, b, res.wall_time)
                assert verify_solution(inst.with_span_bound(b), res)
                solves += 1
                worst = max(worst, res.wall_time)
    assert solves == 80
    _ok(2, f"80 solves proven optimal, worst {worst:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 3. trade-off curve shape
# ---------------------------------------------------------------------------

def test_criterion_3_tradeoff_curve():
    cfg = builtin_scenario("grid4x12")
    t0 = time.perf_counter()
    curve = sweep(cfg, range(3, 13), realizations=100, rng=cfg.rng_seed,
                  active_interferers={"A", "B", "C"}, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    assert curve.all_proven
    means = curve.mean_maxmin
    assert all(m2 >= m1 for m1, m2 in zip(means, means[1:]))
    i5 = curve.b_values.index(5)
    i12 = curve.b_values.index(12)
    gain = (means[i12] - means[i5]) / means[i5]
    assert gain <= 0.10, gain
    assert elapsed <= 600.0
    _ok(3, f"mean curve nondecreasing over 100 realizations, "
           f"b=5 to b=12 improvement {100 * gain:.2f}% <= 10% "
           f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. reallocation trend
# ---------------------------------------------------------------------------

INTERFERED = {"A": {1, 2, 3}, "C": {9, 10, 11}}


def _reallocation_runs(realizations=50):
    cfg = builtin_scenario("grid4x12")
    for k in range(realizations):
        for j, name in enumerate(("A", "C")):
            exp = reallocation_experiment(
                cfg, set(), {name},
                rng=np.random.default_rng((20240904, k, j)))
            yield name, exp


def test_criterion_4a_reallocation_trend():
    drops = runs = 0
    for name, exp in _reallocation_runs():
        runs += 1
        used = set()
        for row in exp.baseline.allocation.entries:
            used.update((np.flatnonzero(row) + 1).tolist())
        # order of magnitude at b=4 with the default settings
        assert 1e6 <= exp.baseline.maxmin <= 10e6
        if used & INTERFERED[name]:
            # (a) interference on channels in use drops the frozen min rate
            assert exp.frozen_min < exp.baseline_min, (name, exp.frozen_min)
            drops += 1
        # (b) re-solving never loses rate
        assert exp.reallocated_min >= exp.frozen_min
        assert exp.reallocated_min <= exp.baseline_min
    _ok("4a", f"{runs} experiments: baseline in [1,10] Mbps, frozen min "
              f"dropped in all {drops} interfered runs, re-solve never "
              f"below frozen")


def test_criterion_4b_strict_recovery_rate():
    strict = drops = 0
    for _, exp in _reallocation_runs():
        if exp.frozen_min < exp.baseline_min:
            drops += 1
            if exp.reallocated_min > exp.frozen_min:
                strict += 1
    rate = strict / drops
    assert rate >= 0.90, (
        f"strict recovery in {strict}/{drops} = {100 * rate:.1f}% of dropped "
        f"runs, below the 90% target: at the default free-space/1.5 GHz/"
        f"0.1 mW settings the post-interference optimum often equals the "
        f"frozen allocation's min rate, so no strict improvement exists")
    _ok("4b", f"strict recovery in {100 * rate:.1f}% >= 90% of drops")


# ---------------------------------------------------------------------------
# 5. span/orthogonality invariant suite
# ---------------------------------------------------------------------------

def test_criterion_5_invariant_suite():
    rng = np.random.default_rng(20240905)
    violations = 0
    runs = 10_000
    for _ in range(runs):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 7))
        b = int(rng.integers(1, m + 1))
        cap = rng.uniform(0.0, 10e6, size=(n, m))
        inst = _instance(cap, b)
        res = solve(inst)
        a = res.allocation.entries
        if (a.sum(axis=0) > 1).any():                          # orthogonality
            violations += 1
        if any(spectral_span(a[l]) > b for l in range(n)):     # span cap
            violations += 1
        if not np.array_equal(res.rates.per_channel, cap * a):  # saturation
            violations += 1
        per_link = [sum(float(cap[l][mm]) for mm in range(m) if a[l][mm])
                    for l in range(n)]
        if list(res.rates.per_link) != per_link:               # accounting
            violations += 1
        if res.maxmin != min(per_link):                        # objective
            violations += 1
    assert violations == 0
    _ok(5, f"{runs} solver outputs, zero invariant violations")


# ---------------------------------------------------------------------------
# 6. guardband pass
# ---------------------------------------------------------------------------

def test_criterion_6_guardband():
    rng = np.random.default_rng(20240906)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 14))
        owners = rng.integers(-1, n, size=m)
        a = np.zeros((n, m), dtype=np.int8)
        for mm, l in enumerate(owners):
            if l >= 0:
                a[l, mm] = 1
        cap = rng.uniform(0.0, 10e6, size=(n, m))
        rates = evaluate_rates(_instance(cap, m), a)
        report = insert_guardbands(a, rates)
        assert validate_guardbands(report.output_allocation)
        again = insert_guardbands(report.output_allocation,
                                  report.output_rates)
        assert np.array_equal(again.output_allocation.entries,
                              report.output_allocation.entries)

    # hand-traced regression 1: equal-rate adjacent links
    a = [[1, 1, 0, 0], [0, 0, 1, 1]]
    rates = evaluate_rates(_instance(np.ones((2, 4)), 4), a)
    report = insert_guardbands(a, rates)
    assert [(e.link, e.channel) for e in report.nulled] == [(1, 3)]
    assert np.array_equal(report.output_allocation.entries,
                          [[1, 1, 0, 0], [0, 0, 0, 1]])
    # hand-traced regression 2: a gap already guards
    a = [[1, 0, 0, 0], [0, 0, 1, 0]]
    rates = evaluate_rates(_instance(np.ones((2, 4)), 4), a)
    report = insert_guardbands(a, rates)
    assert report.nulled == ()
    assert np.array_equal(report.output_allocation.entries, a)
    _ok(6, "1000 random passes valid and idempotent, both hand traces exact")


# ---------------------------------------------------------------------------
# 7. physics unit tests
# ---------------------------------------------------------------------------

def test_criterion_7_physics():
    for k_db in (0.0, 10.0, 30.0):
        rng = np.random.default_rng(20240907 + int(k_db))
        fades = sample_rician_power_gain(k_db, rng, size=1_000_000)
        assert abs(fades.mean() - 1.0) < 0.01, k_db
    # trivial identities, exact in floating point
    assert compute_capacity(1e5, 1.0) == 1e5
    assert compute_capacity(1e5, 0.0) == 0.0
    assert compute_capacity(1e5, 3.0) == 2e5
    assert compute_sinr(1.0, 1.0, 1.0, 0.0) == 1.0
    assert compute_sinr(1.0, 1.0, 1.0, 1.0) == 0.5
    assert path_loss_gain(1.0, 2e9) / path_loss_gain(2.0, 2e9) == 4.0
    assert spectral_span([0, 1, 1, 0, 1]) == 4
    assert spectral_span([0, 0, 0]) == 0
    _ok(7, "Rician mean within 1% at K in {0,10,30} dB over 1e6 samples; "
           "capacity/SINR identities exact")


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    commands = {
        "solve": ["solve", "--scenario", "grid4x12", "--b", "4",
                  "--seed", "11"],
        "sweep": ["sweep", "--scenario", "grid4x12", "--b-list", "3,4,5",
                  "--realizations", "2", "--seed", "11"],
        "realloc": ["realloc", "--scenario", "grid4x12", "--b", "4",
                    "--seed", "11", "--baseline-interferers", "none",
                    "--new-interferers", "C"],
    }
    produced = {
        "solve": ["allocation.csv", "rates.csv", "channel_rates.csv"],
        "sweep": ["tradeoff.csv"],
        "realloc": ["realloc.csv"],
    }
    for name, argv in commands.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert cli_main(argv + ["--out-dir", str(out1)]) == 0
        assert cli_main(argv + ["--out-dir", str(out2)]) == 0
        for fname in produced[name]:
            assert ((out1 / fname).read_bytes()
                    == (out2 / fname).read_bytes()), (name, fname)
    # guardband is a pure file transform; identical inputs, identical output
    src = tmp_path / "solve-1"
    for tag in ("g1", "g2"):
        assert cli_main(["guardband",
                         "--allocation", str(src / "allocation.csv"),
                         "--rates", str(src / "channel_rates.csv"),
                         "--out-dir", str(tmp_path / tag)]) == 0
    assert ((tmp_path / "g1" / "guarded_allocation.csv").read_bytes()
            == (tmp_path / "g2" / "guarded_allocation.csv").read_bytes())
    _ok(8, "identical (config, seed, command) reruns are byte-identical")
