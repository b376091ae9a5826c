import math

import numpy as np
import pytest

from ncofdm_alloc.model import (
    AllocationMatrix,
    InterfererSpec,
    LinkSpec,
    ProblemInstance,
    RateResult,
    ScenarioConfig,
    ValidationError,
    compute_capacity,
    compute_sinr,
    evaluate_rates,
    path_loss_gain,
    rng_streams,
    sample_rician_power_gain,
    sequential_sum,
    spectral_span,
)


# ---------------------------------------------------------------------------
# path loss
# ---------------------------------------------------------------------------

def test_path_loss_inverse_square():
    g1 = path_loss_gain(1.0, 2.4e9)
    g2 = path_loss_gain(2.0, 2.4e9)
    assert g1 / g2 == 4.0


def test_path_loss_reference_value():
    # (3e8 / (4 pi * 1 m * 1.5 GHz))^2
    expected = (3e8 / (4 * math.pi * 1.0 * 1.5e9)) ** 2
    assert path_loss_gain(1.0, 1.5e9) == expected
    assert expected == pytest.approx(2.533e-4, rel=1e-3)


def test_path_loss_monotone():
    assert path_loss_gain(3.0, 1e9) < path_loss_gain(2.0, 1e9)
    assert path_loss_gain(2.0, 2e9) < path_loss_gain(2.0, 1e9)


@pytest.mark.parametrize("d,f", [(0.0, 1e9), (-1.0, 1e9), (1.0, 0.0), (1.0, -5.0)])
def test_path_loss_rejects_nonpositive(d, f):
    with pytest.raises(ValidationError):
        path_loss_gain(d, f)


# ---------------------------------------------------------------------------
# Rician fades
# ---------------------------------------------------------------------------

def test_rician_pure_los_limit():
    assert sample_rician_power_gain(math.inf, np.random.default_rng(0)) == 1.0


def test_rician_mean_power_normalized():
    rng = np.random.default_rng(42)
    fades = sample_rician_power_gain(30.0, rng, size=200_000)
    assert fades.min() >= 0
    assert abs(fades.mean() - 1.0) < 0.01


def test_rician_std_at_30db():
    # power variance is (2K+1)/(K+1)^2, K = 1000
    k = 1000.0
    expected_std = math.sqrt(2 * k + 1) / (k + 1)
    assert expected_std == pytest.approx(0.0447, abs=1e-4)
    rng = np.random.default_rng(7)
    fades = sample_rician_power_gain(30.0, rng, size=500_000)
    assert fades.std() == pytest.approx(expected_std, rel=0.02)


def test_rician_rayleigh_limit():
    rng = np.random.default_rng(5)
    fades = sample_rician_power_gain(-math.inf, rng, size=200_000)
    assert abs(fades.mean() - 1.0) < 0.02


def test_rician_rejects_nan():
    with pytest.raises(ValidationError):
        sample_rician_power_gain(math.nan, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# SINR and capacity
# ---------------------------------------------------------------------------

def test_sinr_unit_cases():
    assert compute_sinr(1.0, 1.0, 1.0, 0.0) == 1.0
    assert compute_sinr(1.0, 1.0, 1.0, 1.0) == 0.5


def test_sinr_strong_interferer():
    # direct evaluation of p*g / (n0w + u) with u at 33 dB above noise
    n0w = 4.14e-16
    expected = 1000 * n0w / (n0w + 10 ** 3.3 * n0w)
    got = compute_sinr(1000 * n0w, 1.0, n0w, 10 ** 3.3 * n0w)
    assert got == expected
    assert got == pytest.approx(1000 / (1 + 10 ** 3.3), rel=1e-12)


def test_sinr_decreasing_in_interference():
    vals = [compute_sinr(1.0, 1.0, 1.0, u) for u in (0.0, 0.5, 1.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sinr_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        compute_sinr(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        compute_sinr(1.0, 1.0, -1.0, 0.0)
    with pytest.raises(ValidationError):
        compute_sinr(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        compute_sinr(1.0, 1.0, 1.0, -0.1)


def test_capacity_identities():
    assert compute_capacity(1e5, 0.0) == 0.0
    assert compute_capacity(1e5, 1.0) == 1e5
    assert compute_capacity(1e5, 3.0) == 2e5


def test_capacity_monotone():
    assert compute_capacity(1e5, 2.0) < compute_capacity(1e5, 3.0)
    assert compute_capacity(1e5, 2.0) < compute_capacity(2e5, 2.0)


def test_capacity_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        compute_capacity(0.0, 1.0)
    with pytest.raises(ValidationError):
        compute_capacity(1e5, -0.5)


# ---------------------------------------------------------------------------
# spectral span
# ---------------------------------------------------------------------------

def test_span_examples():
    row = [0] * 12
    row[1] = row[2] = row[4] = 1          # channels {2, 3, 5}, 1-based
    assert spectral_span(row) == 4
    assert spectral_span([0, 0, 1, 0]) == 1
    assert spectral_span([0, 0, 0, 0]) == 0


def test_span_interior_channel_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(3, 15))
        row = (rng.random(m) < 0.4).astype(int)
        occupied = np.flatnonzero(row)
        if occupied.size < 2:
            continue
        span_before = spectral_span(row)
        interior = [i for i in range(occupied[0] + 1, occupied[-1]) if not row[i]]
        if not interior:
            continue
        row[interior[int(rng.integers(len(interior)))]] = 1
        assert spectral_span(row) == span_before


def test_span_rejects_nonbinary():
    with pytest.raises(ValidationError):
        spectral_span([0, 2, 1])


# ---------------------------------------------------------------------------
# rate evaluation
# ---------------------------------------------------------------------------

def _instance(cap, b=None):
    cap = np.asarray(cap, dtype=float)
    return ProblemInstance(capacity=cap,
                           span_bound=b if b is not None else cap.shape[1])


def test_evaluate_rates_zero_allocation():
    inst = _instance([[1e6, 2e6], [3e6, 4e6]])
    res = evaluate_rates(inst, np.zeros((2, 2), dtype=int))
    assert res.maxmin == 0.0
    assert np.all(res.per_link == 0)
    assert np.all(res.per_channel == 0)


def test_evaluate_rates_single_link_sum():
    inst = _instance([[1e6, 2e6, 3e6]])
    res = evaluate_rates(inst, [[1, 0, 1]])
    assert res.per_link[0] == 4e6
    assert res.maxmin == 4e6


def test_evaluate_rates_diagonal():
    inst = _instance([[5e6, 1e6], [1e6, 5e6]])
    res = evaluate_rates(inst, [[1, 0], [0, 1]])
    assert list(res.per_link) == [5e6, 5e6]
    assert res.maxmin == 5e6


def test_evaluate_rates_matches_dot_product():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 12))
        cap = rng.uniform(0, 10e6, size=(n, m))
        owners = rng.integers(-1, n, size=m)
        a = np.zeros((n, m), dtype=np.int8)
        for mm, l in enumerate(owners):
            if l >= 0:
                a[l, mm] = 1
        inst = _instance(cap)
        res = evaluate_rates(inst, a)
        for l in range(n):
            assert res.per_link[l] == pytest.approx(
                float(np.dot(cap[l], a[l])), rel=1e-12)
            # assigned channels run exactly at capacity
            assert np.array_equal(res.per_channel[l], cap[l] * a[l])
        assert res.maxmin == min(float(x) for x in res.per_link)


def test_evaluate_rates_rejects_dimension_mismatch():
    inst = _instance([[1e6, 2e6]])
    with pytest.raises(ValidationError):
        evaluate_rates(inst, [[1, 0, 0]])


def test_evaluate_rates_rejects_shared_channel():
    inst = _instance([[1e6, 2e6], [3e6, 4e6]])
    with pytest.raises(ValidationError):
        evaluate_rates(inst, [[1, 0], [1, 0]])


def test_sequential_sum_adds_left_to_right():
    # a compensated or pairwise sum recovers the two 1.0s; the canonical
    # left-to-right sum absorbs both into 1e100 and cancels to 0.0
    values = [1.0, 1e100, 1.0, -1e100]
    assert math.fsum(values) == 2.0
    assert sequential_sum(values) == 0.0
    assert sequential_sum(np.array(values)) == 0.0
    assert sequential_sum([]) == 0.0


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _config(**overrides):
    base = dict(
        links=(LinkSpec(id="L1", distance=1.0), LinkSpec(id="L2", distance=2.0)),
        num_channels=6,
        channel_bandwidth=1e5,
        temperature=300.0,
        tx_power_per_channel=1e-4,
        span_bound=3,
        rng_seed=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_noise_power():
    cfg = _config()
    assert cfg.noise_density == pytest.approx(1.380649e-23 * 300.0)
    assert cfg.noise_power_per_channel == pytest.approx(1.380649e-23 * 300.0 * 1e5)


def test_config_min_span_bound():
    assert _config().min_span_bound == 3
    with pytest.warns(UserWarning):
        assert _config(num_channels=7).min_span_bound == 4


def test_config_warns_below_lower_bound():
    with pytest.warns(UserWarning):
        _config(span_bound=2)


def test_config_strict_bounds():
    with pytest.warns(UserWarning):
        cfg = _config(span_bound=2)
    with pytest.raises(ValidationError):
        cfg.validate(strict_bounds=True)
    _config(span_bound=3).validate(strict_bounds=True)


def test_config_rejects_bad_interferer_channels():
    with pytest.raises(ValidationError):
        _config(interferers=(InterfererSpec(name="X", channels=(7,),
                                            db_above_noise=33.0),))
    with pytest.raises(ValidationError):
        InterfererSpec(name="X", channels=(0,), db_above_noise=33.0)


def test_config_rejects_bad_scalars():
    for bad in (dict(num_channels=0), dict(channel_bandwidth=0.0),
                dict(temperature=0.0), dict(tx_power_per_channel=0.0),
                dict(span_bound=0), dict(span_bound=7), dict(rng_seed=-1)):
        with pytest.raises(ValidationError):
            _config(**bad)


# a float, whole or not, or a boolean where an integer belongs fails at
# construction, as it does in ProblemInstance
@pytest.mark.parametrize("bad", [
    dict(num_channels=6.0), dict(span_bound=3.0), dict(rng_seed=True),
    dict(rng_seed=1.5), dict(subcarriers_per_channel=2.5),
    dict(channels=(1.7, 2)), dict(channels=(True,)),
], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
def test_config_rejects_non_integer_fields(bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        if "channels" in bad:
            InterfererSpec(name="X", db_above_noise=3.0, **bad)
        else:
            _config(**bad)


def test_link_spec_positions_and_distance():
    link = LinkSpec(id="a", tx=(0.0, 0.0), rx=(3.0, 4.0))
    assert link.length() == 5.0
    with pytest.raises(ValidationError):
        LinkSpec(id="b", tx=(0.0, 0.0), rx=(1.0, 1.0), distance=2.0)
    with pytest.raises(ValidationError):
        LinkSpec(id="c", tx=(0.0, 0.0), rx=(0.0, 0.0))
    with pytest.raises(ValidationError):
        LinkSpec(id="d")


@pytest.mark.parametrize("key", ["tx", "rx"])
@pytest.mark.parametrize("point", [(), (0.0,), (0.0, 0.0, 5.0)])
def test_link_spec_rejects_points_not_pairs(key, point):
    coords = {"tx": (0.0, 0.0), "rx": (0.0, 1.0), key: point}
    with pytest.raises(ValidationError, match=f"{key} must be two numbers"):
        LinkSpec(id="a", **coords)


def test_problem_instance_validation():
    with pytest.raises(ValidationError):
        _instance([[1.0, -2.0]])
    with pytest.raises(ValidationError):
        _instance([[1.0, math.inf]])
    with pytest.raises(ValidationError):
        _instance([[1.0, 2.0]], b=3)
    # span bounds must be integers, never truncated
    for value in (2.5, 2.0, True):
        with pytest.raises(ValidationError,
                           match="span_bound must be an integer"):
            ProblemInstance(capacity=[[1.0, 2.0]], span_bound=value)
    with pytest.raises(ValidationError, match="span_bound must be an integer"):
        _instance([[1.0, 2.0, 3.0]]).with_span_bound(2.9)
    # numpy integers are accepted and stored as int
    inst = ProblemInstance(capacity=[[1.0, 2.0, 3.0]],
                           span_bound=np.uint8(3)).with_span_bound(np.int64(2))
    assert (inst.num_links, inst.num_channels, inst.span_bound) == (1, 3, 2)
    assert all(type(v) is int
               for v in (inst.num_links, inst.num_channels, inst.span_bound))
    for cap in ([1.0, 2.0], [[]], np.ones((1, 2, 2))):
        with pytest.raises(ValidationError, match="nonempty 2-D matrix"):
            ProblemInstance(capacity=cap, span_bound=1)


@pytest.mark.parametrize("cls, kwargs, extra", [
    (ProblemInstance, dict(capacity=[[1.0, 2.0]], span_bound=2),
     dict(num_links=1)),
    (ProblemInstance, dict(capacity=[[1.0, 2.0]], span_bound=2),
     dict(num_channels=2)),
    (ProblemInstance, dict(capacity=[[1.0, 2.0]], span_bound=2),
     dict(channel_bandwidth=1e5)),
    (RateResult, dict(per_channel=[[1.0, 2.0]]), dict(per_link=[3.0])),
    (RateResult, dict(per_channel=[[1.0, 2.0]]), dict(maxmin=3.0)),
])
def test_sizes_and_derived_rates_are_not_arguments(cls, kwargs, extra):
    cls(**kwargs)
    with pytest.raises(TypeError):
        cls(**kwargs, **extra)


def test_rate_result_derives_link_rates_and_maxmin():
    # each link's rate is its row's left-to-right sum, zeros included
    rates = RateResult([[1.0, 1e100, 1.0, 0.0], [0.0, 0.0, 2.0, 3.0]])
    assert rates.per_link.tolist() == [1e100, 5.0]
    assert rates.maxmin == 5.0
    assert type(rates.maxmin) is float
    with pytest.raises(ValueError):
        rates.per_link[0] = 0.0


@pytest.mark.parametrize("per_channel, match", [
    ([[2.0, -2.58642], [0.0, 3.0]], "rates must be finite and >= 0"),
    ([[2.0, math.inf], [0.0, 3.0]], "rates must be finite and >= 0"),
    ([[2.0, math.nan], [0.0, 3.0]], "rates must be finite and >= 0"),
    ([1.0, 2.0], "nonempty 2-D matrix"),
    ([[]], "nonempty 2-D matrix"),
    (np.ones((1, 1, 1)), "nonempty 2-D matrix"),
])
def test_rate_result_rejects_bad_rates(per_channel, match):
    with pytest.raises(ValidationError, match=match):
        RateResult(per_channel)


def test_allocation_matrix_helpers():
    a = AllocationMatrix(np.array([[1, 0, 1, 0], [0, 1, 0, 0]]))
    assert a.spans() == [3, 1]
    assert a.occupied_channels(0) == (1, 3)
    assert a.owner_vector() == [0, 1, 0, -1]
    rebuilt = AllocationMatrix.from_owner_vector([0, 1, 0, -1], 2)
    assert np.array_equal(rebuilt.entries, a.entries)
    rebuilt = AllocationMatrix.from_owner_vector(np.array([0, 1, 0, -1]), 2)
    assert np.array_equal(rebuilt.entries, a.entries)
    with pytest.raises(ValidationError):
        AllocationMatrix(np.array([[2, 0], [0, 1]]))
    with pytest.raises(ValidationError, match="shares a channel"):
        AllocationMatrix([[1, 0], [1, 0]])


@pytest.mark.parametrize("owners, match", [
    ([0, -2, 1, -7], "out of range"),
    ([0, 2, 1, -1], "out of range"),
    ([0, 1.0, 1, -1], "not an integer"),
    ([0, 0.5, 1, -1], "not an integer"),
    ([0, "1", 1, -1], "not an integer"),
    ([0, True, 1, -1], "not an integer"),
])
def test_from_owner_vector_rejects_bad_owners(owners, match):
    with pytest.raises(ValidationError, match=match):
        AllocationMatrix.from_owner_vector(owners, 2)


def test_allocation_matrix_immutable():
    a = AllocationMatrix(np.zeros((2, 3), dtype=np.int8))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 1


def test_rng_streams_deterministic():
    a = rng_streams(5, 3)
    b = rng_streams(5, 3)
    for ga, gb in zip(a, b):
        assert ga.random() == gb.random()
    parent1 = np.random.default_rng(9)
    parent2 = np.random.default_rng(9)
    for ga, gb in zip(rng_streams(parent1, 2), rng_streams(parent2, 2)):
        assert ga.random() == gb.random()
