import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from ncofdm_alloc.model import (
    InterfererSpec,
    LinkSpec,
    ScenarioConfig,
    ValidationError,
    compute_capacity,
    compute_sinr,
    path_loss_gain,
    rng_streams,
)
from ncofdm_alloc import scenario
from ncofdm_alloc.oracle import brute_force
from ncofdm_alloc.scenario import (
    GRID4X12,
    builtin_scenario,
    instance_from_gains,
    interference_row,
    load_scenario,
    realize_gains,
    realize_instance,
    reallocation_experiment,
    resolve_interferers,
    scenario_from_dict,
    scenario_to_dict,
    sweep,
)
from ncofdm_alloc.solver import _Tables, solve


def _small_cfg(**overrides):
    base = dict(
        links=(LinkSpec(id="L1", distance=1.0),
               LinkSpec(id="L2", distance=2.0)),
        num_channels=6,
        channel_bandwidth=1e5,
        temperature=300.0,
        tx_power_per_channel=1e-4,
        span_bound=3,
        rng_seed=4,
        interferers=(InterfererSpec(name="X", channels=(1, 2),
                                    db_above_noise=33.0),),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# builtin scenario
# ---------------------------------------------------------------------------

def test_grid4x12_shape():
    cfg = builtin_scenario("grid4x12")
    assert cfg.num_links == 4
    assert cfg.num_channels == 12
    assert cfg.channel_bandwidth == 100e3
    assert cfg.temperature == 300.0
    assert cfg.tx_power_per_channel == 1e-4
    lengths = [link.length() for link in cfg.links]
    assert lengths == [1.0, math.sqrt(5.0), math.sqrt(2.0), 2.0]
    occupied = {s.name: s.channels for s in cfg.interferers}
    assert occupied == {"A": (1, 2, 3), "B": (5, 6, 7), "C": (9, 10, 11)}
    assert all(s.db_above_noise == 33.0 for s in cfg.interferers)


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin_scenario("nope")


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_interference_row_levels():
    cfg = builtin_scenario("grid4x12")
    u = interference_row(cfg, {"C"})
    level = 10 ** 3.3 * cfg.noise_power_per_channel
    expected = np.zeros(12)
    expected[[8, 9, 10]] = level
    assert np.array_equal(u, expected)
    assert np.array_equal(interference_row(cfg, set()), np.zeros(12))


def test_interference_rows_add_up():
    cfg = _small_cfg(interferers=(
        InterfererSpec(name="X", channels=(1, 2), db_above_noise=33.0),
        InterfererSpec(name="Y", channels=(2, 3), db_above_noise=30.0),
    ))
    u = interference_row(cfg, None)
    noise = cfg.noise_power_per_channel
    assert u[0] == pytest.approx(10 ** 3.3 * noise)
    assert u[1] == pytest.approx((10 ** 3.3 + 10 ** 3.0) * noise)
    assert u[2] == pytest.approx(10 ** 3.0 * noise)
    assert u[3] == 0.0


def test_capacity_matches_scalar_physics_pipeline():
    cfg = _small_cfg()
    gains = realize_gains(cfg, 11)
    inst = instance_from_gains(cfg, gains, {"X"})
    u = interference_row(cfg, {"X"})
    for l in range(cfg.num_links):
        for m in range(cfg.num_channels):
            sinr = compute_sinr(cfg.tx_power_per_channel,
                                float(gains.values[l, m]),
                                cfg.noise_power_per_channel, float(u[m]))
            assert inst.capacity[l, m] == compute_capacity(
                cfg.channel_bandwidth, sinr)


def test_pure_los_gives_flat_channels():
    cfg = _small_cfg(rician_k_db=math.inf, interferers=())
    inst = realize_instance(cfg, set(), rng=5)
    for l in range(cfg.num_links):
        assert len(set(inst.capacity[l])) == 1
    # and the gain is exactly the path loss
    gains = realize_gains(cfg, 5)
    for l, link in enumerate(cfg.links):
        expected = path_loss_gain(link.length(), cfg.center_frequency)
        assert np.all(gains.values[l] == expected)


def test_fixed_seed_is_bit_identical():
    cfg = builtin_scenario("grid4x12")
    a = realize_instance(cfg, {"A", "B"}, rng=123)
    b = realize_instance(cfg, {"A", "B"}, rng=123)
    assert np.array_equal(a.capacity, b.capacity)
    c = realize_instance(cfg, {"A", "B"}, rng=124)
    assert not np.array_equal(a.capacity, c.capacity)


def test_interference_never_raises_capacity():
    cfg = builtin_scenario("grid4x12")
    gains = realize_gains(cfg, 77)
    quiet = instance_from_gains(cfg, gains, set())
    noisy = instance_from_gains(cfg, gains, {"A"})
    assert (noisy.capacity <= quiet.capacity).all()
    assert (noisy.capacity[:, 0:3] < quiet.capacity[:, 0:3]).all()
    assert np.array_equal(noisy.capacity[:, 3:], quiet.capacity[:, 3:])


def test_resolve_interferers():
    cfg = builtin_scenario("grid4x12")
    assert resolve_interferers(cfg, None) == {"A", "B", "C"}
    assert resolve_interferers(cfg, {"B"}) == {"B"}
    assert resolve_interferers(cfg, set()) == frozenset()
    with pytest.raises(ValidationError):
        resolve_interferers(cfg, {"Z"})


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_reallocation_same_sets_changes_nothing():
    cfg = _small_cfg()
    res = reallocation_experiment(cfg, {"X"}, {"X"}, rng=31)
    assert res.frozen_min == res.baseline_min
    assert res.reallocated_min == res.baseline_min
    assert np.array_equal(res.baseline_instance.capacity,
                          res.new_instance.capacity)


def test_span_bound_comes_from_the_config():
    cfg = builtin_scenario("grid4x12")
    gains = realize_gains(cfg, 1)
    inst = instance_from_gains(cfg, gains)
    assert (inst.num_links, inst.num_channels, inst.span_bound) == (4, 12, 4)
    with pytest.raises(TypeError):
        instance_from_gains(cfg, gains, span_bound=8)
    with pytest.raises(TypeError):
        reallocation_experiment(cfg, set(), {"C"}, span_bound=8)


def test_reallocation_shares_the_fading_draw():
    cfg = builtin_scenario("grid4x12")
    res = reallocation_experiment(cfg, set(), {"C"}, rng=8)
    # interference only touches C's channels, gains are shared
    assert np.array_equal(res.baseline_instance.capacity[:, :8],
                          res.new_instance.capacity[:, :8])
    assert (res.new_instance.capacity[:, 8:11]
            < res.baseline_instance.capacity[:, 8:11]).all()


def test_reallocation_recovers_rate():
    cfg = builtin_scenario("grid4x12")
    for seed in range(5):
        res = reallocation_experiment(cfg, set(), {"C"}, rng=seed)
        used = set()
        for l in range(4):
            used.update(res.baseline.allocation.occupied_channels(l))
        assert used & {9, 10, 11}            # baseline used C's channels
        assert res.frozen_min < res.baseline_min
        assert res.reallocated_min >= res.frozen_min
        assert res.reallocated_min <= res.baseline_min


def test_sweep_curve_properties():
    cfg = builtin_scenario("grid4x12")
    curve = sweep(cfg, [3, 4, 5], realizations=3, rng=6,
                  active_interferers={"A", "B", "C"})
    assert curve.values.shape == (3, 3)
    for row in curve.values:
        assert all(v1 <= v2 for v1, v2 in zip(row, row[1:]))
    assert curve.all_proven
    again = sweep(cfg, [3, 4, 5], realizations=3, rng=6,
                  active_interferers={"A", "B", "C"})
    assert np.array_equal(curve.values, again.values)


def _sweep_instances(cfg, rng, realizations):
    """Each realization's instance, rebuilt the way `sweep` draws it."""
    return [instance_from_gains(cfg, realize_gains(cfg, gen))
            for gen in rng_streams(rng, realizations)]


def test_sweep_matches_oracle():
    cfg = _small_cfg()
    b_values = range(1, 7)
    curve = sweep(cfg, b_values, realizations=4, rng=23)
    assert curve.all_proven
    for row, inst in zip(curve.values, _sweep_instances(cfg, 23, 4)):
        expected = [brute_force(inst.with_span_bound(b)).maxmin
                    for b in b_values]
        assert list(row) == expected


def test_sweep_truncated_resolves_every_bound():
    # a budget-truncated top solve proves nothing, so every bound is
    # re-solved in ascending order, each warm-started from the last; with
    # this seed and budget, reusing the top value from its span up would
    # give a different row
    cfg = _small_cfg()
    b_values = range(1, 7)
    budget = 12
    curve = sweep(cfg, b_values, realizations=3, rng=3, node_budget=budget)
    assert not curve.all_proven
    for row, inst in zip(curve.values, _sweep_instances(cfg, 3, 3)):
        top = solve(inst.with_span_bound(6), node_budget=budget)
        assert not top.proven_optimal
        expected, prev = [], None
        for b in b_values:
            res = solve(inst.with_span_bound(b), node_budget=budget,
                        warm_start=prev)
            prev = res.allocation
            expected.append(res.maxmin)
        assert list(row) == expected


def test_sweep_stops_at_its_ceiling(monkeypatch):
    # this draw's b = 3 optimum already equals the proven b = 12 optimum, so
    # the curve is flat from b = 3 and no larger bound needs its own solve
    cfg = builtin_scenario("grid4x12")
    active = {"A", "B", "C"}
    b_values = range(3, 13)
    solved = []

    def counting_solve(inst, **kwargs):
        solved.append(inst.span_bound)
        return solve(inst, **kwargs)

    monkeypatch.setattr(scenario, "solve", counting_solve)
    curve = sweep(cfg, b_values, realizations=1,
                  rng=np.random.default_rng((1000, 0)),
                  active_interferers=active)
    assert solved == [12, 3]
    assert curve.all_proven
    gen, = rng_streams(np.random.default_rng((1000, 0)), 1)
    inst = instance_from_gains(cfg, realize_gains(cfg, gen), active)
    expected = [solve(inst.with_span_bound(b)).maxmin for b in b_values]
    assert list(curve.values[0]) == expected


def _abc_draw(entry):
    """Draw `entry` of the grid's A,B,C sweep pool, as `sweep` realizes it."""
    gen, = rng_streams(np.random.default_rng((1000, entry)), 1)
    return instance_from_gains(GRID4X12, realize_gains(GRID4X12, gen),
                               {"A", "B", "C"})


def _logging_solve(monkeypatch, cut=None):
    """Replace the sweep's solve by one that logs (b, ceiling, result) and,
    at span bound `cut`, stops with no node searched."""
    log = []

    def logged(inst, **kwargs):
        if inst.span_bound == cut:
            kwargs["node_budget"] = 0
        res = solve(inst, **kwargs)
        log.append((inst.span_bound, kwargs.get("ceiling"), res))
        return res

    monkeypatch.setattr(scenario, "solve", logged)
    return log


def test_sweep_brackets_its_bounds(monkeypatch):
    # b = 12's optimum spans 11 channels and fixes b = 11; b = 3 falls below
    # it; b = 7, the upper middle of 4..10, reaches the b = 12 value, which
    # fixes 8..10 as equal to both, and its allocation spans 5 channels,
    # which fixes 5 and 6; b = 4 is left
    b_values = range(3, 13)
    log = _logging_solve(monkeypatch)
    curve = sweep(GRID4X12, b_values, realizations=1,
                  rng=np.random.default_rng((1000, 21)),
                  active_interferers={"A", "B", "C"})
    assert [b for b, _, _ in log] == [12, 3, 7, 4]
    assert curve.all_proven
    (_, _, top), (_, _, low), (_, _, mid), (_, ceiling, res) = log
    assert max(top.allocation.spans()) == 11
    assert mid.maxmin == top.maxmin
    assert max(mid.allocation.spans()) == 5
    # b = 4's ceiling is the optimum at b = 5, fixed by b = 7's span
    assert ceiling == mid.maxmin
    assert low.maxmin == res.maxmin < mid.maxmin
    inst = _abc_draw(21)
    expected = [solve(inst.with_span_bound(b)).maxmin.hex() for b in b_values]
    assert [v.hex() for v in curve.values[0]] == expected


def test_sweep_truncated_solve_below_the_top_fixes_nothing(monkeypatch):
    # b = 6 is cut short and returns b = 3's allocation (span 3), below its
    # optimum; as a fill it would fix 3..6, and 4 and 5 with it, at that
    # value, and as a ceiling it would lie. It does neither: the bounds
    # around it are solved under proven ceilings, and its own value is
    # raised to the optimum at b = 5, found later
    b_values = range(3, 13)
    log = _logging_solve(monkeypatch, cut=6)
    curve = sweep(GRID4X12, b_values, realizations=1,
                  rng=np.random.default_rng((1000, 9)),
                  active_interferers={"A", "B", "C"})
    assert not curve.all_proven
    assert [b for b, _, _ in log] == [12, 3, 6, 7, 5, 4, 8]
    cut = log[2][2]
    assert not cut.proven_optimal
    assert all(res.proven_optimal for b, _, res in log if b != 6)
    assert cut.maxmin == log[1][2].maxmin
    assert max(cut.allocation.spans()) == 3
    assert cut.maxmin not in [ceiling for _, ceiling, _ in log]
    inst = _abc_draw(9)
    exact = [solve(inst.with_span_bound(b)).maxmin for b in b_values]
    assert cut.maxmin < exact[3]
    assert list(curve.values[0]) == exact


def test_shared_tables_are_exact():
    # one realization's solves share one _Tables, as a sweep's do: every
    # result equals a solve on its own, and so does the node count while the
    # carried race order is index order, where a solve on its own starts
    cfg = builtin_scenario("grid4x12")
    carried = 0
    for env in ("none", "A", "C", "A,B,C"):
        active = set(env.split(",")) - {"none"}
        for draw in range(3):
            gen, = rng_streams(np.random.default_rng((1000, draw)), 1)
            inst = instance_from_gains(cfg, realize_gains(cfg, gen), active)
            tables = _Tables(inst)
            for b in (12, *range(3, 12)):
                from_index = tables.lead == 0
                carried += not from_index
                shared = solve(inst.with_span_bound(b), tables=tables)
                alone = solve(inst.with_span_bound(b))
                assert shared.proven_optimal and alone.proven_optimal
                assert (shared.allocation.owner_vector()
                        == alone.allocation.owner_vector())
                assert shared.maxmin.hex() == alone.maxmin.hex()
                if from_index:
                    assert shared.nodes_explored == alone.nodes_explored
    # some races started with largest-first, so the carried order ran
    assert carried


def test_sweep_workers_match_serial():
    cfg = builtin_scenario("grid4x12")
    serial = sweep(cfg, [3, 4], realizations=2, rng=42,
                   active_interferers={"A"})
    parallel = sweep(cfg, [3, 4], realizations=2, rng=42,
                     active_interferers={"A"}, workers=2)
    assert np.array_equal(serial.values, parallel.values)


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_nonpositive_workers(workers):
    cfg = builtin_scenario("grid4x12")
    with pytest.raises(ValidationError, match="workers"):
        sweep(cfg, [3, 4], realizations=1, rng=42, workers=workers)


@pytest.mark.parametrize("name, value", [
    ("realizations", 2.5), ("realizations", True), ("realizations", 1.0),
    ("workers", 1.5), ("workers", True), ("workers", "2")])
def test_sweep_counts_must_be_integers(name, value):
    # a fraction, a boolean or a string is rejected, not truncated or read
    # as 1
    cfg = builtin_scenario("grid4x12")
    kwargs = {"realizations": 1, "workers": 1, name: value}
    with pytest.raises(ValidationError, match=name):
        sweep(cfg, [3, 4], rng=42, **kwargs)


def test_reallocation_reports_frozen_still_optimal():
    cfg = builtin_scenario("grid4x12")
    for seed, new, expected in ((3, "A", True), (9, "A", False)):
        res = reallocation_experiment(cfg, set(), {new}, rng=seed)
        assert res.frozen_still_optimal is expected
        assert expected == (res.frozen_min == res.reallocated_min)


def test_sweep_strict_bounds():
    cfg = builtin_scenario("grid4x12")      # ceil(12/4) = 3
    with pytest.raises(ValidationError):
        sweep(cfg, [2, 3], realizations=1, rng=1, strict_bounds=True)
    curve = sweep(cfg, [3, 4], realizations=1, rng=1, strict_bounds=True,
                  active_interferers=set())
    assert curve.b_values == (3, 4)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_scenario_dict_round_trip():
    cfg = builtin_scenario("grid4x12")
    rebuilt = scenario_from_dict(scenario_to_dict(cfg))
    assert rebuilt == cfg


def _full_cfg():
    """Every kind of config field: a positioned link, a distance link, two
    interferers and non-default optional scalars."""
    return _small_cfg(
        links=(LinkSpec(id="P", tx=(0.0, 0.0), rx=(3.0, 4.0)),
               LinkSpec(id="D", distance=2.5)),
        subcarriers_per_channel=3,
        center_frequency=2.4e9,
        rician_k_db=10.0,
        interferers=(InterfererSpec(name="X", channels=(1, 2),
                                    db_above_noise=33.0),
                     InterfererSpec(name="Y", channels=(5,),
                                    db_above_noise=20.5)),
    )


def test_scenario_dict_round_trip_every_field():
    cfg = _full_cfg()
    data = json.loads(json.dumps(scenario_to_dict(cfg)))
    assert scenario_from_dict(data) == cfg


def test_scenario_dict_keys_are_the_fields_not_none():
    def keys(spec):
        return [f.name for f in dataclasses.fields(spec)
                if getattr(spec, f.name) is not None]

    cfg = _full_cfg()
    data = json.loads(json.dumps(scenario_to_dict(cfg)))
    assert list(data) == keys(cfg)
    assert [list(d) for d in data["links"]] == [keys(l) for l in cfg.links]
    assert data["links"] == [{"id": "P", "tx": [0.0, 0.0], "rx": [3.0, 4.0]},
                             {"id": "D", "distance": 2.5}]
    assert ([list(d) for d in data["interferers"]]
            == [keys(s) for s in cfg.interferers])


def test_builtin_config_hash_is_stable():
    # the digest a manifest records for --scenario grid4x12
    text = json.dumps(scenario_to_dict(GRID4X12), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "4860738946f416b93fd505906c564f9942c62e4ce0d91dca57dacc3f49b96d09")


def test_scenario_from_dict_rejects_unknown_keys():
    data = scenario_to_dict(_small_cfg())
    data["bogus"] = 1
    with pytest.raises(ValidationError):
        scenario_from_dict(data)
    link_bad = scenario_to_dict(_small_cfg())
    link_bad["links"][0]["oops"] = 2
    with pytest.raises(ValidationError):
        scenario_from_dict(link_bad)


def test_scenario_from_dict_rejects_missing_keys():
    data = scenario_to_dict(_small_cfg())
    del data["span_bound"]
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_scenario_from_dict_takes_integral_floats():
    # a fraction where an integer belongs is an error, but a JSON number
    # with a zero fraction is that integer
    data = scenario_to_dict(GRID4X12)
    data["num_channels"] = 12.0
    data["interferers"][0]["channels"] = [1.0, 2, 3]
    assert scenario_from_dict(data) == GRID4X12


def test_load_scenario_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_to_dict(_small_cfg())))
    cfg = load_scenario(path)
    assert cfg == _small_cfg()
    with pytest.raises(ValidationError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_positions_config():
    cfg = scenario_from_dict({
        "links": [{"id": "a", "tx": [0, 0], "rx": [0, 1]},
                  {"id": "b", "tx": [1, 0], "rx": [1, 2]}],
        "num_channels": 4,
        "channel_bandwidth": 1e5,
        "temperature": 300,
        "tx_power_per_channel": 1e-4,
        "span_bound": 2,
        "rng_seed": 0,
    })
    assert [link.length() for link in cfg.links] == [1.0, 2.0]
