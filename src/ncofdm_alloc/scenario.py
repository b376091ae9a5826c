"""Scenario realization and the simulation experiments.

A ScenarioConfig is turned into a numeric ProblemInstance in two steps:
gains (free-space path loss times an i.i.d. Rician fade per link and
channel), then capacities from SINR with the configured interferers
active. Splitting the steps lets an experiment reuse one fading
realization across several interference conditions, which is what the
reallocation comparison needs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    GainMatrix,
    InterfererSpec,
    LinkSpec,
    ProblemInstance,
    RateResult,
    ScenarioConfig,
    ValidationError,
    as_int,
    as_rng,
    compute_capacity,
    compute_sinr,
    evaluate_rates,
    path_loss_gain,
    rng_streams,
    sample_rician_power_gain,
)
from .solver import DEFAULT_NODE_BUDGET, SolveResult, _Tables, solve

# Four links on a unit grid sharing 12 channels of 100 kHz, with three
# fixed interferers that can be toggled independently.
GRID4X12 = ScenarioConfig(
    links=(
        LinkSpec(id="L1", distance=1.0),
        LinkSpec(id="L2", distance=math.sqrt(5.0)),
        LinkSpec(id="L3", distance=math.sqrt(2.0)),
        LinkSpec(id="L4", distance=2.0),
    ),
    num_channels=12,
    channel_bandwidth=100e3,
    temperature=300.0,
    tx_power_per_channel=1e-4,
    span_bound=4,
    rng_seed=12,
    subcarriers_per_channel=4,
    center_frequency=1.5e9,
    rician_k_db=30.0,
    interferers=(
        InterfererSpec(name="A", channels=(1, 2, 3), db_above_noise=33.0),
        InterfererSpec(name="B", channels=(5, 6, 7), db_above_noise=33.0),
        InterfererSpec(name="C", channels=(9, 10, 11), db_above_noise=33.0),
    ),
)

BUILTIN_SCENARIOS = {"grid4x12": GRID4X12}


def builtin_scenario(name: str) -> ScenarioConfig:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; available: "
            f"{sorted(BUILTIN_SCENARIOS)}") from None


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON. Unknown keys are errors so that a
    typo cannot silently fall back to a default, and so is a value of the
    wrong type."""
    try:
        return _from_dict(ScenarioConfig, data, "")
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The JSON form of a config: every field that is not None, in
    declaration order, tuples as lists."""
    return _to_json(cfg)


# The spec dataclasses are the config schema: a field without a default is
# a required key, and its annotation picks how a JSON value is read.

def _fields(spec):
    """(name, annotation, required) per field of a spec, in order."""
    hints = typing.get_type_hints(spec)
    return tuple((f.name, hints[f.name], f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(spec))


_SCHEMA = {spec: _fields(spec)
           for spec in (ScenarioConfig, LinkSpec, InterfererSpec)}


def _from_dict(spec, data, key):
    where = key or "config"
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    schema = _SCHEMA[spec]
    unknown = set(data) - {name for name, _, _ in schema}
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [name for name, _, required in schema
               if required and name not in data]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    prefix = f"{key}." if key else ""
    return spec(**{name: _parse(hint, data[name], prefix + name)
                   for name, hint, _ in schema if name in data})


def _parse(hint, value, key):
    """A JSON value read as the annotated type; `key` names it in errors."""
    if type(None) in typing.get_args(hint):     # X | None: null is no value
        hint = typing.get_args(hint)[0]
    if hint in _SCHEMA:
        return _from_dict(hint, value, key)
    if typing.get_origin(hint) is tuple:
        # tuple[X, ...] and tuple[X, X] alike are a list of X; a spec that
        # needs a fixed length checks it
        if not isinstance(value, list):
            raise ValidationError(f"{key} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_parse(item, v, f"{key}[{i}]")
                     for i, v in enumerate(value))
    return _SCALARS[hint](value, key)


def _integer(value, key):
    """A JSON number without a fractional part, and not a boolean."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(value, key):
    """A JSON number within the range of a float, and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{key} is out of range for a float") from None


_SCALARS = {int: _integer, float: _number, str: lambda value, key: str(value)}


def _to_json(value):
    if type(value) in _SCHEMA:
        return {name: _to_json(item) for name, _, _ in _SCHEMA[type(value)]
                if (item := getattr(value, name)) is not None}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def read_scenario(path) -> tuple[ScenarioConfig, bytes]:
    """Parse a JSON config file. The bytes parsed are returned too, so a
    caller can hash exactly what it read."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal longer than the interpreter converts
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return scenario_from_dict(data), raw


def load_scenario(path) -> ScenarioConfig:
    return read_scenario(path)[0]


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def resolve_interferers(cfg: ScenarioConfig, active) -> frozenset[str]:
    """Normalize an iterable of interferer names; None means all configured."""
    if active is None:
        return frozenset(cfg.interferer_names())
    active = frozenset(str(name) for name in active)
    unknown = active - set(cfg.interferer_names())
    if unknown:
        raise ValidationError(
            f"unknown interferers {sorted(unknown)}; configured: "
            f"{list(cfg.interferer_names())}")
    return active


def interference_row(cfg: ScenarioConfig, active_interferers) -> np.ndarray:
    """Received interference power per channel (identical at every
    receiver), Watts. Co-channel interferers add up."""
    active = resolve_interferers(cfg, active_interferers)
    u = np.zeros(cfg.num_channels)
    noise = cfg.noise_power_per_channel
    for spec in cfg.interferers:
        if spec.name not in active:
            continue
        level = 10.0 ** (spec.db_above_noise / 10.0) * noise
        for c in spec.channels:
            u[c - 1] += level
    return u


def realize_gains(cfg: ScenarioConfig, rng) -> GainMatrix:
    """Path loss times one i.i.d. Rician fade per (link, channel)."""
    gen = as_rng(cfg.rng_seed if rng is None else rng)
    n, m_total = cfg.num_links, cfg.num_channels
    fades = sample_rician_power_gain(cfg.rician_k_db, gen, size=(n, m_total))
    fades = np.asarray(fades, dtype=np.float64).reshape(n, m_total)
    pl = np.array([path_loss_gain(link.length(), cfg.center_frequency)
                   for link in cfg.links])
    return GainMatrix(pl[:, None] * fades)


def instance_from_gains(cfg: ScenarioConfig, gains: GainMatrix,
                        active_interferers=None,
                        span_bound: int | None = None) -> ProblemInstance:
    """Capacities from gains and the active interference pattern."""
    n, m_total = cfg.num_links, cfg.num_channels
    if gains.values.shape != (n, m_total):
        raise ValidationError("gain matrix shape does not match the config")
    u_row = interference_row(cfg, active_interferers)
    noise = cfg.noise_power_per_channel
    power = cfg.tx_power_per_channel
    bandwidth = cfg.channel_bandwidth
    capacity = np.zeros((n, m_total))
    for l in range(n):
        for m in range(m_total):
            sinr = compute_sinr(power, float(gains.values[l, m]),
                                noise, float(u_row[m]))
            capacity[l, m] = compute_capacity(bandwidth, sinr)
    return ProblemInstance(
        num_links=n, num_channels=m_total,
        channel_bandwidth=bandwidth, capacity=capacity,
        span_bound=cfg.span_bound if span_bound is None else span_bound)


def realize_instance(cfg: ScenarioConfig, active_interferers=None,
                     rng=None) -> ProblemInstance:
    """One complete realization: draw fades, apply interference, build the
    numeric instance."""
    gains = realize_gains(cfg, rng)
    return instance_from_gains(cfg, gains, active_interferers)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffCurve:
    """Mean (and spread of) max-min rate as a function of the span bound."""

    b_values: tuple[int, ...]
    mean_maxmin: np.ndarray       # bits/s, one entry per b
    std_maxmin: np.ndarray        # population std over realizations
    values: np.ndarray            # (realizations, len(b_values)) raw optima
    all_proven: bool

    @property
    def realizations(self) -> int:
        return self.values.shape[0]


def check_b_values(b_values: Sequence[int], num_channels: int,
                   lower: int = 1) -> tuple[int, ...]:
    b_values = tuple(as_int(b, "span bound") for b in b_values)
    if not b_values:
        raise ValidationError("need at least one span bound")
    if any(b2 <= b1 for b1, b2 in zip(b_values, b_values[1:])):
        raise ValidationError("span bounds must be strictly increasing")
    if b_values[0] < lower or b_values[-1] > num_channels:
        raise ValidationError(
            f"span bounds must lie in [{lower}, {num_channels}]")
    return b_values


@dataclass(frozen=True)
class ExperimentResult:
    """Reallocation comparison under an interference change, one fading
    realization: solve under the baseline interferers, re-evaluate that
    frozen allocation after the change, then re-solve."""

    baseline_interferers: frozenset[str]
    new_interferers: frozenset[str]
    baseline_instance: ProblemInstance
    new_instance: ProblemInstance
    baseline: SolveResult
    frozen_rates: RateResult
    reallocated: SolveResult

    @property
    def baseline_min(self) -> float:
        return self.baseline.maxmin

    @property
    def frozen_min(self) -> float:
        return self.frozen_rates.maxmin

    @property
    def reallocated_min(self) -> float:
        return self.reallocated.maxmin

    @property
    def frozen_still_optimal(self) -> bool:
        """Whether re-solving after the change gains nothing over keeping
        the baseline allocation."""
        return self.frozen_min == self.reallocated_min


def reallocation_experiment(cfg: ScenarioConfig,
                            baseline_interferers,
                            new_interferers,
                            span_bound: int | None = None,
                            rng=None, *,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> ExperimentResult:
    """Run the three-condition comparison on a single fading realization.

    The same gains are used for both interference conditions; only the
    interference term (and hence the capacities) changes.
    """
    baseline = resolve_interferers(cfg, baseline_interferers)
    new = resolve_interferers(cfg, new_interferers)
    gains = realize_gains(cfg, rng)
    inst0 = instance_from_gains(cfg, gains, baseline, span_bound=span_bound)
    inst1 = instance_from_gains(cfg, gains, new, span_bound=span_bound)
    base_res = solve(inst0, node_budget=node_budget)
    frozen = evaluate_rates(inst1, base_res.allocation)
    realloc = solve(inst1, node_budget=node_budget,
                    warm_start=base_res.allocation)
    return ExperimentResult(
        baseline_interferers=baseline,
        new_interferers=new,
        baseline_instance=inst0,
        new_instance=inst1,
        baseline=base_res,
        frozen_rates=frozen,
        reallocated=realloc,
    )


def _sweep_one(task):
    """One realization of the trade-off curve: realize, then solve per span
    bound. Solving the largest bound first often settles the rest: when
    that optimum is proven, every b at or above its max row span (span*)
    shares its value (feasible there, and the optimum is monotone in b).
    The other bounds are solved in ascending order, each warm-started from
    the previous allocation; after a budget-truncated top solve that is
    every bound. Once a solve reaches the proven top value, the curve has
    reached its ceiling and every larger bound shares that value unsolved.
    Skipping those solves changes no value; it can turn the proven flag
    from False to True only where a node budget cut one of them short.
    The solves share one `_Tables` of the draw's capacities: the solver
    tables that do not depend on b, and the race order that last proved
    an optimum below b = M. A proven value is the same either way."""
    cfg, b_values, active, gen, node_budget = task
    gains = realize_gains(cfg, gen)
    inst = instance_from_gains(cfg, gains, active)
    tables = _Tables(inst)
    top = solve(inst.with_span_bound(b_values[-1]), node_budget=node_budget,
                tables=tables)
    proven = top.proven_optimal
    span_star = max(top.allocation.spans()) if proven else math.inf
    row, prev = [], None
    for b in b_values:
        if b >= span_star:
            row.append(top.maxmin)
            continue
        res = solve(inst.with_span_bound(b), node_budget=node_budget,
                    warm_start=prev, tables=tables)
        prev = res.allocation
        proven = proven and res.proven_optimal
        row.append(res.maxmin)
        if top.proven_optimal and res.maxmin == top.maxmin:
            span_star = b
    for v1, v2 in zip(row, row[1:]):
        if v2 < v1:
            raise RuntimeError("per-realization curve decreased; solver bug")
    return row, proven


def sweep(cfg: ScenarioConfig,
          b_values: Sequence[int],
          realizations: int,
          rng=None, *,
          active_interferers=None,
          strict_bounds: bool = False,
          node_budget: int = DEFAULT_NODE_BUDGET,
          workers: int = 1) -> TradeoffCurve:
    """Trade-off curve via the exact solver: for each fading realization,
    one exact optimum per span bound, then mean and spread per bound.

    Realizations are independent; `workers > 1` runs them in a process
    pool, and `workers < 1` is a ValidationError. Each realization's
    generator is derived up front from the seed, so results do not depend
    on scheduling.
    """
    realizations = as_int(realizations, "realizations")
    workers = as_int(workers, "workers")
    if realizations < 1:
        raise ValidationError("realizations must be >= 1")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    lower = cfg.min_span_bound if strict_bounds else 1
    b_checked = check_b_values(b_values, cfg.num_channels, lower=lower)
    active = resolve_interferers(cfg, active_interferers)
    streams = rng_streams(cfg.rng_seed if rng is None else rng, realizations)
    tasks = [(cfg, b_checked, active, gen, node_budget) for gen in streams]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_one, tasks))
    else:
        outcomes = [_sweep_one(task) for task in tasks]
    values = np.array([row for row, _ in outcomes])
    all_proven = all(proven for _, proven in outcomes)
    return TradeoffCurve(b_values=b_checked,
                         mean_maxmin=values.mean(axis=0),
                         std_maxmin=values.std(axis=0),
                         values=values,
                         all_proven=all_proven)
