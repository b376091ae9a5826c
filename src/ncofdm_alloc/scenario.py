"""Scenario realization and the simulation experiments.

A ScenarioConfig is turned into a numeric ProblemInstance in two steps:
gains (free-space path loss times an i.i.d. Rician fade per link and
channel), then capacities from SINR with the configured interferers
active. Splitting the steps lets an experiment reuse one fading
realization across several interference conditions, which is what the
reallocation comparison needs.
"""

from __future__ import annotations

import json
import math
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
    as_rng,
    compute_capacity,
    compute_sinr,
    evaluate_rates,
    path_loss_gain,
    rng_streams,
    sample_rician_power_gain,
)
from .solver import DEFAULT_NODE_BUDGET, SolveResult, solve

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

_CONFIG_KEYS = {
    "links", "num_channels", "channel_bandwidth", "temperature",
    "tx_power_per_channel", "span_bound", "rng_seed",
    "subcarriers_per_channel", "center_frequency", "rician_k_db",
    "interferers",
}
_REQUIRED_KEYS = {
    "links", "num_channels", "channel_bandwidth", "temperature",
    "tx_power_per_channel", "span_bound", "rng_seed",
}
_LINK_KEYS = {"id", "tx", "rx", "distance"}
_INTERFERER_KEYS = {"name", "channels", "db_above_noise"}


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
        return _config_from_dict(data)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc


def _config_from_dict(data):
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")

    links = []
    for i, entry in enumerate(data["links"]):
        if not isinstance(entry, dict):
            raise ValidationError("each link must be an object")
        unknown = set(entry) - _LINK_KEYS
        if unknown:
            raise ValidationError(
                f"link {i}: unknown keys {sorted(unknown)}")
        if "id" not in entry:
            raise ValidationError(f"link {i}: missing id")
        links.append(LinkSpec(
            id=str(entry["id"]),
            tx=tuple(entry["tx"]) if "tx" in entry else None,
            rx=tuple(entry["rx"]) if "rx" in entry else None,
            distance=entry.get("distance"),
        ))

    interferers = []
    for i, entry in enumerate(data.get("interferers", [])):
        if not isinstance(entry, dict):
            raise ValidationError("each interferer must be an object")
        unknown = set(entry) - _INTERFERER_KEYS
        if unknown:
            raise ValidationError(
                f"interferer {i}: unknown keys {sorted(unknown)}")
        missing = _INTERFERER_KEYS - set(entry)
        if missing:
            raise ValidationError(
                f"interferer {i}: missing keys {sorted(missing)}")
        interferers.append(InterfererSpec(
            name=str(entry["name"]),
            channels=tuple(int(c) for c in entry["channels"]),
            db_above_noise=float(entry["db_above_noise"]),
        ))

    kwargs = {}
    for key in ("subcarriers_per_channel", "center_frequency", "rician_k_db"):
        if key in data:
            kwargs[key] = data[key]
    return ScenarioConfig(
        links=tuple(links),
        num_channels=int(data["num_channels"]),
        channel_bandwidth=float(data["channel_bandwidth"]),
        temperature=float(data["temperature"]),
        tx_power_per_channel=float(data["tx_power_per_channel"]),
        span_bound=int(data["span_bound"]),
        rng_seed=int(data["rng_seed"]),
        interferers=tuple(interferers),
        **kwargs,
    )


def read_scenario(path) -> tuple[ScenarioConfig, bytes]:
    """Parse a JSON config file. The bytes parsed are returned too, so a
    caller can hash exactly what it read."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return scenario_from_dict(data), raw


def load_scenario(path) -> ScenarioConfig:
    return read_scenario(path)[0]


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    links = []
    for link in cfg.links:
        if link.distance is not None:
            links.append({"id": link.id, "distance": link.distance})
        else:
            links.append({"id": link.id, "tx": list(link.tx),
                          "rx": list(link.rx)})
    return {
        "links": links,
        "num_channels": cfg.num_channels,
        "channel_bandwidth": cfg.channel_bandwidth,
        "temperature": cfg.temperature,
        "tx_power_per_channel": cfg.tx_power_per_channel,
        "span_bound": cfg.span_bound,
        "rng_seed": cfg.rng_seed,
        "subcarriers_per_channel": cfg.subcarriers_per_channel,
        "center_frequency": cfg.center_frequency,
        "rician_k_db": cfg.rician_k_db,
        "interferers": [
            {"name": s.name, "channels": list(s.channels),
             "db_above_noise": s.db_above_noise}
            for s in cfg.interferers
        ],
    }


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
        span_bound=cfg.span_bound if span_bound is None else int(span_bound))


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
    b_values = tuple(int(b) for b in b_values)
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
    every bound."""
    cfg, b_values, active, gen, node_budget = task
    gains = realize_gains(cfg, gen)
    inst = instance_from_gains(cfg, gains, active)
    top = solve(inst.with_span_bound(b_values[-1]), node_budget=node_budget)
    proven = top.proven_optimal
    span_star = max(top.allocation.spans()) if proven else math.inf
    row, prev = [], None
    for b in b_values:
        if b >= span_star:
            row.append(top.maxmin)
            continue
        res = solve(inst.with_span_bound(b), node_budget=node_budget,
                    warm_start=prev)
        prev = res.allocation
        proven = proven and res.proven_optimal
        row.append(res.maxmin)
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
