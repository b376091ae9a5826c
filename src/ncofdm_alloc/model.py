"""Domain types and link physics for NC-OFDM spectrum allocation.

Rates are bits/s everywhere inside the library; the CLI converts to Mbps
only when writing CSV. Channel numbers are 1-based in configs, reports and
CSV headers, and 0-based inside arrays.

No value is stored beside the data it follows from. A `ProblemInstance`
reads its size from its capacity matrix, and a `RateResult` derives each
link's rate, the sequential float sum of its row of per-channel rates in
ascending channel order, and the max-min value from those rates. The
solver and the exhaustive oracle use the same accumulation, so their
objective values are bit-identical and can be compared exactly.

Each type checks its invariants once, where it is built: an
`AllocationMatrix` holds only 0s and 1s and shares no channel between
links, so no function that takes one checks orthogonality again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
SPEED_OF_LIGHT_M_PER_S = 3.0e8


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def as_rng(rng) -> np.random.Generator:
    """Normalize an int seed (or None) into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def as_int(value, name: str) -> int:
    """An integer argument as an int: Python and numpy integers pass;
    booleans and floats, whole ones included, are a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def rng_streams(rng, count: int) -> list[np.random.Generator]:
    """Derive `count` independent child generators, deterministically.

    An integer seed yields the family (seed, 0), (seed, 1), ...; passing a
    Generator splits it with `spawn`, which is deterministic in its state.
    """
    if isinstance(rng, np.random.Generator):
        return list(rng.spawn(count))
    seed = int(rng)
    return [np.random.default_rng((seed, k)) for k in range(count)]


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSpec:
    """One point-to-point link, given either as tx/rx coordinates (meters)
    or directly as a tx-rx distance in meters."""

    id: str
    tx: tuple[float, float] | None = None
    rx: tuple[float, float] | None = None
    distance: float | None = None

    def __post_init__(self):
        if self.distance is not None:
            if self.tx is not None or self.rx is not None:
                raise ValidationError(
                    f"link {self.id!r}: give tx/rx or distance, not both")
            d = float(self.distance)
            if not (math.isfinite(d) and d > 0):
                raise ValidationError(f"link {self.id!r}: distance must be > 0")
            object.__setattr__(self, "distance", d)
        else:
            if self.tx is None or self.rx is None:
                raise ValidationError(
                    f"link {self.id!r}: give both tx and rx, or a distance")
            for key in ("tx", "rx"):
                point = tuple(getattr(self, key))
                if len(point) != 2:
                    raise ValidationError(
                        f"link {self.id!r}: {key} must be two numbers, "
                        f"got {getattr(self, key)!r}")
                object.__setattr__(self, key, tuple(float(v) for v in point))
            if not self.length() > 0:
                raise ValidationError(
                    f"link {self.id!r}: tx and rx must not coincide")

    def length(self) -> float:
        """Tx-rx separation in meters."""
        if self.distance is not None:
            return self.distance
        return math.dist(self.tx, self.rx)


@dataclass(frozen=True)
class InterfererSpec:
    """An out-of-network transmitter occupying a fixed set of channels.

    `db_above_noise` is the received interference level per occupied
    channel, in dB relative to the per-channel noise power N0*W.
    """

    name: str
    channels: tuple[int, ...]
    db_above_noise: float

    def __post_init__(self):
        chans = tuple(as_int(c, f"interferer {self.name!r}: channel")
                      for c in self.channels)
        if not chans:
            raise ValidationError(f"interferer {self.name!r}: empty channel set")
        if any(c < 1 for c in chans):
            raise ValidationError(
                f"interferer {self.name!r}: channel numbers are 1-based")
        object.__setattr__(self, "channels", chans)
        if not math.isfinite(self.db_above_noise):
            raise ValidationError(
                f"interferer {self.name!r}: level must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of a simulation scenario."""

    links: tuple[LinkSpec, ...]
    num_channels: int
    channel_bandwidth: float        # Hz
    temperature: float              # Kelvin
    tx_power_per_channel: float     # Watts, same for every link and channel
    span_bound: int                 # max allowed span, in channels
    rng_seed: int
    subcarriers_per_channel: int = 1
    center_frequency: float = 1.5e9
    rician_k_db: float = 30.0
    interferers: tuple[InterfererSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "interferers", tuple(self.interferers))
        for name in ("num_channels", "span_bound", "rng_seed",
                     "subcarriers_per_channel"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        self.validate(strict_bounds=False)
        if self.span_bound < self.min_span_bound:
            warnings.warn(
                f"span_bound={self.span_bound} is below ceil(M/N)="
                f"{self.min_span_bound}; some spectrum must go unused",
                stacklevel=2)

    # -- derived quantities --------------------------------------------

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def noise_density(self) -> float:
        """One-sided noise power spectral density N0 = k*T, W/Hz."""
        return BOLTZMANN_J_PER_K * self.temperature

    @property
    def noise_power_per_channel(self) -> float:
        """Thermal noise power in one channel, N0*W, Watts."""
        return self.noise_density * self.channel_bandwidth

    @property
    def min_span_bound(self) -> int:
        """Smallest span bound that still lets N links cover M channels."""
        return -(-self.num_channels // self.num_links)

    def interferer_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.interferers)

    # -- validation ----------------------------------------------------

    def validate(self, strict_bounds: bool = False) -> None:
        if not self.links:
            raise ValidationError("at least one link is required")
        ids = [link.id for link in self.links]
        if len(set(ids)) != len(ids):
            raise ValidationError("link ids must be unique")
        if self.num_channels < 1:
            raise ValidationError("num_channels must be >= 1")
        if not self.channel_bandwidth > 0:
            raise ValidationError("channel_bandwidth must be > 0")
        if not self.temperature > 0:
            raise ValidationError("temperature must be > 0")
        if not self.tx_power_per_channel > 0:
            raise ValidationError("tx_power_per_channel must be > 0")
        if self.subcarriers_per_channel < 1:
            raise ValidationError("subcarriers_per_channel must be >= 1")
        if not self.center_frequency > 0:
            raise ValidationError("center_frequency must be > 0")
        if math.isnan(self.rician_k_db):
            raise ValidationError("rician_k_db must not be NaN")
        if not 1 <= self.span_bound <= self.num_channels:
            raise ValidationError(
                f"span_bound must be in [1, {self.num_channels}]")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be a nonnegative integer")
        names = [spec.name for spec in self.interferers]
        if len(set(names)) != len(names):
            raise ValidationError("interferer names must be unique")
        for spec in self.interferers:
            bad = [c for c in spec.channels if c > self.num_channels]
            if bad:
                raise ValidationError(
                    f"interferer {spec.name!r}: channels {bad} exceed "
                    f"num_channels={self.num_channels}")
        if strict_bounds and self.span_bound < self.min_span_bound:
            raise ValidationError(
                f"strict bounds: span_bound={self.span_bound} is below "
                f"ceil(M/N)={self.min_span_bound}")


# ---------------------------------------------------------------------------
# Numeric problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemInstance:
    """A fully numeric allocation problem: per-link per-channel capacities
    plus the span bound. This is all the optimizer ever sees."""

    capacity: np.ndarray            # (num_links, num_channels), bits/s
    span_bound: int

    def __post_init__(self):
        cap = np.array(self.capacity, dtype=np.float64)
        if cap.ndim != 2 or cap.size == 0:
            raise ValidationError("capacity must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(cap)) or np.any(cap < 0):
            raise ValidationError("capacities must be finite and >= 0")
        cap.setflags(write=False)
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "span_bound",
                           as_int(self.span_bound, "span_bound"))
        if not 1 <= self.span_bound <= self.num_channels:
            raise ValidationError(
                f"span_bound must be in [1, {self.num_channels}]")

    @property
    def num_links(self) -> int:
        return self.capacity.shape[0]

    @property
    def num_channels(self) -> int:
        return self.capacity.shape[1]

    def with_span_bound(self, span_bound: int) -> "ProblemInstance":
        return replace(self, span_bound=span_bound)


@dataclass(frozen=True)
class GainMatrix:
    """Dimensionless power gains, one per (link, channel)."""

    values: np.ndarray

    def __post_init__(self):
        g = np.array(self.values, dtype=np.float64)
        if g.ndim != 2:
            raise ValidationError("gain matrix must be 2-D")
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
            raise ValidationError("gains must be finite and > 0")
        g.setflags(write=False)
        object.__setattr__(self, "values", g)


@dataclass(frozen=True)
class AllocationMatrix:
    """Binary channel assignment, one row per link.

    Entry (l, m) is 1 when link l transmits on channel m. No channel is
    shared by two links (orthogonality): the constructor rejects a matrix
    that breaks this, so every allocation in hand is orthogonal.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries)
        if a.ndim != 2:
            raise ValidationError("allocation must be 2-D")
        if not ((a == 0) | (a == 1)).all():
            raise ValidationError("allocation entries must be 0 or 1")
        a = a.astype(np.int8)
        if (a.sum(axis=0) > 1).any():
            raise ValidationError("allocation shares a channel between links")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def num_links(self) -> int:
        return self.entries.shape[0]

    @property
    def num_channels(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_owner_vector(cls, owners: Sequence[int],
                          num_links: int) -> "AllocationMatrix":
        """Build from a per-channel owner vector, -1 meaning unassigned."""
        owners = list(owners)
        a = np.zeros((num_links, len(owners)), dtype=np.int8)
        for m, l in enumerate(owners):
            if type(l) is bool or not isinstance(l, (int, np.integer)):
                raise ValidationError(
                    f"owner {l!r} of channel {m} is not an integer")
            if l == -1:
                continue
            if not 0 <= l < num_links:
                raise ValidationError(f"owner {l} out of range")
            a[l, m] = 1
        return cls(a)

    def owner_vector(self) -> list[int]:
        """Per-channel owner index, -1 for unassigned."""
        owners = [-1] * self.num_channels
        for l in range(self.num_links):
            for m in np.flatnonzero(self.entries[l]):
                owners[int(m)] = l
        return owners

    def spans(self) -> list[int]:
        return [spectral_span(row) for row in self.entries]

    def occupied_channels(self, link: int) -> tuple[int, ...]:
        """1-based channel numbers used by a link."""
        return tuple(int(m) + 1 for m in np.flatnonzero(self.entries[link]))


def as_allocation(obj) -> AllocationMatrix:
    if isinstance(obj, AllocationMatrix):
        return obj
    return AllocationMatrix(np.asarray(obj))


@dataclass(frozen=True)
class RateResult:
    """Per-channel rates of one allocation, bits/s, and what they fix:
    each link's rate, the sequential sum of its row, and the minimum of
    those, `maxmin`."""

    per_channel: np.ndarray        # (num_links, num_channels)
    per_link: np.ndarray = field(init=False)      # (num_links,)
    maxmin: float = field(init=False)

    def __post_init__(self):
        pc = _frozen_array(self.per_channel, np.float64)
        if pc.ndim != 2 or pc.size == 0:
            raise ValidationError("rates must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(pc)) or np.any(pc < 0):
            raise ValidationError("rates must be finite and >= 0")
        per_link = [sequential_sum(row) for row in pc.tolist()]
        object.__setattr__(self, "per_channel", pc)
        object.__setattr__(self, "per_link",
                           _frozen_array(per_link, np.float64))
        object.__setattr__(self, "maxmin", min(per_link))


# ---------------------------------------------------------------------------
# Physics
# ---------------------------------------------------------------------------

def path_loss_gain(distance_m: float, frequency_hz: float) -> float:
    """Free-space line-of-sight power gain (c / (4 pi d f))^2.

    Monotone decreasing in both distance and frequency; antenna and coding
    gains are taken as unity.
    """
    if not (distance_m > 0 and math.isfinite(distance_m)):
        raise ValidationError("distance must be > 0")
    if not (frequency_hz > 0 and math.isfinite(frequency_hz)):
        raise ValidationError("frequency must be > 0")
    amplitude = SPEED_OF_LIGHT_M_PER_S / (4.0 * math.pi * distance_m * frequency_hz)
    return amplitude * amplitude


def sample_rician_power_gain(k_db: float, rng, size=None):
    """Draw |X|^2 for a Rician envelope X with K = 10^(k_db/10).

    Normalized so E[|X|^2] = 1. k_db = +inf gives the deterministic
    line-of-sight limit (exactly 1), k_db = -inf the Rayleigh limit.
    Returns a float for size=None, else an ndarray.
    """
    if math.isnan(k_db):
        raise ValidationError("k_db must not be NaN")
    gen = as_rng(rng)
    if math.isinf(k_db) and k_db > 0:
        return 1.0 if size is None else np.ones(size)
    k = 10.0 ** (k_db / 10.0)
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = los + sigma * gen.standard_normal(size)
    im = sigma * gen.standard_normal(size)
    return re * re + im * im


def compute_sinr(power_w: float, gain: float,
                 noise_power_w: float, interference_w: float) -> float:
    """Signal to interference-plus-noise ratio p*g / (N0*W + u)."""
    if not noise_power_w > 0:
        raise ValidationError("noise power must be > 0")
    if not (power_w > 0 and gain > 0):
        raise ValidationError("power and gain must be > 0")
    if interference_w < 0:
        raise ValidationError("interference must be >= 0")
    return power_w * gain / (noise_power_w + interference_w)


def compute_capacity(bandwidth_hz: float, sinr: float) -> float:
    """Shannon capacity W * log2(1 + sinr), bits/s."""
    if not bandwidth_hz > 0:
        raise ValidationError("bandwidth must be > 0")
    if sinr < 0 or math.isnan(sinr):
        raise ValidationError("sinr must be >= 0")
    return bandwidth_hz * math.log2(1.0 + sinr)


def spectral_span(row) -> int:
    """Span of a binary occupancy row, in channels.

    Highest minus lowest occupied index plus one; 0 for an all-zero row
    (an empty allocation occupies no spectrum).
    """
    arr = np.asarray(row)
    if arr.ndim != 1:
        raise ValidationError("row must be 1-D")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValidationError("row entries must be 0 or 1")
    occupied = np.flatnonzero(arr)
    if occupied.size == 0:
        return 0
    return int(occupied[-1]) - int(occupied[0]) + 1


def sequential_sum(values) -> float:
    """Left-to-right float sum; all objective arithmetic goes through here.
    Builtin sum() compensates rounding from Python 3.12 and np.sum adds
    pairwise; either can change the last bits."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def evaluate_rates(inst: ProblemInstance, allocation) -> RateResult:
    """Rates achieved by an allocation: each assigned channel runs at
    capacity, unassigned channels contribute nothing."""
    alloc = as_allocation(allocation)
    if alloc.entries.shape != inst.capacity.shape:
        raise ValidationError(
            f"allocation shape {alloc.entries.shape} does not match "
            f"instance shape {inst.capacity.shape}")
    return RateResult(inst.capacity * alloc.entries)
