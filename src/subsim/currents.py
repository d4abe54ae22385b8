"""Time- and depth-varying ocean currents.

The current at a point is the sum of three parts: a depth-stratified
mean interpolated from a user database, a tidal oscillation along a
fixed flood heading, and a per-sampler first-order Gauss-Markov
(Ornstein-Uhlenbeck) perturbation. Velocities are NED [north, east,
down] m/s.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class CurrentError(ValueError):
    """Invalid current database, tide model, or query."""


@dataclass(frozen=True)
class Stratum:
    """One database layer: depth (m, positive down) and NED velocity."""

    depth: float
    velocity: tuple[float, float, float]


class StratifiedCurrentDB:
    """Ordered depth strata with piecewise-linear interpolation."""

    def __init__(self, strata: Sequence[Stratum]):
        if not strata:
            raise CurrentError("at least one stratum required")
        depths = np.array([s.depth for s in strata], dtype=float)
        if not (np.all(np.isfinite(depths)) and np.all(np.diff(depths) > 0.0)):
            raise CurrentError("strata depths must be finite and strictly increasing")
        velocities = np.array([s.velocity for s in strata], dtype=float)
        if not np.all(np.isfinite(velocities)):
            raise CurrentError("strata velocities must be finite")
        self.depths = depths
        self.velocities = velocities
        self._columns = [np.ascontiguousarray(velocities[:, k]) for k in range(3)]

    def interpolate(self, depth) -> np.ndarray:
        """Linear in depth between strata, clamped to the end strata.

        A float depth gives a (3,) velocity; an array of n depths gives
        (n, 3), each row equal to the float query's result."""
        out = np.empty(np.shape(depth) + (3,))
        for k, column in enumerate(self._columns):
            out[..., k] = np.interp(depth, self.depths, column)
        return out


@dataclass(frozen=True)
class TidalConstituent:
    """Harmonic component: amplitude (m/s), period (s), phase (rad)."""

    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise CurrentError(f"constituent period must be finite and positive, got {self.period}")
        for name in ("amplitude", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise CurrentError(f"constituent {name} must be finite, got {getattr(self, name)}")

    def speed(self, time: float) -> float:
        """Signed speed (m/s) at a UTC time in seconds; ValueError where the phase overflows."""
        return self.amplitude * math.cos(2.0 * math.pi * time / self.period + self.phase)


class TidalModel:
    """Tide speed from harmonic constituents or an interpolated series.

    The signed speed acts along ``heading`` (radians, flood direction in
    the horizontal plane, 0 = north, pi/2 = east).
    """

    def __init__(self, heading: float = 0.0, constituents=None, series_times=None, series_speeds=None):
        self.heading = float(heading)
        if not math.isfinite(self.heading):
            raise CurrentError(f"tide heading must be finite, got {self.heading}")
        self._flood = (math.cos(self.heading), math.sin(self.heading))  # north, east of a unit speed
        if constituents is not None and series_times is not None:
            raise CurrentError("choose constituents or a time series, not both")
        self.constituents = list(constituents) if constituents is not None else None
        if series_times is not None:
            times = np.asarray(series_times, dtype=float)
            speeds = np.asarray(series_speeds, dtype=float)
            if times.size < 2 or times.size != speeds.size:
                raise CurrentError("time series needs matching times and speeds, >= 2 samples")
            if not (np.all(np.isfinite(times)) and np.all(np.isfinite(speeds))):
                raise CurrentError("tide series times and speeds must be finite")
            if np.any(np.diff(times) <= 0.0):
                raise CurrentError("series times must be strictly increasing")
            self.series_times = times
            self.series_speeds = speeds
        else:
            self.series_times = None
            self.series_speeds = None

    def speed(self, time: float) -> float:
        """Signed flood speed (m/s) at a UTC time in seconds."""
        if self.constituents is not None:
            return float(sum(c.speed(time) for c in self.constituents))
        if self.series_times is None:
            return 0.0
        if time < self.series_times[0] or time > self.series_times[-1]:
            raise CurrentError(
                f"time {time} outside tide series span "
                f"[{self.series_times[0]}, {self.series_times[-1]}]"
            )
        return float(np.interp(time, self.series_times, self.series_speeds))

    def velocity(self, time: float) -> np.ndarray:
        """NED tide velocity at ``time``."""
        s = self.speed(time)
        north, east = self._flood
        return np.array((s * north, s * east, 0.0))


def load_tide_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (epoch_seconds, speed_mps) rows of a UTF-8 CSV; a header row is skipped."""
    times, speeds = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise CurrentError(f"{path}:{reader.line_num}: expected 2 fields (time, speed), got {row}")
                try:
                    t, s = float(row[0]), float(row[1])
                except ValueError:
                    if not times:
                        continue  # header
                    raise CurrentError(f"{path}:{reader.line_num}: bad tide series row: {row}") from None
                times.append(t)
                speeds.append(s)
    except UnicodeDecodeError as err:
        bad = err.object[err.start : err.end]
        raise CurrentError(f"{path}: not a UTF-8 CSV file: byte {bad!r}") from None
    return np.array(times), np.array(speeds)


@dataclass(frozen=True)
class GaussMarkovParams:
    mu: float = 0.0
    sigma: float = 0.0
    bound: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "bound"):
            if not getattr(self, name) >= 0.0:
                raise CurrentError(f"{name} must be >= 0, got {getattr(self, name)}")

    def step_terms(self, dt: float) -> tuple[float, float]:
        """Decay factor and noise deviation of a step of dt seconds: the exact
        Ornstein-Uhlenbeck transition, or for mu = 0 a random walk (decay 1,
        and 1 * x is x). OverflowError where sigma**2 overflows."""
        if self.mu > 0.0:
            var = self.sigma**2 * (1.0 - math.exp(-2.0 * self.mu * dt)) / (2.0 * self.mu)
            return math.exp(-self.mu * dt), math.sqrt(var)
        return 1.0, self.sigma * math.sqrt(dt)


class GaussMarkovState:
    """First-order Gauss-Markov perturbation, exactly discretized.

    Solves dV + mu*V dt = sigma dW per component. For mu > 0 the update
    is the exact Ornstein-Uhlenbeck transition (unconditionally stable
    for any dt); mu = 0 degenerates to a random walk. Components are
    saturated at +/-bound after every step. One state per sampler;
    deterministic for a fixed seed.
    """

    def __init__(
        self,
        mu: float,
        sigma: float,
        bound: float = 1.0,
        seed: int | np.random.SeedSequence = 0,
        delta_v=(0.0, 0.0, 0.0),
    ):
        self.params = GaussMarkovParams(float(mu), float(sigma), float(bound))
        self.delta_v = np.clip(np.asarray(delta_v, dtype=float), -bound, bound)
        self._rng = np.random.default_rng(seed)
        # The dt of the last step and its `GaussMarkovParams.step_terms`.
        self._dt = self._terms = None

    def step(self, dt: float) -> np.ndarray:
        """Advance by dt seconds; returns a copy of the new perturbation.
        A dt that is not positive (NaN too) raises CurrentError."""
        if not dt > 0.0:
            raise CurrentError(f"dt must be positive, got {dt}")
        if dt != self._dt:
            self._terms, self._dt = self.params.step_terms(dt), dt
        decay, scale = self._terms
        bound = self.params.bound
        self.delta_v = decay * self.delta_v + self._rng.normal(0.0, scale, 3)
        self.delta_v.clip(-bound, bound, out=self.delta_v)
        return self.delta_v.copy()


class CurrentField:
    """Immutable mean field (database + tide) plus sampler parameters."""

    def __init__(
        self,
        db: StratifiedCurrentDB,
        tide: TidalModel | None = None,
        gm: GaussMarkovParams = GaussMarkovParams(),
    ):
        self.db = db
        self.tide = tide
        self.gm = gm

    def mean_velocity(self, depth, time: float) -> np.ndarray:
        v = self.db.interpolate(depth)
        if self.tide is not None:
            v += self.tide.velocity(time)
        return v

    def sampler(self, seed) -> "CurrentSampler":
        return CurrentSampler(self, seed)


class CurrentSampler:
    """Per-vehicle/sensor view of the field owning its own GM state."""

    def __init__(self, field: CurrentField, seed):
        self.field = field
        self.state = GaussMarkovState(
            field.gm.mu, field.gm.sigma, bound=field.gm.bound, seed=seed
        )

    def step(self, dt: float) -> None:
        self.state.step(dt)

    def velocity(self, depth, time: float) -> np.ndarray:
        """Total current: interpolated mean + tide + GM perturbation.

        ``depth`` is a float, giving a (3,) NED velocity, or an array of n
        depths, giving (n, 3) rows equal to the float calls' results."""
        v = self.field.mean_velocity(depth, time)
        v += self.state.delta_v
        return v
