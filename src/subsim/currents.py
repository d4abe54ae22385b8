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
        if np.any(np.diff(depths) <= 0.0):
            raise CurrentError("strata depths must be strictly increasing")
        velocities = np.array([s.velocity for s in strata], dtype=float)
        if not np.all(np.isfinite(velocities)):
            raise CurrentError("strata velocities must be finite")
        self.depths = depths
        self.velocities = velocities

    def interpolate(self, depth: float) -> np.ndarray:
        """Linear in depth between strata, clamped to the end strata."""
        return np.array(
            [np.interp(depth, self.depths, self.velocities[:, k]) for k in range(3)]
        )


@dataclass(frozen=True)
class TidalConstituent:
    """Harmonic component: amplitude (m/s), period (s), phase (rad)."""

    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise CurrentError("constituent period must be positive")


class TidalModel:
    """Tide speed from harmonic constituents or an interpolated series.

    The signed speed acts along ``heading`` (radians, flood direction in
    the horizontal plane, 0 = north, pi/2 = east).
    """

    def __init__(self, heading: float = 0.0, constituents=None, series_times=None, series_speeds=None):
        self.heading = float(heading)
        if constituents is not None and series_times is not None:
            raise CurrentError("choose constituents or a time series, not both")
        self.constituents = list(constituents) if constituents is not None else None
        if series_times is not None:
            times = np.asarray(series_times, dtype=float)
            speeds = np.asarray(series_speeds, dtype=float)
            if times.size < 2 or times.size != speeds.size:
                raise CurrentError("time series needs matching times and speeds, >= 2 samples")
            if np.any(np.diff(times) <= 0.0):
                raise CurrentError("series times must be strictly increasing")
            self.series_times = times
            self.series_speeds = speeds
        else:
            self.series_times = None
            self.series_speeds = None

    @classmethod
    def from_constituents(cls, constituents: Sequence[TidalConstituent], heading: float = 0.0):
        return cls(heading=heading, constituents=constituents)

    @classmethod
    def from_series(cls, times, speeds, heading: float = 0.0):
        return cls(heading=heading, series_times=times, series_speeds=speeds)

    @property
    def mode(self) -> str:
        if self.constituents is not None:
            return "constituents"
        if self.series_times is not None:
            return "timeseries"
        return "none"

    def speed(self, time: float) -> float:
        """Signed flood speed (m/s) at a UTC time in seconds."""
        if self.constituents is not None:
            return float(
                sum(
                    c.amplitude * math.cos(2.0 * math.pi * time / c.period + c.phase)
                    for c in self.constituents
                )
            )
        if self.series_times is None:
            return 0.0
        if time < self.series_times[0] or time > self.series_times[-1]:
            raise CurrentError(
                f"time {time} outside tide series span "
                f"[{self.series_times[0]}, {self.series_times[-1]}]"
            )
        return float(np.interp(time, self.series_times, self.series_speeds))

    def velocity(self, time: float) -> np.ndarray:
        s = self.speed(time)
        return np.array([s * math.cos(self.heading), s * math.sin(self.heading), 0.0])


def load_tide_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (epoch_seconds, speed_mps) rows; a header row is skipped."""
    times, speeds = [], []
    with open(path, "r", newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                t, s = float(row[0]), float(row[1])
            except ValueError:
                if not times:
                    continue  # header
                raise CurrentError(f"bad tide series row: {row}") from None
            times.append(t)
            speeds.append(s)
    return np.array(times), np.array(speeds)


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
        if mu < 0.0:
            raise CurrentError("mu must be >= 0")
        if sigma < 0.0:
            raise CurrentError("sigma must be >= 0")
        if bound < 0.0:
            raise CurrentError("bound must be >= 0")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.bound = float(bound)
        self.delta_v = np.clip(np.asarray(delta_v, dtype=float), -bound, bound)
        self._rng = np.random.default_rng(seed)

    def step(self, dt: float) -> np.ndarray:
        """Advance by dt seconds; returns a copy of the new perturbation."""
        if dt <= 0.0:
            raise CurrentError(f"dt must be positive, got {dt}")
        if self.mu > 0.0:
            decay = math.exp(-self.mu * dt)
            var = self.sigma**2 * (1.0 - math.exp(-2.0 * self.mu * dt)) / (2.0 * self.mu)
            noise = self._rng.normal(0.0, math.sqrt(var), 3)
            self.delta_v = decay * self.delta_v + noise
        else:
            self.delta_v = self.delta_v + self._rng.normal(0.0, self.sigma * math.sqrt(dt), 3)
        np.clip(self.delta_v, -self.bound, self.bound, out=self.delta_v)
        return self.delta_v.copy()


@dataclass(frozen=True)
class GaussMarkovParams:
    mu: float = 0.0
    sigma: float = 0.0
    bound: float = 1.0


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

    def mean_velocity(self, depth: float, time: float) -> np.ndarray:
        v = self.db.interpolate(depth)
        if self.tide is not None:
            v = v + self.tide.velocity(time)
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

    def velocity(self, depth: float, time: float) -> np.ndarray:
        """Total current: interpolated mean + tide + GM perturbation."""
        return self.field.mean_velocity(depth, time) + self.state.delta_v
