"""Four-beam Doppler velocity log with bottom/water tracking and ADCP
current profiling.

Beam geometry lives in the sensor FLU frame (z up, beams pointing
down-ish with negative z). Beam scalar velocities are the projections of
the sensor-frame relative velocity onto the beam unit vectors; the
velocity solution inverts that projection by least squares over the
valid beams. Gaussian noise enters in the beam-scalar domain only, and
the solution is computed from the noisy scalars.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bathymetry import Heightmap, raycast
from .geometry import MAX_NOISE_SIGMA, Pose, WorldPoint
from .output import log_text

# current_at(depth_m) -> NED velocity; the caller binds time. depth_m is a
# float, or an array of n depths whose result broadcasts to (n, 3).
CurrentFn = Callable[[float | np.ndarray], np.ndarray]

JANUS_TILT_RAD = math.radians(30.0)
JANUS_AZIMUTHS_RAD = tuple(math.radians(a) for a in (45.0, 135.0, 225.0, 315.0))

PROFILE_COMBINED = "combined"
PROFILE_PER_BEAM = "per_beam"

# Singular values at or below this make a beam set rank-deficient.
RANK_TOL = 1e-9
# Most ADCP bins per profile. Each bin is one log row per profile (four in
# per-beam mode), so a 5 Hz ADCP at this bound logs 50,000 rows per
# simulated second; more would end in memory or hours of logging.
MAX_ADCP_BINS = 10_000


class TrackingMode(enum.Enum):
    BOTTOM_TRACK = "bottom_track"
    WATER_TRACK = "water_track"
    NONE = "none"


class DegenerateBeamGeometryError(ValueError):
    """Fewer than three usable beams, or directions without full rank."""


def janus_beams(tilt_rad: float = JANUS_TILT_RAD) -> np.ndarray:
    """Default 4-beam Janus set: ``tilt`` from the sensor -z axis at
    azimuths 45/135/225/315 degrees."""
    beams = []
    for az in JANUS_AZIMUTHS_RAD:
        beams.append(
            [
                math.sin(tilt_rad) * math.cos(az),
                math.sin(tilt_rad) * math.sin(az),
                -math.cos(tilt_rad),
            ]
        )
    return np.array(beams)


@dataclass(frozen=True, eq=False)
class DvlConfig:
    beams: np.ndarray = field(default_factory=janus_beams)
    min_range: float = 0.5
    max_range: float = 100.0
    noise_sigma: float = 0.0  # m/s per beam scalar
    water_track_enabled: bool = True
    bins: int = 0  # 0 disables current profiling
    bin_size: float = 5.0
    profile_mode: str = PROFILE_COMBINED

    def __post_init__(self) -> None:
        beams = np.asarray(self.beams, dtype=float)
        object.__setattr__(self, "beams", beams)
        if beams.shape != (4, 3):
            raise ValueError("exactly 4 beam unit vectors required")
        norms = np.linalg.norm(beams, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("beam vectors must be unit length")
        if np.any(beams[:, 2] >= 0.0):
            raise ValueError("beams must point below the sensor (negative z)")
        # Every set `solve_velocity` can meet: all four beams, or any three.
        for subset in ((0, 1, 2, 3), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            rank = np.linalg.matrix_rank(beams[list(subset)], tol=RANK_TOL)
            if rank < 3:
                raise DegenerateBeamGeometryError(
                    f"beams {', '.join(str(b + 1) for b in subset)} span rank {rank}, need 3"
                )
        if not 0.0 <= self.min_range < self.max_range:
            raise ValueError("need 0 <= min_range < max_range")
        if self.bins < 0 or self.bin_size <= 0.0:
            raise ValueError("bins must be >= 0 and bin_size positive")
        if self.bins > MAX_ADCP_BINS:
            raise ValueError(f"bins must be <= {MAX_ADCP_BINS}, got {self.bins}")
        if self.bins * self.bin_size > self.max_range + 1e-9:
            raise ValueError("bins * bin_size must not exceed max_range")
        if self.profile_mode not in (PROFILE_COMBINED, PROFILE_PER_BEAM):
            raise ValueError(f"unknown profile_mode {self.profile_mode!r}")
        if not 0.0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}], got {self.noise_sigma}")


@dataclass(frozen=True, eq=False)
class DvlSolution:
    """Velocity solution in the sensor frame plus per-beam detail.

    beam_ranges/beam_velocities hold NaN for beams without a return.
    """

    velocity: np.ndarray | None  # (3,) sensor frame, None when mode is NONE
    altitude: float | None
    mode: TrackingMode
    beam_ranges: np.ndarray  # (4,)
    beam_velocities: np.ndarray  # (4,) scalar m/s


@dataclass(frozen=True, eq=False)
class AdcpProfile:
    """Binned current profile with config metadata echoed alongside."""

    mode: str
    bin_ranges: np.ndarray  # (bins,) center range along each beam, m
    combined: np.ndarray | None  # (bins, 3) sensor-frame velocity, Combined mode
    per_beam: np.ndarray | None  # (bins, 4, 3) sensor-frame velocity, PerBeam mode
    beams: np.ndarray  # (4, 3) beam unit vectors
    bin_size: float
    bins: int


def beam_ranges(scene: Heightmap, origin: WorldPoint, world_beams: np.ndarray, cfg: DvlConfig) -> np.ndarray:
    """Raycast from ``origin`` along each row of ``world_beams``, the beams
    in world NED; NaN where there is no return inside [min_range, max_range]."""
    out = []
    for beam in world_beams:
        r = raycast(scene, origin, beam, cfg.max_range)
        out.append(r if r is not None and r >= cfg.min_range else math.nan)
    return np.array(out)


@dataclass(frozen=True, eq=False)
class BeamGeometry:
    """What a DVL tick at one pose is before its noise and currents: the
    `beam_ranges` and the beams in world NED."""

    ranges: np.ndarray  # (4,), NaN without a return
    world_beams: np.ndarray  # (4, 3)


def beam_geometry(pose: Pose, scene: Heightmap | None, cfg: DvlConfig) -> BeamGeometry:
    """Rotate the four beams into world NED once and cast them from ``pose``
    (none without a scene: every range is NaN); no randomness is drawn.
    Both arrays are read-only."""
    world_beams = (pose.rotation @ cfg.beams.T).T
    ranges = beam_ranges(scene, pose.position, world_beams, cfg) if scene is not None else np.full(4, np.nan)
    ranges.setflags(write=False)
    world_beams.setflags(write=False)
    return BeamGeometry(ranges, world_beams)


def solve_velocity(beams: np.ndarray, scalars: np.ndarray, valid=None) -> np.ndarray:
    """Least-squares sensor velocity v from beam projections b_i . v = s_i.

    Needs >= 3 valid beams spanning full rank, else raises
    DegenerateBeamGeometryError. The rank is read from the singular
    values `lstsq` returns, so no separate SVD runs. `DvlConfig` rejects
    beams for which any three or all four would fail here.
    """
    beams = np.asarray(beams, dtype=float)
    scalars = np.asarray(scalars, dtype=float)
    if valid is None:
        valid = np.isfinite(scalars)
    b = beams[valid]
    s = scalars[valid]
    if len(s) >= 3:
        v, _, _, singular = np.linalg.lstsq(b, s, rcond=None)
        if np.count_nonzero(singular > RANK_TOL) == 3:
            return v
    raise DegenerateBeamGeometryError(
        f"{len(s)} valid beams with rank {np.linalg.matrix_rank(b, tol=RANK_TOL) if len(s) else 0}"
    )


def measure(
    pose: Pose,
    vel_world: np.ndarray,
    scene: Heightmap | None,
    current_at: CurrentFn | None,
    cfg: DvlConfig,
    rng: np.random.Generator,
    geometry: BeamGeometry | None = None,
) -> DvlSolution:
    """One measurement: beam ranges, then the tracking mode, then beam
    noise and one solve. ``geometry``, the `beam_geometry` of ``pose``,
    stands in for casting the beams.

    Bottom track when at least three beams return: terrain is static, so
    each hitting beam's scalar is the projection of the sensor-frame
    world velocity onto the beam. Otherwise water track when enabled and
    a current is given: all four scalars are projections of the velocity
    relative to the current at the sensor's depth. Otherwise mode NONE.
    Four N(0, noise_sigma^2) draws are consumed in beam order in every
    mode, keeping noise streams aligned across modes; the noisy valid
    scalars are solved once.
    """
    if geometry is None:
        geometry = beam_geometry(pose, scene, cfg)
    ranges = geometry.ranges
    hits = np.isfinite(ranges)
    vel_world = np.asarray(vel_world, dtype=float)
    mode, altitude, scalars = TrackingMode.NONE, None, np.full(4, np.nan)
    if np.count_nonzero(hits) >= 3:
        mode = TrackingMode.BOTTOM_TRACK
        altitude = float(np.mean(ranges[hits] * geometry.world_beams[hits, 2]))
        scalars = cfg.beams @ pose.to_body(vel_world)
        scalars[~hits] = np.nan
    elif cfg.water_track_enabled and current_at is not None:
        mode = TrackingMode.WATER_TRACK
        current = np.asarray(current_at(pose.position.depth), dtype=float)
        scalars = cfg.beams @ pose.to_body(vel_world - current)
    noise = rng.normal(0.0, cfg.noise_sigma, 4)
    if mode is TrackingMode.NONE:
        return DvlSolution(None, None, mode, ranges, scalars)
    valid = np.isfinite(scalars)
    scalars += noise
    scalars[~valid] = np.nan
    return DvlSolution(solve_velocity(cfg.beams, scalars, valid=valid), altitude, mode, ranges, scalars)


def current_profile(
    pose: Pose,
    vel_world: np.ndarray,
    current_at: CurrentFn,
    cfg: DvlConfig,
    rng: np.random.Generator,
    geometry: BeamGeometry | None = None,
) -> AdcpProfile:
    """ADCP profile out to bins*bin_size along each beam; ``geometry``, the
    `beam_geometry` of ``pose``, gives its world beams.

    Bin k's center range is min_range + (k + 1/2)*bin_size; the sampling
    depth per beam is the sensor depth plus the center range times the
    beam's world-frame downward component. Combined mode noises the four
    scalars and solves per bin exactly like the track solutions; PerBeam
    mode returns (scalar + noise) * beam unit vector per beam.

    All bins x 4 beams are computed at once, with one ``current_at`` call
    on every sampling depth and one (bins, 4) noise draw, which is the
    stream of one 4-draw per bin. The products are the same IEEE
    operations as per bin and beam (`Pose.to_body` on each relative
    velocity, a dot product per beam, one `lstsq` column per bin), so the
    profile is bit-identical to a per-bin loop.
    """
    if cfg.bins < 1:
        raise ValueError("profiling requires bins >= 1")
    centers = cfg.min_range + (np.arange(cfg.bins) + 0.5) * cfg.bin_size
    if geometry is None:
        geometry = beam_geometry(pose, None, cfg)
    depths = pose.position.depth + centers[:, None] * geometry.world_beams[:, 2]  # (bins, 4)
    rel_world = np.empty((depths.size, 3))  # a (3,) current broadcasts to every row
    np.subtract(np.asarray(vel_world, dtype=float), np.asarray(current_at(depths.ravel()), dtype=float), out=rel_world)
    rel_sensor = np.ascontiguousarray((pose.rotation.T @ rel_world.T).T).reshape(cfg.bins, 4, 3, 1)
    scalars = np.matmul(cfg.beams[:, None, :], rel_sensor).reshape(cfg.bins, 4)
    noisy = scalars + rng.normal(0.0, cfg.noise_sigma, (cfg.bins, 4))

    combined = None
    per_beam = None
    if cfg.profile_mode == PROFILE_COMBINED:
        # The config's rank check covers the four beams; one multi-RHS solve.
        combined = np.linalg.lstsq(cfg.beams, noisy.T, rcond=None)[0].T
    else:
        per_beam = noisy[:, :, None] * cfg.beams
    return AdcpProfile(
        mode=cfg.profile_mode,
        bin_ranges=centers,
        combined=combined,
        per_beam=per_beam,
        beams=cfg.beams,
        bin_size=cfg.bin_size,
        bins=cfg.bins,
    )


# --- CSV formats -----------------------------------------------------------

LOG_HEADER = [
    "time", "mode", "vx", "vy", "vz", "altitude",
    "r1", "r2", "r3", "r4", "bv1", "bv2", "bv3", "bv4",
]


def log_row(time: float, sol: DvlSolution) -> list:
    """One per-tick log record matching LOG_HEADER; nan where a value is missing."""
    velocity = sol.velocity if sol.velocity is not None else [math.nan] * 3
    altitude = sol.altitude if sol.altitude is not None else math.nan
    return [time, sol.mode.value, *velocity, altitude, *sol.beam_ranges, *sol.beam_velocities]


ADCP_HEADER = ["time", "bin", "beam", "center_range", "vx", "vy", "vz"]


def adcp_metadata_row(cfg: DvlConfig) -> str:
    beams = ";".join(",".join(map(log_text, beam)) for beam in cfg.beams.tolist())
    return f"# adcp mode={cfg.profile_mode} bins={cfg.bins} bin_size={log_text(cfg.bin_size)} beams={beams}"


def adcp_rows(time: float, profile: AdcpProfile) -> list[list]:
    """Flatten a profile into CSV records; beam is 'all' in Combined mode."""
    rows = []
    for k, r_k in enumerate(profile.bin_ranges.tolist()):
        if profile.combined is not None:
            rows.append([time, k, "all", r_k, *profile.combined[k].tolist()])
        else:
            for b in range(4):
                rows.append([time, k, b, r_k, *profile.per_beam[k, b].tolist()])
    return rows
