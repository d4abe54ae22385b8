"""Underwater 3D pulse lidar on a pan/tilt mount.

The sensor emits a fixed angular sector of rays (default 145 x 145 over
a 30 x 30 degree field, 20 m range) with 10x angular supersampling per
axis, producing up to 1450 x 1450 points per scan. The mount pans
+/-175 degrees and tilts +/-30 degrees, extending the reachable view to
a full 360 x 90 degrees.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bathymetry import Heightmap, cast_fan
from .geometry import MAX_NOISE_SIGMA, Pose, WorldPoint, rot_y, rot_z

PAN_LIMIT_DEG = 175.0
TILT_LIMIT_DEG = 30.0

# Most rays one scan may cast, (rays_h * rays_v) * supersample^2: 2^22,
# twice the 1450 x 1450 of the default config. A scan casts its fan a
# chunk at a time and keeps only the hits, about 100 bytes each once
# (directions, ranges, grid indices, points and PLY rows), so the bound
# keeps a scan to about 400 MiB and its time to a few seconds.
MAX_SCAN_RAYS = 4_194_304


@dataclass(frozen=True)
class LidarConfig:
    rays_h: int = 145
    rays_v: int = 145
    fov_h_deg: float = 30.0
    fov_v_deg: float = 30.0
    max_range: float = 20.0
    range_noise_sigma: float = 0.0
    supersample: int = 10
    pan_deg: float = 0.0  # mount angles, inside +/-PAN_LIMIT_DEG and +/-TILT_LIMIT_DEG
    tilt_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.rays_h < 2 or self.rays_v < 2:
            raise ValueError("need at least 2 rays per axis")
        if not (self.fov_h_deg > 0.0 and self.fov_v_deg > 0.0):  # NaN too
            raise ValueError("fov must be positive")
        if not self.max_range > 0.0:
            raise ValueError("max_range must be positive")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")
        rays = int(self.rays_h) * int(self.rays_v) * int(self.supersample) ** 2  # Python ints: no wrap
        if rays > MAX_SCAN_RAYS:
            raise ValueError(f"rays_h * rays_v * supersample^2 is {rays}, more than {MAX_SCAN_RAYS}")
        if not 0.0 <= self.range_noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"range_noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}], got {self.range_noise_sigma}")
        for name, limit in (("pan_deg", PAN_LIMIT_DEG), ("tilt_deg", TILT_LIMIT_DEG)):
            angle = getattr(self, name)
            if not abs(angle) <= limit:
                raise ValueError(f"{name} {angle} is outside the mount limit +/-{limit}")


def mount_rotation(cfg: LidarConfig) -> np.ndarray:
    """Sensor-to-body rotation for the mount: pan about body z (up,
    positive left), then tilt (positive up)."""
    return rot_z(math.radians(cfg.pan_deg)) @ rot_y(-math.radians(cfg.tilt_deg))


@dataclass(eq=False)
class LidarScan:
    """Point cloud: world positions (x, y, depth) plus ray grid indices."""

    points: np.ndarray  # (N, 3) x east, y north, depth down
    ranges: np.ndarray  # (N,)
    h_index: np.ndarray  # (N,) horizontal ray index on the supersampled grid
    v_index: np.ndarray  # (N,)

    @functools.cached_property
    def ply_records(self) -> np.ndarray:
        """The scan as PLY_DTYPE records, built once per scan: a held
        noise-free scan is one object, written at every evaluation."""
        return _ply_records(self)


@dataclass(frozen=True, eq=False)
class ScanGeometry:
    """What a scan from one pose is before its range noise: the world
    directions, noise-free ranges and grid indices of the rays that hit."""

    origin: WorldPoint
    directions: np.ndarray  # (N, 3) NED unit vectors
    ranges: np.ndarray  # (N,)
    h_index: np.ndarray  # (N,)
    v_index: np.ndarray  # (N,)

    def cloud(self, ranges: np.ndarray) -> LidarScan:
        """The scan with these ranges along the hit rays."""
        o, d = self.origin, self.directions
        points = np.empty((len(ranges), 3))
        for column, (start, axis) in enumerate(((o.x, 1), (o.y, 0), (o.depth, 2))):
            np.multiply(d[:, axis], ranges, out=points[:, column])
            points[:, column] += start
        return LidarScan(points=points, ranges=ranges, h_index=self.h_index, v_index=self.v_index)

    @functools.cached_property
    def noise_free(self) -> LidarScan:
        """The scan with no range noise, built once per geometry."""
        return self.cloud(self.ranges)


def scan_geometry(pose: Pose, scene: Heightmap, cfg: LidarConfig) -> ScanGeometry:
    """Cast every ray of a scan from ``pose``; no randomness is drawn.

    Rays form a uniform angular grid of (rays_h * supersample) x
    (rays_v * supersample) directions spanning the field of view,
    oriented by pose and cfg's mount angles."""
    n_h = cfg.rays_h * cfg.supersample
    n_v = cfg.rays_v * cfg.supersample
    az = np.radians(np.linspace(-cfg.fov_h_deg / 2.0, cfg.fov_h_deg / 2.0, n_h))
    el = np.radians(np.linspace(-cfg.fov_v_deg / 2.0, cfg.fov_v_deg / 2.0, n_v))
    hit, directions, ranges = cast_fan(scene, pose.position, pose.rotation @ mount_rotation(cfg), az, el,
                                       cfg.max_range)
    return ScanGeometry(pose.position, directions, ranges, hit // n_v, hit % n_v)


def scan(geometry: ScanGeometry, cfg: LidarConfig, rng: np.random.Generator | None = None) -> LidarScan:
    """One snapshot scan of the `scan_geometry` of a pose; deterministic
    for a fixed rng seed.

    Hits inside max_range each emit one point, displaced along the ray by
    N(0, range_noise_sigma) from rng if that is > 0; without range noise
    the geometry's noise-free scan is returned as it is.
    """
    if cfg.range_noise_sigma == 0.0:
        return geometry.noise_free
    if rng is None:
        raise ValueError("range noise requires an rng")
    return geometry.cloud(geometry.ranges + rng.normal(0.0, cfg.range_noise_sigma, geometry.ranges.shape))


# One PLY vertex: x/y/z in meters (z up = -depth) as float64, which keeps
# Mercator-scale coordinates exact, plus the ray grid indices.
PLY_DTYPE = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("h_index", "<i4"), ("v_index", "<i4")])
_PLY_HEADER = (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
               b"property double x\nproperty double y\nproperty double z\n"
               b"property int h_index\nproperty int v_index\nend_header\n")
_PLY_HEADER_RE = re.compile(re.escape(_PLY_HEADER).replace(b"%d", rb"(\d+)"))


def _ply_records(scan_result: LidarScan) -> np.ndarray:
    pts = scan_result.points
    rows = np.empty(len(pts), dtype=PLY_DTYPE)
    rows["x"] = pts[:, 0]
    rows["y"] = pts[:, 1]
    np.negative(pts[:, 2], out=rows["z"])
    rows["h_index"] = scan_result.h_index
    rows["v_index"] = scan_result.v_index
    return rows


def write_ply(scan_result: LidarScan, path) -> None:
    """Binary little-endian PLY export: one PLY_DTYPE record per point."""
    rows = scan_result.ply_records
    with open(path, "wb") as fh:
        fh.write(_PLY_HEADER % len(rows))
        fh.write(rows.data)


def read_ply(path) -> np.ndarray:
    """The PLY_DTYPE records of a file written by write_ply.

    Only write_ply's exact header is accepted; any other header, or a
    body that is not the header's point count times 32 bytes, raises
    ValueError naming the file."""
    data = Path(path).read_bytes()
    header = _PLY_HEADER_RE.match(data)
    if header is None:
        raise ValueError(f"{path}: not a binary lidar PLY with write_ply's header")
    count, body = int(header[1]), len(data) - header.end()
    if body != count * PLY_DTYPE.itemsize:
        raise ValueError(f"{path}: body is {body} bytes, expected {count} points x "
                         f"{PLY_DTYPE.itemsize} bytes")
    return np.frombuffer(data, dtype=PLY_DTYPE, offset=header.end()).copy()
