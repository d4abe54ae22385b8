"""Underwater 3D pulse lidar on a limit-enforced pan/tilt mount.

The sensor emits a fixed angular sector of rays (default 145 x 145 over
a 30 x 30 degree field, 20 m range) with 10x angular supersampling per
axis, producing up to 1450 x 1450 points per scan. The mount pans
+/-175 degrees and tilts +/-30 degrees, extending the reachable view to
a full 360 x 90 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bathymetry import Heightmap, raycast_batch
from .geometry import Pose, rot_y, rot_z

PAN_LIMIT_DEG = 175.0
TILT_LIMIT_DEG = 30.0

_RAY_CHUNK = 32768  # rays per raycast batch, bounds peak memory


@dataclass(frozen=True)
class LidarConfig:
    rays_h: int = 145
    rays_v: int = 145
    fov_h_deg: float = 30.0
    fov_v_deg: float = 30.0
    max_range: float = 20.0
    range_noise_sigma: float = 0.0
    supersample: int = 10

    def __post_init__(self) -> None:
        if self.rays_h < 2 or self.rays_v < 2:
            raise ValueError("need at least 2 rays per axis")
        if self.fov_h_deg <= 0.0 or self.fov_v_deg <= 0.0:
            raise ValueError("fov must be positive")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be positive")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")
        if self.range_noise_sigma < 0.0:
            raise ValueError("range_noise_sigma must be >= 0")


@dataclass(frozen=True)
class PanTiltState:
    """Mount angles, degrees; always inside the mechanical limits."""

    pan_deg: float = 0.0
    tilt_deg: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.pan_deg) > PAN_LIMIT_DEG or abs(self.tilt_deg) > TILT_LIMIT_DEG:
            raise ValueError("mount state outside mechanical limits")


def command_mount(state: PanTiltState, pan_deg: float, tilt_deg: float) -> tuple[PanTiltState, bool]:
    """Drive the mount toward commanded angles, clamping at the limits.

    Returns the new state and whether any clamping occurred.
    """
    pan = min(max(pan_deg, -PAN_LIMIT_DEG), PAN_LIMIT_DEG)
    tilt = min(max(tilt_deg, -TILT_LIMIT_DEG), TILT_LIMIT_DEG)
    clamped = (pan != pan_deg) or (tilt != tilt_deg)
    return PanTiltState(pan, tilt), clamped


def mount_rotation(state: PanTiltState) -> np.ndarray:
    """Sensor-to-body rotation for the mount: pan about body z (up,
    positive left), then tilt (positive up)."""
    return rot_z(math.radians(state.pan_deg)) @ rot_y(-math.radians(state.tilt_deg))


@dataclass(eq=False)
class LidarScan:
    """Point cloud: world positions (x, y, depth) plus ray grid indices."""

    points: np.ndarray  # (N, 3) x east, y north, depth down
    ranges: np.ndarray  # (N,)
    h_index: np.ndarray  # (N,) horizontal ray index on the supersampled grid
    v_index: np.ndarray  # (N,)


def scan(
    pose: Pose,
    mount: PanTiltState,
    scene: Heightmap,
    cfg: LidarConfig,
    rng: np.random.Generator | None = None,
) -> LidarScan:
    """One snapshot scan; deterministic for a fixed rng seed.

    Rays form a uniform angular grid of (rays_h * supersample) x
    (rays_v * supersample) directions spanning the field of view,
    oriented by pose and mount. Hits inside max_range each emit one
    point, optionally displaced along the ray by N(0, range_noise_sigma).
    """
    n_h = cfg.rays_h * cfg.supersample
    n_v = cfg.rays_v * cfg.supersample
    az = np.radians(np.linspace(-cfg.fov_h_deg / 2.0, cfg.fov_h_deg / 2.0, n_h))
    el = np.radians(np.linspace(-cfg.fov_v_deg / 2.0, cfg.fov_v_deg / 2.0, n_v))
    az_grid, el_grid = np.meshgrid(az, el, indexing="ij")
    az_flat = az_grid.ravel()
    el_flat = el_grid.ravel()
    dirs_body = np.stack(
        [
            np.cos(el_flat) * np.cos(az_flat),
            np.cos(el_flat) * np.sin(az_flat),
            np.sin(el_flat),
        ],
        axis=-1,
    )
    rot = pose.rotation @ mount_rotation(mount)
    dirs_world = dirs_body @ rot.T

    h_idx_all = np.repeat(np.arange(n_h), n_v)
    v_idx_all = np.tile(np.arange(n_v), n_h)

    points, ranges, h_idx, v_idx = [], [], [], []
    for start in range(0, len(dirs_world), _RAY_CHUNK):
        stop = min(start + _RAY_CHUNK, len(dirs_world))
        block = dirs_world[start:stop]
        hits = raycast_batch(scene, pose.position, block, cfg.max_range)
        mask = hits.hit
        if not mask.any():
            continue
        r = hits.ranges[mask]
        if cfg.range_noise_sigma > 0.0 and rng is not None:
            r = r + rng.normal(0.0, cfg.range_noise_sigma, r.shape)
        d = block[mask]
        px = pose.position.x + d[:, 1] * r
        py = pose.position.y + d[:, 0] * r
        pz = pose.position.depth + d[:, 2] * r
        points.append(np.stack([px, py, pz], axis=-1))
        ranges.append(r)
        h_idx.append(h_idx_all[start:stop][mask])
        v_idx.append(v_idx_all[start:stop][mask])

    if points:
        return LidarScan(
            points=np.concatenate(points),
            ranges=np.concatenate(ranges),
            h_index=np.concatenate(h_idx),
            v_index=np.concatenate(v_idx),
        )
    return LidarScan(
        points=np.zeros((0, 3)),
        ranges=np.zeros(0),
        h_index=np.zeros(0, dtype=int),
        v_index=np.zeros(0, dtype=int),
    )


def write_ply(scan_result: LidarScan, path) -> None:
    """ASCII PLY export: x/y/z in meters (z up = -depth) plus integer ray
    grid indices."""
    pts = scan_result.points
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(pts)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property int h_index\nproperty int v_index\n")
        fh.write("end_header\n")
        for p, hi, vi in zip(pts, scan_result.h_index, scan_result.v_index):
            fh.write(f"{p[0]:.6f} {p[1]:.6f} {-p[2]:.6f} {hi} {vi}\n")
