"""Shared spatial conventions: world points, NED vectors, body poses.

Conventions used throughout the kernel:

* World positions: Pseudo-Mercator x (east) / y (north) in meters, plus
  depth in meters, positive down.
* World-frame vectors (velocities, ray directions, normals) are NED
  arrays ``[north, east, down]``.
* Body/sensor frames are FLU (x forward, y left, z up). A pose's
  rotation matrix maps body vectors into world NED.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest Gaussian noise deviation a sensor config accepts: metres on a
# lidar range, m/s on a DVL beam scalar. A draw is the deviation times a
# standard normal deviate, and what is made of it (a point, a velocity
# solve) scales it by a few units more. At 1e300 all of that stays eight
# orders of magnitude inside float64's 1.8e308; at 1e308 a draw past 1.8
# deviations is already inf, and the run would log it.
MAX_NOISE_SIGMA = 1e300

# Body FLU axes expressed in NED for a level, north-facing pose:
# forward -> north, left -> west, up -> -down.
_FLU_LEVEL = np.diag([1.0, -1.0, -1.0])


def ned(north: float, east: float, down: float) -> np.ndarray:
    """Build a world NED vector."""
    return np.array([north, east, down], dtype=float)


@dataclass(frozen=True)
class WorldPoint:
    """World position: Mercator easting/northing plus depth (positive down)."""

    x: float
    y: float
    depth: float


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), the standard ZYX Euler composition."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rpy_from_rotation(rot: np.ndarray) -> tuple[float, float, float]:
    """Decompose a rotation matrix as Rz(yaw) @ Ry(pitch) @ Rx(roll).

    Returns (roll, pitch, yaw) in radians; gimbal-locked pitch (+/-90 deg)
    resolves with roll = 0.
    """
    pitch = math.asin(max(-1.0, min(1.0, -rot[2, 0])))
    if abs(rot[2, 0]) < 1.0 - 1e-12:
        roll = math.atan2(rot[2, 1], rot[2, 2])
        yaw = math.atan2(rot[1, 0], rot[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-rot[0, 1], rot[1, 1])
    return roll, pitch, yaw


def fan_directions(az: np.ndarray, el: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Unit FLU directions of the (azimuth x elevation) ray grid, shape
    (len(az) * len(el), 3), azimuth-major: row a * len(el) + e points at
    azimuth az[a] (radians, positive left) and elevation el[e] (positive up).
    With ``rows``, an array of row indices, only those rows: a fan built a
    chunk at a time gives the whole fan's rows bit for bit."""
    if rows is None:
        rows = np.arange(len(az) * len(el))
    a, e = np.divmod(rows, len(el))
    cos_el = np.cos(el)[e]
    return np.stack([cos_el * np.cos(az)[a], cos_el * np.sin(az)[a], np.sin(el)[e]], axis=-1)


def body_to_ned_rotation(roll: float = 0.0, pitch: float = 0.0, yaw: float = 0.0) -> np.ndarray:
    """Rotation taking body FLU vectors to world NED.

    Zero angles give a level pose facing north. Yaw is a compass heading
    (positive toward east), pitch positive nose-up, roll positive
    starboard-down, applied in the usual ZYX order.
    """
    return rotation_zyx(roll, pitch, yaw) @ _FLU_LEVEL


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid body pose: world position plus body-FLU-to-NED rotation."""

    position: WorldPoint
    rotation: np.ndarray  # (3, 3), body FLU -> world NED; treat as immutable

    @staticmethod
    def from_rpy(
        x: float,
        y: float,
        depth: float,
        roll: float = 0.0,
        pitch: float = 0.0,
        yaw: float = 0.0,
    ) -> "Pose":
        return Pose(WorldPoint(x, y, depth), body_to_ned_rotation(roll, pitch, yaw))

    @staticmethod
    def level(x: float, y: float, depth: float, yaw: float = 0.0) -> "Pose":
        return Pose.from_rpy(x, y, depth, yaw=yaw)

    def to_world(self, vec_body: np.ndarray) -> np.ndarray:
        """Rotate a body-frame vector into world NED."""
        return self.rotation @ np.asarray(vec_body, dtype=float)

    def to_body(self, vec_ned: np.ndarray) -> np.ndarray:
        """Rotate a world NED vector into the body frame."""
        return self.rotation.T @ np.asarray(vec_ned, dtype=float)
