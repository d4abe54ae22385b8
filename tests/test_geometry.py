import math

import numpy as np
import pytest

from subsim.geometry import (
    Pose,
    body_to_ned_rotation,
    fan_directions,
    rotation_zyx,
    rpy_from_rotation,
)


def test_level_pose_axis_mapping():
    rot = body_to_ned_rotation()
    assert np.allclose(rot @ [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])  # forward -> north
    assert np.allclose(rot @ [0.0, 1.0, 0.0], [0.0, -1.0, 0.0])  # left -> west
    assert np.allclose(rot @ [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])  # up -> -down


def test_yaw_is_compass_heading():
    rot = body_to_ned_rotation(yaw=math.pi / 2.0)
    assert np.allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)  # east


def test_pitch_down_points_forward_down():
    rot = body_to_ned_rotation(pitch=-math.pi / 2.0)
    assert np.allclose(rot @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


def test_rotations_are_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r, p, y = rng.uniform(-math.pi, math.pi, 3)
        rot = rotation_zyx(r, p, y)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def test_rpy_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(100):
        angles = rng.uniform(
            [-math.pi, -math.pi / 2 + 0.01, -math.pi], [math.pi, math.pi / 2 - 0.01, math.pi]
        )
        recovered = rpy_from_rotation(rotation_zyx(*angles))
        assert np.allclose(recovered, angles, atol=1e-9)


def test_fan_directions_are_azimuth_major_unit_vectors():
    az = np.radians([-30.0, 0.0, 45.0])
    el = np.radians([-10.0, 20.0])
    dirs = fan_directions(az, el)
    assert dirs.shape == (6, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    for a in range(3):
        for e in range(2):
            d = dirs[a * 2 + e]
            assert math.atan2(d[1], d[0]) == pytest.approx(az[a], abs=1e-15)  # positive left
            assert math.asin(d[2]) == pytest.approx(el[e], abs=1e-15)  # positive up
    assert np.array_equal(fan_directions(np.zeros(1), np.zeros(1)), [[1.0, 0.0, 0.0]])


def _meshgrid_fan(az, el):
    """The fan as first written: trig over a meshgrid of every ray."""
    az_grid, el_grid = np.meshgrid(az, el, indexing="ij")
    a, e = az_grid.ravel(), el_grid.ravel()
    return np.stack([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)], axis=-1)


@pytest.mark.parametrize("n_az, n_el", [(1, 1), (2, 2), (3, 7), (17, 1), (320, 320)])
def test_fan_direction_rows_are_the_whole_fans_rows_bit_for_bit(n_az, n_el):
    rng = np.random.default_rng(n_az * 1000 + n_el)
    az, el = np.sort(rng.uniform(-1.5, 1.5, n_az)), np.sort(rng.uniform(-0.7, 0.7, n_el))
    whole = fan_directions(az, el)
    assert whole.tobytes() == _meshgrid_fan(az, el).tobytes()
    n = n_az * n_el
    for rows in (np.arange(n), np.arange(n // 2, n), np.sort(rng.choice(n, (n + 1) // 2, replace=False))):
        assert fan_directions(az, el, rows).tobytes() == whole[rows].tobytes()


def test_pose_world_body_round_trip():
    pose = Pose.from_rpy(1.0, 2.0, 3.0, roll=0.2, pitch=-0.4, yaw=1.1)
    v = np.array([0.3, -0.7, 0.5])
    assert np.allclose(pose.to_body(pose.to_world(v)), v, atol=1e-12)
