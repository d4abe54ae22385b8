import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from subsim import bathymetry, lidar
from subsim.bathymetry import RAYCAST_TOL_M, depth_at_xy
from subsim.geometry import Pose, fan_directions

from conftest import flat_heightmap


def down_pose(h, depth):
    """Sensor at map center looking straight down (pitch -90 deg)."""
    mid = len(h.xs) // 2
    return Pose.from_rpy(float(h.xs[mid]), float(h.ys[mid]), depth, pitch=-math.pi / 2.0)


def cast_scan(pose, h, cfg, rng=None):
    """The scan of the rays cast from ``pose``, as a run's lidar evaluates
    it."""
    return lidar.scan(lidar.scan_geometry(pose, h, cfg), cfg, rng)


SMALL = lidar.LidarConfig(rays_h=12, rays_v=12, supersample=2)


# --- pan/tilt mount ----------------------------------------------------------


def test_command_within_limits_passes_through():
    assert (SMALL.pan_deg, SMALL.tilt_deg) == (0.0, 0.0)
    for pan, tilt in ((0.0, 0.0), (-10.0, 20.0), (174.5, -29.5)):
        cfg = lidar.LidarConfig(pan_deg=pan, tilt_deg=tilt)
        assert (cfg.pan_deg, cfg.tilt_deg) == (pan, tilt)


def _beyond_limit(field, value):
    limit = {"pan_deg": lidar.PAN_LIMIT_DEG, "tilt_deg": lidar.TILT_LIMIT_DEG}[field]
    return pytest.raises(ValueError, match=re.escape(f"{field} {value} is outside the mount limit +/-{limit}"))


def test_pan_limit_is_175():
    for pan in (175.0, -175.0):
        assert lidar.LidarConfig(pan_deg=pan).pan_deg == pan
    for pan in (math.nextafter(175.0, math.inf), -175.5, 200.0, -1e9):
        with _beyond_limit("pan_deg", pan):
            lidar.LidarConfig(pan_deg=pan)


def test_tilt_limit_is_30():
    for tilt in (30.0, -30.0):
        assert lidar.LidarConfig(pan_deg=-10.0, tilt_deg=tilt).tilt_deg == tilt
    for tilt in (math.nextafter(-30.0, -math.inf), 30.5, -45.0, 1e9):
        with _beyond_limit("tilt_deg", tilt):
            lidar.LidarConfig(pan_deg=-10.0, tilt_deg=tilt)


def test_mount_never_exits_limit_box():
    rng = np.random.default_rng(71)
    accepted = 0
    for pan, tilt in zip(rng.uniform(-360, 360, 1000).tolist(), rng.uniform(-60, 60, 1000).tolist()):
        inside = abs(pan) <= lidar.PAN_LIMIT_DEG and abs(tilt) <= lidar.TILT_LIMIT_DEG
        try:
            lidar.LidarConfig(pan_deg=pan, tilt_deg=tilt)
        except ValueError:
            assert not inside
        else:
            assert inside
            accepted += 1
    assert 100 < accepted < 900


def test_pan_sweep_covers_full_circle():
    # 30 deg sector on a +/-175 deg pan: union spans 380 deg >= 360.
    fov = 30.0
    lo = -lidar.PAN_LIMIT_DEG - fov / 2.0
    hi = lidar.PAN_LIMIT_DEG + fov / 2.0
    assert hi - lo >= 360.0
    # Likewise 30 deg vertical sector on +/-30 deg tilt covers 90 deg.
    assert 2.0 * lidar.TILT_LIMIT_DEG + fov >= 90.0


# --- scanning ------------------------------------------------------------------


def test_empty_scene_gives_empty_cloud():
    h = flat_heightmap(500.0, n=11, cell_m=10.0)  # bottom far beyond range
    cloud = cast_scan(Pose.level(float(h.xs[5]), float(h.ys[5]), 0.0), h, SMALL)
    assert len(cloud.points) == 0
    # No hits take the same path as any other scan: size-0 arrays, and a
    # range-noise draw of size 0 leaves the rng where it was.
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    cloud = cast_scan(Pose.level(float(h.xs[5]), float(h.ys[5]), 0.0), h,
                      dataclasses.replace(SMALL, range_noise_sigma=0.05), rng)
    assert cloud.points.shape == (0, 3) and cloud.points.dtype == np.float64
    assert cloud.ranges.shape == (0,) and cloud.ranges.dtype == np.float64
    assert cloud.h_index.shape == cloud.v_index.shape == (0,)
    assert cloud.h_index.dtype == cloud.v_index.dtype == np.int64
    assert rng.bit_generator.state == state


def test_wall_beyond_max_range_gives_empty_cloud():
    h = flat_heightmap(50.0, n=11, cell_m=10.0)
    cloud = cast_scan(down_pose(h, 25.0), h,
                      lidar.LidarConfig(rays_h=8, rays_v=8, supersample=1, max_range=20.0))
    assert len(cloud.points) == 0  # floor 25 m away, range 20 m


def test_perpendicular_wall_at_10m():
    h = flat_heightmap(50.0, n=41, cell_m=5.0)
    cfg = lidar.LidarConfig(rays_h=10, rays_v=10, supersample=3, max_range=20.0)
    cloud = cast_scan(down_pose(h, 40.0), h, cfg)
    n_rays = (cfg.rays_h * cfg.supersample) * (cfg.rays_v * cfg.supersample)
    assert len(cloud.points) == n_rays  # every ray lands on the floor
    # Sector geometry: ranges between 10 and 10/cos(15 deg * sqrt(2)).
    assert cloud.ranges.min() >= 10.0 - 1e-3
    assert cloud.ranges.max() <= 10.0 / math.cos(math.radians(15.0 * math.sqrt(2.0)))
    # Every point lies on the wall plane (the 50 m seabed).
    assert np.allclose(cloud.points[:, 2], 50.0, atol=10.0 * RAYCAST_TOL_M)


def test_points_lie_on_surface_zero_noise():
    rng = np.random.default_rng(72)
    from conftest import make_heightmap

    h = make_heightmap(rng.uniform(20.0, 35.0, (21, 21)), cell_m=10.0)
    pose = down_pose(h, 5.0)
    cloud = cast_scan(pose, h, lidar.LidarConfig(
        rays_h=12, rays_v=12, supersample=2, max_range=40.0))
    assert len(cloud.points) > 0
    surface = depth_at_xy(h, cloud.points[:, 0], cloud.points[:, 1])
    assert np.nanmax(np.abs(surface - cloud.points[:, 2])) <= 10.0 * RAYCAST_TOL_M


def test_point_count_and_range_bounds():
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = lidar.LidarConfig(rays_h=9, rays_v=7, supersample=2, max_range=35.0)
    cloud = cast_scan(down_pose(h, 0.0), h, cfg)
    assert len(cloud.points) <= (9 * 2) * (7 * 2)
    assert np.all(cloud.ranges <= 35.0)


def test_mount_steers_the_sector():
    h = flat_heightmap(30.0, n=41, cell_m=10.0)
    pose = Pose.level(float(h.xs[20]), float(h.ys[20]), 10.0)
    # Level sensor looking north: flat floor 20 m below is out of the
    # 30-deg sector. Tilting down 30 deg brings it in at ~40 m... use a
    # short range so only the tilted mount sees returns.
    cfg = lidar.LidarConfig(rays_h=8, rays_v=8, supersample=1, max_range=60.0)
    level_cloud = cast_scan(pose, h, cfg)
    tilted_cloud = cast_scan(pose, h, dataclasses.replace(cfg, tilt_deg=-30.0))
    assert len(tilted_cloud.points) > len(level_cloud.points)
    assert np.all(tilted_cloud.points[:, 1] > pose.position.y)  # ahead, to the north
    # Panning 90 deg left turns the tilted sector to the west.
    panned_cloud = cast_scan(pose, h, dataclasses.replace(cfg, pan_deg=90.0, tilt_deg=-30.0))
    assert len(panned_cloud.points) == len(tilted_cloud.points)
    assert np.all(panned_cloud.points[:, 0] < pose.position.x)


def test_range_noise_deterministic_under_seed():
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = lidar.LidarConfig(rays_h=6, rays_v=6, supersample=1, max_range=40.0,
                            range_noise_sigma=0.05)
    pose = down_pose(h, 5.0)
    a = cast_scan(pose, h, cfg, np.random.default_rng(5))
    b = cast_scan(pose, h, cfg, np.random.default_rng(5))
    c = cast_scan(pose, h, cfg, np.random.default_rng(6))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_range_noise_without_an_rng_is_refused():
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = lidar.LidarConfig(rays_h=4, rays_v=4, supersample=1, max_range=40.0, range_noise_sigma=0.05)
    with pytest.raises(ValueError, match="range noise requires an rng"):
        cast_scan(down_pose(h, 5.0), h, cfg)
    assert len(cast_scan(down_pose(h, 5.0), h, dataclasses.replace(cfg, range_noise_sigma=0.0)).points) == 16


def test_scan_does_not_depend_on_the_ray_chunk(monkeypatch):
    """Rays are cast in chunks of bathymetry.RAY_CHUNK, but the points, their
    ray indices and the range noise (one draw per hit, in ray order) are the
    same as from one chunk."""
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = lidar.LidarConfig(rays_h=9, rays_v=7, supersample=2, fov_h_deg=120.0, fov_v_deg=60.0,
                            max_range=40.0, range_noise_sigma=0.05)
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 5.0, pitch=-0.6)
    whole = cast_scan(pose, h, cfg, np.random.default_rng(5))
    monkeypatch.setattr(bathymetry, "RAY_CHUNK", 25)
    chunked = cast_scan(pose, h, cfg, np.random.default_rng(5))
    assert 0 < len(whole.ranges) < 18 * 14
    for a, b in zip(dataclasses.astuple(whole), dataclasses.astuple(chunked)):
        assert np.array_equal(a, b)


def test_chunked_scan_directions_are_the_whole_fans_rows(monkeypatch):
    """Each chunk's directions are built and rotated on their own; each
    hit's direction is its row of the whole fan rotated at once, bit for
    bit, also where the fan leaves one ray over (numpy rotates a single
    row through gemv)."""
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cfg = lidar.LidarConfig(rays_h=9, rays_v=7, supersample=2, fov_h_deg=120.0, fov_v_deg=60.0,
                            max_range=40.0)
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 5.0, roll=0.1, pitch=-0.6, yaw=0.4)
    az = np.radians(np.linspace(-60.0, 60.0, 18))
    el = np.radians(np.linspace(-30.0, 30.0, 14))
    whole = fan_directions(az, el) @ (pose.rotation @ lidar.mount_rotation(cfg)).T
    for chunk in (251, 25, 2):  # 252 rays: 251 leaves one over
        monkeypatch.setattr(bathymetry, "RAY_CHUNK", chunk)
        casts = []

        def counted(h, origin, directions, max_range, cast=bathymetry.raycast_batch):
            casts.append(len(directions))
            return cast(h, origin, directions, max_range)

        monkeypatch.setattr(bathymetry, "raycast_batch", counted)
        geometry = lidar.scan_geometry(pose, h, cfg)
        assert 0 < len(geometry.ranges) < 252
        assert geometry.directions.tobytes() == whole[geometry.h_index * 14 + geometry.v_index].tobytes()
        # Every ray is cast once, in chunks of `chunk` rays but for the
        # last, and no chunk is a single ray.
        assert sum(casts) == 252 and all(n == chunk for n in casts[:-1]) and min(casts) >= 2
        monkeypatch.undo()


def test_scan_memory_is_bounded_by_the_chunk_and_the_hits():
    """dense_scan's 102,400-ray lidar: the fan is cast a chunk at a time and
    only the hits are kept."""
    h = flat_heightmap(30.0, n=41, cell_m=5.0)
    cfg = lidar.LidarConfig(rays_h=80, rays_v=80, supersample=4, max_range=20.0, tilt_deg=-5.0)
    pose = Pose.from_rpy(float(h.xs[20]), float(h.ys[20]), 25.0, pitch=-0.3)
    tracemalloc.start()
    try:
        hits = len(cast_scan(pose, h, cfg).ranges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 * 102_400 < hits < 102_400
    # Per hit, what the scan keeps: its direction, range, grid indices and
    # point (72 bytes). Per ray of a chunk in flight: the walk's per-ray
    # arrays and the chunk's fan (under 400 bytes). Plus 1 MiB.
    bound = 72 * hits + 400 * bathymetry.RAY_CHUNK + 2**20
    assert peak <= bound, (peak, bound)


def test_ply_export(tmp_path):
    h = flat_heightmap(30.0, n=21, cell_m=10.0)
    cloud = cast_scan(down_pose(h, 5.0), h,
                      lidar.LidarConfig(rays_h=4, rays_v=4, supersample=1, max_range=40.0))
    out = tmp_path / "scan.ply"
    lidar.write_ply(cloud, out)
    assert out.read_bytes().startswith(b"ply\nformat binary_little_endian 1.0\n")
    back = lidar.read_ply(out)
    assert len(back) == len(cloud.points) > 0
    assert np.array_equal(back["x"], cloud.points[:, 0])
    assert np.array_equal(back["y"], cloud.points[:, 1])
    assert np.array_equal(back["z"], -cloud.points[:, 2])
    assert np.array_equal(back["h_index"], cloud.h_index)
    assert np.array_equal(back["v_index"], cloud.v_index)


def test_config_validation():
    with pytest.raises(ValueError):
        lidar.LidarConfig(rays_h=1)
    with pytest.raises(ValueError):
        lidar.LidarConfig(supersample=0)
    with pytest.raises(ValueError):
        lidar.LidarConfig(pan_deg=200.0)
    for field in ("fov_h_deg", "fov_v_deg", "max_range"):
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="must be positive"):
                lidar.LidarConfig(**{field: value})


def test_rays_per_scan_are_bounded_at_max_scan_rays():
    assert lidar.MAX_SCAN_RAYS == 2**22
    default = lidar.LidarConfig()  # the paper's 1450 x 1450 rays
    assert (default.rays_h * default.supersample) * (default.rays_v * default.supersample) == 1450 * 1450
    assert lidar.LidarConfig(rays_h=2048, rays_v=2048, supersample=1).rays_h == 2048  # at the bound
    with pytest.raises(ValueError, match=re.escape("rays_h * rays_v * supersample^2 is 4196352, more than 4194304")):
        lidar.LidarConfig(rays_h=2049, rays_v=2048, supersample=1)
    with pytest.raises(ValueError, match="more than 4194304"):
        lidar.LidarConfig(rays_h=200_000, rays_v=200_000, supersample=10)
    with pytest.raises(ValueError, match="is 18446744073709551616, more than"):  # no int64 wrap to 0
        lidar.LidarConfig(rays_h=np.int64(2**32), rays_v=np.int64(2**32), supersample=np.int64(1))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_scan_from_a_geometry_is_the_scan_that_casts_its_rays(sigma):
    h = flat_heightmap(40.0, n=21, cell_m=5.0)
    cfg = lidar.LidarConfig(rays_h=8, rays_v=6, supersample=2, range_noise_sigma=sigma, tilt_deg=-30.0)
    pose = Pose.from_rpy(float(h.xs[10]), float(h.ys[10]), 30.0, pitch=-0.4, yaw=0.3)
    geometry = lidar.scan_geometry(pose, h, cfg)
    assert 0 < len(geometry.ranges) <= 8 * 6 * 4
    rng_fresh, rng_held = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        fresh = cast_scan(pose, h, cfg, rng_fresh)
        held = lidar.scan(geometry, cfg, rng_held)
        for name in ("points", "ranges", "h_index", "v_index"):
            assert getattr(held, name).tobytes() == getattr(fresh, name).tobytes(), name
    # Both streams made the draws of three fresh scans, and no more.
    assert rng_fresh.random() == rng_held.random()
    again = lidar.scan(geometry, cfg, rng_held)
    assert (again is held) == (sigma == 0.0)
