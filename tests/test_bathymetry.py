import math

import numpy as np
import pytest

from subsim import bathymetry as bat
from subsim.geodesy import GeodeticCoord, ProjectedCoord
from subsim.geometry import WorldPoint, ned

from conftest import make_heightmap


# --- loading ----------------------------------------------------------------


def write_asc(path, ncols, nrows, values, nodata=None, cellsize=0.001):
    lines = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        "xllcorner 10.0",
        "yllcorner 20.0",
        f"cellsize {cellsize}",
    ]
    if nodata is not None:
        lines.append(f"nodata_value {nodata}")
    lines.append(" ".join(str(v) for v in values))
    path.write_text("\n".join(lines) + "\n")


def test_load_echoes_grid(tmp_path):
    f = tmp_path / "g.asc"
    write_asc(f, 2, 2, [10, 10, 20, 20])
    h = bat.load_heightmap(f)
    assert h.rows == 2 and h.cols == 2
    # North row first in the file; row 0 is south in memory.
    assert h.depth[1].tolist() == [10.0, 10.0]
    assert h.depth[0].tolist() == [20.0, 20.0]
    assert h.origin == GeodeticCoord(20.0, 10.0)


def test_load_count_mismatch(tmp_path):
    f = tmp_path / "bad.asc"
    write_asc(f, 3, 2, [1, 2, 3, 4, 5])
    with pytest.raises(bat.HeightmapError, match="expected 6 values"):
        bat.load_heightmap(f)


def test_load_bad_token_names_line(tmp_path):
    f = tmp_path / "bad.asc"
    f.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 oops\n")
    with pytest.raises(bat.HeightmapError, match=r":7"):
        bat.load_heightmap(f)


def test_nodata_cell_flagged(tmp_path):
    f = tmp_path / "g.asc"
    write_asc(f, 2, 2, [1, 2, -9999, 4], nodata=-9999)
    h = bat.load_heightmap(f)
    assert h.nodata_mask.sum() == 1
    assert bool(np.isnan(h.depth[0, 0]))  # south-west cell (file row 2, col 1)


def test_save_load_round_trip(tmp_path):
    h = make_heightmap(np.arange(12.0).reshape(3, 4) + 30.0)
    f = tmp_path / "rt.asc"
    bat.save_heightmap(h, f)
    h2 = bat.load_heightmap(f)
    assert np.array_equal(h2.depth, h.depth)
    assert h2.origin.lat == pytest.approx(h.origin.lat, abs=1e-15)


def test_grid_must_be_2x2():
    with pytest.raises(bat.HeightmapError):
        make_heightmap(np.zeros((1, 5)))


# --- depth queries ------------------------------------------------------------


def test_depth_exact_at_node():
    grid = np.arange(16.0).reshape(4, 4) + 40.0
    h = make_heightmap(grid, cell_m=10.0)
    for i in range(4):
        for j in range(4):
            p = ProjectedCoord(float(h.xs[j]), float(h.ys[i]))
            assert bat.depth_at(h, p) == grid[i, j]


def test_depth_bilinear_midpoint():
    h = make_heightmap([[0.0, 10.0], [0.0, 10.0]], cell_m=10.0)
    mid = ProjectedCoord((h.xs[0] + h.xs[1]) / 2.0, (h.ys[0] + h.ys[1]) / 2.0)
    assert bat.depth_at(h, mid) == pytest.approx(5.0, abs=1e-12)


def test_depth_matches_independent_bilinear_oracle():
    rng = np.random.default_rng(21)
    grid = rng.uniform(10.0, 90.0, (8, 8))
    h = make_heightmap(grid, cell_m=7.0)
    for _ in range(100):
        x = rng.uniform(h.xs[0], h.xs[-1])
        y = rng.uniform(h.ys[0], h.ys[-1])
        # Oracle: locate the cell by scanning, then evaluate the patch
        # as the tensor product of two 1D linear interpolations.
        j = max(np.searchsorted(h.xs, x) - 1, 0)
        i = max(np.searchsorted(h.ys, y) - 1, 0)
        j = min(j, h.cols - 2)
        i = min(i, h.rows - 2)
        fx = (x - h.xs[j]) / (h.xs[j + 1] - h.xs[j])
        fy = (y - h.ys[i]) / (h.ys[i + 1] - h.ys[i])
        top = grid[i, j] * (1 - fx) + grid[i, j + 1] * fx
        bot = grid[i + 1, j] * (1 - fx) + grid[i + 1, j + 1] * fx
        expected = top * (1 - fy) + bot * fy
        assert bat.depth_at(h, ProjectedCoord(x, y)) == pytest.approx(expected, abs=1e-9)


def test_depth_out_of_extent_and_nodata():
    grid = np.full((3, 3), 5.0)
    grid[1, 1] = np.nan
    h = make_heightmap(grid, cell_m=10.0)
    with pytest.raises(bat.OutOfExtentError):
        bat.depth_at(h, ProjectedCoord(h.xs[-1] + 1.0, h.ys[0]))
    with pytest.raises(bat.NodataError):
        bat.depth_at(h, ProjectedCoord((h.xs[0] + h.xs[1]) / 2.0, (h.ys[0] + h.ys[1]) / 2.0))


# --- ray casting ----------------------------------------------------------------


def brute_force_raycast(h, origin, direction, max_range, step):
    """Independent oracle: fixed-step sampling plus scalar bisection."""
    d = np.asarray(direction, dtype=float)
    ts = np.arange(0.0, max_range + step, step)
    ts = ts[ts <= max_range]
    x = origin.x + d[1] * ts
    y = origin.y + d[0] * ts
    z = origin.depth + d[2] * ts
    f = z - bat.depth_at_xy(h, x, y)
    for k in range(1, len(ts)):
        if np.isfinite(f[k - 1]) and np.isfinite(f[k]) and (f[k - 1] < 0) != (f[k] < 0):
            lo, hi = ts[k - 1], ts[k]
            flo = f[k - 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = float(
                    origin.depth
                    + d[2] * mid
                    - bat.depth_at_xy(h, origin.x + d[1] * mid, origin.y + d[0] * mid)
                )
                if (flo < 0) != (fm < 0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            return 0.5 * (lo + hi)
    return None


def test_vertical_ray_over_flat_terrain(flat50):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    hit = bat.raycast(flat50, origin, ned(0.0, 0.0, 1.0), 100.0)
    assert hit is not None
    assert hit.range == pytest.approx(50.0, abs=1e-6)
    assert np.allclose(hit.normal, [0.0, 0.0, -1.0])  # straight up


def test_45_degree_ray_over_flat_terrain(flat50):
    origin = WorldPoint(float(flat50.xs[1]), float(flat50.ys[5]), 0.0)
    d = ned(0.0, 1.0, 1.0) / math.sqrt(2.0)
    hit = bat.raycast(flat50, origin, d, 200.0)
    assert hit is not None
    assert hit.range == pytest.approx(50.0 * math.sqrt(2.0), abs=1e-4)
    oracle = brute_force_raycast(flat50, origin, d, 200.0, step=0.1)
    assert hit.range == pytest.approx(oracle, abs=1e-3)


def test_horizontal_ray_above_terrain_misses(flat50):
    origin = WorldPoint(float(flat50.xs[0]), float(flat50.ys[5]), 10.0)
    assert bat.raycast(flat50, origin, ned(0.0, 1.0, 0.0), 500.0) is None


def test_ray_beyond_max_range_misses(flat50):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    assert bat.raycast(flat50, origin, ned(0.0, 0.0, 1.0), 49.0) is None


def test_unit_direction_required(flat50):
    with pytest.raises(ValueError):
        bat.raycast(flat50, WorldPoint(0, 0, 0), ned(0.0, 0.0, 2.0), 10.0)


def test_normal_on_sloped_plane():
    # depth rises 1 m per 10 m of easting: gradient (d depth/dx) = 0.1.
    cols = np.arange(6.0)
    grid = np.tile(40.0 + cols, (6, 1))
    h = make_heightmap(grid, cell_m=10.0)
    origin = WorldPoint(float(h.xs[2] + 3.0), float(h.ys[2]), 0.0)
    hit = bat.raycast(h, origin, ned(0.0, 0.0, 1.0), 100.0)
    expected = np.array([0.0, 0.1, -1.0])
    expected /= np.linalg.norm(expected)
    assert np.allclose(hit.normal, expected, atol=1e-6)


def test_raycast_agrees_with_brute_force_on_random_terrain():
    from conftest import smooth_random_grid

    rng = np.random.default_rng(22)
    grid = smooth_random_grid(rng, (16, 16), base=40.0, relief=10.0)
    h = make_heightmap(grid, cell_m=10.0)
    x_min, y_min, x_max, y_max = h.extent
    misses = 0
    for _ in range(60):
        origin = WorldPoint(
            rng.uniform(x_min, x_max), rng.uniform(y_min, y_max), rng.uniform(0.0, 15.0)
        )
        d = rng.normal(size=3)
        d[2] = abs(d[2])  # point generally downward
        d /= np.linalg.norm(d)
        got = bat.raycast(h, origin, d, 300.0)
        expected = brute_force_raycast(h, origin, d, 300.0, step=0.1)
        if expected is None:
            misses += 1
            assert got is None
        else:
            assert got is not None
            assert got.range == pytest.approx(expected, abs=1e-3)
    assert 60 - misses >= 20  # geometry sanity: a healthy share of hits


def test_batch_matches_scalar(flat50):
    rng = np.random.default_rng(23)
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 5.0)
    dirs = rng.normal(size=(50, 3))
    dirs[:, 2] = np.abs(dirs[:, 2]) + 0.2
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    batch = bat.raycast_batch(flat50, origin, dirs, 150.0)
    for k in range(len(dirs)):
        scalar = bat.raycast(flat50, origin, dirs[k], 150.0)
        if scalar is None:
            assert not batch.hit[k]
        else:
            assert batch.hit[k]
            assert batch.ranges[k] == pytest.approx(scalar.range, abs=1e-3)
            assert np.allclose(batch.normals[k], scalar.normal, atol=1e-6)


def test_batch_misses_outside_extent(flat50):
    origin = WorldPoint(float(flat50.xs[0]) - 500.0, float(flat50.ys[0]) - 500.0, 0.0)
    dirs = np.array([[0.0, -1.0, 0.5], [0.0, -0.7071067811865476, 0.7071067811865476]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    batch = bat.raycast_batch(flat50, origin, dirs, 100.0)
    assert not batch.hit.any()


def _fan(rng, n, elevation_lo, elevation_hi):
    """n unit rays at uniform azimuth, pointing elevation_lo..elevation_hi rad below level."""
    el = rng.uniform(elevation_lo, elevation_hi, n)
    az = rng.uniform(-math.pi, math.pi, n)
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)


def test_batch_matches_scalar_on_rough_terrain():
    """Both entry points apply one hit rule: same hit flag and the
    identical range and normal on every ray, misses included."""
    from conftest import smooth_random_grid

    rng = np.random.default_rng(24)
    rough = make_heightmap(smooth_random_grid(rng, (21, 21), base=35.0, relief=9.0), cell_m=10.0)
    steep = rng.normal(size=(80, 3))
    steep[:, 2] = np.abs(steep[:, 2]) + 0.25
    steep /= np.linalg.norm(steep, axis=1, keepdims=True)
    # Shallow rays over uncorrelated relief cross many thin ridges.
    jagged = make_heightmap(rng.uniform(30.0, 40.0, (60, 60)), cell_m=10.0)
    holed_grid = rng.uniform(30.0, 40.0, (30, 30))
    holed_grid[8:14, 10:20] = np.nan
    holed = make_heightmap(holed_grid, cell_m=10.0)
    cases = [
        (rough, WorldPoint(float(rough.xs[10]), float(rough.ys[10]), 5.0), steep, 120.0),
        (jagged, WorldPoint(float(jagged.xs[30]), float(jagged.ys[30]), 20.0), _fan(rng, 2000, 0.01, 0.3), 900.0),
        (holed, WorldPoint(float(holed.xs[15]), float(holed.ys[11]), 20.0), _fan(rng, 400, 0.02, 0.5), 400.0),
    ]
    for h, origin, dirs, max_range in cases:
        batch = bat.raycast_batch(h, origin, dirs, max_range)
        hits = 0
        for k in range(len(dirs)):
            scalar = bat.raycast(h, origin, dirs[k], max_range)
            assert batch.hit[k] == (scalar is not None)
            if scalar is not None:
                hits += 1
                assert batch.ranges[k] == scalar.range
                assert np.array_equal(batch.normals[k], scalar.normal)
        assert 0 < hits < len(dirs)
