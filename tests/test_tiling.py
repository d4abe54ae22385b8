import math
from pathlib import Path

import numpy as np
import pytest

from subsim import tiling
from subsim.bathymetry import Heightmap, load_heightmap
from subsim.geodesy import GeodeticCoord, ProjectedCoord
from subsim.meshtools import load_obj

from conftest import make_heightmap


@pytest.fixture
def map100():
    """100 m x 100 m flat-ish map with 10 m cells (11 x 11 nodes)."""
    rng = np.random.default_rng(31)
    return make_heightmap(rng.uniform(30.0, 50.0, (11, 11)), cell_m=10.0)


def test_four_tiles_span_core_plus_overlap(map100):
    tiles = tiling.generate_tiles(map100, tile_size=50.0, overlap=5.0)
    assert len(tiles) == 4
    for tile in tiles:
        v = tile.mesh.vertices
        assert v[:, 0].max() - v[:, 0].min() == pytest.approx(60.0, abs=1e-4)
        assert v[:, 1].max() - v[:, 1].min() == pytest.approx(60.0, abs=1e-4)


def test_tile_cores_partition_extent(map100):
    tiles = tiling.generate_tiles(map100, tile_size=50.0, overlap=5.0)
    x_min, y_min, x_max, y_max = map100.extent
    area = sum(
        (t.core_bounds.x1 - t.core_bounds.x0) * (t.core_bounds.y1 - t.core_bounds.y0)
        for t in tiles
    )
    assert area == pytest.approx((x_max - x_min) * (y_max - y_min), rel=1e-9)


def test_constant_depth_gives_uniform_color():
    h = make_heightmap(np.full((6, 6), 42.0), cell_m=10.0)
    tiles = tiling.generate_tiles(h, tile_size=30.0, overlap=5.0)
    for tile in tiles:
        assert np.all(tile.mesh.colors == tile.mesh.colors[0])


def test_overlap_band_depths_bit_exact(map100):
    tiles = tiling.generate_tiles(map100, tile_size=50.0, overlap=5.0)
    by_index = {t.index: t for t in tiles}
    left, right = by_index[(0, 0)], by_index[(0, 1)]

    def depths_at_shared_nodes(tile):
        # Vertices lying exactly on global nodes inside the overlap band.
        out = {}
        for v in tile.mesh.vertices:
            out[(round(v[0], 6), round(v[1], 6))] = v[2]
        return out

    dl = depths_at_shared_nodes(left)
    dr = depths_at_shared_nodes(right)
    shared = set(dl) & set(dr)
    assert len(shared) >= 4
    for key in shared:
        assert dl[key] == dr[key]  # bit-exact


def test_tile_size_must_exceed_overlap(map100):
    with pytest.raises(Exception):
        tiling.generate_tiles(map100, tile_size=8.0, overlap=5.0)


def test_tile_count_is_bounded_before_any_spec_is_built(map100, monkeypatch):
    with pytest.raises(tiling.HeightmapError, match="into more than 1000000 tiles"):
        tiling.grid_tile_specs(map100, 1e-320, 0.0)  # the count overflows to inf
    monkeypatch.setattr(tiling, "MAX_TILES", 4)
    assert len(tiling.grid_tile_specs(map100, 50.0, 5.0)) == 4
    monkeypatch.setattr(tiling, "MAX_TILES", 3)
    with pytest.raises(tiling.HeightmapError, match="into more than 3 tiles"):
        tiling.grid_tile_specs(map100, 50.0, 5.0)


def test_write_tiles_manifest_and_objs(tmp_path, map100):
    tiles = tiling.generate_tiles(map100, tile_size=50.0, overlap=5.0)
    manifest = tiling.write_tiles(tiles, tmp_path)
    lines = manifest.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 tiles
    mesh = load_obj(tmp_path / "tile_000_000.obj")
    assert mesh.colors is not None
    assert mesh.num_triangles > 0


# --- TileManager --------------------------------------------------------------


def specs_grid(n=6, tile=100.0):
    """n x n tile grid with core size `tile` meters starting at (0, 0)."""
    out = []
    for r in range(n):
        for c in range(n):
            bounds = tiling.Bounds(c * tile, r * tile, (c + 1) * tile, (r + 1) * tile)
            out.append(tiling.TileSpec((r, c), bounds))
    return out


def test_single_vehicle_loads_containing_tile():
    mgr = tiling.TileManager(specs_grid(3), load_radius=10.0, unload_radius=30.0)
    events = mgr.update_tiles([ProjectedCoord(150.0, 150.0)])
    assert tiling.TileEvent("load", (1, 1)) in events
    assert (1, 1) in mgr.loaded


def test_update_is_idempotent():
    mgr = tiling.TileManager(specs_grid(4), load_radius=120.0, unload_radius=180.0)
    pos = [ProjectedCoord(200.0, 200.0)]
    first = mgr.update_tiles(pos)
    assert first
    assert mgr.update_tiles(pos) == []


def test_hysteresis_quells_boundary_oscillation():
    # Vehicle oscillates +/-1 m across the x=100 tile boundary; tile (0, 5)
    # sits right at the load radius so a naive single-radius policy
    # thrashes while the dual-radius manager stays quiet.
    specs = specs_grid(n=6, tile=100.0)
    mgr = tiling.TileManager(specs, load_radius=400.0, unload_radius=420.0)
    positions = [ProjectedCoord(99.0, 50.0), ProjectedCoord(101.0, 50.0)]
    mgr.update_tiles([positions[0]])
    mgr.update_tiles([positions[1]])  # second initial step may add the edge tile
    events_after = []
    naive_loaded = None
    naive_events = 0
    for k in range(40):
        p = positions[k % 2]
        events_after.extend(mgr.update_tiles([p]))
        # Naive oracle: load exactly the tiles within a single radius.
        within = {
            s.index for s in specs if s.core_bounds.distance_to(p.x, p.y) <= 400.0
        }
        if naive_loaded is not None:
            naive_events += len(within ^ naive_loaded)
        naive_loaded = within
    assert events_after == []
    assert naive_events > 10


def test_vehicle_leaving_map_unloads_everything():
    mgr = tiling.TileManager(specs_grid(3), load_radius=150.0, unload_radius=200.0)
    mgr.update_tiles([ProjectedCoord(150.0, 150.0)])
    assert mgr.loaded
    events = mgr.update_tiles([ProjectedCoord(5000.0, 5000.0)])
    assert all(e.action == "unload" for e in events)
    assert mgr.loaded == set()


def test_loaded_set_bounded():
    tile = 100.0
    load_r, unload_r = 150.0, 200.0
    mgr = tiling.TileManager(specs_grid(10, tile), load_radius=load_r, unload_radius=unload_r)
    rng = np.random.default_rng(32)
    bound = int(np.ceil(2.0 * unload_r / tile) + 2) ** 2
    for _ in range(50):
        p = ProjectedCoord(rng.uniform(0, 1000), rng.uniform(0, 1000))
        mgr.update_tiles([p])
        assert len(mgr.loaded) <= bound


def test_radii_validation():
    with pytest.raises(ValueError):
        tiling.TileManager(specs_grid(2), load_radius=100.0, unload_radius=100.0)
    with pytest.raises(ValueError):
        tiling.TileManager(specs_grid(2), load_radius=0.0, unload_radius=10.0)


# --- TileManager against the full O(tiles x vehicles) loop ----------------------


def _update_reference(bounds, loaded, load_radius, unload_radius, vehicles):
    """The hysteresis rule applied to every tile; returns (events, loaded)."""
    positions = [(v.x, v.y) for v in vehicles]
    needed = set()
    keep = set()
    for index, b in bounds.items():
        for x, y in positions:
            dist = b.distance_to(x, y)
            if dist <= load_radius:
                needed.add(index)
                break
            if index in loaded and dist <= unload_radius:
                keep.add(index)
                break
    new_loaded = needed | (keep & loaded)
    events = [tiling.TileEvent("load", i) for i in sorted(needed - loaded)]
    events += [tiling.TileEvent("unload", i) for i in sorted(loaded - new_loaded)]
    return events, new_loaded


def _check_against_reference(specs, load_radius, unload_radius, steps):
    """Run `TileManager` and the reference, which decides on every call, over
    `steps` (lists of positions); returns the event count and the manager."""
    mgr = tiling.TileManager(specs, load_radius, unload_radius)
    bounds = {s.index: s.core_bounds for s in specs}
    loaded = set()
    n_events = 0
    for k, positions in enumerate(steps):
        vehicles = [ProjectedCoord(x, y) for x, y in positions]
        expected, loaded = _update_reference(bounds, loaded, load_radius, unload_radius, vehicles)
        assert mgr.update_tiles(vehicles) == expected, f"step {k}"
        assert mgr.loaded == loaded, f"step {k}"
        n_events += len(expected)
    assert mgr.decisions + mgr.skipped == len(steps)
    return n_events, mgr


def _assert_matches_reference(specs, load_radius, unload_radius, steps):
    """Run both rules over `steps` (lists of positions); returns the event count."""
    return _check_against_reference(specs, load_radius, unload_radius, steps)[0]


@pytest.mark.parametrize("n_vehicles", [1, 3, 12])
def test_update_matches_reference_on_random_walks(n_vehicles):
    rng = np.random.default_rng(100 + n_vehicles)
    specs = specs_grid(61, 100.0)
    pos = rng.uniform(-200.0, 6300.0, (n_vehicles, 2))
    steps = []
    for _ in range(12):
        steps.append(pos.tolist())
        pos = pos + rng.normal(0.0, 120.0, pos.shape)
    assert _assert_matches_reference(specs, 150.0, 260.0, steps) > 0


def test_update_matches_reference_on_overlapping_bounds():
    rng = np.random.default_rng(41)
    specs = []
    for k in range(300):
        x0, y0 = rng.uniform(-500.0, 500.0, 2)
        w, h = rng.uniform(0.0, 300.0, 2)
        # A few repeated indices: the last bounds given for an index win.
        index = (k % 290, int(rng.integers(0, 3)) if k >= 290 else 0)
        specs.append(tiling.TileSpec(index, tiling.Bounds(x0, y0, x0 + w, y0 + h)))
    steps = [rng.uniform(-800.0, 800.0, (int(rng.integers(1, 6)), 2)).tolist() for _ in range(30)]
    assert _assert_matches_reference(specs, 90.0, 140.0, steps) > 0


def test_update_matches_reference_at_exact_radii():
    # 100 m tiles; a vehicle sits exactly load_radius or unload_radius from
    # a tile edge along one axis, or one ulp either side of it.
    specs = specs_grid(5, 100.0)
    load_r, unload_r = 150.0, 250.0
    steps = []
    for r in (load_r, unload_r):
        for gap in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
            for edge in (0.0, 100.0, 500.0):
                for x, y in ((edge - gap, 250.0), (edge + gap, 250.0)):
                    steps += [[(250.0, 250.0)], [(x, y)], [(y, x)]]
    assert _assert_matches_reference(specs, load_r, unload_r, steps) > 0


def _hypot_disagreements(alt, n):
    """(dx, dy) pairs where `alt` differs from math.hypot in the last bit."""
    rng = np.random.default_rng(43)
    pairs = []
    while len(pairs) < n:
        dx, dy = rng.uniform(1.0, 1000.0, 2).tolist()
        if float(alt(dx, dy)) != math.hypot(dx, dy):
            pairs.append((dx, dy))
    return pairs


@pytest.mark.parametrize(
    "alt", [np.hypot, lambda dx, dy: math.sqrt(dx * dx + dy * dy)], ids=["np.hypot", "sqrt"]
)
def test_update_matches_reference_off_a_corner(alt):
    # A vehicle at (-dx, -dy) is exactly math.hypot(dx, dy) from the corner
    # of the tile at the origin. With the radius at the smaller of the two
    # hypot values, deciding with `alt` loads or keeps the tile wrongly.
    specs = [tiling.TileSpec((0, 0), tiling.Bounds(0.0, 0.0, 100.0, 100.0))]
    for dx, dy in _hypot_disagreements(alt, 20):
        radius = min(math.hypot(dx, dy), float(alt(dx, dy)))
        corner = [(-dx, -dy)]
        # Load decided at the radius, from nothing loaded.
        _assert_matches_reference(specs, radius, 2.0 * radius, [corner, [(50.0, 50.0)]])
        # Keep decided at the radius, once loaded from inside the tile.
        _assert_matches_reference(specs, 0.5 * radius, radius, [[(50.0, 50.0)], corner])


# --- The grid index against the full loop on hard layouts ---------------------

DEMO_DEM = Path(__file__).resolve().parents[1] / "scenarios" / "demo_seafloor.asc"


def _walk(rng, lo, hi, n_vehicles, n_steps, sigma):
    """Random-walk positions starting uniformly in [lo, hi)^2."""
    pos = rng.uniform(lo, hi, (n_vehicles, 2))
    steps = []
    for _ in range(n_steps):
        steps.append(pos.tolist())
        pos = pos + rng.normal(0.0, sigma, pos.shape)
    return steps


@pytest.mark.parametrize("tile_size", [400.0, 370.0, 1000.0])
def test_update_matches_reference_on_the_demo_dem_edge_tiles(tile_size):
    # No size divides the 3005.63 m extent, so the last row and column of
    # cores are clipped: to 205.63 m at the demo's 400 m, to a 5.63 m sliver
    # at 1000 m.
    specs = tiling.grid_tile_specs(load_heightmap(DEMO_DEM), tile_size, 20.0)
    x_max = max(s.core_bounds.x1 for s in specs)
    assert min(s.core_bounds.x1 - s.core_bounds.x0 for s in specs) < tile_size - 5.0
    rng = np.random.default_rng(int(tile_size))
    steps = _walk(rng, -800.0, x_max + 800.0, 2, 40, 150.0)
    steps += [[(x_max + r, x_max + r)] for r in (0.0, 499.0, 500.0, 699.0, 700.0, 701.0)]
    assert _assert_matches_reference(specs, 500.0, 700.0, steps) > 0


def test_update_matches_reference_on_negative_cores():
    specs = [tiling.TileSpec(s.index, tiling.Bounds(s.core_bounds.x0 - 3000.5, s.core_bounds.y0 - 1234.25,
                                                    s.core_bounds.x1 - 3000.5, s.core_bounds.y1 - 1234.25))
             for s in specs_grid(20, 100.0)]
    rng = np.random.default_rng(44)
    assert _assert_matches_reference(specs, 150.0, 260.0, _walk(rng, -3300.0, -700.0, 4, 20, 150.0)) > 0


def test_update_matches_reference_on_shuffled_mixed_size_cores():
    # Cores of 20 to 400 m, some inverted or empty, listed in random order.
    rng = np.random.default_rng(45)
    specs = []
    for r in range(12):
        for c in range(12):
            x0, y0 = c * 250.0 + rng.uniform(-50.0, 50.0), r * 250.0 + rng.uniform(-50.0, 50.0)
            w, h = rng.choice([0.0, -10.0, 20.0, 120.0, 400.0], 2)
            specs.append(tiling.TileSpec((r, c), tiling.Bounds(x0, y0, x0 + w, y0 + h)))
    specs = [specs[k] for k in rng.permutation(len(specs))]
    assert _assert_matches_reference(specs, 90.0, 140.0, _walk(rng, -300.0, 3300.0, 3, 40, 120.0)) > 0


def test_update_matches_reference_at_exact_radii_off_corners():
    # (150, 200) is exactly 250 m off a corner, (90, 120) exactly 150 m.
    specs = specs_grid(5, 100.0)
    steps = []
    for a, b in ((150.0, 200.0), (90.0, 120.0)):
        for ulp in (0.0, np.inf, -np.inf):
            da = float(np.nextafter(a, ulp)) if ulp else a
            for cx, cy, sx, sy in ((0.0, 0.0, -1, -1), (500.0, 500.0, 1, 1), (500.0, 0.0, 1, -1)):
                corner = (cx + sx * da, cy + sy * b)
                steps += [[(250.0, 250.0)], [corner], [corner[::-1]], [corner, (250.0, 250.0)]]
    assert _assert_matches_reference(specs, 150.0, 250.0, steps) > 0


def test_update_matches_reference_far_off_the_map():
    specs = specs_grid(6, 100.0)
    far = [(1e6, 1e6), (-1e9, 300.0), (300.0, 1e15), (1e300, -1e300), (-1.7e308, 1.7e308),
           (math.inf, 0.0), (0.0, -math.inf), (math.nan, 300.0), (300.0, math.nan)]
    steps = []
    for p in far:
        steps += [[(300.0, 300.0)], [p], [p, (300.0, 300.0)], [p, (300.0, 420.0)]]
    assert _assert_matches_reference(specs, 150.0, 260.0, steps) > 0


def test_update_matches_reference_on_teleports_and_repeated_positions():
    rng = np.random.default_rng(46)
    specs = specs_grid(30, 100.0)
    jumps = rng.uniform(-500.0, 3500.0, (12, 3, 2)).tolist()
    steps = []
    for positions in jumps:
        steps += [positions, positions, positions, positions[:2], positions[:2], positions]
    assert _assert_matches_reference(specs, 150.0, 260.0, steps) > 0


def test_update_matches_reference_with_no_vehicles():
    specs = specs_grid(5, 100.0)
    steps = [[], [(250.0, 250.0)], [], [], [(250.0, 250.0), (100.0, 100.0)], []]
    assert _assert_matches_reference(specs, 150.0, 260.0, steps) > 0
    assert _assert_matches_reference([], 150.0, 260.0, [[], [(0.0, 0.0)], []]) == 0


def test_repeated_positions_skip_the_decision(monkeypatch):
    mgr = tiling.TileManager(specs_grid(5, 100.0), load_radius=150.0, unload_radius=260.0)
    vehicles = [ProjectedCoord(250.0, 250.0)]
    assert mgr.update_tiles(vehicles)
    monkeypatch.setattr(tiling.Bounds, "distance_to", lambda *args: pytest.fail("decided again"))
    assert mgr.update_tiles([ProjectedCoord(250.0, 250.0)]) == []


def test_non_finite_radii_or_cores_are_refused():
    with pytest.raises(ValueError, match="load_radius must be positive"):
        tiling.TileManager(specs_grid(2), load_radius=math.nan, unload_radius=10.0)
    with pytest.raises(ValueError, match="unload_radius must be finite"):
        tiling.TileManager(specs_grid(2), load_radius=10.0, unload_radius=math.inf)
    bad = [tiling.TileSpec((0, 0), tiling.Bounds(0.0, 0.0, math.inf, 10.0))]
    with pytest.raises(ValueError, match="tile core bounds must be finite"):
        tiling.TileManager(bad, load_radius=10.0, unload_radius=20.0)


def test_radius_problems_lists_each_broken_rule_in_order():
    assert tiling.radius_problems(10.0, 20.0) == []
    assert tiling.radius_problems(0.0, -1.0) == ["load_radius must be positive", "unload_radius must exceed load_radius"]
    assert tiling.radius_problems(math.nan, math.inf) == ["load_radius must be positive",
                                                          "unload_radius must exceed load_radius",
                                                          "unload_radius must be finite"]
    with pytest.raises(ValueError, match="^unload_radius must exceed load_radius$"):
        tiling.TileManager(specs_grid(2), load_radius=100.0, unload_radius=100.0)


def _large_world_specs():
    """The 3,721 cores of the benchmark's large_world: a 2000 x 2000-node DEM
    of 0.00027 deg cells at (0, 0), cut into 1 km tiles."""
    cell = 1999 * 0.00027  # one cell spanning the whole grid: the same extent
    dem = Heightmap(GeodeticCoord(0.0, 0.0), (cell, cell), np.full((2, 2), 40.0))
    return tiling.grid_tile_specs(dem, 1000.0, 20.0)


def test_update_visits_only_the_tiles_near_each_vehicle(monkeypatch):
    # large_world's 12 vehicles crossing tile corners at 25 m/s for 4 s.
    # A uniform grid query costs each vehicle at most its 4 x 4 cells of one
    # 1 km core each, whatever the number of tiles.
    specs = _large_world_specs()
    assert len(specs) == 3721
    rng = np.random.default_rng(1)
    start = 1000.0 * rng.integers(2, 58, (12, 2)) + rng.uniform(-350.0, 350.0, (12, 2))
    heading = rng.uniform(-np.pi, np.pi, 12)
    velocity = 25.0 * np.stack([np.sin(heading), np.cos(heading)], axis=-1)
    steps = [(start + velocity * (0.1 * k)).tolist() for k in range(41)]
    calls = []
    distance_to = tiling.Bounds.distance_to
    monkeypatch.setattr(tiling.Bounds, "distance_to", lambda b, x, y: calls.append(b) or distance_to(b, x, y))
    mgr = tiling.TileManager(specs, load_radius=300.0, unload_radius=500.0)
    per_step = []
    for positions in steps:
        mgr.update_tiles([ProjectedCoord(x, y) for x, y in positions])
        per_step.append(len(calls))
        calls.clear()
    assert max(per_step) <= 16 * 12
    assert mgr.loaded
    monkeypatch.setattr(tiling.Bounds, "distance_to", distance_to)
    assert _assert_matches_reference(specs, 300.0, 500.0, steps) > 0


# --- Skipped decisions against the rule decided on every call -------------------


@pytest.mark.parametrize("n_vehicles", [1, 2, 5, 12])
def test_skips_match_a_decision_on_every_call_on_random_walks(n_vehicles):
    # Steps of 0.5 m to 150 m against margins of up to about 100 m, with
    # vehicles that hold, a NaN or infinite position now and then, calls
    # that repeat the last positions and a vehicle count that changes.
    rng = np.random.default_rng(200 + n_vehicles)
    specs = specs_grid(12, 100.0)
    pos = rng.uniform(-200.0, 1400.0, (n_vehicles, 2))
    steps = []
    for k in range(200):
        sigma = (0.5, 3.0, 20.0, 150.0)[k // 10 % 4]
        moving = rng.uniform(size=n_vehicles) < 0.7
        pos = pos + np.where(moving[:, None], rng.normal(0.0, sigma, pos.shape), 0.0)
        positions = pos.tolist()
        if k % 17 == 5:
            positions[int(rng.integers(n_vehicles))] = [(math.nan, 300.0), (math.inf, 300.0), (300.0, -math.inf)][k % 3]
        if k % 23 == 7:
            positions = positions[: int(rng.integers(n_vehicles))]
        steps.append(positions)
        if k % 13 == 3:
            steps.append(list(positions))
    n_events, mgr = _check_against_reference(specs, 150.0, 260.0, steps)
    assert n_events > 0 and mgr.decisions > 10 and mgr.skipped > 10


def test_skips_match_a_decision_on_every_call_on_and_beside_the_radii():
    # One vehicle loads core (0, 0), or keeps it, from exactly load_radius
    # or unload_radius, or one ulp either side, then runs parallel to its
    # edge in 1 cm steps; a second vehicle holds or moves inside (2, 2).
    specs = specs_grid(5, 100.0)
    load_r, unload_r = 150.0, 250.0
    steps = []
    for r in (load_r, unload_r):
        for gap in (float(np.nextafter(r, 0.0)), r, float(np.nextafter(r, np.inf))):
            for other in ((250.0, 250.0), None):
                steps.append([(50.0, 50.0), (250.0, 250.0)])
                for k in range(30):
                    second = other or (250.0 + 0.3 * k, 250.0)
                    steps.append([(100.0 + gap, 20.0 + 0.01 * k), second])
                    steps.append([(20.0 + 0.01 * k, 100.0 + gap), second])
    assert _check_against_reference(specs, load_r, unload_r, steps)[0] > 0


def test_skips_match_a_decision_on_every_call_on_the_demo_run():
    # The demo's rov1 runs along y = 700 from x = 700 to 760, 500.0 m
    # (load_radius) from tile (3, 1)'s core, then jumps to its station;
    # rov2 holds at (1500, 800).
    specs = tiling.grid_tile_specs(load_heightmap(DEMO_DEM), 400.0, 20.0)
    assert next(s.core_bounds.y0 for s in specs if s.index == (3, 1)) - 700.0 == 500.0
    steps = [[(700.0 + 0.1 * k, 700.0), (1500.0, 800.0)] for k in range(300)]
    steps += [[(2500.0, 1500.0), (1500.0, 800.0)]] * 301
    n_events, mgr = _check_against_reference(specs, 500.0, 700.0, steps)
    assert n_events > 0 and mgr.skipped > mgr.decisions


def test_skips_match_a_decision_on_every_call_toward_lone_cores():
    # Cores kilometres apart, so a vehicle's margin is set by the cores
    # outside its query window. The grid cells are 400 m, the widest core;
    # each far core sits as close to the window's edge as the bound allows:
    # a lower-left corner on a cell edge to the east and north, and just
    # below one, 400 m wide, to the west and south. A vehicle jumps to 300
    # to 700 m from a far core's near edge and walks at it in 2 m steps
    # until 100 m past load_radius; another holds on the middle core.
    below = -2800.0 - 1e-6
    cores = {(1, 1): (0.0, 0.0, 100.0), (1, 0): (below, 0.0, 400.0), (1, 2): (2800.0, 0.0, 50.0),
             (0, 1): (0.0, below, 400.0), (2, 1): (0.0, 2800.0, 100.0)}
    specs = [tiling.TileSpec(index, tiling.Bounds(x0, y0, x0 + side, y0 + side)) for index, (x0, y0, side) in cores.items()]
    # (a point on the near edge, the unit step away from the core)
    edges = [((below + 400.0, 50.0), (1.0, 0.0)), ((2800.0, 25.0), (-1.0, 0.0)),
             ((50.0, below + 400.0), (0.0, 1.0)), ((50.0, 2800.0), (0.0, -1.0))]
    steps = []
    for (ex, ey), (ux, uy) in edges:
        for offset in np.linspace(300.0, 700.0, 9):
            steps += [[(ex + ux * r, ey + uy * r), (50.0, 50.0)] for r in np.arange(offset, 49.0, -2.0)]
            steps.append([(50.0, 50.0), (50.0, 50.0)])
    n_events, mgr = _check_against_reference(specs, 150.0, 260.0, steps)
    assert n_events == 1 + 2 * 36 and mgr.skipped > 10 * mgr.decisions  # (1, 1) stays loaded


def test_a_moving_vehicle_skips_decisions():
    # 0.5 m a call across tile (2, 2), whose nearest deciding crossings are
    # 5 to 10 m away: it decides again only once it has moved that far.
    steps = [[(240.0 + 0.5 * k, 250.0)] for k in range(40)]
    _, mgr = _check_against_reference(specs_grid(5, 100.0), 150.0, 250.0, steps)
    assert 1 < mgr.decisions < mgr.skipped


@pytest.mark.parametrize("radius", ["load", "unload"])
def test_a_vehicle_on_a_deciding_radius_never_skips(radius):
    # Core (0, 0) spans [0, 100] x [0, 100]. A vehicle 250 m (unload_radius)
    # east of it keeps it loaded; one ulp past 150 m (load_radius) leaves it
    # unloaded. Either way a move of any length could change the decision.
    load_r, unload_r = 150.0, 250.0
    x = 350.0 if radius == "unload" else 100.0 + float(np.nextafter(load_r, np.inf))
    steps = [[(50.0, 50.0)]] if radius == "unload" else []
    steps += [[(x, 1.0 + 0.25 * k)] for k in range(40)]
    _, mgr = _check_against_reference(specs_grid(5, 100.0), load_r, unload_r, steps)
    assert ((0, 0) in mgr.loaded) == (radius == "unload")
    assert (mgr.decisions, mgr.skipped) == (len(steps), 0)
    assert mgr.update_tiles([ProjectedCoord(*steps[-1][0])]) == []  # a repeat still skips
    assert (mgr.decisions, mgr.skipped) == (len(steps), 1)
