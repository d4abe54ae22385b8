import math

import numpy as np
import pytest

from subsim import tiling
from subsim.geodesy import ProjectedCoord
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


def _assert_matches_reference(specs, load_radius, unload_radius, steps):
    """Run both rules over `steps` (lists of positions); returns the event count."""
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
    return n_events


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
