"""Terrain mesh tiles and dynamic load/unload management.

The heightmap extent is partitioned into square core regions. Each
tile's mesh covers its core plus an overlap margin on every side (depth
samples beyond the map edge are edge-clamped), so neighbouring tiles
share identical geometry in the overlap band and sensor readings stay
continuous across the seam. A TileManager loads tiles around vehicles
with a dual-radius hysteresis so boundary oscillation cannot thrash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bathymetry import Heightmap, HeightmapError, NodataError, depth_at_xy
from .geodesy import ProjectedCoord
from .meshtools import TriMesh, _face_text, _write_obj
from .output import staged

DEFAULT_TILE_SIZE_M = 1000.0
DEFAULT_OVERLAP_M = 50.0
DEFAULT_LOAD_RADIUS_M = 1500.0
DEFAULT_UNLOAD_RADIUS_M = 2000.0
# Most tiles one partition may have: about 270 times the 3,721 of a
# 2000x2000-node DEM cut into 1 km tiles. A tiny tile size would otherwise
# build an unbounded spec list.
MAX_TILES = 1_000_000


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle in world meters."""

    x0: float
    y0: float
    x1: float
    y1: float

    def distance_to(self, x: float, y: float) -> float:
        dx = max(self.x0 - x, 0.0, x - self.x1)
        dy = max(self.y0 - y, 0.0, y - self.y1)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class TileSpec:
    """Tile placement without mesh data."""

    index: tuple[int, int]  # (row, col)
    core_bounds: Bounds


@dataclass(frozen=True, eq=False)
class Tile:
    """Placement plus the colorized mesh covering core + overlap."""

    index: tuple[int, int]
    core_bounds: Bounds
    mesh: TriMesh


def tile_counts(extent: tuple[float, float, float, float], tile_size: float, overlap: float) -> tuple[int, int]:
    """Columns and rows of the tile cores that cut ``extent`` (x_min, y_min, x_max, y_max); raises
    HeightmapError for an unusable tile size or overlap, a degenerate extent, or over MAX_TILES tiles."""
    if not math.isfinite(tile_size):
        raise HeightmapError(f"tile_size must be finite, got {tile_size}")
    if not (math.isfinite(overlap) and overlap >= 0.0):
        raise HeightmapError(f"overlap must be finite and >= 0, got {overlap}")
    if tile_size <= 2.0 * overlap:
        raise HeightmapError("tile_size must exceed twice the overlap")
    x_min, y_min, x_max, y_max = extent
    width, height = x_max - x_min, y_max - y_min
    if not (width > 0.0 and height > 0.0):  # a NaN extent too
        raise HeightmapError("degenerate heightmap extent")
    # The 1e-6 slack absorbs sub-micrometre slivers from Mercator stretch.
    nx, ny = (max(1.0, np.ceil(side / tile_size - 1e-6)) for side in (width, height))
    if not nx * ny <= MAX_TILES:  # an infinite count too
        raise HeightmapError(f"tile_size {tile_size} m cuts the {width:.6g} x {height:.6g} m extent "
                             f"into more than {MAX_TILES} tiles")
    return int(nx), int(ny)


def radius_problems(load_radius: float, unload_radius: float) -> list[str]:
    """What is wrong with a pair of hysteresis radii, in the order `TileManager` checks it."""
    problems = [] if load_radius > 0.0 else ["load_radius must be positive"]
    if not unload_radius > load_radius:
        problems.append("unload_radius must exceed load_radius")
    return problems + ([] if math.isfinite(unload_radius) else ["unload_radius must be finite"])


def grid_tile_specs(h: Heightmap, tile_size: float, overlap: float) -> list[TileSpec]:
    """Partition the heightmap extent into tile cores, row-major order."""
    nx, ny = tile_counts(h.extent, tile_size, overlap)
    x_min, y_min, x_max, y_max = h.extent
    xs = [(x_min + c * tile_size, min(x_min + (c + 1) * tile_size, x_max)) for c in range(nx)]
    ys = [(y_min + r * tile_size, min(y_min + (r + 1) * tile_size, y_max)) for r in range(ny)]
    return [TileSpec((r, c), Bounds(x0, y0, x1, y1))
            for r, (y0, y1) in enumerate(ys) for c, (x0, x1) in enumerate(xs)]


def _tile_axis_samples(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    inner = nodes[(nodes > lo) & (nodes < hi)]
    return np.concatenate(([lo], inner, [hi]))


def _depth_color(depth: np.ndarray, d_min: float, d_max: float) -> np.ndarray:
    """Linear blue (shallow) to red (deep) colormap."""
    span = d_max - d_min
    t = (depth - d_min) / span if span > 0.0 else np.zeros_like(depth)
    return np.stack([t, np.zeros_like(t), 1.0 - t], axis=-1)


def generate_tiles(h: Heightmap, tile_size: float, overlap: float) -> list[Tile]:
    """Build colorized meshes for every tile.

    Mesh vertices lie on the global node lattice (plus the exact tile
    boundary coordinates), sampled with edge clamping so tiles at the map
    border still span core + overlap. Vertex colors map the tile set's
    global depth range; raises NodataError if the map contains nodata.
    """
    if np.isnan(h.depth).any():
        raise NodataError("cannot generate tiles over nodata cells")
    specs = grid_tile_specs(h, tile_size, overlap)
    d_min = float(np.nanmin(h.depth))
    d_max = float(np.nanmax(h.depth))
    tiles = []
    for spec in specs:
        b = spec.core_bounds
        ex = (b.x0 - overlap, b.x1 + overlap)
        ey = (b.y0 - overlap, b.y1 + overlap)
        sx = _tile_axis_samples(h.xs, *ex)
        sy = _tile_axis_samples(h.ys, *ey)
        gx, gy = np.meshgrid(sx, sy)
        depths = depth_at_xy(h, gx.ravel(), gy.ravel(), clamp=True)
        verts = np.stack([gx.ravel(), gy.ravel(), -depths], axis=-1)
        colors = _depth_color(depths, d_min, d_max)
        tris = _lattice_triangles(len(sy), len(sx))
        tiles.append(Tile(spec.index, b, TriMesh(verts, tris, colors)))
    return tiles


def _lattice_triangles(n_rows: int, n_cols: int) -> np.ndarray:
    r, c = np.meshgrid(np.arange(n_rows - 1), np.arange(n_cols - 1), indexing="ij")
    v00 = (r * n_cols + c).ravel()
    v10 = v00 + 1
    v01 = v00 + n_cols
    v11 = v01 + 1
    return np.concatenate(
        [np.stack([v00, v10, v11], axis=-1), np.stack([v00, v11, v01], axis=-1)]
    )


def write_tiles(tiles: Sequence[Tile], out_dir) -> Path:
    """Write one OBJ per tile plus a manifest CSV (index, bounds, path)
    into ``out_dir`` through ``output.staged``: a new or empty directory
    that holds the whole export or, on any failure, is left as it was.

    Each tile file has the bytes ``save_obj(tile.mesh, path)`` writes.
    Tiles of one shape share their triangles, so the face rows of each
    distinct triangle array are encoded once and written for every tile
    that has it."""
    faces: dict[bytes, bytes] = {}  # triangles.tobytes() -> the OBJ face rows
    with staged(out_dir, directory=True) as root, open(root / "tiles.csv", "wb") as fh:
        fh.write(b"row,col,x0,y0,x1,y1,path\n")
        for tile in tiles:
            name = f"tile_{tile.index[0]:03d}_{tile.index[1]:03d}.obj"
            key = tile.mesh.triangles.tobytes()
            if key not in faces:
                faces[key] = _face_text(tile.mesh.triangles)
            _write_obj(tile.mesh, root / name, faces[key])
            b = tile.core_bounds
            fh.write(b"%d,%d,%r,%r,%r,%r,%s\n" % (*tile.index, *map(float, (b.x0, b.y0, b.x1, b.y1)),
                                                   name.encode("ascii")))
    return Path(out_dir) / "tiles.csv"


@dataclass(frozen=True)
class TileEvent:
    """A tile load or unload emitted by TileManager.update_tiles."""

    action: str  # "load" | "unload"
    index: tuple[int, int]


class TileManager:
    """Tracks which tiles are loaded around a set of vehicles.

    Hysteresis: a tile loads when its core comes within load_radius of a
    vehicle and unloads only once beyond unload_radius of every vehicle,
    so positions oscillating across a tile boundary produce no event
    churn. Single-writer: call update_tiles from one thread.

    A decision measures, per vehicle, only the cores one array cull keeps:
    those whose four gaps to it, x0 - x, x - x1, y0 - y and y - y1 as
    Bounds.distance_to computes them, are all within unload_radius. A
    correctly rounded hypot is never below its larger argument, so every
    core the cull drops is beyond unload_radius of that vehicle.
    """

    def __init__(
        self,
        tiles: Sequence[TileSpec] | Sequence[Tile],
        load_radius: float = DEFAULT_LOAD_RADIUS_M,
        unload_radius: float = DEFAULT_UNLOAD_RADIUS_M,
    ):
        problems = radius_problems(load_radius, unload_radius)
        if problems:
            raise ValueError(problems[0])
        self.load_radius = load_radius
        self.unload_radius = unload_radius
        bounds = {t.index: t.core_bounds for t in tiles}
        # Cores cut from a heightmap extent are finite; a NaN bound would have
        # no distance (distance_to's max keeps or drops a NaN by its place),
        # so non-finite bounds are refused as bad input.
        if not all(map(math.isfinite, (v for b in bounds.values() for v in (b.x0, b.y0, b.x1, b.y1)))):
            raise ValueError("tile core bounds must be finite")
        self._cores = list(bounds.items())
        # x0, x1, y0 and y1 of every core, in the order of _cores.
        self._x0, self._x1, self._y0, self._y1 = (
            np.array([getattr(b, side) for b in bounds.values()], dtype=np.float64) for side in ("x0", "x1", "y0", "y1"))
        self._loaded: frozenset[tuple[int, int]] = frozenset()
        # The positions of the last decision, and per vehicle how far it may
        # move from its own before the decision could change.
        self._positions: list[tuple[float, float]] | None = None
        self._margins: list[float] = []
        self.decisions = 0  # calls that applied the rule
        self.skipped = 0  # calls that returned [] without deciding

    @property
    def loaded(self) -> frozenset[tuple[int, int]]:
        """Indices of the loaded tiles."""
        return self._loaded

    def update_tiles(self, vehicles: Sequence[ProjectedCoord]) -> list[TileEvent]:
        """Apply the hysteresis rule; returns the minimal event list.

        The decision is Bounds.distance_to (math.hypot), made only for the
        cores the cull keeps for each vehicle (see the class). The rule is
        idempotent, so positions that leave every decision it makes as it
        was give no events, and the call returns [] without deciding: when
        the vehicle count is that of the last decision and each vehicle is
        at its position then, or closer to it than its margin.

        A decision gives each vehicle at a finite position the least
        distance it must move before a core's distance_to could cross the
        radius that decides that core (Verlet's neighbour-list skin,
        Phys. Rev. 159, 98, 1967). A distance moves no faster than the
        vehicle, and only these crossings change the rule's outcome: a
        core the vehicle loads or keeps (the first vehicle to do so
        measures it; later ones skip it) stays loaded while that vehicle
        is within unload_radius of it (unload_radius - distance), and a core left
        unloaded stays so while every vehicle is beyond load_radius
        (distance - load_radius). The margin starts at
        unload_radius - load_radius, which every core the cull drops
        exceeds. It is less a relative 1e-9 for the rounding of the
        distances, so a vehicle exactly on a deciding radius has none. A
        vehicle at a NaN or infinite position has none either."""
        positions = [(v.x, v.y) for v in vehicles]
        last = self._positions
        if last is not None and len(positions) == len(last) and all(
            p == q or math.hypot(p[0] - q[0], p[1] - q[1]) < m for p, q, m in zip(positions, last, self._margins)
        ):
            self.skipped += 1
            return []
        self.decisions += 1
        load, unload, loaded = self.load_radius, self.unload_radius, self._loaded
        cores, x0, x1, y0, y1 = self._cores, self._x0, self._x1, self._y0, self._y1
        new_loaded = set()
        margins = []
        for x, y in positions:
            if not (math.isfinite(x) and math.isfinite(y)):
                margins.append(0.0)
                continue  # every core is infinitely far (or NaN) away
            with np.errstate(over="ignore"):  # a gap past the float range is inf, and culled
                near = (x0 - x <= unload) & (x - x1 <= unload) & (y0 - y <= unload) & (y - y1 <= unload)
            margin = unload - load
            for k in np.flatnonzero(near).tolist():
                index, bounds = cores[k]
                if index in new_loaded:
                    continue
                dist = bounds.distance_to(x, y)
                if dist <= load or (index in loaded and dist <= unload):
                    new_loaded.add(index)
                    to_cross = unload - dist
                else:
                    to_cross = dist - load
                if to_cross < margin:
                    margin = to_cross
            margins.append(margin * (1.0 - 1e-9) - 1e-9 * (abs(x) + abs(y) + unload))
        events = [TileEvent("load", i) for i in sorted(new_loaded - loaded)]
        events += [TileEvent("unload", i) for i in sorted(loaded - new_loaded)]
        self._loaded = frozenset(new_loaded)
        self._positions, self._margins = positions, margins
        return events
