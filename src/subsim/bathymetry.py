"""Georeferenced seafloor heightmaps: loading, depth queries, ray casting.

A heightmap is a regular lat/lon grid of depths (meters, positive down)
whose node (0, 0) sits exactly at the georeferenced corner. Rows are
stored south-to-north so row index increases with northing. Node
positions are projected once into Pseudo-Mercator meters, giving a
rectilinear grid in world space; depth queries and ray casts are defined
against the bilinear surface over those world-space nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geodesy import GeodeticCoord, ProjectedCoord, mercator_xy
from .geometry import WorldPoint

# Penetration past the surface that confirms a ray/terrain crossing as a hit;
# shallower grazes are misses.
RAYCAST_TOL_M = 1e-4


class HeightmapError(ValueError):
    """Malformed heightmap data or file."""


class OutOfExtentError(HeightmapError):
    """Query outside the heightmap's horizontal extent."""


class NodataError(HeightmapError):
    """Query over cells flagged as nodata."""


class Heightmap:
    """Immutable georeferenced depth grid.

    Parameters
    ----------
    origin : grid node (0, 0), the south-west corner.
    cell_size : degrees per cell as (lat, lon), or a single float for both.
    depth : (rows, cols) array of meters positive down, row 0 southernmost.
            NaN marks nodata cells.
    nodata_value : sentinel recorded from the source file, if any.
    """

    def __init__(self, origin: GeodeticCoord, cell_size, depth, nodata_value: float | None = None):
        depth = np.asarray(depth, dtype=float)
        if depth.ndim != 2 or depth.shape[0] < 2 or depth.shape[1] < 2:
            raise HeightmapError(f"depth grid must be at least 2x2, got {depth.shape}")
        if np.isscalar(cell_size):
            cell_size = (float(cell_size), float(cell_size))
        cell_lat, cell_lon = float(cell_size[0]), float(cell_size[1])
        if cell_lat <= 0.0 or cell_lon <= 0.0:
            raise HeightmapError("cell_size must be positive")
        finite = depth[~np.isnan(depth)]
        if finite.size and not np.all(np.isfinite(finite)):
            raise HeightmapError("non-nodata depths must be finite")

        self.origin = origin
        self.cell_size = (cell_lat, cell_lon)
        self.depth = depth
        self.depth.setflags(write=False)
        self.nodata_value = nodata_value

        rows, cols = depth.shape
        lats = origin.lat + cell_lat * np.arange(rows)
        lons = origin.lon + cell_lon * np.arange(cols)
        self.xs = mercator_xy(0.0, lons)[0]  # node eastings, meters
        self.ys = mercator_xy(lats, 0.0)[1]  # node northings, meters
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.depth.shape[0]

    @property
    def cols(self) -> int:
        return self.depth.shape[1]

    @property
    def nodata_mask(self) -> np.ndarray:
        return np.isnan(self.depth)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """World extent as (x_min, y_min, x_max, y_max), meters."""
        return float(self.xs[0]), float(self.ys[0]), float(self.xs[-1]), float(self.ys[-1])


def load_heightmap(path) -> Heightmap:
    """Parse an ESRI ASCII grid (.asc).

    Header keys: ncols, nrows, xllcorner, yllcorner, cellsize, and an
    optional nodata_value; values follow row-major with the north row
    first. Raises HeightmapError naming the offending line on parse
    problems, and on value-count mismatches.
    """
    path = Path(path)
    header: dict[str, float] = {}
    values: list[float] = []
    header_keys = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not values and key in header_keys:
                if len(tokens) != 2:
                    raise HeightmapError(f"{path}:{lineno}: malformed header line {line!r}")
                try:
                    header[key] = float(tokens[1])
                except ValueError:
                    raise HeightmapError(f"{path}:{lineno}: bad header value {tokens[1]!r}") from None
                continue
            for tok in tokens:
                try:
                    values.append(float(tok))
                except ValueError:
                    raise HeightmapError(f"{path}:{lineno}: bad depth value {tok!r}") from None

    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise HeightmapError(f"{path}: missing header key {key!r}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"]:
        raise HeightmapError(f"{path}: ncols/nrows must be integers")
    if len(values) != nrows * ncols:
        raise HeightmapError(
            f"{path}: expected {nrows * ncols} values for {nrows}x{ncols} grid, got {len(values)}"
        )

    grid = np.array(values, dtype=float).reshape(nrows, ncols)
    nodata = header.get("nodata_value")
    if nodata is not None:
        grid[grid == nodata] = np.nan
    # File rows run north to south; store south row first.
    grid = grid[::-1]
    origin = GeodeticCoord(header["yllcorner"], header["xllcorner"])
    return Heightmap(origin, header["cellsize"], grid, nodata_value=nodata)


def save_heightmap(h: Heightmap, path) -> None:
    """Write a Heightmap back out as an ESRI ASCII grid."""
    nodata = h.nodata_value if h.nodata_value is not None else -9999.0
    grid = np.where(np.isnan(h.depth), nodata, h.depth)[::-1]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"ncols {h.cols}\n")
        fh.write(f"nrows {h.rows}\n")
        fh.write(f"xllcorner {h.origin.lon!r}\n")
        fh.write(f"yllcorner {h.origin.lat!r}\n")
        fh.write(f"cellsize {h.cell_size[1]!r}\n")
        fh.write(f"nodata_value {float(nodata)!r}\n")
        for row in grid:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _cell_indices(h: Heightmap, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j = np.clip(np.searchsorted(h.xs, x, side="right") - 1, 0, h.cols - 2)
    i = np.clip(np.searchsorted(h.ys, y, side="right") - 1, 0, h.rows - 2)
    return i, j


def depth_at_xy(h: Heightmap, x, y, clamp: bool = False) -> np.ndarray:
    """Vectorized bilinear depth. Outside the extent: NaN, or edge value
    when ``clamp`` is set. Nodata corners propagate NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_min, y_min, x_max, y_max = h.extent
    if clamp:
        x = np.clip(x, x_min, x_max)
        y = np.clip(y, y_min, y_max)
    i, j = _cell_indices(h, x, y)
    wx = h.xs[j + 1] - h.xs[j]
    wy = h.ys[i + 1] - h.ys[i]
    u = (x - h.xs[j]) / wx
    v = (y - h.ys[i]) / wy
    d = (
        h.depth[i, j] * (1.0 - u) * (1.0 - v)
        + h.depth[i, j + 1] * u * (1.0 - v)
        + h.depth[i + 1, j] * (1.0 - u) * v
        + h.depth[i + 1, j + 1] * u * v
    )
    if not clamp:
        outside = (x < x_min) | (x > x_max) | (y < y_min) | (y > y_max)
        d = np.where(outside, np.nan, d)
    return d


def depth_at(h: Heightmap, p: ProjectedCoord) -> float:
    """Bilinear depth at a world position.

    Raises OutOfExtentError outside the grid and NodataError when any of
    the four surrounding nodes is nodata.
    """
    x_min, y_min, x_max, y_max = h.extent
    if not (x_min <= p.x <= x_max and y_min <= p.y <= y_max):
        raise OutOfExtentError(f"({p.x}, {p.y}) outside heightmap extent {h.extent}")
    d = float(depth_at_xy(h, p.x, p.y))
    if math.isnan(d):
        raise NodataError(f"nodata cells surround ({p.x}, {p.y})")
    return d


def surface_gradient_xy(h: Heightmap, x, y) -> tuple[np.ndarray, np.ndarray]:
    """d(depth)/dx and d(depth)/dy of the bilinear surface (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i, j = _cell_indices(h, x, y)
    wx = h.xs[j + 1] - h.xs[j]
    wy = h.ys[i + 1] - h.ys[i]
    u = (x - h.xs[j]) / wx
    v = (y - h.ys[i]) / wy
    d00 = h.depth[i, j]
    dx10 = h.depth[i, j + 1] - d00
    dy01 = h.depth[i + 1, j] - d00
    cross = d00 - h.depth[i, j + 1] - h.depth[i + 1, j] + h.depth[i + 1, j + 1]
    gx = (dx10 + cross * v) / wx
    gy = (dy01 + cross * u) / wy
    return gx, gy


def _surface_normal(gx, gy) -> np.ndarray:
    """Upward unit normal as a NED vector from surface depth gradients."""
    n = np.stack(np.broadcast_arrays(gy, gx, -np.ones_like(np.asarray(gx, dtype=float))), axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class RayHit:
    """Result of a ray/terrain intersection."""

    range: float
    point: WorldPoint
    normal: np.ndarray  # NED unit vector, points up off the surface


def _solve_quadratic(q2: float, q1: float, q0: float) -> list[float]:
    """Real roots of q2 s^2 + q1 s + q0, ascending."""
    if q2 == 0.0:
        if q1 == 0.0:
            return []
        return [-q0 / q1]
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    tmp = -(q1 + sq) / 2.0 if q1 >= 0.0 else -(q1 - sq) / 2.0
    return sorted([tmp / q2, q0 / tmp] if tmp != 0.0 else [0.0, -q1 / q2])


def _segment_stops(q0, q1, q2, span) -> np.ndarray:
    """Row-wise `_solve_quadratic` roots inside (0, span], then span,
    padded with inf to three columns: the ends of the segments on which
    the gap keeps one sign."""
    sq = np.sqrt(q1 * q1 - 4.0 * q2 * q0)  # NaN: no real root
    tmp = np.where(q1 >= 0.0, -(q1 + sq) / 2.0, -(q1 - sq) / 2.0)
    r_a = np.where(tmp != 0.0, tmp / q2, 0.0)
    r_b = np.where(tmp != 0.0, q0 / tmp, -q1 / q2)
    quad = q2 != 0.0
    roots = np.stack(
        [np.where(quad, np.minimum(r_a, r_b), -q0 / q1), np.where(quad, np.maximum(r_a, r_b), np.nan)],
        axis=1,
    )
    roots[~((roots > 0.0) & (roots <= span[:, None]))] = np.inf
    return np.sort(np.column_stack([roots, span]), axis=1)


def _patch_coefficients(h: Heightmap, i, j, x0, y0, z0, dn, de, dd, t_lo):
    """Coefficients (q0, q1, q2) of the signed ray/surface gap over cell
    (i, j)'s bilinear patch: f(s) = q2 s^2 + q1 s + q0 is the ray's depth
    minus the surface depth at t_lo + s (s measured from the cell entry
    for conditioning). Elementwise over arrays of cells and rays; a
    nodata corner makes q0 NaN."""
    wx = h.xs[j + 1] - h.xs[j]
    wy = h.ys[i + 1] - h.ys[i]
    d00 = h.depth[i, j]
    bu = h.depth[i, j + 1] - d00
    cv = h.depth[i + 1, j] - d00
    e = d00 - h.depth[i, j + 1] - h.depth[i + 1, j] + h.depth[i + 1, j + 1]
    u0 = (x0 + de * t_lo - h.xs[j]) / wx
    v0 = (y0 + dn * t_lo - h.ys[i]) / wy
    du = de / wx
    dv = dn / wy
    q0 = z0 + dd * t_lo - d00 - bu * u0 - cv * v0 - e * u0 * v0
    q1 = dd - bu * du - cv * dv - e * (u0 * dv + v0 * du)
    q2 = -e * du * dv
    return q0, q1, q2


def _gap(q0, q1, q2, s):
    return q2 * s * s + q1 * s + q0


def raycast(h: Heightmap, origin: WorldPoint, direction, max_range: float) -> RayHit | None:
    """First intersection of a ray with the bilinear terrain surface.

    Exact 2D grid traversal: the ray's horizontal footprint is walked
    cell by cell and the ray/bilinear-patch equation, a quadratic in the
    ray parameter, is solved analytically per cell. A crossing becomes a
    hit once the ray penetrates the surface by at least RAYCAST_TOL_M;
    shallower grazes are misses. Cells touching nodata nodes are holes.
    Returns None on a miss. `raycast_batch` applies the same rule to many
    rays at once.
    """
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    if max_range <= 0.0:
        raise ValueError("max_range must be positive")
    dn, de, dd = float(d[0]), float(d[1]), float(d[2])
    x0, y0, z0 = origin.x, origin.y, origin.depth
    x_min, y_min, x_max, y_max = h.extent

    # Clip the ray to the horizontal extent.
    t_enter, t_exit = 0.0, max_range
    for comp, lo, hi, pos in ((de, x_min, x_max, x0), (dn, y_min, y_max, y0)):
        if comp == 0.0:
            if not lo <= pos <= hi:
                return None
        else:
            ta = (lo - pos) / comp
            tb = (hi - pos) / comp
            if ta > tb:
                ta, tb = tb, ta
            t_enter = max(t_enter, ta)
            t_exit = min(t_exit, tb)
    if t_enter >= t_exit:
        return None

    rows, cols = h.rows, h.cols
    eps_t = 1e-12 * max(1.0, max_range)
    t_lo = t_enter
    # Cell containing the current position, probed slightly inside.
    probe = min(t_lo + 1e-9, (t_lo + t_exit) / 2.0)
    px, py = x0 + de * probe, y0 + dn * probe
    i, j = (int(a) for a in _cell_indices(h, np.asarray(px), np.asarray(py)))

    # Crossing tracker: a sign change of the gap only becomes a hit once
    # the ray has penetrated the surface by at least RAYCAST_TOL_M;
    # shallower grazes (which may span cell boundaries) are misses, being
    # within tolerance of a tangency. `sign` is the side the ray started
    # on (0 until known), `crossing` where it last left that side (NaN:
    # it has not) and `max_pen` its deepest penetration since.
    sign, crossing, max_pen = 0.0, math.nan, 0.0
    while t_lo < t_exit - eps_t:
        # Parametric exit of the current cell.
        t_x = (h.xs[j + (de > 0.0)] - x0) / de if de != 0.0 else math.inf
        t_y = (h.ys[i + (dn > 0.0)] - y0) / dn if dn != 0.0 else math.inf
        t_hi = min(t_x, t_y, t_exit)

        q0, q1, q2 = _patch_coefficients(h, i, j, x0, y0, z0, dn, de, dd, t_lo)
        if math.isnan(q0):
            sign, crossing, max_pen = 0.0, math.nan, 0.0  # hole in the terrain
        elif t_hi > t_lo and t_hi > 0.0:
            if sign == 0.0:
                sign = -1.0 if _gap(q0, q1, q2, 0.0) <= 0.0 else 1.0
            span = t_hi - t_lo
            seg_start = 0.0
            for stop in [s for s in _solve_quadratic(q2, q1, q0) if 0.0 < s <= span] + [span]:
                # Penetration beyond the surface, measured into the side
                # opposite the ray's original one. Signed (not |f|) so that
                # near-tangent quadratics whose second root was lost to
                # rounding cannot count original-side depth as penetration.
                pen = max(-sign * _gap(q0, q1, q2, seg_start), -sign * _gap(q0, q1, q2, stop), 0.0)
                if q2 != 0.0:
                    vertex = -q1 / (2.0 * q2)
                    if seg_start < vertex < stop:
                        pen = max(pen, -sign * _gap(q0, q1, q2, vertex))
                if (_gap(q0, q1, q2, (seg_start + stop) / 2.0) <= 0.0) == (sign < 0.0):
                    # Back (or still) on the original side: any pending
                    # shallow crossing was a graze.
                    crossing, max_pen = math.nan, 0.0
                else:
                    if math.isnan(crossing):
                        crossing, max_pen = t_lo + seg_start, 0.0
                    max_pen = max(max_pen, pen)
                    if max_pen >= RAYCAST_TOL_M and crossing > 1e-9:
                        if crossing > max_range:
                            return None
                        hx, hy = x0 + de * crossing, y0 + dn * crossing
                        gx, gy = surface_gradient_xy(h, np.asarray(hx), np.asarray(hy))
                        normal = _surface_normal(float(gx), float(gy))
                        return RayHit(crossing, WorldPoint(hx, hy, z0 + dd * crossing), normal)
                seg_start = stop

        if t_hi >= t_exit - eps_t:
            break
        # Advance to the neighbouring cell(s); ties cross the corner.
        if t_x <= t_y:
            j += 1 if de > 0.0 else -1
        if t_y <= t_x:
            i += 1 if dn > 0.0 else -1
        if not (0 <= i < rows - 1 and 0 <= j < cols - 1):
            break
        t_lo = t_hi
    return None


@dataclass(eq=False)
class BatchHits:
    """Vectorized raycast results: NaN range where a ray missed."""

    ranges: np.ndarray  # (N,)
    normals: np.ndarray  # (N, 3) NED, NaN rows on miss
    hit: np.ndarray  # (N,) bool


def raycast_batch(h: Heightmap, origin: WorldPoint, directions: np.ndarray, max_range: float) -> BatchHits:
    """`raycast` for many rays from a shared origin, in lock-step.

    Each pass of the loop moves every unfinished ray one cell along its
    own traversal and runs `raycast`'s crossing tracker over that cell's
    patch, so hits, ranges and normals are bit-identical to one `raycast`
    call per ray. Used by the lidar and sonar ray fans.
    """
    dirs = np.asarray(directions, dtype=float)
    n = len(dirs)
    x0, y0, z0 = origin.x, origin.y, origin.depth
    x_min, y_min, x_max, y_max = h.extent
    eps_t = 1e-12 * max(1.0, max_range)
    ranges = np.full(n, np.nan)
    normals = np.full((n, 3), np.nan)
    hit = np.zeros(n, dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Clip every ray to the horizontal extent.
        t_enter, t_exit = np.zeros(n), np.full(n, float(max_range))
        inside = np.ones(n, dtype=bool)
        for comp, lo, hi, pos in ((dirs[:, 1], x_min, x_max, x0), (dirs[:, 0], y_min, y_max, y0)):
            moving = comp != 0.0
            ta = (lo - pos) / comp
            tb = (hi - pos) / comp
            t_enter = np.where(moving, np.maximum(t_enter, np.minimum(ta, tb)), t_enter)
            t_exit = np.where(moving, np.minimum(t_exit, np.maximum(ta, tb)), t_exit)
            inside &= moving | (lo <= pos <= hi)

        # Per-ray state of the unfinished rays, indexed like `ray`.
        ray = np.flatnonzero(inside & (t_enter < t_exit - eps_t))
        dn, de, dd = dirs[ray, 0], dirs[ray, 1], dirs[ray, 2]
        t_lo, t_exit = t_enter[ray], t_exit[ray]
        probe = np.minimum(t_lo + 1e-9, (t_lo + t_exit) / 2.0)
        i, j = _cell_indices(h, x0 + de * probe, y0 + dn * probe)
        sign, crossing, max_pen = np.zeros(ray.size), np.full(ray.size, np.nan), np.zeros(ray.size)

        while ray.size:
            t_x = np.where(de != 0.0, (h.xs[j + (de > 0.0)] - x0) / de, np.inf)
            t_y = np.where(dn != 0.0, (h.ys[i + (dn > 0.0)] - y0) / dn, np.inf)
            t_hi = np.minimum(np.minimum(t_x, t_y), t_exit)

            q0, q1, q2 = _patch_coefficients(h, i, j, x0, y0, z0, dn, de, dd, t_lo)
            hole = np.isnan(q0)
            sign[hole], crossing[hole], max_pen[hole] = 0.0, np.nan, 0.0
            walk = ~hole & (t_hi > t_lo) & (t_hi > 0.0)
            new = walk & (sign == 0.0)
            sign[new] = np.where(_gap(q0[new], q1[new], q2[new], 0.0) <= 0.0, -1.0, 1.0)
            stops = _segment_stops(q0, q1, q2, t_hi - t_lo)
            fired = np.zeros(ray.size, dtype=bool)
            for k in range(3):
                r = np.flatnonzero(walk & ~fired & (stops[:, k] < np.inf))
                a0, a1, a2, sg = q0[r], q1[r], q2[r], sign[r]
                s0 = stops[r, k - 1] if k else np.zeros(r.size)
                s1 = stops[r, k]
                pen = np.maximum(np.maximum(-sg * _gap(a0, a1, a2, s0), -sg * _gap(a0, a1, a2, s1)), 0.0)
                vertex = -a1 / (2.0 * a2)
                inner = (a2 != 0.0) & (s0 < vertex) & (vertex < s1)
                pen = np.where(inner, np.maximum(pen, -sg * _gap(a0, a1, a2, vertex)), pen)
                graze = (_gap(a0, a1, a2, (s0 + s1) / 2.0) <= 0.0) == (sg < 0.0)
                pending = np.isnan(crossing[r])
                cr = np.where(pending, t_lo[r] + s0, crossing[r])
                mp = np.maximum(np.where(pending, 0.0, max_pen[r]), pen)
                crossing[r] = np.where(graze, np.nan, cr)
                max_pen[r] = np.where(graze, 0.0, mp)
                fired[r] = ~graze & (mp >= RAYCAST_TOL_M) & (cr > 1e-9)
            got = fired & (crossing <= max_range)
            ranges[ray[got]] = crossing[got]
            hit[ray[got]] = True

            # Advance to the neighbouring cell(s); ties cross the corner.
            j = j + np.where(t_x <= t_y, np.where(de > 0.0, 1, -1), 0)
            i = i + np.where(t_y <= t_x, np.where(dn > 0.0, 1, -1), 0)
            keep = ~fired & (t_hi < t_exit - eps_t) & (i >= 0) & (i < h.rows - 1) & (j >= 0) & (j < h.cols - 1)
            ray, dn, de, dd, t_lo, t_exit, i, j, sign, crossing, max_pen = (
                a[keep] for a in (ray, dn, de, dd, t_hi, t_exit, i, j, sign, crossing, max_pen)
            )

    idx = np.flatnonzero(hit)
    gx, gy = surface_gradient_xy(h, x0 + dirs[idx, 1] * ranges[idx], y0 + dirs[idx, 0] * ranges[idx])
    normals[idx] = _surface_normal(gx, gy)
    return BatchHits(ranges=ranges, normals=normals, hit=hit)
