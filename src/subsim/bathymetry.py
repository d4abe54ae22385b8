"""Georeferenced seafloor heightmaps: loading, depth queries, ray casting.

A heightmap is a regular lat/lon grid of depths (meters, positive down)
whose node (0, 0) sits exactly at the georeferenced corner. Rows are
stored south-to-north so row index increases with northing. Node
positions are projected once into Pseudo-Mercator meters, giving a
rectilinear grid in world space; depth queries and ray casts are defined
against the bilinear surface over those world-space nodes.
"""

from __future__ import annotations

import functools
import io
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geodesy import GeodeticCoord, ProjectionError, mercator_xy
from .geometry import WorldPoint, fan_directions
from .output import carve, write_g17

# Penetration past the surface that confirms a ray/terrain crossing as a hit;
# shallower grazes are misses.
RAYCAST_TOL_M = 1e-4
# Rays per chunk of a `cast_fan` fan. `raycast_batch`'s walk holds some
# forty per-ray arrays at once; at 8,192 rays each float array is 64 KiB,
# below glibc's default 128 KiB mmap threshold, so the walk's temporaries
# are reused from the heap instead of being mapped and faulted in anew.
RAY_CHUNK = 8192
# Bytes per block of a grid body read as plain decimals (`_read_plain`).
# Its scratch, about 16 bytes a block byte, is reused for every block.
BODY_BLOCK = 1 << 18


class HeightmapError(ValueError):
    """Malformed heightmap data or file."""


class NodataError(HeightmapError):
    """Query over cells flagged as nodata."""


def _check_grid(shape: tuple[int, ...], cell_lat: float, cell_lon: float) -> None:
    """The checks a Heightmap makes on its grid shape and cell size."""
    if len(shape) != 2 or shape[0] < 2 or shape[1] < 2:
        raise HeightmapError(f"depth grid must be at least 2x2, got {shape}")
    if not (math.isfinite(cell_lat) and math.isfinite(cell_lon) and cell_lat > 0.0 and cell_lon > 0.0):
        raise HeightmapError("cell_size must be finite and positive")


def _node_xy(origin: GeodeticCoord, cell_lat: float, cell_lon: float, rows: int, cols: int):
    """Node eastings and northings, meters, of a grid whose node (0, 0) is ``origin``."""
    xs = mercator_xy(0.0, origin.lon + cell_lon * np.arange(cols))[0]
    return xs, mercator_xy(origin.lat + cell_lat * np.arange(rows), 0.0)[1]


class Heightmap:
    """Immutable georeferenced depth grid.

    Parameters
    ----------
    origin : grid node (0, 0), the south-west corner.
    cell_size : degrees per cell as (lat, lon), or a single float for both.
    depth : (rows, cols) array of meters positive down, row 0 southernmost.
            NaN marks nodata cells. A float64 array is not copied: ``depth``
            is a read-only view of it, so a later write to the caller's array
            changes this heightmap too.
    nodata_value : sentinel recorded from the source file, if any.
    """

    def __init__(self, origin: GeodeticCoord, cell_size, depth, nodata_value: float | None = None):
        depth = np.asarray(depth, dtype=float)
        if np.isscalar(cell_size):
            cell_size = (float(cell_size), float(cell_size))
        cell_lat, cell_lon = float(cell_size[0]), float(cell_size[1])
        _check_grid(depth.shape, cell_lat, cell_lon)
        # NaN marks nodata; any other non-finite depth is an error. The
        # extremes skip NaN and need no mask the size of the grid.
        if np.isinf(np.fmax.reduce(depth, axis=None)) or np.isinf(np.fmin.reduce(depth, axis=None)):
            raise HeightmapError("non-nodata depths must be finite")

        self.origin = origin
        self.cell_size = (cell_lat, cell_lon)
        self.depth = depth.view()  # a read-only view: the caller's array stays writable
        self.depth.setflags(write=False)
        self.nodata_value = nodata_value

        self.xs, self.ys = _node_xy(origin, cell_lat, cell_lon, *depth.shape)
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    @functools.cached_property
    def _flat_depth(self) -> np.ndarray:
        """`depth` in C order as one flat array, for the raycasts' corner gathers."""
        return np.ascontiguousarray(self.depth).ravel()

    @functools.cached_property
    def _node_lists(self) -> tuple[list[float], list[float]]:
        """`xs` and `ys` as Python lists, for `raycast`'s walk and `_cell_of`."""
        return self.xs.tolist(), self.ys.tolist()

    @functools.cached_property
    def _depth_cells(self) -> memoryview:
        """`depth` as a memoryview: [i, j] gives node (i, j) as a Python float,
        for `raycast`'s walk, without copying the grid."""
        return memoryview(self.depth)

    @property
    def rows(self) -> int:
        return self.depth.shape[0]

    @property
    def cols(self) -> int:
        return self.depth.shape[1]

    @property
    def nodata_mask(self) -> np.ndarray:
        return np.isnan(self.depth)

    @functools.cached_property
    def extent(self) -> tuple[float, float, float, float]:
        """World extent as (x_min, y_min, x_max, y_max), meters."""
        return float(self.xs[0]), float(self.ys[0]), float(self.xs[-1]), float(self.ys[-1])


def load_heightmap(path) -> Heightmap:
    """Parse an ESRI ASCII grid (.asc).

    Header keys: ncols, nrows, xllcorner, yllcorner, cellsize, and an
    optional nodata_value, each at most once; values follow row-major with
    the north row first, each the double ``float()`` gives its token.
    Raises HeightmapError naming the offending line on parse problems, and
    naming the file on value-count mismatches, on a grid outside the
    Pseudo-Mercator domain, and on a grid `Heightmap` refuses."""
    path = Path(path)
    header, (nrows, ncols), values = _read_grid(path, values=True)
    if values.size != nrows * ncols:
        raise HeightmapError(
            f"{path}: expected {nrows * ncols} values for {nrows}x{ncols} grid, got {values.size}"
        )
    # File rows run north to south; store south row first.
    grid = values.reshape(nrows, ncols)[::-1]
    nodata = header.get("nodata_value")
    try:
        origin = GeodeticCoord(header["yllcorner"], header["xllcorner"])
        return Heightmap(origin, header["cellsize"], grid, nodata_value=nodata)
    except (ProjectionError, HeightmapError) as err:
        raise HeightmapError(f"{path}: {err}") from None


def grid_extent(path) -> tuple[float, float, float, float]:
    """The extent `load_heightmap(path)` has, read from the header alone; raises
    the HeightmapError `load_heightmap` raises for a header it or `Heightmap` refuses."""
    path = Path(path)
    header, (nrows, ncols), _ = _read_grid(path, values=False)
    cell = header["cellsize"]
    try:
        _check_grid((nrows, ncols), cell, cell)
        xs, ys = _node_xy(GeodeticCoord(header["yllcorner"], header["xllcorner"]), cell, cell, nrows, ncols)
    except (ProjectionError, HeightmapError) as err:
        raise HeightmapError(f"{path}: {err}") from None
    return float(xs[0]), float(ys[0]), float(xs[-1]), float(ys[-1])


def _read_grid(path: Path, values: bool):
    """The header, (nrows, ncols) and, if ``values``, the flat values of a
    grid file, nodata cells as NaN."""
    try:
        with open(path, "rb") as fh:
            header, first = _read_header(path, fh)
            shape = _grid_shape(path, header)
            if not (first and values):
                return header, shape, np.empty(0)
            return header, shape, _read_values(path, fh, *first, shape[0] * shape[1], header.get("nodata_value"))
    except UnicodeDecodeError as err:
        bad = err.object[err.start : err.end]
        raise HeightmapError(f"{path}: not an ASCII grid: non-ASCII byte {bad!r}") from None


_HEADER_KEYS = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"}


def _read_header(path: Path, fh) -> tuple[dict[str, float], tuple[int, int] | None]:
    """Parse the header lines at the start of the binary file ``fh``; returns
    the header and the line number and byte offset of the first value line
    (None if the file ends first).

    The lines and tokens are those text mode reads: lines end at \\n, \\r
    or \\r\\n, and a non-ASCII byte in what was read raises
    UnicodeDecodeError. The file is read in doubling pieces, from 8 KiB, until
    the header lines are whole and the first value line's first token is.
    """
    head = b""
    while True:
        more = fh.read(max(len(head), 1 << 13))
        head += more
        head.decode("ascii")
        header: dict[str, float] = {}
        offset = 0
        for lineno, line in enumerate(head.splitlines(keepends=True), start=1):
            # The last piece of a file read in part may go on (a \r may be half of \r\n).
            partial = bool(more) and offset + len(line) == len(head) and not line.endswith(b"\n")
            text = line.rstrip(b"\r\n").decode("ascii") + "\n" * (line[-1:] in (b"\r", b"\n"))
            tokens = text.split()
            if tokens and tokens[0].lower() not in _HEADER_KEYS:
                if partial and len(tokens) == 1 and not text[-1].isspace():
                    break  # the first token may go on
                return header, (lineno, offset)
            if partial:
                break
            offset += len(line)
            if not tokens:
                continue
            key = tokens[0].lower()
            if len(tokens) != 2:
                raise HeightmapError(f"{path}:{lineno}: malformed header line {text!r}")
            if key in header:
                raise HeightmapError(f"{path}:{lineno}: repeated header key {key!r}")
            try:
                header[key] = float(tokens[1])
            except ValueError:
                raise HeightmapError(f"{path}:{lineno}: bad header value {tokens[1]!r}") from None
        else:
            if not more:
                return header, None


def _grid_shape(path: Path, header: dict[str, float]) -> tuple[int, int]:
    """(nrows, ncols) of a parsed header, once every required key is there
    and both counts are positive integers."""
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise HeightmapError(f"{path}: missing header key {key!r}")
    nrows, ncols = header["nrows"], header["ncols"]
    if not (nrows.is_integer() and ncols.is_integer()):
        raise HeightmapError(f"{path}: ncols/nrows must be integers")
    if nrows < 1 or ncols < 1:
        raise HeightmapError(f"{path}: ncols/nrows must be positive, got {ncols:g} and {nrows:g}")
    return int(nrows), int(ncols)


def _read_values(path: Path, fh, lineno: int, offset: int, count: int, nodata: float | None) -> np.ndarray:
    """The values from line ``lineno``, at byte ``offset`` of ``fh``, to the
    end of the file, flat, in file order, nodata cells as NaN: a body of
    plain decimals read by `_read_plain`, any other by `_read_general`."""
    fh.seek(offset)
    values = _read_plain(fh, count, nodata)
    return _read_general(path, fh, lineno, offset, nodata) if values is None else values


def _read_general(path: Path, fh, lineno: int, offset: int, nodata: float | None) -> np.ndarray:
    """`_read_values` in one pass over the lines text mode reads: tokens as
    ``float()`` reads them, nodata as NaN, line by line; a bad token raises."""
    fh.seek(offset)
    text, rows = io.TextIOWrapper(fh, encoding="ascii"), []
    for lineno, line in enumerate(text, start=lineno):
        tokens = line.split()
        try:
            row = np.array(tokens, dtype=float)  # float() on each str
        except ValueError:
            for tok in tokens:
                try:
                    float(tok)
                except ValueError:
                    raise HeightmapError(f"{path}:{lineno}: bad depth value {tok!r}") from None
            raise
        if nodata is not None:
            row[row == nodata] = np.nan
        rows.append(row)
    text.detach()  # ``fh`` stays open for its owner
    return np.concatenate(rows)


# Plain decimals (`_read_plain`) as little-endian words of 8 ASCII bytes,
# the token's last byte on top: SWAR constants, the mask of a word's top
# k bytes, and the exact powers of ten that scale the digits.
_ZEROS = np.uint64(0x3030303030303030)  # eight '0'
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)  # eight '.'
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH = np.uint64(0x8080808080808080)
_ONES = np.uint64(0x0101010101010101)
_DIGIT_TOP = np.uint64(0x4646464646464646)  # + 0x46 sets the high bit of a byte above '9'
_TOP_ZERO = np.uint64(0x30 << 56)
_EIGHT_MASK = np.uint64(0x000000FF000000FF)
_EIGHT_MUL1 = np.uint64(100 + (1000000 << 32))
_EIGHT_MUL2 = np.uint64(1 + (10000 << 32))
_TOP_BYTES = np.array([((1 << 8 * k) - 1) << (64 - 8 * k) for k in range(9)], dtype=np.uint64)
_POW10 = np.array([float(10**k) for k in range(9)])


class _BodyScratch(NamedTuple):
    """The buffers of one `_read_plain` call, carved from one allocation and
    reused for every block, as `output._Scratch` is.

    ``text`` holds 8 spaces, then a block after the token carried over
    from the block before, then a closing space at the end of the file;
    ``sep`` and ``edge`` hold a bool per byte of it. ``rows`` (two uint64
    rows), ``length`` and ``first`` hold an entry per token."""

    text: np.ndarray
    sep: np.ndarray
    edge: np.ndarray
    rows: np.ndarray
    length: np.ndarray
    first: np.ndarray

    @classmethod
    def empty(cls, size: int) -> _BodyScratch:
        """The buffers for blocks of ``size`` bytes. A block with its carried
        token and spaces is at most ``size`` + 10 bytes, which hold at most
        half as many tokens; ``text`` is whole 8-byte words, with one to
        spare past the block, so every row is aligned."""
        nbytes, tokens = (size + 25) // 8 * 8, (size + 10) // 2
        return cls(**carve([("text", (nbytes,), np.uint8), ("rows", (2, tokens), np.uint64),
                            ("length", (tokens,), np.int64), ("sep", (nbytes,), np.bool_),
                            ("edge", (nbytes,), np.bool_), ("first", (tokens,), np.uint8)]))


def _read_plain(fh, count: int, nodata: float | None) -> np.ndarray | None:
    """The values from the position of the binary file ``fh`` to its end,
    if every token there is a plain decimal; None, having read some of
    them, if any is not.

    A plain decimal is ``-?digits[.digits]`` of at most 8 bytes with at
    least one digit, and the tokens are separated by spaces, tabs, \\n and
    \\r. Its value is m / 10**f, m < 10**8 being its digits as an integer
    and f <= 8: both are exact doubles, so the one division is correctly
    rounded, as ``float()`` is (Clinger's fast path). The file is read
    BODY_BLOCK bytes at a time, each block cut after its last separator,
    into one scratch allocation sized to the body or the block, whichever
    is smaller; the values go straight to the result, nodata cells as NaN.
    """
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    size = max(min(body, BODY_BLOCK), 1)
    s = _BodyScratch.empty(size)
    s.text[:8] = ord(" ")
    # No body holds more values than half its bytes, whatever the header says.
    values = np.empty(min(count, (body + 1) // 2))
    done, carry = 0, 0
    while True:
        got = fh.readinto(memoryview(s.text)[8 + carry : 8 + carry + size])
        end = 8 + carry + got
        if not got:
            s.text[end] = ord(" ")  # the last token ends with the file
            end += 1
        edges = _token_edges(s, end)
        if edges is None:
            return None
        tokens = len(edges) // 2
        if done + tokens > len(values):
            return None
        if tokens and not _plain_tokens(s, edges[: 2 * tokens], values[done : done + tokens], nodata):
            return None
        done += tokens
        if not got:
            return values[:done]
        # A token still open at the end of the block starts the next one.
        carry = end - 8 - edges[-1] if len(edges) % 2 else 0
        if carry > 8:
            return None
        s.text[8 : 8 + carry] = s.text[end - carry : end]


def _token_edges(s: _BodyScratch, end: int) -> np.ndarray | None:
    """The token boundaries in ``s.text[8:end]``, which follows a space: the
    index, less 8, of each token's first byte and of the byte after its last,
    in turn. None if a control byte other than \\t, \\n and \\r is there."""
    text = s.text[7:end]
    n = len(text)
    sep, flag = s.sep[:n], s.edge[:n]
    controls = np.count_nonzero(np.less(text, 32, out=flag))
    for byte in b"\n\r\t":
        if controls:
            controls -= np.count_nonzero(np.equal(text, byte, out=flag))
    if controls:
        return None
    np.less_equal(text, 32, out=sep)
    return np.flatnonzero(np.not_equal(sep[1:], sep[:-1], out=flag[: n - 1]))


def _plain_tokens(s: _BodyScratch, edges: np.ndarray, out: np.ndarray, nodata: float | None) -> bool:
    """Write the values of the tokens bounded by ``edges`` to ``out``, if
    each is a plain decimal (see `_read_plain`); False if one is not.

    Each token's last 8 bytes are one word, read as two aligned words of
    ``s.text`` and a funnel shift. The bytes before the token and a leading
    minus become '0' and the point is taken out, which leaves 8 digits: the
    token's, then a '0' if it had a point. Three multiply-shift steps
    (Lemire's eight-digit SWAR) make them the integer m."""
    n = len(out)
    starts, ends = edges[0::2], edges[1::2]
    a, c = s.rows[:, :n]
    length, first = s.length[:n], s.first[:n]
    w = out.view(np.uint64)  # free until the values are written
    # w: bytes ends .. ends + 7 of s.text, the token's last byte on top.
    # Every take is in range; its default mode would write to a copy of out.
    index = c.view(np.int64)
    np.right_shift(ends, 3, out=index)
    text = s.text.view(np.uint64)
    np.take(text, index, out=w, mode="clip")
    index += 1
    np.take(text, index, out=a, mode="clip")
    np.bitwise_and(ends, 7, out=index)
    index <<= 3
    w >>= c
    np.subtract(64, c, out=c)
    a <<= c  # by 64, for a word that is aligned: 0
    w |= a
    np.subtract(ends, starts, out=length)
    if length.max() > 8:
        return False
    np.copyto(index, starts)  # take copies an index array that is not contiguous
    neg = first.view(np.bool_)
    np.equal(np.take(s.text[8:], index, out=first, mode="clip"), ord("-"), out=neg)
    length -= neg  # the digits and point
    np.take(_TOP_BYTES, length, out=a, mode="clip")
    w ^= _ZEROS
    w &= a
    w ^= _ZEROS
    # c: 0x80 in each byte of w that is a point (an exact zero-byte test).
    # Of two or more, the first is taken out and the last stays a point.
    np.bitwise_xor(w, _POINTS, out=a)
    np.bitwise_and(a, _LOW7, out=c)
    c += _LOW7
    c |= a
    np.invert(c, out=c)
    c &= _HIGH
    c >>= 7
    c -= 1  # the bytes before the point; all of them without one
    np.bitwise_and(w, c, out=a)
    np.invert(c, out=c)  # the point and the bytes after it
    w >>= 8
    w |= _TOP_ZERO
    w &= c
    w |= a
    c &= _ONES
    c *= _ONES
    c >>= 56  # f: the bytes from the point on, 0 without one
    if np.less_equal(length, np.minimum(c, 1, out=a).view(np.int64), out=s.sep[:n]).any():
        return False  # no digit: '-', '.' or '-.'
    d = length.view(np.uint64)
    np.subtract(w, _ZEROS, out=a)
    np.add(w, _DIGIT_TOP, out=d)
    d |= a
    if np.bitwise_and(d, _HIGH, out=d).any():
        return False  # a byte that is not a digit: a second minus, or the last of two points
    np.multiply(a, 10, out=d)
    a >>= 8
    a += d
    np.bitwise_and(a, _EIGHT_MASK, out=d)
    d *= _EIGHT_MUL1
    a >>= 16
    a &= _EIGHT_MASK
    a *= _EIGHT_MUL2
    a += d
    a >>= 32  # m
    scale = np.take(_POW10, c.view(np.int64), out=d.view(np.float64), mode="clip")
    np.divide(a.view(np.int64), scale, out=out)  # m < 2**27: int64 converts faster than uint64
    np.negative(out, out=out, where=neg)
    if nodata is not None:
        np.copyto(out, np.nan, where=np.equal(out, nodata, out=s.sep[:n]))
    return True


def save_heightmap(h: Heightmap, path) -> None:
    """Write a Heightmap back out as an ESRI ASCII grid: depths as ``%.17g``,
    which `load_heightmap` reads back bit for bit, header floats as ``repr``."""
    nodata = h.nodata_value if h.nodata_value is not None else -9999.0
    grid = np.where(np.isnan(h.depth), nodata, h.depth)[::-1]
    header = (
        f"ncols {h.cols}\n"
        f"nrows {h.rows}\n"
        f"xllcorner {float(h.origin.lon)!r}\n"
        f"yllcorner {float(h.origin.lat)!r}\n"
        f"cellsize {h.cell_size[1]!r}\n"
        f"nodata_value {float(nodata)!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        write_g17(fh, grid, b" ")


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


def surface_normals(h: Heightmap, x, y) -> np.ndarray:
    """Upward unit normals of the bilinear surface at points (x, y), as
    (..., 3) NED vectors from its depth gradients (vectorized)."""
    i, j = _cell_indices(h, x, y)
    wx, wy = h.xs[j + 1] - h.xs[j], h.ys[i + 1] - h.ys[i]
    _, bu, cv, e = _patch_terms(h, i, j)
    gx = (bu + e * ((y - h.ys[i]) / wy)) / wx
    gy = (cv + e * ((x - h.xs[j]) / wx)) / wy
    n = np.stack([gy, gx, -np.ones_like(gx)], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


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


def _segment_stops(q0, q1, q2, span) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise `_solve_quadratic` roots inside (0, span], then span,
    padded with inf to three stops: the ends of the segments on which
    the gap keeps one sign. A second stop of inf means no root."""
    sq = np.sqrt(q1 * q1 - 4.0 * q2 * q0)  # NaN: no real root
    tmp = np.where(q1 >= 0.0, -(q1 + sq) / 2.0, -(q1 - sq) / 2.0)
    nonzero = tmp != 0.0
    r_a = np.where(nonzero, tmp / q2, 0.0)
    r_b = np.where(nonzero, q0 / tmp, -q1 / q2)
    quad = q2 != 0.0
    lo = np.where(quad, np.minimum(r_a, r_b), -q0 / q1)
    hi = np.where(quad, np.maximum(r_a, r_b), np.nan)
    lo_in, hi_in = (lo > 0.0) & (lo <= span), (hi > 0.0) & (hi <= span)
    both = lo_in & hi_in
    # lo <= hi: the roots inside come first, in this order, then span.
    first = np.where(lo_in, lo, np.where(hi_in, hi, span))
    second = np.where(both, hi, np.where(lo_in | hi_in, span, np.inf))
    return first, second, np.where(both, span, np.inf)


def _cell_patches(h: Heightmap, i, j, x0, y0, dn, de, dd, x, y, z):
    """For rays from (x0, y0) along (dn, de, dd) that enter cells (i, j)
    at the points (x, y, z): the ray parameters t_x and t_y at which each
    leaves its cell through an x and a y edge, and the gap
    f(s) = q2 s^2 + q1 s + q0 of the ray's depth over the cell's bilinear
    surface at s past the entry point (s counts from the cell entry, for
    conditioning) as (q0, q1, q2); a nodata corner makes q0 NaN.

    Scalar cells and entry points (every ray enters the origin's cell at
    the origin) give scalar corners, widths, u0, v0 and q0: the same
    operations, done once for the whole fan."""
    x_j, x_j1, y_i, y_i1 = h.xs.take(j), h.xs[1:].take(j), h.ys.take(i), h.ys[1:].take(i)
    t_x = np.where(de != 0.0, (np.where(de > 0.0, x_j1, x_j) - x0) / de, np.inf)
    t_y = np.where(dn != 0.0, (np.where(dn > 0.0, y_i1, y_i) - y0) / dn, np.inf)
    wx, wy = x_j1 - x_j, y_i1 - y_i
    u0, v0, du, dv = (x - x_j) / wx, (y - y_i) / wy, de / wx, dn / wy
    del x_j, x_j1, y_i, y_i1, wx, wy  # a large fan's peak memory is here
    d00, bu, cv, e = _patch_terms(h, i, j)
    q0 = z - d00 - bu * u0 - cv * v0 - e * u0 * v0
    q1 = dd - bu * du - cv * dv - e * (u0 * dv + v0 * du)
    q2 = -e * du * dv
    return t_x, t_y, q0, q1, q2


def _patch_terms(h: Heightmap, i, j):
    """The bilinear depth d00 + bu u + cv v + e u v of cells (i, j) over
    the unit square, as (d00, bu, cv, e); NaN at a nodata corner."""
    f, cols, depth = h.cols * i + j, h.cols, h._flat_depth
    d00, d01, d10 = depth.take(f), depth[1:].take(f), depth[cols:].take(f)
    return d00, d01 - d00, d10 - d00, d00 - d01 - d10 + depth[cols + 1 :].take(f)


def _gap(q0, q1, q2, s):
    return q2 * s * s + q1 * s + q0


def _check_ray(origin: WorldPoint, norm: float, max_range: float) -> tuple[float, float, float]:
    """The input rule `raycast` and `raycast_batch` share: a unit direction
    (``norm`` is its length), a positive range and a finite origin, returned as floats."""
    if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    if not max_range > 0.0:
        raise ValueError("max_range must be positive")
    x0, y0, z0 = float(origin.x), float(origin.y), float(origin.depth)
    if not (math.isfinite(x0) and math.isfinite(y0) and math.isfinite(z0)):
        raise ValueError(f"ray origin must be finite, got ({x0}, {y0}, {z0})")
    return x0, y0, z0


def raycast(h: Heightmap, origin: WorldPoint, direction, max_range: float) -> float | None:
    """Range to the first intersection of a ray with the bilinear terrain
    surface.

    Exact 2D grid traversal: the ray's horizontal footprint is walked
    cell by cell and the ray/bilinear-patch equation, a quadratic in the
    ray parameter, is solved analytically per cell. A crossing becomes a
    hit once the ray penetrates the surface by at least RAYCAST_TOL_M;
    shallower grazes are misses. Cells touching nodata nodes are holes.
    Returns None on a miss. `raycast_batch` applies the same rule to many
    rays at once.

    The walk runs on plain Python floats, with the node coordinates as
    lists and the depths as a memoryview the heightmap keeps: every value
    is the same IEEE operation, in the same order, as in `raycast_batch`,
    so the two agree bit for bit, without numpy's per-call cost on 0-d
    arrays.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {direction.shape}")
    dn, de, dd = direction.tolist()
    x0, y0, z0 = _check_ray(origin, math.sqrt(dn * dn + de * de + dd * dd), max_range)
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
            if ta > t_enter:
                t_enter = ta
            if tb < t_exit:
                t_exit = tb
    if t_enter >= t_exit:
        return None

    (xs, ys), depth = h._node_lists, h._depth_cells
    last_i, last_j = len(ys) - 2, len(xs) - 2
    eps_t = 1e-12 * max(1.0, max_range)
    t_lo = t_enter
    # Cell containing the current position, probed slightly inside.
    probe = min(t_lo + 1e-9, (t_lo + t_exit) / 2.0)
    i, j = _cell_of(h, x0 + de * probe, y0 + dn * probe)
    # The node index of each exit edge past the cell's own, and the cell steps.
    east, north = de > 0.0, dn > 0.0
    step_j, step_i = (1 if east else -1), (1 if north else -1)

    # Crossing tracker: a sign change of the gap only becomes a hit once
    # the ray has penetrated the surface by at least RAYCAST_TOL_M;
    # shallower grazes (which may span cell boundaries) are misses, being
    # within tolerance of a tangency. `sign` is the side the ray started
    # on (0 until known), `crossing` where it last left that side (NaN:
    # it has not) and `max_pen` its deepest penetration since.
    sign, crossing, max_pen = 0.0, math.nan, 0.0
    while t_lo < t_exit - eps_t:
        # Parametric exit of the current cell.
        t_x = (xs[j + east] - x0) / de if de != 0.0 else math.inf
        t_y = (ys[i + north] - y0) / dn if dn != 0.0 else math.inf
        t_hi = min(t_x, t_y, t_exit)

        # `_cell_patches` for one cell; a nodata corner makes q0 NaN.
        x_j, y_i = xs[j], ys[i]
        wx = xs[j + 1] - x_j
        wy = ys[i + 1] - y_i
        d00, d01 = depth[i, j], depth[i, j + 1]
        d10, d11 = depth[i + 1, j], depth[i + 1, j + 1]
        bu = d01 - d00
        cv = d10 - d00
        e = d00 - d01 - d10 + d11
        u0 = (x0 + de * t_lo - x_j) / wx
        v0 = (y0 + dn * t_lo - y_i) / wy
        du = de / wx
        dv = dn / wy
        q0 = z0 + dd * t_lo - d00 - bu * u0 - cv * v0 - e * u0 * v0
        q1 = dd - bu * du - cv * dv - e * (u0 * dv + v0 * du)
        q2 = -e * du * dv
        if math.isnan(q0):
            sign, crossing, max_pen = 0.0, math.nan, 0.0  # hole in the terrain
        elif t_hi > t_lo and t_hi > 0.0:
            if sign == 0.0:
                sign = -1.0 if _gap(q0, q1, q2, 0.0) <= 0.0 else 1.0
            span = t_hi - t_lo
            seg_start = 0.0
            for stop in [s for s in _solve_quadratic(q2, q1, q0) if 0.0 < s <= span] + [span]:
                if (_gap(q0, q1, q2, (seg_start + stop) / 2.0) <= 0.0) == (sign < 0.0):
                    # Back (or still) on the original side: any pending
                    # shallow crossing was a graze.
                    crossing, max_pen = math.nan, 0.0
                else:
                    # Penetration beyond the surface, measured into the side
                    # opposite the ray's original one. Signed (not |f|) so that
                    # near-tangent quadratics whose second root was lost to
                    # rounding cannot count original-side depth as penetration.
                    pen = max(-sign * _gap(q0, q1, q2, seg_start), -sign * _gap(q0, q1, q2, stop), 0.0)
                    if q2 != 0.0:
                        vertex = -q1 / (2.0 * q2)
                        if seg_start < vertex < stop:
                            pen = max(pen, -sign * _gap(q0, q1, q2, vertex))
                    if math.isnan(crossing):
                        crossing, max_pen = t_lo + seg_start, 0.0
                    max_pen = max(max_pen, pen)
                    if max_pen >= RAYCAST_TOL_M and crossing > 1e-9:
                        return crossing if crossing <= max_range else None
                seg_start = stop

        if t_hi >= t_exit - eps_t:
            break
        # Advance to the neighbouring cell(s); ties cross the corner.
        if t_x <= t_y:
            j += step_j
        if t_y <= t_x:
            i += step_i
        if not (0 <= i <= last_i and 0 <= j <= last_j):
            break
        t_lo = t_hi
    return None


def _cell_of(h: Heightmap, x: float, y: float) -> tuple[int, int]:
    """`_cell_indices` for one point, as Python ints: a search of the nodes
    after the first and before the last is the full search clipped."""
    xs, ys = h._node_lists
    return bisect_right(ys, y, 1, len(ys) - 1) - 1, bisect_right(xs, x, 1, len(xs) - 1) - 1


@dataclass(frozen=True, eq=False)
class BatchHits:
    """A ray fan's `raycast` ranges: NaN where a ray missed."""

    ranges: np.ndarray  # (N,)

    @property
    def hit(self) -> np.ndarray:
        return ~np.isnan(self.ranges)


def raycast_batch(h: Heightmap, origin: WorldPoint, directions: np.ndarray, max_range: float) -> BatchHits:
    """`raycast` for many rays from a shared origin, in lock-step.

    Each pass of the loop moves every unfinished ray one cell along its
    own traversal and runs `raycast`'s crossing tracker over that cell's
    patch, so hits and ranges are bit-identical to one `raycast` call per
    ray. A pass does per ray only the work that differs per ray: when
    every ray enters the origin's cell at the origin (`_entries`), the
    first pass computes that cell's patch terms once for the fan; a pass
    compacts its per-ray state only when a ray finished, resets trackers
    only in a hole, and skips segments that hold no ray. Its per-ray
    temporaries grow with the rays given: `cast_fan` hands it a sensor
    fan RAY_CHUNK rays at a time. `surface_normals` gives the terrain
    normals at the hit points.
    """
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"directions must have shape (N, 3), got {dirs.shape}")
    norms = np.sqrt(dirs[:, 0] * dirs[:, 0] + dirs[:, 1] * dirs[:, 1] + dirs[:, 2] * dirs[:, 2])
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    x0, y0, z0 = _check_ray(origin, float(norms[bad[0]]) if bad.size else 1.0, max_range)
    ranges = np.full(len(dirs), np.nan)
    eps_t = 1e-12 * max(1.0, max_range)
    # A far origin's ray parameters and gaps overflow to +/-inf, which
    # clip and compare alike: such a ray is a miss.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Per-ray state of the unfinished rays, indexed like `ray`.
        ray, dn, de, dd, t_lo, t_exit, i, j = _entries(h, x0, y0, dirs, max_range, eps_t)
        sign, crossing, max_pen = np.zeros(ray.size), np.full(ray.size, np.nan), np.zeros(ray.size)
        # Scalar cell indices: every ray enters the origin's cell at t = 0,
        # so its entry point is the origin, as x0 + de * 0.0 is x0 for a
        # nonzero x0 (-0.0 + 0.0 is +0.0).
        at_origin = np.ndim(i) == 0 and x0 != 0.0 and y0 != 0.0 and z0 != 0.0

        while ray.size:
            entry = (x0, y0, z0) if at_origin else (x0 + de * t_lo, y0 + dn * t_lo, z0 + dd * t_lo)
            at_origin = False
            t_x, t_y, q0, q1, q2 = _cell_patches(h, i, j, x0, y0, dn, de, dd, *entry)
            q0 = np.broadcast_to(q0, ray.shape)  # one value for the fan at the origin
            t_hi = np.minimum(np.minimum(t_x, t_y), t_exit)
            hole = np.isnan(q0)
            if hole.any():
                sign[hole], crossing[hole], max_pen[hole] = 0.0, np.nan, 0.0
            walk = ~hole & (t_hi > t_lo) & (t_hi > 0.0)
            new = walk & (sign == 0.0)
            if new.all():
                sign = np.where(_gap(q0, q1, q2, 0.0) <= 0.0, -1.0, 1.0)
            else:
                sign[new] = np.where(_gap(q0[new], q1[new], q2[new], 0.0) <= 0.0, -1.0, 1.0)
            stops = _segment_stops(q0, q1, q2, t_hi - t_lo)
            # A first segment whose midpoint is on the ray's original side
            # is a graze, which resets the tracker. Only rays with a root in
            # the cell, or off their side in it, enter the segment loop.
            graze = walk & ((_gap(q0, q1, q2, stops[0] / 2.0) <= 0.0) == (sign < 0.0))
            crossing[graze], max_pen[graze] = np.nan, 0.0
            fired = np.zeros(ray.size, dtype=bool)
            r = np.flatnonzero(walk & ~(graze & (stops[1] == np.inf)))
            for k in range(3):
                m = r[~graze[r]] if k == 0 else r[~fired[r] & (stops[k][r] < np.inf)]
                if not m.size:
                    continue
                a0, a1, a2, sg = q0[m], q1[m], q2[m], sign[m]
                s0 = stops[k - 1][m] if k else np.zeros(m.size)
                s1 = stops[k][m]
                pen = np.maximum(np.maximum(-sg * _gap(a0, a1, a2, s0), -sg * _gap(a0, a1, a2, s1)), 0.0)
                vertex = -a1 / (2.0 * a2)
                inner = (a2 != 0.0) & (s0 < vertex) & (vertex < s1)
                pen = np.where(inner, np.maximum(pen, -sg * _gap(a0, a1, a2, vertex)), pen)
                off = (_gap(a0, a1, a2, (s0 + s1) / 2.0) <= 0.0) != (sg < 0.0)
                pending = np.isnan(crossing[m])
                cr = np.where(pending, t_lo[m] + s0, crossing[m])
                mp = np.maximum(np.where(pending, 0.0, max_pen[m]), pen)
                crossing[m] = np.where(off, cr, np.nan)
                max_pen[m] = np.where(off, mp, 0.0)
                fired[m] = off & (mp >= RAYCAST_TOL_M) & (cr > 1e-9)
            got = fired & (crossing <= max_range)
            ranges[ray[got]] = crossing[got]

            # Advance to the neighbouring cell(s); ties cross the corner.
            j = j + np.where(t_x <= t_y, np.where(de > 0.0, 1, -1), 0)
            i = i + np.where(t_y <= t_x, np.where(dn > 0.0, 1, -1), 0)
            on_grid = (i >= 0) & (i < h.rows - 1) & (j >= 0) & (j < h.cols - 1)
            keep = np.flatnonzero(~fired & (t_hi < t_exit - eps_t) & on_grid)
            t_lo = t_hi
            if keep.size < ray.size:  # some ray finished
                ray, dn, de, dd, t_lo, t_exit, i, j, sign, crossing, max_pen = (
                    a.take(keep) for a in (ray, dn, de, dd, t_lo, t_exit, i, j, sign, crossing, max_pen)
                )
    return BatchHits(ranges)


# Reach of a ray past max_range that `_entries` allows for: |direction|
# may be 1 + 1e-9, and the margin covers the rounding of the clip.
_REACH = 1.0 + 1e-6


def _entries(h: Heightmap, x0: float, y0: float, dirs, max_range: float, eps_t: float):
    """The rays that cross the horizontal extent within max_range, as
    (ray, dn, de, dd, t_lo, t_exit, i, j): index, direction, the ray
    parameters where each enters and leaves the extent, and the cell
    holding its position probed slightly past t_lo, as in `raycast`
    (searched for only where the probe leaves the origin's cell).

    The clip to the extent is skipped when the origin lies farther inside
    every edge than max_range * _REACH and max_range - eps_t is positive:
    every ray then enters at t = 0 and leaves at max_range, which is what
    the clip computes. If, too, no probe leaves the origin's cell, i and
    j are that cell's indices as Python ints."""
    n = len(dirs)
    x_min, y_min, x_max, y_max = h.extent
    reach = max_range * _REACH
    inner = min(x0 - x_min, x_max - x0, y0 - y_min, y_max - y0) > reach and 0.0 < max_range - eps_t
    if inner:
        ray, t_lo, t_exit = np.arange(n), np.zeros(n), np.full(n, float(max_range))
    else:
        t_enter, t_exit = np.zeros(n), np.full(n, float(max_range))
        inside = np.ones(n, dtype=bool)
        for comp, lo, hi, pos in ((dirs[:, 1], x_min, x_max, x0), (dirs[:, 0], y_min, y_max, y0)):
            moving = comp != 0.0
            ta = (lo - pos) / comp
            tb = (hi - pos) / comp
            t_enter = np.where(moving, np.maximum(t_enter, np.minimum(ta, tb)), t_enter)
            t_exit = np.where(moving, np.minimum(t_exit, np.maximum(ta, tb)), t_exit)
            inside &= moving | (lo <= pos <= hi)
        ray = np.flatnonzero(inside & (t_enter < t_exit - eps_t))
        t_lo, t_exit = t_enter[ray], t_exit[ray]
        dirs = dirs[ray]
    dn, de, dd = np.ascontiguousarray(dirs.T)
    probe = np.minimum(t_lo + 1e-9, (t_lo + t_exit) / 2.0)
    x, y = x0 + de * probe, y0 + dn * probe
    i0, j0 = _cell_of(h, x0, y0)
    out = np.flatnonzero(~((h.xs[j0] <= x) & (x < h.xs[j0 + 1]) & (h.ys[i0] <= y) & (y < h.ys[i0 + 1])))
    if inner and not out.size:
        return ray, dn, de, dd, t_lo, t_exit, i0, j0
    i, j = np.full(ray.size, i0), np.full(ray.size, j0)
    i[out], j[out] = _cell_indices(h, x[out], y[out])
    return ray, dn, de, dd, t_lo, t_exit, i, j


def cast_fan(h: Heightmap, origin: WorldPoint, rotation: np.ndarray, az: np.ndarray, el: np.ndarray,
             max_range: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cast the `fan_directions(az, el)` fan, rotated into world NED by
    ``rotation``, from ``origin``: the ray index, world direction and
    range of every hit, in ray order.

    The fan is built, rotated and cast RAY_CHUNK rays at a time and only
    its hits are kept, each list of pieces freed as it is joined, so a
    fan's memory is bounded by one chunk plus its hits. A last chunk of
    one ray joins the chunk before it: numpy rotates a single row through
    gemv, which can round its last bit differently from the gemm that
    rotates longer chunks and the whole fan. A fan of no rays is one
    empty chunk, so it gives three empty arrays.
    """
    n = len(az) * len(el)
    starts = list(range(0, n, RAY_CHUNK)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    rays, directions, ranges = [], [], []
    for start, stop in zip(starts, starts[1:] + [n]):
        ray = np.arange(start, stop)
        dirs = fan_directions(az, el, ray) @ rotation.T
        batch = raycast_batch(h, origin, dirs, max_range)
        hit = np.flatnonzero(batch.hit)
        rays.append(ray[hit])
        directions.append(dirs[hit])
        ranges.append(batch.ranges[hit])
    hits = []
    for pieces in (rays, directions, ranges):
        hits.append(np.concatenate(pieces))
        pieces.clear()
    return tuple(hits)
