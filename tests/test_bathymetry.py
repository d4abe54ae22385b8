import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from subsim import bathymetry as bat
from subsim.geodesy import GeodeticCoord
from subsim.geometry import WorldPoint, ned

from conftest import METERS_PER_DEG, make_heightmap, normal_at


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


@pytest.mark.parametrize("ncols, nrows", [("-2", "-2"), ("3", "0")])
def test_load_refuses_a_non_positive_shape_before_reading_values(tmp_path, ncols, nrows):
    f = tmp_path / "bad.asc"
    f.write_text(f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 oops\n")
    with pytest.raises(bat.HeightmapError, match=f"^{f}: ncols/nrows must be positive, got {ncols} and {nrows}$"):
        bat.load_heightmap(f)


@pytest.mark.parametrize("count", ["inf", "nan", "2.5"])
def test_load_refuses_a_shape_that_is_not_an_integer(tmp_path, count):
    f = tmp_path / "bad.asc"
    f.write_text(f"ncols {count}\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n")
    with pytest.raises(bat.HeightmapError, match="ncols/nrows must be integers"):
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_depth_rejected_and_nan_is_nodata(bad):
    grid = np.full((3, 3), 40.0)
    grid[1, 1] = math.nan
    assert np.isnan(make_heightmap(grid).depth[1, 1])
    grid[2, 0] = bad
    with pytest.raises(bat.HeightmapError, match="^non-nodata depths must be finite$"):
        make_heightmap(grid)


def test_caller_grid_stays_writable_and_is_shared_not_copied():
    grid = np.full((3, 4), 40.0)
    h = bat.Heightmap(GeodeticCoord(10.0, -20.0), 1e-3, grid)
    grid[0, 0] = 1.0
    assert h.depth[0, 0] == 1.0 and np.shares_memory(h.depth, grid)
    assert grid.flags.writeable and not h.depth.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        h.depth[0, 0] = 2.0


def test_grid_must_be_2x2():
    with pytest.raises(bat.HeightmapError):
        make_heightmap(np.zeros((1, 5)))


def test_save_load_round_trip_numpy_scalar_origin(tmp_path):
    depth = np.arange(4.0).reshape(2, 2) + 30.0
    h = bat.Heightmap(GeodeticCoord(np.float64(10.0), np.float64(-20.0)), 0.001, depth)
    f = tmp_path / "np.asc"
    bat.save_heightmap(h, f)
    assert "xllcorner -20.0\nyllcorner 10.0\n" in f.read_text()
    h2 = bat.load_heightmap(f)
    assert h2.origin == GeodeticCoord(10.0, -20.0)
    assert np.array_equal(h2.depth, depth)


@pytest.mark.parametrize("where", ["header", "body"])
def test_load_non_ascii_byte_names_file(tmp_path, where):
    f = tmp_path / "mu.asc"
    text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n"
    text = text.replace("cellsize 1", "cellsize 1µ") if where == "header" else text + "µ\n"
    f.write_bytes(text.encode("utf-8"))
    with pytest.raises(bat.HeightmapError, match="non-ASCII") as info:
        bat.load_heightmap(f)
    assert str(f) in str(info.value)


# --- loader against a per-token reference ---------------------------------------


def _load_reference(path):
    """One float() per token, the line-by-line ESRI ASCII grid parser."""
    header = {}
    values = []
    header_keys = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not values and key in header_keys:
                if key in header:
                    raise bat.HeightmapError(f"{path}:{lineno}: repeated header key {key!r}")
                header[key] = float(tokens[1])
                continue
            for tok in tokens:
                try:
                    values.append(float(tok))
                except ValueError:
                    raise bat.HeightmapError(f"{path}:{lineno}: bad depth value {tok!r}") from None
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    assert len(values) == nrows * ncols
    grid = np.array(values, dtype=float).reshape(nrows, ncols)
    nodata = header.get("nodata_value")
    if nodata is not None:
        grid[grid == nodata] = np.nan
    origin = GeodeticCoord(header["yllcorner"], header["xllcorner"])
    try:
        return bat.Heightmap(origin, header["cellsize"], grid[::-1], nodata_value=nodata)
    except bat.HeightmapError as err:
        raise bat.HeightmapError(f"{path}: {err}") from None


def _assert_loads_like_reference(path):
    try:
        ref = _load_reference(path)
    except bat.HeightmapError as err:
        with pytest.raises(bat.HeightmapError) as info:
            bat.load_heightmap(path)
        assert str(info.value) == str(err)
        return None
    h = bat.load_heightmap(path)
    assert np.array_equal(h.nodata_mask, ref.nodata_mask)
    valid = ~ref.nodata_mask
    # Bit for bit: the int64 views tell -0.0 from 0.0.
    assert np.array_equal(h.depth[valid].view(np.int64), ref.depth[valid].view(np.int64))
    assert (h.origin, h.cell_size, h.nodata_value) == (ref.origin, ref.cell_size, ref.nodata_value)
    return h


_HEADER = "ncols 4\nnrows 3\nxllcorner 10.0\nyllcorner 20.0\ncellsize 0.001\n"


def _reprs(values):
    return [repr(float(v)) for v in values]


def _random_plain_body(seed=46, nrows=300, ncols=400):
    """A grid file of plain decimals: values of 0 to 3 decimals and up to 8
    bytes, 2% nodata cells, lines of 1 to 60 tokens with single and double
    spaces and tabs between them, LF and CRLF line ends, and no newline
    after the last line. The default body is 780 KB, three 256 KiB blocks."""
    rng = np.random.default_rng(seed)
    n = nrows * ncols
    values = rng.uniform(-9999.0, 9999.0, n) / 10.0 ** rng.integers(0, 4, n)
    tokens = [f"{v:.{d}f}"[:8].rstrip(".") or "0" for v, d in zip(values.tolist(), rng.integers(0, 4, n).tolist())]
    for k in np.flatnonzero(rng.random(n) < 0.02).tolist():
        tokens[k] = "-9999"
    lines, k = [], 0
    while k < n:
        take = int(rng.integers(1, 61))
        seps = rng.choice([" ", "  ", "\t"], take).tolist()
        lines.append("".join(sep + tok for sep, tok in zip(seps, tokens[k : k + take]))[1:])
        k += take
    ends = rng.choice(["\n", "\r\n"], len(lines)).tolist()
    ends[-1] = ""
    body = "".join(line + end for line, end in zip(lines, ends))
    return f"ncols {ncols}\nnrows {nrows}\nxllcorner 10.0\nyllcorner 20.0\ncellsize 0.001\nnodata_value -9999\n" + body


@pytest.mark.parametrize(
    "text",
    [
        # A one-line body, as write_asc writes it.
        pytest.param(_HEADER + " ".join(_reprs(np.arange(12.0) * 1.5 + 30.0)) + "\n", id="one-line"),
        # Each row on its own line, the save_heightmap layout.
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 12\n", id="rows"),
        # Rows wrapped across lines, evenly and unevenly.
        pytest.param(_HEADER + "1 2\n3 4\n5 6\n7 8\n9 10\n11 12\n", id="wrapped-even"),
        pytest.param(_HEADER + "1 2 3 4 5\n6 7 8 9 10\n11 12\n", id="wrapped-uneven"),
        pytest.param(_HEADER + "1_0 2 3 4\n5 6 7 8\n9 10 11 1_2.5\n", id="underscores"),
        pytest.param(_HEADER + "nan 2 NaN 4\n-nan 6 7 +nan\n9 10 11 12\n", id="nan"),
        pytest.param(
            _HEADER.replace("cellsize 0.001\n", "cellsize 0.001\nnodata_value inf\n")
            + "inf 2 3 Infinity\n5 6 7 8\n9 10 11 +inf\n",
            id="inf-nodata",
        ),
        pytest.param(_HEADER + "1 2 3 4\n5 -inf 7 8\n9 10 11 12\n", id="inf-depth"),
        pytest.param((_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 12\n").replace("\n", "\r\n"), id="crlf"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 12\n\n\n  \n", id="trailing-blank"),
        pytest.param(
            "NCOLS 4\nNRows 3\nXllCorner 10.0\nyllCORNER 20.0\nCellSize 0.001\nNODATA_value -9999\n"
            "1 2 3 4\n5 -9999 7 8\n9 10 11 -9999.0\n",
            id="mixed-case-header-nodata",
        ),
        pytest.param(
            _HEADER.replace("cellsize 0.001\n", "cellsize 0.001\nnodata_value -9999\n")
            + "-9999 2 3 4\n5 6 7 8\n9 10 11 -9999\n",
            id="nodata",
        ),
        pytest.param(
            _HEADER
            + " ".join(_reprs(np.random.default_rng(44).uniform(-1e4, 1e4, 8))) + "\n"
            + "5e-324 2.2250738585072014e-308 1.5e-320 -0.0\n",
            id="repr17-subnormal",
        ),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 12\nnodata_value 0\n", id="late-header"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 1,5\n", id="bad-token"),
        # Plain decimals (bathymetry._read_plain): the forms it reads, ...
        pytest.param(_HEADER + "-0 -0.000 5. .5\n-.5 00012.5 -1234.56 12345678\n.1234567 -9 0 7\n", id="plain-forms"),
        # ... tokens with no digit, which fail naming their line, ...
        pytest.param(_HEADER + "1 2 3 4\n5 - 7 8\n9 10 11 12\n", id="lone-minus"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 10 . 12\n", id="lone-point"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 -. 8\n9 10 11 12\n", id="minus-point"),
        # ... 8 bytes, then 9, which the text parser reads, ...
        pytest.param(_HEADER + "1 2 3 4\n5 -1234.56 7 8\n9 10 11 12\n", id="eight-bytes"),
        pytest.param(_HEADER + "1 2 3 4\n5 -1234.56 -1234.567 8\n9 10 11 12\n", id="nine-bytes"),
        # ... separators and control bytes, ...
        pytest.param(_HEADER + "1\t2\t3\t4\n5 6\t 7 8\n9\t10 11 12\n", id="tabs"),
        pytest.param((_HEADER + "1 2 3 4\n5 6 7 8\n9 10 11 12").replace("\n", "\r"), id="cr"),
        pytest.param(_HEADER + "1 2 3 4\n5 6\x0b7 8\n9 10 11 12\n", id="vertical-tab"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\x0c\n9 10 11 12\n", id="form-feed"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7\x008\n9 10 11 12\n", id="nul"),
        # ... tokens it hands to the text parser, ...
        pytest.param(_HEADER + "+1 2 3 4\n5 6 7 8\n9 10 11 12\n", id="plus"),
        pytest.param(_HEADER + "1 2 3 4\n5 1e5 7 8\n9 10 11 12\n", id="exponent"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 1.2.3 8\n9 10 11 12\n", id="two-points"),
        pytest.param(_HEADER + "1 2 3 4\n5 6 7 8\n9 1-2 11 12\n", id="inner-minus"),
        # ... and a body of several blocks, nodata cells, no final newline.
        pytest.param(_random_plain_body(), id="random-blocks"),
    ],
)
def test_load_matches_per_token_reference(tmp_path, text):
    f = tmp_path / "g.asc"
    f.write_bytes(text.encode("ascii"))
    _assert_loads_like_reference(f)


def test_load_matches_per_token_reference_on_saved_grid(tmp_path):
    rng = np.random.default_rng(45)
    depth = rng.uniform(1.0, 5000.0, (40, 30))
    depth[rng.random(depth.shape) < 0.05] = np.nan
    f = tmp_path / "saved.asc"
    bat.save_heightmap(make_heightmap(depth), f)
    h = _assert_loads_like_reference(f)
    assert np.array_equal(h.depth, depth, equal_nan=True)


@pytest.mark.parametrize("start", [8184, 8187, 8191, 8192])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_load_reads_header_lines_across_the_first_8_kib(tmp_path, start, eol):
    # Blank lines move the cellsize line, and then the first value line, to
    # start at ``start``: the header is read 8 KiB first.
    head = eol.join(["ncols 2", "nrows 2", "xllcorner 10.0", "yllcorner 20.0", ""])
    for rest in ("cellsize 0.001" + eol + "1 2" + eol + "3 4" + eol, "1.5 2" + eol + "3 4" + eol):
        cellsize = "" if rest.startswith("cellsize") else "cellsize 0.001" + eol
        pad = start - len(head) - len(cellsize)
        f = tmp_path / "g.asc"
        f.write_bytes((head + cellsize + eol * (pad // len(eol)) + " " * (pad % len(eol)) + rest).encode("ascii"))
        assert _assert_loads_like_reference(f) is not None


@pytest.mark.parametrize("token, plain", [
    ("-0", True), ("-0.000", True), ("5.", True), (".5", True), ("-.5", True), ("00012.5", True),
    ("-1234.56", True), ("12345678", True), (".1234567", True), ("-.123456", True),
    ("-1234.567", False), ("123456789", False), ("-", False), (".", False), ("-.", False),
    ("+1", False), ("1e5", False), ("1.2.3", False), ("1-2", False), ("--1", False), ("1-", False),
    ("1/2", False), ("nan", False), ("1\x002", False), ("1\x0b2", False), ("1\x0c2", False),
    ("1\x1f2", False), ("1\x7f", False), ("\xb5", False),
])
def test_plain_reader_takes_exactly_the_plain_decimals(tmp_path, token, plain):
    f = tmp_path / "body"
    f.write_bytes(b"7\t" + token.encode("latin-1") + b"\r\n8")
    with open(f, "rb") as fh:
        values = bat._read_plain(fh, 3, None)
    if not plain:
        assert values is None
        return
    # Bit for bit what float() gives, -0.0 included.
    assert values.view(np.int64).tolist() == np.array([7.0, float(token), 8.0]).view(np.int64).tolist()


@pytest.mark.parametrize("block", [1, 7, 8, 9, 64, 4099])
def test_plain_read_gives_the_same_values_in_any_block_size(tmp_path, monkeypatch, block):
    f = tmp_path / "g.asc"
    f.write_bytes(_random_plain_body(seed=48, nrows=20, ncols=30).encode("ascii"))
    ref = _load_reference(f)
    monkeypatch.setattr(bat, "BODY_BLOCK", block)
    monkeypatch.setattr(bat, "_read_general", lambda *args: pytest.fail("took the general reader"))
    h = bat.load_heightmap(f)
    assert np.array_equal(h.depth.view(np.int64), ref.depth.view(np.int64))


def test_general_read_is_one_pass_through_one_open(tmp_path, monkeypatch):
    # A body the plain reader refuses: rows re-wrapped unevenly at 20 to 60
    # tokens a line, a +44.000, a 1_0 and a nodata cell, CRLF line ends.
    nrows, ncols = 300, 400
    rng = np.random.default_rng(50)
    tokens = [f"{v:.3f}" for v in rng.uniform(30.0, 60.0, nrows * ncols).tolist()]
    tokens[61_000], tokens[7], tokens[119_000] = "+44.000", "1_0", "-9999"
    lines, k = [], 0
    while k < len(tokens):
        take = int(rng.integers(20, 61))
        lines.append(" ".join(tokens[k : k + take]))
        k += take
    head = [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 10.0", "yllcorner 20.0", "cellsize 0.0001",
            "nodata_value -9999"]
    f = tmp_path / "g.asc"
    f.write_bytes("\r\n".join(head + lines + [""]).encode("ascii"))
    ref = _load_reference(f)
    # A small block, so that the plain attempt's scratch does not set the peak.
    monkeypatch.setattr(bat, "BODY_BLOCK", 1 << 12)
    monkeypatch.setattr(bat.np, "loadtxt", lambda *args, **kwargs: pytest.fail("took np.loadtxt"))
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(bat, "open", counted_open, raising=False)
    tracemalloc.start()
    try:
        h = bat.load_heightmap(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(opened) == 1
    assert np.array_equal(h.nodata_mask, ref.nodata_mask) and h.nodata_mask.sum() == 1
    valid = ~ref.nodata_mask
    assert np.array_equal(h.depth[valid].view(np.int64), ref.depth[valid].view(np.int64))
    # One double a value, and one more for each line's array until they
    # are joined: no Python float per value.
    assert peak < 28 * nrows * ncols


def test_plain_read_never_holds_the_text(tmp_path):
    # About 1M values of 8 bytes each and a separator: 9 MB of text.
    n = 1000
    depth = np.random.default_rng(49).uniform(1000.0, 9999.0, (n, n))
    f = tmp_path / "big.asc"
    row = " ".join(["%.3f"] * n) + "\n"
    with open(f, "w", encoding="ascii") as fh:
        fh.write(f"ncols {n}\nnrows {n}\nxllcorner 10.0\nyllcorner 20.0\ncellsize 0.0001\n")
        fh.writelines(row % tuple(r) for r in depth.tolist())
    # The bound: the grid, one block's scratch and boundaries, and 256 KiB
    # for everything else. It does not grow with the file, and is less
    # than the text.
    scratch = sum(buf.nbytes for buf in bat._BodyScratch.empty(bat.BODY_BLOCK))
    fixed = scratch + 8 * (bat.BODY_BLOCK + 10) + 2**18
    assert fixed < f.stat().st_size
    tracemalloc.start()
    try:
        h = bat.load_heightmap(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + fixed
    assert np.array_equal(h.depth[::-1], np.round(depth, 3))


# --- depth queries ------------------------------------------------------------


def test_depth_exact_at_node():
    grid = np.arange(16.0).reshape(4, 4) + 40.0
    h = make_heightmap(grid, cell_m=10.0)
    for i in range(4):
        for j in range(4):
            assert bat.depth_at_xy(h, h.xs[j], h.ys[i]) == grid[i, j]


def test_depth_bilinear_midpoint():
    h = make_heightmap([[0.0, 10.0], [0.0, 10.0]], cell_m=10.0)
    mid = ((h.xs[0] + h.xs[1]) / 2.0, (h.ys[0] + h.ys[1]) / 2.0)
    assert bat.depth_at_xy(h, *mid) == pytest.approx(5.0, abs=1e-12)


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
        assert bat.depth_at_xy(h, x, y) == pytest.approx(expected, abs=1e-9)


def test_depth_out_of_extent_and_nodata():
    grid = np.full((4, 4), 5.0)
    grid[1, 1] = np.nan
    h = make_heightmap(grid, cell_m=10.0)
    outside = [(h.xs[-1] + 1.0, h.ys[0]), (h.xs[0] - 1.0, h.ys[0]), (h.xs[0], h.ys[-1] + 1.0),
               (h.xs[0], h.ys[0] - 1.0)]
    # Any point of a cell with a nodata corner is nodata, the cell's far corner included.
    over_nodata = [((h.xs[0] + h.xs[1]) / 2.0, (h.ys[0] + h.ys[1]) / 2.0), (h.xs[1], h.ys[1]),
                   (h.xs[0], h.ys[0])]
    assert np.isnan(bat.depth_at_xy(h, *np.transpose(outside + over_nodata))).all()
    clear = [((h.xs[2] + h.xs[3]) / 2.0, (h.ys[2] + h.ys[3]) / 2.0), (h.xs[-1], h.ys[-1])]
    assert np.array_equal(bat.depth_at_xy(h, *np.transpose(clear)), [5.0, 5.0])


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
    assert hit == pytest.approx(50.0, abs=1e-6)
    batch = bat.raycast_batch(flat50, origin, ned(0.0, 0.0, 1.0)[None], 100.0)
    assert batch.ranges[0] == hit
    assert np.allclose(bat.surface_normals(flat50, origin.x, origin.y), [0.0, 0.0, -1.0])  # straight up


def test_45_degree_ray_over_flat_terrain(flat50):
    origin = WorldPoint(float(flat50.xs[1]), float(flat50.ys[5]), 0.0)
    d = ned(0.0, 1.0, 1.0) / math.sqrt(2.0)
    hit = bat.raycast(flat50, origin, d, 200.0)
    assert hit is not None
    assert hit == pytest.approx(50.0 * math.sqrt(2.0), abs=1e-4)
    oracle = brute_force_raycast(flat50, origin, d, 200.0, step=0.1)
    assert hit == pytest.approx(oracle, abs=1e-3)


def test_horizontal_ray_above_terrain_misses(flat50):
    origin = WorldPoint(float(flat50.xs[0]), float(flat50.ys[5]), 10.0)
    assert bat.raycast(flat50, origin, ned(0.0, 1.0, 0.0), 500.0) is None


def test_ray_beyond_max_range_misses(flat50):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    assert bat.raycast(flat50, origin, ned(0.0, 0.0, 1.0), 49.0) is None


def test_unit_direction_required(flat50):
    with pytest.raises(ValueError):
        bat.raycast(flat50, WorldPoint(0, 0, 0), ned(0.0, 0.0, 2.0), 10.0)


@pytest.mark.parametrize(
    "direction",
    [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0 + 2e-9), (0.6, 0.0, 0.8 - 2e-9), (math.nan, 0.0, 1.0), (0.0, 0.0, -math.inf)],
    ids=["zero", "long", "short", "nan", "inf"],
)
def test_non_unit_direction_rejected(flat50, direction):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    with pytest.raises(ValueError, match="unit vector"):
        bat.raycast(flat50, origin, np.array(direction), 100.0)
    # Within the 1e-9 tolerance the ray is cast.
    assert bat.raycast(flat50, origin, ned(0.0, 0.0, 1.0 + 5e-10), 100.0) is not None


@pytest.mark.parametrize(
    "direction, max_range, problem",
    [((0.0, 0.0, 2.0), 100.0, "direction must be a unit vector, |d| = 2.0"),
     ((0.0, 0.0, 1.0 + 2e-9), 100.0, "direction must be a unit vector, |d| = 1.000000002"),
     ((0.0, math.nan, 1.0), 100.0, "direction must be a unit vector, |d| = nan"),
     ((0.0, 0.0, 1.0), -1.0, "max_range must be positive"),
     ((0.0, 0.0, 1.0), 0.0, "max_range must be positive"),
     ((0.0, 0.0, 1.0), math.nan, "max_range must be positive")],
    ids=["double-length", "just-too-long", "nan-direction", "negative-range", "zero-range", "nan-range"],
)
def test_raycast_and_batch_reject_the_same_bad_input(flat50, direction, max_range, problem):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    with pytest.raises(ValueError) as single:
        bat.raycast(flat50, origin, np.array(direction), max_range)
    # In a fan, one bad ray among good ones is enough.
    fan = np.array([ned(0.0, 0.0, 1.0), direction, ned(0.6, 0.0, 0.8)])
    with pytest.raises(ValueError) as batch:
        bat.raycast_batch(flat50, origin, fan, max_range)
    assert str(single.value) == str(batch.value) == problem


@pytest.mark.parametrize(
    "directions, problem",
    [(np.array([0.0, 0.0, 1.0]), "directions must have shape (N, 3), got (3,)"),
     (np.zeros((4, 2)), "directions must have shape (N, 3), got (4, 2)"),
     (np.zeros((2, 3, 1)), "directions must have shape (N, 3), got (2, 3, 1)")],
    ids=["one-direction", "two-columns", "three-dims"],
)
def test_batch_rejects_directions_not_shaped_n_by_3(flat50, directions, problem):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    with pytest.raises(ValueError) as err:
        bat.raycast_batch(flat50, origin, directions, 100.0)
    assert str(err.value) == problem
    with pytest.raises(ValueError, match=r"direction must have shape \(3,\)"):
        bat.raycast(flat50, origin, directions[..., 0], 100.0)


def test_batch_accepts_an_empty_fan(flat50):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    assert bat.raycast_batch(flat50, origin, np.zeros((0, 3)), 100.0).ranges.shape == (0,)


# A NaN origin coordinate once sent `raycast` into an endless cell walk
# while `raycast_batch` reported a miss. The probe runs in a child process
# under a timeout, so a regression fails instead of hanging the suite.
_NON_FINITE_ORIGIN_PROBE = """
import math
import numpy as np
from conftest import flat_heightmap
from subsim import bathymetry as bat
from subsim.geometry import WorldPoint
h = flat_heightmap(50.0)
d = np.array([0.48, 0.36, 0.8])  # slanted in both horizontal axes
for origin in (WorldPoint(50.0, math.nan, 0.0), WorldPoint(math.inf, 50.0, 0.0),
               WorldPoint(50.0, 50.0, -math.inf)):
    for cast in (lambda: bat.raycast(h, origin, d, 100.0),
                 lambda: bat.raycast_batch(h, origin, d[None], 100.0)):
        try:
            cast()
            print("no error")
        except ValueError as err:
            print(err)
"""


def test_non_finite_origin_rejected_by_both_raycasters():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", _NON_FINITE_ORIGIN_PROBE], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("ray origin must be finite, got (") for line in lines), lines


@pytest.mark.parametrize("origin", [(1e308, 1e308, 0.0), (-1e308, 1e308, 0.0), (1e308, -1e308, 1e308),
                                    (1e308, 1e308, -1e308), (50.0, 50.0, 1e308), (50.0, 50.0, -1e308)])
def test_finite_origin_far_outside_the_grid_is_a_miss(flat50, origin):
    """Each coordinate is finite, though their sum, or the gap of a ray
    over the grid's cells, is not: a miss, and no overflow warning."""
    origin = WorldPoint(*origin)
    dirs = np.array([[0.48, 0.36, 0.8], [0.0, 0.0, 1.0], [-0.6, 0.0, 0.8], [0.0, 0.6, -0.8], [0.0, 0.96, 0.28]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [bat.raycast(flat50, origin, d, 100.0) for d in dirs] == [None] * 5
        assert not bat.raycast_batch(flat50, origin, dirs, 100.0).hit.any()


def test_normal_on_sloped_plane():
    # depth rises 1 m per 10 m of easting: gradient (d depth/dx) = 0.1.
    cols = np.arange(6.0)
    grid = np.tile(40.0 + cols, (6, 1))
    h = make_heightmap(grid, cell_m=10.0)
    origin = WorldPoint(float(h.xs[2] + 3.0), float(h.ys[2]), 0.0)
    batch = bat.raycast_batch(h, origin, ned(0.0, 0.0, 1.0)[None], 100.0)
    assert batch.hit[0]
    expected = np.array([0.0, 0.1, -1.0])
    expected /= np.linalg.norm(expected)
    assert np.allclose(bat.surface_normals(h, origin.x, origin.y), expected, atol=1e-6)


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
            assert got == pytest.approx(expected, abs=1e-3)
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
            assert np.isnan(batch.ranges[k])
        else:
            assert batch.hit[k]
            assert batch.ranges[k] == scalar
            x, y = origin.x + dirs[k, 1] * scalar, origin.y + dirs[k, 0] * scalar
            assert np.allclose(bat.surface_normals(flat50, x, y), [0.0, 0.0, -1.0], atol=1e-6)  # flat: straight up


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


def _assert_batch_matches_scalar(h, origin, dirs, max_range) -> int:
    """Both entry points apply one hit rule: the same hit flag and the
    identical range on every ray, misses included (NaN). The surface
    normal at each hit is the reference's, bit for bit. Returns the
    number of hits."""
    batch = bat.raycast_batch(h, origin, dirs, max_range)
    scalar = np.array([np.nan if r is None else r for r in (bat.raycast(h, origin, d, max_range) for d in dirs)])
    assert np.array_equal(batch.hit, ~np.isnan(scalar))
    assert np.array_equal(batch.ranges, scalar, equal_nan=True)
    hit = batch.hit
    x = origin.x + dirs[hit, 1] * batch.ranges[hit]
    y = origin.y + dirs[hit, 0] * batch.ranges[hit]
    expected = np.array([normal_at(h, a, b) for a, b in zip(x, y)]).reshape(-1, 3)
    assert np.array_equal(bat.surface_normals(h, x, y), expected)
    return int(hit.sum())


def test_batch_matches_scalar_on_rough_terrain():
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
        hits = _assert_batch_matches_scalar(h, origin, dirs, max_range)
        assert 0 < hits < len(dirs)


@pytest.mark.parametrize("chunk", [61, 256, 1999])
def test_batch_gives_the_same_ranges_in_any_chunk_of_rays(monkeypatch, chunk):
    """cast_fan casts a fan RAY_CHUNK rays at a time (1999 of 2,000 leaves
    one ray over, which joins the chunk before it): its hits are the rays
    that hit when the whole rotated fan goes to one raycast_batch call, with
    the same directions and ranges bit for bit."""
    from subsim.geometry import body_to_ned_rotation, fan_directions

    rng = np.random.default_rng(25)
    jagged = make_heightmap(rng.uniform(30.0, 40.0, (60, 60)), cell_m=10.0)
    origin = WorldPoint(float(jagged.xs[30]), float(jagged.ys[30]), 20.0)
    rotation = body_to_ned_rotation(roll=0.1, pitch=-0.05, yaw=0.7)
    az, el = np.linspace(-math.pi, math.pi, 50), np.linspace(-0.3, -0.01, 40)
    dirs = fan_directions(az, el) @ rotation.T
    whole = bat.raycast_batch(jagged, origin, dirs, 900.0).ranges
    hit = np.flatnonzero(~np.isnan(whole))
    assert 0 < hit.size < len(dirs)
    monkeypatch.setattr(bat, "RAY_CHUNK", chunk)
    rays, directions, ranges = bat.cast_fan(jagged, origin, rotation, az, el, 900.0)
    assert np.array_equal(rays, hit)
    assert directions.tobytes() == dirs[hit].tobytes()
    assert ranges.tobytes() == whole[hit].tobytes()


@pytest.mark.parametrize("n_az, n_el", [(0, 5), (5, 0), (0, 0)])
def test_cast_fan_of_no_rays_gives_three_empty_arrays(flat50, n_az, n_el):
    origin = WorldPoint(float(flat50.xs[5]), float(flat50.ys[5]), 0.0)
    rays, directions, ranges = bat.cast_fan(flat50, origin, np.eye(3), np.zeros(n_az), np.zeros(n_el), 100.0)
    assert rays.shape == (0,) and rays.dtype.kind == "i"
    assert directions.shape == (0, 3) and directions.dtype == np.float64
    assert ranges.shape == (0,) and ranges.dtype == np.float64


def _rough(seed, n=21):
    from conftest import smooth_random_grid

    return make_heightmap(smooth_random_grid(np.random.default_rng(seed), (n, n), base=35.0, relief=9.0))


def _axis_fan(down_lo, down_hi, n=9):
    """Rays with an exact zero north or east component (both signs of
    the other) and the vertical rays, pointing down_lo..down_hi rad below
    level."""
    a = np.linspace(down_lo, down_hi, n)
    c, s, z = np.cos(a), np.sin(a), np.zeros(n)
    rays = [np.stack([z, c, s], 1), np.stack([z, -c, s], 1), np.stack([c, z, s], 1), np.stack([-c, z, s], 1)]
    return np.concatenate(rays + [[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


def _edge_crossings(h, origin, edges, gaps):
    """East-going rays over a flat bottom that cross it `gap` meters
    (horizontally) short of the x edge `edges`: too close to the edge to
    penetrate RAYCAST_TOL_M inside that cell, so the crossing is only
    confirmed in the next one, which holds no root."""
    height = float(h.depth[0, 0]) - origin.depth
    rays = []
    for k in edges:
        for gap in gaps:
            a = math.atan2(height, float(h.xs[k]) - gap - origin.x)
            rays.append([0.0, math.cos(a), math.sin(a)])
    return np.array(rays)


def _shortcut_cases():
    """(heightmap, origin, rays, max_range) exercising each shortcut of the
    batch's lock-step pass."""
    rng = np.random.default_rng(31)
    rough, flat = _rough(32), make_heightmap(np.full((21, 21), 50.0))
    holed_grid = rng.uniform(30.0, 40.0, (30, 30))
    holed_grid[8:14, 10:20] = np.nan
    holed_grid[20, 5] = np.nan
    holed = make_heightmap(holed_grid)
    x_min, y_min, x_max, y_max = rough.extent
    near = WorldPoint(float(rough.xs[10]) - 4e-10, float(rough.ys[10]) + 4e-10, 10.0)
    node = WorldPoint(float(rough.xs[7]), float(rough.ys[12]), 10.0)
    x, y = float(rough.xs[10]) + 3.0, float(rough.ys[10]) - 4.0
    under = WorldPoint(x, y, float(bat.depth_at_xy(rough, x, y)) + 2.0)  # 2 m into the ground
    up = _fan(rng, 600, -1.2, 0.4)
    west = WorldPoint(x_min - 40.0, (y_min + y_max) / 2.0, 0.0)
    toward_east = _fan(rng, 4000, 0.05, 0.6)
    toward_east = toward_east[toward_east[:, 1] > 0.3]
    flat_origin = WorldPoint(float(flat.xs[2]) + 0.37, float(flat.ys[10]), 40.0)
    return {
        "origin-near-cell-edge": (rough, near, _fan(rng, 1500, 0.02, 1.2), 200.0),
        "origin-on-node-axis-rays": (rough, node, _axis_fan(0.05, 1.5), 200.0),
        "axis-rays": (rough, near, _axis_fan(0.02, 1.2, n=25), 200.0),
        "origin-below-terrain": (rough, under, up, 200.0),
        "origin-outside-extent": (rough, west, toward_east, 300.0),
        "holed-fan": (holed, WorldPoint(float(holed.xs[15]) + 1.0, float(holed.ys[11]) - 2.0, 25.0),
                      _fan(rng, 1500, 0.05, 1.0), 400.0),
        "crossing-at-cell-edge": (flat, flat_origin,
                                  _edge_crossings(flat, flat_origin, range(4, 20), (1e-6, 3e-5, 9e-5)), 300.0),
        **_reach_cases(rng),
    }


def _reach_cases(rng):
    """Cases on both sides of each guard of `_entries`' unclipped entry,
    the first pass at the origin and the pass's skipped bookkeeping: the
    fan's reach inside the extent or across its edge, an origin near a
    cell edge, zero origin coordinates, a range below eps_t, a hole at the
    origin, rays that pass under the surface in a hole, and a first pass
    in which no ray finishes."""
    big = _rough(33, n=41)  # 400 m square, 10 m cells
    centre = WorldPoint(float(big.xs[20]) + 5.0, float(big.ys[20]) + 5.0, 0.0)
    above = float(bat.depth_at_xy(big, centre.x, centre.y))
    # Steep rays hit in the origin's cell, shallow ones beyond it.
    steep_and_shallow = np.concatenate([_fan(rng, 300, 1.3, 1.55), _fan(rng, 700, 0.1, 0.6)])
    inside = WorldPoint(centre.x, centre.y, above - 15.0)
    east = WorldPoint(float(big.xs[-1]) - 15.0, centre.y, above - 15.0)
    # A grid shifted 105 m south-west puts x = 0 and y = 0 mid-cell, 100 m inside.
    shifted = make_heightmap(big.depth, lat0=-105.0 / METERS_PER_DEG, lon0=-105.0 / METERS_PER_DEG)
    holed_grid = big.depth.copy()
    holed_grid[21, 20] = np.nan  # the north-west corner of the origin's cell
    holed = make_heightmap(holed_grid)
    # East of the origin a band of holes, 30-70 m away, in a flat bottom
    # 10 m below it: the shallower rays pass under the surface in the
    # band, whose reset makes them leave it below, on their new side.
    band_grid = np.full((41, 41), 50.0)
    band_grid[:, 24:27] = np.nan
    band = make_heightmap(band_grid)
    eastward = _fan(rng, 3000, 0.1, 0.8)
    eastward = eastward[eastward[:, 1] > 0.6]
    return {
        "reach-inside-hits-in-and-beyond-origin-cell": (big, inside, steep_and_shallow, 60.0),
        "reach-crosses-extent-edge": (big, east, _fan(rng, 1000, 0.02, 0.8), 60.0),
        "origin-near-cell-edge-reach-inside": (big, WorldPoint(float(big.xs[20]) - 4e-10, float(big.ys[20]) + 4e-10,
                                                               above - 15.0), _fan(rng, 1500, 0.02, 1.2), 60.0),
        "origin-on-south-west-node": (big, WorldPoint(0.0, 0.0, 20.0), _fan(rng, 800, 0.1, 1.2), 60.0),
        "origin-at-x-zero-inside": (shifted, WorldPoint(0.0, 50.0, 20.0), steep_and_shallow, 60.0),
        "origin-at-y-zero-inside": (shifted, WorldPoint(50.0, 0.0, 20.0), steep_and_shallow, 60.0),
        "origin-at-depth-zero": (big, WorldPoint(centre.x, centre.y, 0.0), _fan(rng, 1000, 0.4, 1.5), 120.0),
        "max-range-below-eps_t": (big, inside, steep_and_shallow, 5e-13),
        "nodata-corner-in-origin-cell": (holed, inside, steep_and_shallow, 60.0),
        "no-ray-finishes-in-first-pass": (big, WorldPoint(centre.x, centre.y, above - 30.0),
                                          _fan(rng, 1000, 0.2, 0.5), 150.0),
        "dives-under-terrain-in-a-hole": (band, WorldPoint(float(band.xs[20]) + 5.0, centre.y, 40.0), eastward, 150.0),
    }


# Cases in which no ray can hit: the extent clip keeps no ray.
_NO_HIT_CASES = {"max-range-below-eps_t"}


@pytest.mark.parametrize("case", _shortcut_cases().keys())
def test_batch_matches_scalar_at_each_shortcut(case):
    h, origin, dirs, max_range = _shortcut_cases()[case]
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    assert (_assert_batch_matches_scalar(h, origin, dirs, max_range) > 0) == (case not in _NO_HIT_CASES)


def _record_patch_calls(monkeypatch) -> list[tuple[bool, bool, int]]:
    """Wrap `_cell_patches` through the module global, as the benchmark's
    tracer wraps a layer. Each call records whether it got scalar cell
    indices, whether it got a scalar entry point, and its ray count."""
    calls = []
    patches = bat._cell_patches

    def recorded(h, i, j, x0, y0, dn, de, dd, x, y, z):
        calls.append((np.ndim(i) == 0 and np.ndim(j) == 0, np.ndim(x) == np.ndim(y) == np.ndim(z) == 0, len(dn)))
        return patches(h, i, j, x0, y0, dn, de, dd, x, y, z)

    monkeypatch.setattr(bat, "_cell_patches", recorded)
    return calls


def test_a_fan_inside_the_grid_takes_its_first_pass_at_the_origin(monkeypatch):
    """A dense-scan-like lidar fan, its origin well inside the grid and
    every ray starting in the origin's cell: the first pass of each chunk
    gets that cell's scalar indices and the origin as its entry point,
    and no later pass does. A guard that is never true would pass every
    differential test while the fan paid per ray for per-fan terms."""
    from subsim.geometry import body_to_ned_rotation

    h = _rough(34, n=41)
    x, y = float(h.xs[20]) + 5.0, float(h.ys[20]) + 5.0
    origin = WorldPoint(x, y, float(bat.depth_at_xy(h, x, y)) - 6.0)
    rotation = body_to_ned_rotation(pitch=-0.3, yaw=1.5708)
    az = el = np.radians(np.linspace(-15.0, 15.0, 160))
    calls = _record_patch_calls(monkeypatch)
    rays, _, _ = bat.cast_fan(h, origin, rotation, az, el, 20.0)
    assert 0 < rays.size < len(az) * len(el)
    chunks = [bat.RAY_CHUNK] * 3 + [len(az) * len(el) - 3 * bat.RAY_CHUNK]
    assert [(scalar_cell, n) for scalar_cell, _, n in calls if scalar_cell] == [(True, n) for n in chunks]
    assert all(at_origin == scalar_cell for scalar_cell, at_origin, _ in calls)
    assert len(calls) > len(chunks)


@pytest.mark.parametrize("case, first_pass", [
    ("reach-inside-hits-in-and-beyond-origin-cell", (True, True)),
    ("nodata-corner-in-origin-cell", (True, True)),
    ("no-ray-finishes-in-first-pass", (True, True)),
    ("origin-at-x-zero-inside", (True, False)),
    ("origin-at-y-zero-inside", (True, False)),
    ("origin-at-depth-zero", (True, False)),
    ("reach-crosses-extent-edge", (False, False)),
    ("origin-near-cell-edge-reach-inside", (False, False)),
    ("origin-on-south-west-node", (False, False)),
    ("max-range-below-eps_t", None),
])
def test_each_reach_case_takes_the_first_pass_it_stands_for(monkeypatch, case, first_pass):
    """Which side of each guard the `_reach_cases` fall on: (scalar cell
    indices, the origin as entry point) of the first pass, or None where
    no ray is cast. Only a first pass gets scalar indices."""
    h, origin, dirs, max_range = _shortcut_cases()[case]
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    calls = _record_patch_calls(monkeypatch)
    ranges = bat.raycast_batch(h, origin, dirs, max_range).ranges
    if first_pass is None:
        assert calls == []
        return
    assert calls[0][:2] == first_pass
    assert not any(scalar_cell for scalar_cell, _, _ in calls[1:])
    if case == "no-ray-finishes-in-first-pass":
        assert calls[1][2] == calls[0][2] == len(dirs)
    if case == "reach-inside-hits-in-and-beyond-origin-cell":
        hit = ~np.isnan(ranges)
        x, y = origin.x + dirs[hit, 1] * ranges[hit], origin.y + dirs[hit, 0] * ranges[hit]
        in_cell = (x >= h.xs[20]) & (x < h.xs[21]) & (y >= h.ys[20]) & (y < h.ys[21])
        assert 0 < in_cell.sum() < hit.sum()


def test_surface_normals_on_cell_edges_match_reference():
    """On a cell edge the normal is the cell's east or north of it, as
    `_cell_indices` picks it, bit for bit."""
    h = _rough(33)
    x = np.concatenate([h.xs, h.xs[:-1] + 0.25 * np.diff(h.xs), np.full(h.rows, h.xs[4])])
    y = np.concatenate([h.ys, np.full(h.cols - 1, h.ys[6]), h.ys])
    expected = np.array([normal_at(h, a, b) for a, b in zip(x, y)])
    assert np.array_equal(bat.surface_normals(h, x, y), expected)


@pytest.mark.parametrize("corner, cellsize, shape", [
    ((10.0, 20.0), 0.001, (3, 2)),
    ((179.8, 84.96), 0.01, (9, 15)),  # the far edges reach 85.04 and 179.94 degrees
    ((100.0, 1.0), 0.000123, (257, 301)),
    ((-179.99, 84.9811), 0.007, (11, 9)),  # the north row is at 85.0511, 3e-5 degrees from the limit
], ids=["small", "mercator-edge", "odd-cell", "mercator-limit"])
def test_grid_extent_is_the_loaded_extent_without_reading_a_value(tmp_path, monkeypatch, corner, cellsize, shape):
    f = tmp_path / "g.asc"
    nrows, ncols = shape
    f.write_text(f"ncols {ncols}\nnrows {nrows}\nxllcorner {corner[0]}\nyllcorner {corner[1]}\n"
                 f"cellsize {cellsize}\n" + "\n".join(" ".join(["7.5"] * ncols) for _ in range(nrows)) + "\n")
    loaded = bat.load_heightmap(f).extent

    def no_values(*args):
        raise AssertionError("grid_extent read a depth value")

    monkeypatch.setattr(bat, "_read_values", no_values)
    assert bat.grid_extent(f) == loaded


@pytest.mark.parametrize("header, problem", [
    ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n", ": depth grid must be at least 2x2, got (1, 2)"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0\n", ": cell_size must be finite and positive"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize nan\n", ": cell_size must be finite and positive"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 85\ncellsize 0.1\n",
     ": latitude beyond +/-85.051129 deg cannot be projected"),
    # Both far edges out: the first axis `Heightmap` projects names the error.
    ("ncols 2\nnrows 2\nxllcorner 179.95\nyllcorner 85\ncellsize 0.1\n", ": longitude outside [-180, 180]"),
    ("ncols -2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0.1\n", ": ncols/nrows must be positive, got -2 and 2"),
    # Without the rule, the second ncols would win and four values would load as a 2x2 grid.
    ("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0.1\nNCOLS 2\n", ":6: repeated header key 'ncols'"),
], ids=["one-row", "zero-cell", "nan-cell", "beyond-85", "beyond-both", "negative-ncols", "repeated-key"])
def test_grid_extent_refuses_what_load_heightmap_refuses_with_its_message(tmp_path, header, problem):
    f = tmp_path / "g.asc"
    f.write_text(header + ("40 41\n" if "nrows 1\n" in header else "40 41\n42 43\n"))
    for read in (bat.load_heightmap, bat.grid_extent):
        with pytest.raises(bat.HeightmapError) as info:
            read(f)
        assert str(info.value) == f"{f}{problem}"


def test_cell_of_is_the_search_clipped_to_the_grid():
    # On nodes, between them, past either end, and at the float extremes.
    h = make_heightmap(np.zeros((4, 6)), cell_m=10.0)
    points = np.concatenate([h.xs, h.ys, h.xs + 0.5, np.nextafter(h.ys, -np.inf),
                             [-1e300, -5.0, 1e6, 1e300, -math.inf, math.inf]])
    for x in points.tolist():
        for y in points.tolist():
            j = min(max(int(np.searchsorted(h.xs, x, side="right")) - 1, 0), h.cols - 2)
            i = min(max(int(np.searchsorted(h.ys, y, side="right")) - 1, 0), h.rows - 2)
            assert bat._cell_of(h, x, y) == (i, j)
            assert tuple(a.item() for a in bat._cell_indices(h, np.array([x]), np.array([y]))) == (i, j)
