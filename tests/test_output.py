"""Byte contract of the file writers.

Each writer is checked against a reference that encodes one value (or,
for PLY, one point) per Python call with the rule the format documents
(README "Output formats"): OBJ, DEM and A-plot floats are ``%.17g``,
OBJ faces ``%d``, and a PLY point is ``struct.pack("<3d2i", ...)`` after
its header. The array encoders behind the writers are also checked on
their own against Python's formatting: ``%.17g`` on about 10^6 values
over the whole double range and every case its arithmetic treats apart,
with each separator and prefix a writer uses, ``%d`` on every digit
count and the int64 extremes. OBJ and DEM files are read back bit for
bit.
Golden sha256 digests of a fixed small input per writer, and of every
run log of one small scenario, make any drift in the bytes fail here,
not only in a benchmark's byte count. PLY files are also read back bit
for bit through ``read_ply``.
"""

import hashlib
import io
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subsim import cli, lidar, meshtools, output, sonar, tiling
from subsim.bathymetry import Heightmap, load_heightmap, save_heightmap
from subsim.geodesy import GeodeticCoord
from subsim.output import CHUNK_VALUES, CsvLog, log_text, write_g17, write_ints

REPO = Path(__file__).resolve().parents[1]

SUBNORMALS = [5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308 / 3.0]
EDGE = [0.0, -0.0, 1e16, -1e16, 1e-5, -1e-5, 0.1, 1.0 / 3.0, 2.5e-7, 5e-7, 123456.0000005,
        20037508.342789244, -20037508.342789244, 13358338.895192828, 1e22, 9.999999e-05,
        *SUBNORMALS]


# --- references: one value per call, as the format rules state -----------------


def _obj_reference(mesh) -> bytes:
    out = []
    for k, v in enumerate(mesh.vertices):
        vals = list(v) + ([] if mesh.colors is None else list(mesh.colors[k]))
        out.append("v " + " ".join("%.17g" % a for a in vals) + "\n")
    for t in mesh.triangles:
        out.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
    return "".join(out).encode("ascii")


def _ply_header(count) -> bytes:
    return (f"ply\nformat binary_little_endian 1.0\nelement vertex {count}\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property int h_index\nproperty int v_index\nend_header\n").encode("ascii")


def _ply_reference(scan) -> bytes:
    out = [_ply_header(len(scan.points))]
    for p, hi, vi in zip(scan.points.tolist(), scan.h_index.tolist(), scan.v_index.tolist()):
        out.append(struct.pack("<3d2i", p[0], p[1], -p[2], hi, vi))
    return b"".join(out)


def _aplot_reference(aplot) -> bytes:
    out = [f"# aplot beams={len(aplot.beam_axis)} bins={len(aplot.range_axis)}\n",
           "beam_axis," + ",".join(f"{a:.17g}" for a in aplot.beam_axis) + "\n",
           "range_axis," + ",".join(f"{r:.17g}" for r in aplot.range_axis) + "\n"]
    for row in aplot.intensities:
        out.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(out).encode("ascii")


def _dem_reference(h) -> bytes:
    nodata = h.nodata_value if h.nodata_value is not None else -9999.0
    out = [f"ncols {h.cols}\n", f"nrows {h.rows}\n", f"xllcorner {h.origin.lon!r}\n",
           f"yllcorner {h.origin.lat!r}\n", f"cellsize {h.cell_size[1]!r}\n",
           f"nodata_value {float(nodata)!r}\n"]
    for row in np.where(np.isnan(h.depth), nodata, h.depth)[::-1]:
        out.append(" ".join("%.17g" % v for v in row) + "\n")
    return "".join(out).encode("ascii")


def _written(writer, obj, tmp_path, name) -> bytes:
    path = tmp_path / name
    writer(obj, path)
    return path.read_bytes()


def _scan(points, h_index=None, v_index=None):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    h_index = np.arange(n) if h_index is None else np.asarray(h_index)
    v_index = np.arange(n)[::-1] * 7 if v_index is None else np.asarray(v_index)
    return lidar.LidarScan(points, np.linalg.norm(points, axis=1), h_index, v_index)


# --- chunks -----------------------------------------------------------------------


def _rows_per_chunk(n_floats):
    return CHUNK_VALUES // n_floats


# --- the %.17g encoder ---------------------------------------------------------------


def _g17_reference(rows, sep=b",", prefix=b"") -> bytes:
    return b"".join(prefix + sep.join([b"%.17g" % v for v in row]) + b"\n" for row in rows.tolist())


def _g17(rows, sep=b",", prefix=b"") -> bytes:
    buf = io.BytesIO()
    write_g17(buf, rows, sep, prefix)
    return buf.getvalue()


def _with_neighbours(values):
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])


def _ulp_walk(center, steps=40):
    """The 2 * steps + 1 doubles around center, both signs."""
    v = [center]
    for _ in range(steps):
        v = [np.nextafter(v[0], -np.inf), *v, np.nextafter(v[-1], np.inf)]
    return np.concatenate([v, np.negative(v)])


def _exact_ties(per_k=200):
    """Values x = j / 2^(k+1), j odd, whose x * 10^k = j * 5^k / 2 is a tie
    between 17-digit integers, per_k of them for each k = 1..40: k <= 22 is
    the exact-power regime, k > 22 the double-double one (2^-25 has k = 24)."""
    ties = []
    for k in range(1, 41):
        first = -(-2 * 10**16 // 5**k) | 1  # least odd j with j * 5^k / 2 >= 10^16
        last = min((2 * 10**17 - 1) // 5**k, 2**53 - 1)
        for j in np.linspace(first, last, per_k, dtype=np.int64).tolist():
            j |= 1
            if j <= last:
                ties.append(j / 2 ** (k + 1))
    return np.array(ties)


def _near_ties():
    """Values x = m / 2^(k+b) with x * 10^k = (m * 5^k) / 2^b within r / 2^b of a
    tie, 0 < |r| <= 16, for k = 23..40: closer to one half than the error of the
    double-double product, so only the near-tie fallback formats them right."""
    ties = []
    for k in range(23, 41):
        for bits in range(40, 54):
            inverse = pow(5**k, -1, 2**bits)
            for r in range(-16, 17):
                m = ((2 ** (bits - 1) + r) * inverse) % 2**bits
                if r and m < 2**53 and 10**16 * 2**bits <= m * 5**k < 10**17 * 2**bits:
                    ties.append(m / 2 ** (k + bits))
    return np.array(ties)


def _g17_case(name):
    rng = np.random.default_rng(17)
    if name == "bit-patterns":  # every exponent, subnormals, nan and inf included
        bits = rng.integers(0, 2**64, 600_000, dtype=np.uint64, endpoint=False).view(np.float64)
        return np.concatenate([bits, [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]])
    if name == "powers-of-ten":
        p = np.array([float(f"1e{k}") for k in range(-320, 309)])
        return _with_neighbours(np.concatenate([p, -p]))
    if name == "ties":
        return np.concatenate([_exact_ties(), _near_ties(), [1492670192443979.75, 2.0**-25]])
    if name == "format-switches":  # %g switches form at X = -5 / -4 and 16 / 17
        return np.concatenate([_ulp_walk(c) for c in (1e-5, 1e-4, 1e16, 1e17, 1.0, 1e-282, 1e300)])
    if name == "integers":
        ints = np.concatenate([rng.integers(0, 10**17, 100_000), np.arange(-2000, 2000),
                               [10**k + d for k in range(18) for d in (-1, 0, 1)]])
        return ints.astype(float)
    if name == "sonar-like":  # A-plot intensities and axes
        return np.concatenate([rng.exponential(1e-6, 48 * 1024), np.arange(1024) * 0.0125,
                               np.linspace(-math.pi / 4, math.pi / 4, 128)])
    if name == "uniform-decades":
        return rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-300, 300, 200_000)
    raise KeyError(name)


G17_CASES = ["bit-patterns", "powers-of-ten", "ties", "format-switches", "integers",
             "sonar-like", "uniform-decades"]


@pytest.mark.parametrize("name", G17_CASES)
def test_g17_matches_python_formatting(name):
    values = _g17_case(name)
    cols = 1000
    values = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    assert _g17(values) == _g17_reference(values)


def test_g17_named_values():
    # An exact tie in each regime, rounded half-even. The double 1e-200 lies
    # below 10^-200: with the exponent taken as -200 its product rounds up to
    # 10^16 and looks valid, but Python prints it with exponent -201.
    assert _g17(np.array([[1492670192443979.75, 2.0**-25, 1e-200]])) == (
        b"1492670192443979.8,2.9802322387695312e-08,9.9999999999999998e-201\n")
    # An OBJ vertex row: integral values print no point, -0.0 prints "-0".
    values = np.array([[0.0, -0.0, 1e16, 1e17, 100.0, 0.5, 0.1, 1e-4, 1e-5, 5e-324, math.nan, -math.inf]])
    assert _g17(values, b" ", b"v ") == (
        b"v 0 -0 10000000000000000 1e+17 100 0.5 0.10000000000000001 0.0001 1.0000000000000001e-05 "
        b"4.9406564584124654e-324 nan -inf\n")


@pytest.mark.parametrize("where", [0, 511, 1023])
@pytest.mark.parametrize("value", [math.nan, -math.inf, 5e-324, 2.0**-25, 1e-300, -1e300])
def test_g17_row_with_a_single_fallback_value(where, value):
    rows = np.random.default_rng(5).exponential(1e-6, (3, 1024))
    rows[1, where] = value
    assert _g17(rows) == _g17_reference(rows)


@pytest.mark.parametrize("shape", [
    (0, 5), (3, 0), (1, 1), (1, CHUNK_VALUES - 1), (1, CHUNK_VALUES), (1, CHUNK_VALUES + 1),
    (CHUNK_VALUES + 1, 1), (3, CHUNK_VALUES // 2 + 1), (2, 2 * CHUNK_VALUES + 3), (7, 1000),
    # OBJ vertex rows: a row count on either side of one chunk's, and two chunks' and more
    (0, 3), (1, 3), (_rows_per_chunk(3) - 1, 3), (_rows_per_chunk(3), 3), (_rows_per_chunk(3) + 1, 3),
    (2 * _rows_per_chunk(3) + 5, 3), (9, 1024), (2, CHUNK_VALUES + 1),
])
def test_g17_across_chunk_edges(shape):
    n = shape[0] * shape[1]
    rows = ((np.arange(n) - n / 3.0) / 7.0 * 10.0 ** (np.arange(n) % 41 - 20)).reshape(shape)
    if n > CHUNK_VALUES:
        flat = rows.reshape(-1)
        flat[CHUNK_VALUES - 1:CHUNK_VALUES + 1] = [math.nan, 2.0**-25]  # fallbacks either side of the edge
    for sep, prefix in ((b",", b""), (b" ", b"v ")):
        assert _g17(rows, sep, prefix) == _g17_reference(rows, sep, prefix)


def test_g17_rejects_a_long_separator_or_prefix():
    with pytest.raises(ValueError):
        _g17(np.ones((1, 2)), b", ")
    with pytest.raises(ValueError):
        _g17(np.ones((1, 2)), b" ", b"vn ")


# --- the integer encoder -----------------------------------------------------------------


INT_EDGES = [0, 1, 9, 10, *[10**k + d for k in range(2, 19) for d in (-1, 1)], 2**63 - 1, -2**63,
             -1, -9, -10, -(10**18) + 1]


@pytest.mark.parametrize("shape", [(1, len(INT_EDGES)), (len(INT_EDGES), 1), (0, 3), (2, 0)])
def test_ints_match_percent_d(shape):
    rows = np.resize(np.array(INT_EDGES, dtype=np.int64), shape)
    buf = io.BytesIO()
    write_ints(buf, rows, b" ", b"f ")
    assert buf.getvalue() == b"".join(b"f " + b" ".join([b"%d" % v for v in row]) + b"\n" for row in rows.tolist())


def test_ints_across_chunk_edges():
    rng = np.random.default_rng(19)
    n = 3 * (CHUNK_VALUES // 3 * 2 + 7)
    values = rng.integers(-2**63, 2**63 - 1, n, endpoint=True) >> rng.integers(0, 64, n)  # every length
    rows = values.reshape(-1, 3)
    buf = io.BytesIO()
    write_ints(buf, rows, b",")
    assert buf.getvalue() == b"".join(b",".join([b"%d" % v for v in row]) + b"\n" for row in rows.tolist())


def test_interleaved_encoder_calls_keep_their_bytes():
    """Each call works in its own scratch: a call of another size or kind in
    between, or a chunk shorter than the last, leaves nothing behind."""
    rng = np.random.default_rng(23)
    large = rng.integers(0, 2**64, 7 * (CHUNK_VALUES // 2 + 3), dtype=np.uint64).view(np.float64).reshape(-1, 7)
    small = np.array([[0.1, -2.5e-7, 123456.0000005], [5e-324, math.nan, -0.0]])

    def ints(n):  # n values, in rows as short as divide n but not CHUNK_VALUES
        cols = next(c for c in range(2, n + 1) if n % c == 0 and CHUNK_VALUES % c)
        values = rng.integers(-2**63, 2**63 - 1, n, endpoint=True) >> rng.integers(0, 64, n)
        return values.reshape(-1, cols)

    calls = [(write_g17, large, b"%.17g", b","),
             (write_g17, small, b"%.17g", b" "),
             *((write_ints, ints(n), b"%d", b" ")
               for n in (CHUNK_VALUES - 1, CHUNK_VALUES + 1, 2 * CHUNK_VALUES + 3)),
             (write_g17, small[:1, :2], b"%.17g", b" "),
             (write_g17, large, b"%.17g", b",")]
    for write, rows, rule, sep in calls:
        buf = io.BytesIO()
        write(buf, rows, sep)
        assert buf.getvalue() == b"".join(sep.join([rule % v for v in row]) + b"\n" for row in rows.tolist())


def _percent_d(rows, sep=b" ", prefix=b"") -> bytes:
    return b"".join(prefix + sep.join([b"%d" % v for v in row]) + b"\n" for row in rows.tolist())


def _ints(rows, sep=b" ", prefix=b"") -> bytes:
    buf = io.BytesIO()
    write_ints(buf, rows, sep, prefix)
    return buf.getvalue()


# The largest magnitude of each slot width (4 * g digits), the least of the
# next, and the int64 extremes.
SLOT_EDGES = [0, *[s * v for g in range(1, 5) for v in (10**(4 * g) - 1, 10**(4 * g)) for s in (1, -1)],
              -2**63, 2**63 - 1]


@pytest.mark.parametrize("top", SLOT_EDGES)
def test_ints_at_every_slot_width_edge(top):
    """A call's slot is sized by its largest magnitude alone: each edge value,
    on its own and among many small values whose slot it widens."""
    assert _ints(np.array([[top]])) == b"%d\n" % top
    small = np.resize(np.array([0, 1, -1, 9, -10, 99, 1000, -9999]), 3 * CHUNK_VALUES + 2)
    for where in (0, CHUNK_VALUES - 1, CHUNK_VALUES, len(small) - 1):  # first, either side of a chunk edge, last
        rows = small.copy()
        rows[where] = top
        rows = rows.reshape(-1, 2)
        assert _ints(rows, b" ", b"f ") == _percent_d(rows, b" ", b"f ")


def test_ints_slot_edges_together_across_chunk_edges():
    rng = np.random.default_rng(29)
    for n_values in (CHUNK_VALUES - 1, CHUNK_VALUES, CHUNK_VALUES + 1, 2 * CHUNK_VALUES + 5):
        for groups in range(1, 5):  # the largest magnitude below 10^(4 * groups)
            values = np.array([v for v in SLOT_EDGES if abs(v) < 10**(4 * groups)], dtype=np.int64)
            rows = rng.choice(values, size=n_values * 3).reshape(-1, 3)
            assert _ints(rows, b",") == _percent_d(rows, b",")


# --- the encoders' tables and memory ----------------------------------------------------


def _loop_tables() -> dict:
    """The encoder tables built one entry at a time from Python integers and
    formatting: the reference the array-built tables must equal."""
    e_min, e_max, width = output._E_MIN, output._E_MAX, output._W
    word = output._word
    exps = range(e_min, e_max + 2)
    thresholds, hi, lo = [], [], []
    for e in exps:
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        f = num / den
        fn, fd = f.as_integer_ratio()
        thresholds.append(f if fn * den >= num * fd else math.nextafter(f, math.inf))
        if e > e_max:
            continue
        k = 16 - e
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    t = {"thresholds": np.array(thresholds), "pow_lo": np.array(lo)}
    binade = np.ldexp(1.0, np.clip(np.arange(2048) - 1023, -1022, 1023))
    t["binade_e"] = np.clip(np.searchsorted(t["thresholds"], binade, side="right") - 1, 0, e_max - e_min)
    t["pow_hi_hi"], t["pow_hi_lo"] = output._split(np.array(hi), *np.empty((2, len(hi))))
    t["digits4"] = np.array([word(b"%04d" % g) for g in range(10000)], dtype="<u4")
    t["sig4"] = np.array([len((b"%04d" % g).rstrip(b"0")) or -16 for g in range(10000)], dtype=np.int8)
    t["lead"] = np.array([word(b"00%d." % d) for d in range(10)], dtype="<u4")
    texts = [b"e%+03d" % x for x in exps]
    t["exp_word"] = np.array([word(x[:4]) for x in texts], dtype="<u4")
    t["exp_tail"] = np.array([word(x[4:]) for x in texts], dtype="<u4")
    shift = np.zeros((17, 24), dtype=np.uint8)
    point = np.zeros((17, 24), dtype=np.uint8)
    for x in range(1, 17):
        shift[x, 7:7 + x] = 0xFF
        point[x, 7 + x] = ord(".")
    keep = np.where((shift | point) > 0, 0, 0xFF).astype(np.uint8)
    t["shift"], t["keep"], t["point"] = (a.view("<u8").T[1:].copy() for a in (shift, keep, point))  # words 1, 2
    t["form"] = np.array([17 * (x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22) - 1 for x in exps])
    masks = np.zeros((23 * 17, width), dtype=bool)
    r = np.arange(18)
    for c in range(23):
        for nd in range(1, 18):
            m = masks[c * 17 + nd - 1]
            if c >= 21:
                region = (r == 0) | ((r == 1) & (nd > 1)) | ((r >= 2) & (r <= nd))
                m[24:28] = True
                m[28] = c == 22
            elif c < 4:
                m[1:3] = True
                m[3:3 + 3 - c] = True
                region = (r == 0) | ((r >= 2) & (r <= nd))
            else:
                x = c - 4
                region = (r <= x) | ((r == x + 1) & (nd > x + 1)) | ((r >= x + 2) & (r <= nd))
            m[6:24] = region
    t["masks"] = masks.view("<u4")
    t["pow10"] = np.array([10**k for k in range(20)], dtype=np.uint64)
    t["int_masks"] = {}
    for g in range(1, 6):
        int_masks = np.zeros((4 * g + 1, 4 * (g + 2)), dtype=bool)
        for nd in range(4 * g + 1):
            int_masks[nd, 4 * g + 4 - nd:4 * g + 4] = True
        t["int_masks"][g] = int_masks.view("<u4")
    return t


def test_array_built_tables_equal_the_loop_built_ones():
    got, want = vars(output._Tables()), _loop_tables()
    assert sorted(got) == sorted(want)
    for name, table in want.items():
        if name == "int_masks":
            assert sorted(got[name]) == sorted(table)
            for g in table:
                assert got[name][g].dtype == table[g].dtype and np.array_equal(got[name][g], table[g]), (name, g)
        else:
            assert got[name].dtype == table.dtype and np.array_equal(got[name], table), name


class _Sink:
    """A binary file that keeps only its byte count."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)


@pytest.mark.parametrize("kind", ["g17", "ints"])
def test_encoder_memory_is_bounded_by_one_chunk(kind):
    """One encoder call over many chunks holds one chunk's scratch and one
    chunk's text at a time, whatever the number of rows."""
    rng = np.random.default_rng(31)
    n = 5 * CHUNK_VALUES + 7
    if kind == "g17":
        rows, write, width = rng.normal(0.0, 1e4, (n, 3)), write_g17, output._W
    else:
        rows, write, width = rng.integers(1, 10**8, (n, 3)), write_ints, output._int_width(2)
    output._tables()
    sink = _Sink()
    tracemalloc.start()
    try:
        write(sink, rows, b" ", b"v ")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 3 * n
    # The scratch block, 73 + 2 * width bytes a value; a chunk's text, at
    # most ``width`` bytes a value, and for integers the digit counts (8
    # bytes a value). Plus 64 KiB.
    bound = (73 + 2 * width) * CHUNK_VALUES + (width + 8) * CHUNK_VALUES + 2**16
    assert peak <= bound, (peak, bound)


# --- per-writer byte contracts --------------------------------------------------------


def test_obj_bytes_match_g17_rule_on_edge_values(tmp_path):
    vals = np.array(EDGE + [-0.0], dtype=float).reshape(7, 3)
    mesh = meshtools.TriMesh(vals, [[0, 1, 2], [2, 1, 3], [3, 4, 5], [6, 5, 4]],
                             colors=vals[::-1])
    assert _written(meshtools.save_obj, mesh, tmp_path, "e.obj") == _obj_reference(mesh)
    plain = meshtools.TriMesh(vals, [[5, 4, 0]])
    assert _written(meshtools.save_obj, plain, tmp_path, "p.obj") == _obj_reference(plain)


def test_obj_bytes_on_a_large_colored_mesh(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * _rows_per_chunk(6) + 17
    verts = rng.uniform(-2e7, 2e7, (n, 3))
    tris = np.stack([np.arange(n - 2), np.arange(1, n - 1), np.arange(2, n)], axis=1)
    mesh = meshtools.TriMesh(verts, tris, colors=rng.uniform(0.0, 1.0, (n, 3)))
    assert _written(meshtools.save_obj, mesh, tmp_path, "big.obj") == _obj_reference(mesh)


def test_obj_without_triangles_or_vertices(tmp_path):
    verts_only = meshtools.TriMesh([[1.0, -0.0, 1e16]], np.zeros((0, 3)), colors=[[0.5, 0.25, 1.0]])
    assert _written(meshtools.save_obj, verts_only, tmp_path, "v.obj") == b"v 1 -0 10000000000000000 0.5 0.25 1\n"
    empty = meshtools.TriMesh(np.zeros((0, 3)), np.zeros((0, 3)))
    assert _written(meshtools.save_obj, empty, tmp_path, "e.obj") == b""


def _edge_scan():
    pts = np.vstack([np.reshape(EDGE + [-0.0], (7, 3)), [[1.0, 2.0, 0.0], [3.0, 4.0, -0.0]]])
    return _scan(pts)


def test_ply_bytes_match_fixed_rule_on_edge_values(tmp_path):
    scan = _edge_scan()
    data = _written(lidar.write_ply, scan, tmp_path, "e.ply")
    assert data == _ply_reference(scan)
    # A depth of exactly 0 is written as up = -depth, i.e. -0.0.
    assert struct.pack("<3d", 1.0, 2.0, -0.0) in data


def test_ply_bytes_on_a_large_scan(tmp_path):
    rng = np.random.default_rng(12)
    n = 5001
    pts = np.column_stack([rng.uniform(-2e7, 2e7, (n, 2)), rng.uniform(0.0, 200.0, n)])
    scan = _scan(pts, rng.integers(0, 2000, n), rng.integers(0, 2000, n))
    assert _written(lidar.write_ply, scan, tmp_path, "big.ply") == _ply_reference(scan)


def test_ply_with_no_points(tmp_path):
    scan = lidar.LidarScan(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    data = _written(lidar.write_ply, scan, tmp_path, "n.ply")
    assert data == _ply_reference(scan) == _ply_header(0)
    assert len(lidar.read_ply(tmp_path / "n.ply")) == 0


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


# Values whose text must read back bit for bit: signed zero, subnormals, the
# form switches, Mercator-scale coordinates, powers of two and their
# neighbours, and values that need 16 and 17 digits.
ROUND_TRIP = np.array(EDGE + [2.0**-1074, 2.0**-1022, 2.0**1023, 0.5, 1024.0, -2.0**-30,
                              np.nextafter(2.0**-30, 1.0), np.nextafter(1024.0, 0.0), 1e15 + 0.5,
                              9007199254740993.0, 0.1 + 0.2, -1e-300, 1.7976931348623157e308])


def _int64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def test_obj_round_trip_is_bit_exact(tmp_path):
    verts = np.resize(ROUND_TRIP, 3 * len(ROUND_TRIP)).reshape(-1, 3)
    colors = np.roll(verts, 1)
    tris = np.arange(3 * (len(verts) // 3)).reshape(-1, 3)
    for mesh in (meshtools.TriMesh(verts, tris, colors=colors), meshtools.TriMesh(verts, tris)):
        meshtools.save_obj(mesh, tmp_path / "r.obj")
        back = meshtools.load_obj(tmp_path / "r.obj")
        assert np.array_equal(_int64(back.vertices), _int64(mesh.vertices))
        assert np.array_equal(back.triangles, mesh.triangles)
        if mesh.colors is not None:
            assert np.array_equal(_int64(back.colors), _int64(mesh.colors))


def test_dem_round_trip_is_bit_exact(tmp_path):
    finite = ROUND_TRIP[np.abs(ROUND_TRIP) < 1e300]
    depth = np.resize(finite, (5, len(finite))).copy()
    depth[1, 3] = depth[4, 0] = np.nan
    h = Heightmap(GeodeticCoord(-33.123456789, 151.987654321), 1e-4 / 3.0, depth, nodata_value=-32768.0)
    save_heightmap(h, tmp_path / "r.asc")
    back = load_heightmap(tmp_path / "r.asc")
    assert np.array_equal(np.isnan(back.depth), np.isnan(depth))
    assert np.array_equal(_int64(back.depth[~np.isnan(depth)]), _int64(depth[~np.isnan(depth)]))
    assert _int64([back.origin.lat, back.origin.lon, *back.cell_size]).tolist() == _int64(
        [h.origin.lat, h.origin.lon, *h.cell_size]).tolist()
    assert back.nodata_value == -32768.0


def test_ply_round_trip_is_bit_exact(tmp_path):
    scan = _edge_scan()
    lidar.write_ply(scan, tmp_path / "e.ply")
    back = lidar.read_ply(tmp_path / "e.ply")
    assert back.dtype == lidar.PLY_DTYPE
    assert _bits(back["x"]) == _bits(scan.points[:, 0])
    assert _bits(back["y"]) == _bits(scan.points[:, 1])
    assert _bits(back["z"]) == _bits(-scan.points[:, 2])
    assert back["h_index"].tolist() == scan.h_index.tolist()
    assert back["v_index"].tolist() == scan.v_index.tolist()
    # The edge values include -0.0 and subnormals; each comes back as its bits.
    written = set(np.concatenate([back["x"], back["y"], -back["z"]]).view("<u8").tolist())
    for value in SUBNORMALS + [-0.0]:
        assert struct.unpack("<Q", struct.pack("<d", value))[0] in written


@pytest.mark.parametrize("damage", ["truncated", "extra-byte", "ascii", "float-x", "extra-property",
                                    "no-header"])
def test_read_ply_rejects_other_files(tmp_path, damage):
    good = _written(lidar.write_ply, _edge_scan(), tmp_path, "good.ply")
    header, body = good[:len(_ply_header(9))], good[len(_ply_header(9)):]
    bad = {
        "truncated": good[:-1],
        "extra-byte": good + b"\0",
        "ascii": header.replace(b"binary_little_endian", b"ascii") + body,
        "float-x": header.replace(b"double x", b"float x") + body,
        "extra-property": header.replace(b"end_header", b"property uchar red\nend_header") + body,
        "no-header": body,
    }[damage]
    path = tmp_path / f"{damage}.ply"
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=f"{damage}.ply"):
        lidar.read_ply(path)


def test_aplot_bytes_match_17g_rule_on_edge_and_nonfinite_values(tmp_path):
    vals = np.array(EDGE + [math.nan, math.inf, -math.inf, -math.nan], dtype=float)
    aplot = sonar.APlot(np.vstack([vals, vals[::-1] * 3.0]), vals * 0.5, np.array([-0.0, 1e-5]))
    data = _written(sonar.write_aplot_csv, aplot, tmp_path, "e.csv")
    assert data == _aplot_reference(aplot)
    assert b",nan,inf,-inf," in data


def test_aplot_bytes_on_a_large_ping(tmp_path):
    rng = np.random.default_rng(13)
    aplot = sonar.APlot(rng.exponential(1e-6, (48, 1024)), np.arange(1024) * 0.0125,
                        np.linspace(-0.6, 0.6, 48))
    assert _written(sonar.write_aplot_csv, aplot, tmp_path, "big.csv") == _aplot_reference(aplot)


def test_aplot_one_by_one(tmp_path):
    aplot = sonar.APlot(np.array([[1e16]]), np.array([0.1]), np.array([-0.0]))
    data = _written(sonar.write_aplot_csv, aplot, tmp_path, "one.csv")
    assert data == _aplot_reference(aplot)
    assert data == b"# aplot beams=1 bins=1\nbeam_axis,-0\nrange_axis,0.10000000000000001\n10000000000000000\n"
    back = sonar.load_aplot_csv(tmp_path / "one.csv")
    assert back.intensities.tolist() == [[1e16]]


def test_dem_bytes_match_g17_rule_with_nodata_cells(tmp_path):
    depth = np.array(EDGE[:12], dtype=float).reshape(3, 4)
    depth[2, 3] = 5e-324
    depth[1, 2] = depth[0, 0] = np.nan
    h = Heightmap(GeodeticCoord(-33.123456789, 151.987654321), (1e-4 / 3.0, 2e-4 / 3.0), depth)
    data = _written(save_heightmap, h, tmp_path, "e.asc")
    assert data == _dem_reference(h)
    assert b"nodata_value -9999.0\n" in data
    sentinel = Heightmap(h.origin, h.cell_size, depth, nodata_value=-32768.0)
    assert _written(save_heightmap, sentinel, tmp_path, "s.asc") == _dem_reference(sentinel)


def test_dem_bytes_on_a_large_grid(tmp_path):
    rng = np.random.default_rng(14)
    depth = rng.uniform(0.0, 6000.0, (_rows_per_chunk(5) + 3, 5))
    depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
    h = Heightmap(GeodeticCoord(10.0, -20.0), 1e-3, depth)
    assert _written(save_heightmap, h, tmp_path, "big.asc") == _dem_reference(h)


def test_csv_log_bytes(tmp_path):
    cells = [0.1, -0.0, math.nan, -math.inf, np.float64(1.0) / 3.0, 123456789012.0, 5e-324, 7, "x", ""]
    with CsvLog(tmp_path / "sub" / "log.csv", ["a", "b"], preamble="# meta x=1") as log:
        log.row(cells)
    assert (tmp_path / "sub" / "log.csv").read_bytes() == (
        b"# meta x=1\na,b\n" + b",".join(b"%.9g" % c if isinstance(c, float) else str(c).encode() for c in cells)
        + b"\n")
    assert log_text(-0.0) + log_text(math.nan) + log_text(1.0 / 3.0) == "-0nan0.333333333"


LOG_CELLS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, np.float64(2.0) / 3.0, np.int64(-7), 12,
             True, "bottom_track", ""]


@pytest.mark.parametrize("rows", [
    [LOG_CELLS],
    [[c] for c in LOG_CELLS],
    [LOG_CELLS, LOG_CELLS[::-1], LOG_CELLS, [0.5, "x"], ["x", 0.5], [np.float64(0.5), np.int64(5)], [], LOG_CELLS],
], ids=["one-row", "one-cell-rows", "mixed-row-shapes"])
@pytest.mark.parametrize("write", ["row", "rows", "rows-in-two"])
def test_csv_log_rows_are_log_text_cells(tmp_path, rows, write):
    with CsvLog(tmp_path / "log.csv", ["h"]) as log:
        if write == "row":
            for row in rows:
                log.row(row)
        elif write == "rows":
            log.rows(rows)
        else:
            log.rows(iter(rows[:1]))
            log.rows(tuple(row) for row in rows[1:])
    expected = "".join(",".join(log_text(c) for c in row) + "\n" for row in [["h"], *rows])
    assert (tmp_path / "log.csv").read_bytes() == expected.encode("ascii")


# --- golden digests ------------------------------------------------------------------
#
# Inputs use exact arithmetic only (integer ranges, divisions, powers of two), so the
# bytes do not depend on a platform's libm or on a random generator's stream.


def _golden_mesh():
    k = np.arange(18, dtype=float).reshape(6, 3)
    verts = k / 7.0 * np.array([1000.0, 1000.0, 1.0]) + np.array([1.3e7, -4.4e6, -0.0])
    tris = np.array([[0, 1, 2], [1, 3, 2], [2, 3, 4], [3, 5, 4]])
    return meshtools.TriMesh(verts, tris, colors=k / 17.0)


def _golden_scan():
    k = np.arange(15, dtype=float).reshape(5, 3)
    pts = k / 3.0 * np.array([10.0, 10.0, 0.5]) + np.array([-8.9e6, 2.2e6, 0.0])
    return lidar.LidarScan(pts, np.linalg.norm(pts, axis=1), np.array([0, 0, 1, 2, 9]),
                           np.array([5, 6, 0, 3, 1]))


def _golden_aplot():
    inten = (np.arange(12, dtype=float).reshape(3, 4) ** 2) / 9.0 * 2.0**-20
    return sonar.APlot(inten, np.arange(4) * 0.0125 + 0.5, (np.arange(3) - 1.0) / 6.0)


def _golden_dem():
    depth = np.arange(12, dtype=float).reshape(3, 4) / 3.0 + 40.0
    depth[2, 1] = np.nan
    return Heightmap(GeodeticCoord(10.0, -20.0), (1e-3, 2e-3), depth)


def _golden_tiles():
    mesh = _golden_mesh()
    return [tiling.Tile((r, c), tiling.Bounds(c * 100.0 / 3.0, r * -0.125, (c + 1) * 100.0 / 3.0, 1e7 / (r + 3.0)),
                        mesh)
            for r in range(2) for c in range(3)]


GOLDEN = {
    "obj": (meshtools.save_obj, _golden_mesh, "mesh.obj",
            "38f7203b204815f0a6707dc2fa810c6640704ae7ee74a2bac464c18540f76187"),
    "ply": (lidar.write_ply, _golden_scan, "scan.ply",
            "f97b46bb0c7c8336e00bb111ac761bc3cc145f5fb933b665eada347344ff5517"),
    "aplot": (sonar.write_aplot_csv, _golden_aplot, "aplot.csv",
              "26688a878a32b69994e10391f743a9f9ce8797cd2a81340ea46223062430d2c8"),
    "dem": (save_heightmap, _golden_dem, "dem.asc",
            "c8e17f9864d8fa56c679cd06531131728e27e3c5ae8653f606235fc9fd5b4bc1"),
    "tiles": (lambda tiles, path: tiling.write_tiles(tiles, path.parent), _golden_tiles, "tiles.csv",
              "f53997e6e1bbbbf1b4915ef990609945cd85d3972a0ead19b5b4c81ef5878565"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_digest(tmp_path, kind):
    writer, build, name, digest = GOLDEN[kind]
    assert hashlib.sha256(_written(writer, build(), tmp_path, name)).hexdigest() == digest


# Every tile OBJ of one export, in name order: 12 tiles in two face-block shapes.
# The vertices pass through the Mercator projection, so this digest pins this
# platform's bytes.
GOLDEN_TILE_OBJS = "96c819625b9d18fa4cb41f9f36b7e24221c059199c619a34d068de7b643f71cf"


def _golden_tile_export():
    depth = np.arange(88, dtype=float).reshape(8, 11) / 4.0 + 40.0
    return tiling.generate_tiles(Heightmap(GeodeticCoord(10.0, -20.0), 1e-3, depth), 300.0, 20.0)


def test_golden_tile_export_digest(tmp_path):
    tiles = _golden_tile_export()
    assert sorted({t.mesh.triangles.shape for t in tiles}) == [(24, 3), (32, 3)]
    tiling.write_tiles(tiles, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*.obj")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_TILE_OBJS


def _same_shape_other_faces():
    """Tiles whose meshes share a triangle shape but not always its content."""
    mesh = _golden_mesh()
    flipped = meshtools.TriMesh(mesh.vertices, mesh.triangles[:, ::-1], mesh.colors)
    plain = meshtools.TriMesh(mesh.vertices, mesh.triangles[::-1])
    return [tiling.Tile((0, c), tiling.Bounds(c, 0.0, c + 1.0, 1.0), m)
            for c, m in enumerate([mesh, flipped, mesh, plain, flipped])]


@pytest.mark.parametrize("build", [_golden_tile_export, _same_shape_other_faces])
def test_each_tile_file_is_what_save_obj_writes(tmp_path, build):
    tiles = build()
    tiling.write_tiles(tiles, tmp_path / "tiles")
    for tile in tiles:
        name = "tile_%03d_%03d.obj" % tile.index
        meshtools.save_obj(tile.mesh, tmp_path / name)
        assert (tmp_path / "tiles" / name).read_bytes() == (tmp_path / name).read_bytes()
        assert (tmp_path / name).read_bytes() == _obj_reference(tile.mesh)


# The run logs of one small scenario: pose rows, a DVL in every tracking mode
# (a blind one logs nan), ADCP profiles in both modes, a coupling that goes
# FREE -> JOINED -> FIXED -> FREE (Free rows leave the force fields empty),
# tile loads and unloads, and lidar scans from a panned and tilted mount that
# hit the floor. The values pass through trigonometry and the seeded noise
# streams, so these digests pin this platform's bytes.
GOLDEN_SCENARIO = """\
seed: 5
duration: 1.0
dt: 0.1
world: {heightmap: dem.asc, tile_size: 30.0, overlap: 2.0, load_radius: 20.0, unload_radius: 40.0}
currents:
  strata:
    - {depth: 0.0, velocity: [0.25, -0.125, 0.0]}
    - {depth: 60.0, velocity: [0.0625, 0.0, 0.0]}
  gauss_markov: {mu: 0.05, sigma: 0.01, bound: 1.0}
vehicles:
  - id: auv
    trajectory:
      - {time: 0.0, x: 10.0, y: 50.0, depth: 20.0}
      - {time: 1.0, x: 90.0, y: 50.0, depth: 25.0, yaw: 0.5}
    sensors:
      - {type: dvl, name: dvl, rate: 5.0, noise_sigma: 0.01, bins: 3, bin_size: 5.0}
      - {type: dvl, name: beams, rate: 10.0, noise_sigma: 0.01, bins: 2, bin_size: 4.0,
         profile_mode: per_beam}
      - {type: dvl, name: blind, rate: 10.0, max_range: 5.0, water_track_enabled: false}
      - {type: lidar, name: lidar, rate: 2.5, rays_h: 4, rays_v: 3, supersample: 1, fov_h_deg: 40.0,
         max_range: 60.0, range_noise_sigma: 0.01, pan_deg: 40.0, tilt_deg: -30.0}
  - id: plug
    trajectory:
      - {time: 0.0, x: 50.0, y: 20.0, depth: 10.0}
couplings:
  - id: lead
    plug_vehicle: plug
    receptacle: {x: 50.0, y: 20.0, depth: 10.0}
    config: {linear_tol: 0.05, angular_tol: 0.1, insertion_force: 60.0, extraction_force: 80.0,
             travel_max: 0.3, align_duration: 0.3, cooldown: 0.2}
    forces:
      - {time: 0.0, fx: 0.0}
      - {time: 0.5, fx: 70.0, fy: 1.5, fz: -0.25}
      - {time: 0.7, fx: 90.0}
      - {time: 0.8, fx: 0.0}
"""

GOLDEN_LOGS = {
    "auv/pose.csv":
        "29a1e1f573c7bbebace9800872d4339cc78024f73841d2db2f8e8d7bbcdbc59d",
    "auv/dvl.csv":
        "bb9ec2e7dc94743dadd993d19180989f6f5f00c77fc2976dd8f8b86ef93952cc",
    "auv/dvl_adcp.csv":
        "223593be7272c520b427b373e6c0c192009f5bdd84968c746d984c103782a581",
    "auv/beams_adcp.csv":
        "bd35ab7285e98a905c746787cab121a1d0c3821c26fc89b73e6c6fb6ebfae900",
    "auv/blind.csv":
        "7b97be068b94072c34cbcc4e3f5115e6449c6e93565f855cd5e69d0249608f2f",
    "coupling_lead.csv":
        "ddc8fd97de2b98750f1c42154e4c777825a22810121f583411dd8f31650aa136",
    "tile_events.csv":
        "43ea5344248a95413acb739ad2e1911a33416a77ca2b4cc67fe9771454310205",
    "auv/lidar/scan_00000.ply":
        "76e7ed4f61b3d766a6ea51e84d40d1d241f51537878a21dcb7272729ede628de",
    "auv/lidar/scan_00001.ply":
        "b09af40aa13dd3a396378d54b7be5b5ae0031e1b02954e6b8fa655e8e8da8985",
    "auv/lidar/scan_00002.ply":
        "416b8ad33073c31d5af35eb2b918fb5019f560f7d96ca156db8bb35ac93ce5cf",
}


def _golden_tree(tmp_path_factory, heightmap, scenario: str) -> Path:
    root = tmp_path_factory.mktemp("golden")
    save_heightmap(heightmap, root / "dem.asc")
    (root / "scenario.yaml").write_text(scenario, encoding="ascii")
    assert cli.main(["run", str(root / "scenario.yaml"), "--out", str(root / "out")]) == 0
    return root / "out"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    from conftest import flat_heightmap

    return _golden_tree(tmp_path_factory, flat_heightmap(50.0, n=11, cell_m=10.0), GOLDEN_SCENARIO)


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
def test_golden_run_log_digest(golden_run, name):
    assert hashlib.sha256((golden_run / name).read_bytes()).hexdigest() == GOLDEN_LOGS[name]


# A second run over rippled terrain (depths are multiples of 0.25, so exact), under a
# two-constituent tide with a heading: three DVL+ADCP vehicles, one too shallow for its
# beams to reach the floor (water track), both ADCP modes, two sensors ticking on
# one vehicle at the same times, segments that hold their attitude, and a vehicle whose
# last waypoint's yaw is -0.0 after a segment at 0.0.
GOLDEN_TIDE_SCENARIO = """\
seed: 11
duration: 2.0
dt: 0.1
epoch_utc: 3600.0
world: {heightmap: dem.asc, tile_size: 50.0, overlap: 2.0, load_radius: 30.0, unload_radius: 60.0}
currents:
  strata:
    - {depth: 0.0, velocity: [0.25, -0.125, 0.0]}
    - {depth: 20.0, velocity: [0.125, 0.0, 0.0625]}
    - {depth: 60.0, velocity: [0.0625, 0.0, 0.0]}
  tide:
    heading: 0.7
    constituents:
      - {amplitude: 0.15, period: 600.0, phase: 0.3}
      - {amplitude: 0.05, period: 97.5, phase: -1.2}
  gauss_markov: {mu: 0.1, sigma: 0.02, bound: 0.5}
vehicles:
  - id: deep
    trajectory:
      - {time: 0.0, x: 30.0, y: 40.0, depth: 28.0, yaw: 0.25}
      - {time: 0.7, x: 80.0, y: 60.0, depth: 30.0, roll: 0.05, pitch: -0.1, yaw: 0.6}
      - {time: 1.3, x: 120.0, y: 110.0, depth: 31.0, roll: 0.05, pitch: -0.1, yaw: 0.6}
      - {time: 2.0, x: 150.0, y: 150.0, depth: 27.0, yaw: 0.6}
    sensors:
      - {type: dvl, name: dvl, rate: 5.0, noise_sigma: 0.01, bins: 3, bin_size: 4.0}
      - {type: dvl, name: profiler, rate: 10.0, noise_sigma: 0.02, max_range: 60.0, bins: 5, bin_size: 6.0,
         profile_mode: per_beam}
  - id: shallow
    trajectory:
      - {time: 0.0, x: 170.0, y: 30.0, depth: 3.0, yaw: -1.0}
      - {time: 2.0, x: 110.0, y: 90.0, depth: 3.0, yaw: -1.0}
    sensors:
      - {type: dvl, name: dvl, rate: 5.0, noise_sigma: 0.01, max_range: 25.0, bins: 4, bin_size: 5.0,
         profile_mode: per_beam}
  - id: still
    trajectory:
      - {time: 0.0, x: 100.0, y: 100.0, depth: 35.0, pitch: -0.2, yaw: 0.0}
      - {time: 1.0, x: 100.0, y: 112.0, depth: 35.0, pitch: -0.2, yaw: -0.0}
    sensors:
      - {type: dvl, name: dvl, rate: 10.0, noise_sigma: 0.005, min_range: 1.0, bins: 2, bin_size: 3.0}
"""

GOLDEN_TIDE_LOGS = {
    "deep/dvl.csv":
        "aaeae04cc115705969294a032b1a06ae3c940fadd4434ad9c5c388752e3c4736",
    "deep/dvl_adcp.csv":
        "33c2ab7657c0eb60c6efc2a1c16c898f46a544d8c012729b74c65c3fab32ad2d",
    "deep/pose.csv":
        "b082f71df83da733e825df7c06c834f0fa2626a3e3ade7f4078a861ae53cda49",
    "deep/profiler.csv":
        "1c1ef0b2ee3bde49fb09fdb9c07ea0f10744bd5aea1a120d3af07fa47842e083",
    "deep/profiler_adcp.csv":
        "1724e362ea747fdf1c7ae47219b5e0cb181b331ea97e2836242d4fbfd6a534c6",
    "shallow/dvl.csv":
        "fc4a78cb590bb17cfc267acafab6dbf29ecb2e7bede138d35b0d1c5815f82a1a",
    "shallow/dvl_adcp.csv":
        "66ce33d7212911958093cb27487d6db5d49e47975ba1b0986d502ff522af219f",
    "shallow/pose.csv":
        "a86362796d3265ae05fb9b0f3cf6f949fbee70601ff253f44d9ab774114317ee",
    "still/dvl.csv":
        "d9a1ced7aa4c8c9f6019c01a7767851b7dfeac29c6efdb97dcedaf2e8471159a",
    "still/dvl_adcp.csv":
        "c0f019a6791dc1ff787764289db7340d0cc1c9bd35ea4a0cb4eef6db48efee30",
    "still/pose.csv":
        "cba5b9b3e755a47e7d156cb86363f03420bd98052cd7bc5bb7c3c4753840259d",
    "tile_events.csv":
        "ee60f03c41c934ede8c8d675340dd5cdad88952943eea7c802aff0d6d7969369",
}


def _rippled_heightmap():
    from conftest import make_heightmap

    i, j = np.mgrid[0:21, 0:21]
    return make_heightmap(40.0 + 1.5 * np.abs((j + 2 * i) % 8 - 4) - 0.25 * i, cell_m=10.0)


@pytest.fixture(scope="module")
def golden_tide_run(tmp_path_factory):
    return _golden_tree(tmp_path_factory, _rippled_heightmap(), GOLDEN_TIDE_SCENARIO)


def test_golden_tide_run_writes_every_mode(golden_tide_run):
    modes = {line.split(b",")[1] for path in golden_tide_run.glob("*/dvl.csv")
             for line in path.read_bytes().splitlines()[1:]}
    assert modes == {b"bottom_track", b"water_track"}
    assert sorted(p.relative_to(golden_tide_run).as_posix() for p in golden_tide_run.rglob("*.csv")) == sorted(
        GOLDEN_TIDE_LOGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_TIDE_LOGS))
def test_golden_tide_run_log_digest(golden_tide_run, name):
    assert hashlib.sha256((golden_tide_run / name).read_bytes()).hexdigest() == GOLDEN_TIDE_LOGS[name]


# A third run in which vehicles hold their pose: "rov" teleports to a station
# mid-run and holds there to the end, "park" hovers between two waypoints with one
# pose and then holds after its last waypoint. Each carries a noisy DVL with an ADCP,
# a small sonar with speckle and a lidar with range noise, so every held evaluation
# draws new noise over the same rays. Every product's digest is pinned.
GOLDEN_HELD_SCENARIO = """\
seed: 23
duration: 2.0
dt: 0.1
world: {heightmap: dem.asc, tile_size: 50.0, overlap: 2.0, load_radius: 30.0, unload_radius: 60.0}
currents:
  strata:
    - {depth: 0.0, velocity: [0.25, -0.125, 0.0]}
    - {depth: 60.0, velocity: [0.0625, 0.0, 0.0]}
  gauss_markov: {mu: 0.05, sigma: 0.01, bound: 1.0}
stations:
  dock: {x: 120.0, y: 90.0, depth: 30.0, pitch: -0.4, yaw: 1.2}
vehicles:
  - id: rov
    trajectory:
      - {time: 0.0, x: 40.0, y: 60.0, depth: 28.0, pitch: -0.4, yaw: 0.3}
      - {time: 1.6, x: 80.0, y: 70.0, depth: 30.0, pitch: -0.4, yaw: 0.5}
    teleports:
      - {time: 0.6, station: dock}
    sensors: &sensors
      - {type: dvl, name: dvl, rate: 10.0, noise_sigma: 0.01, bins: 3, bin_size: 5.0}
      - {type: sonar, name: fls, rate: 2.5, n_beams: 8, rays_per_beam: 2, vertical_rays: 3,
         spectral_bins: 64, bandwidth_hz: 1500.0, horizontal_fov_rad: 1.0, vertical_fov_rad: 0.6}
      - {type: lidar, name: lidar, rate: 5.0, rays_h: 4, rays_v: 3, supersample: 2, max_range: 60.0,
         range_noise_sigma: 0.02, tilt_deg: -20.0}
  - id: park
    trajectory:
      - {time: 0.0, x: 150.0, y: 40.0, depth: 32.0, pitch: -0.3, yaw: -0.8}
      - {time: 0.4, x: 140.0, y: 50.0, depth: 32.0, pitch: -0.3, yaw: -0.8}
      - {time: 0.8, x: 140.0, y: 50.0, depth: 32.0, pitch: -0.3, yaw: -0.8}
      - {time: 1.0, x: 135.0, y: 60.0, depth: 31.0, pitch: -0.35, yaw: -0.6}
    sensors: *sensors
"""

GOLDEN_HELD_PRODUCTS = {
    "park/dvl.csv":
        "51b98ae2400f44046e89dc7e62510aa6d11451610a40a96831d27e9c99334ca5",
    "park/dvl_adcp.csv":
        "3ea25b9220e9bef3b99348dd0c36dc5550b5e1b71de959742f93ed9469d32e7e",
    "park/fls/ping_00000.csv":
        "2b0c23641038dc8e7bb0cd7871c6a8b11b75a913f1247eeeaf0938e88a75873e",
    "park/fls/ping_00000.pgm":
        "9e2560ca1591b1cc2acee87d47b866e464adefee603a1585edc66c26c79ce678",
    "park/fls/ping_00001.csv":
        "1950e44aab70819b9ab51ab5c4f7dad78b35ec325a40bd7d91044e94e1704e83",
    "park/fls/ping_00001.pgm":
        "f84c765a64171c9729eb2cc5d04132efeab8895c47dcaed5dbfa9a6e47e5d7c4",
    "park/fls/ping_00002.csv":
        "a751e04a90698e081c5bf288e7b06f87a61b13d36b4620e58614d11a17b672ad",
    "park/fls/ping_00002.pgm":
        "ca83acdfef9674ed9fb3f37c509587bada58f79793fec0970c2432986fa53c62",
    "park/fls/ping_00003.csv":
        "350f9329fcaedbaf585746e45d018661df7aacbaecc4ea63ca101d6de54f8770",
    "park/fls/ping_00003.pgm":
        "5b1e916e97ef58283fb83917c2660289746197ebda23730f5fa98468b4bf99a9",
    "park/fls/ping_00004.csv":
        "98376060d2e8eb083732fee254145168f5549b81d429d748416eb51adabd4fa1",
    "park/fls/ping_00004.pgm":
        "e94faada9192f79d3f166f02881205aaac3c8b341c905b1a687458c4cff805a5",
    "park/fls/ping_00005.csv":
        "dddfd1aaedab88420071609db4cb792874bf540b18ebea49139ae78affdca561",
    "park/fls/ping_00005.pgm":
        "2fd1b71ffabf0de595c7090bb8cb5c4a8609aa2befbd45549a65160aa8a83296",
    "park/lidar/scan_00000.ply":
        "a3a29e46b83d5062f4481418b09cfaf7f8276006f135d91257d237017da48535",
    "park/lidar/scan_00001.ply":
        "5d120e1eeda4bf64a43f4267cf3ce4c928ba1f54c325ad7e1d407c30458839e5",
    "park/lidar/scan_00002.ply":
        "b0baed706fb38c1c3eab91906de9a8e0ef40f9bb156270ee2b7130148fa77f40",
    "park/lidar/scan_00003.ply":
        "4b5732cf9ce6df1575aa1fed1404b1792e9df3609b5021114d8ee3ddbb4d2a96",
    "park/lidar/scan_00004.ply":
        "fb6f54f41e357623aa7f28a24f7683671e1bd6628698bc6145d85df941fbf93b",
    "park/lidar/scan_00005.ply":
        "db90036f27526a6b1a60d6554577dbfa32decbc2b9c0f139f3ad471afe2761c2",
    "park/lidar/scan_00006.ply":
        "3096b1389e5883345a1b785fed804839080bc5ebb57c8b4fa81a13c55bdefc3e",
    "park/lidar/scan_00007.ply":
        "5a58683334279aa06c348b61aeee7cd44a79b1261ded1154f692eb7d91d6efae",
    "park/lidar/scan_00008.ply":
        "cef17c3fdf21e24bdb0fe7dd4015f5603819870fb29310a90a23f22ac8cd304e",
    "park/lidar/scan_00009.ply":
        "516abb05a3cd1f9a156217792a659605d005228429fcda9909e9ba272c17a47e",
    "park/lidar/scan_00010.ply":
        "47e89093cef6311f9f15ba23ff273470236eca9e0dd33028a1a7e145ef7a5777",
    "park/pose.csv":
        "5ae86a12dd2994f1405d3fee532c68b964aba95540a19bba7cff162bdbcafde2",
    "rov/dvl.csv":
        "74ae0c9517d370c3e55b5539ad79fd1d54d2a3b5c23a248c03ba6acbce925783",
    "rov/dvl_adcp.csv":
        "8c60757148fb8c624441950120b4bbcfa01557c51d6063c48b8a9f46662a6d5d",
    "rov/fls/ping_00000.csv":
        "f475f9771c54c22d4322de3b9d6abf30da88e9a2da2e37626b26f37b8ab2b136",
    "rov/fls/ping_00000.pgm":
        "57eba92f280e40222cbf7459a93585d517ec6735ab10722170015e5782d00111",
    "rov/fls/ping_00001.csv":
        "2720220057e2e234c46deb7ef4748367eb2fde35a5c98434384783f354eaa5a1",
    "rov/fls/ping_00001.pgm":
        "92478f2b1a691482c5585413675eff91daca11add02487c6c0ddbde92ccc22b1",
    "rov/fls/ping_00002.csv":
        "40a92c7a6965ed224e6a37623fbda92460048cfcebcbc0fcbad4891ae5571726",
    "rov/fls/ping_00002.pgm":
        "e55081a87611ec457fb17c6d10256a2042c2a81ab72a4478ccd14c30a72558dd",
    "rov/fls/ping_00003.csv":
        "a7b2f583490bfebeab1beb30bcdd98d8eb5224d680de485fd77bf4ccbedb0ee4",
    "rov/fls/ping_00003.pgm":
        "7403d589cdc9179f32afcfb162e3088fd7acf2358e492466039c1886d29345d1",
    "rov/fls/ping_00004.csv":
        "039ff270d956ac4d40e9155a73ebfc5b917bb8b6ae5cfd74a2822add644d30cc",
    "rov/fls/ping_00004.pgm":
        "9b49ba6e8f2da9c4238afc73da6dbfb30ca5843d87c3cc743c7acb7a458c2336",
    "rov/fls/ping_00005.csv":
        "eb6f99aad64c8f648f874a92060076413f8d61645b985c4c67f883529b682c4c",
    "rov/fls/ping_00005.pgm":
        "cb6bdfbd92b90af41b2812686f26c2edd6da6ff77a20586d5d24d17686cc3972",
    "rov/lidar/scan_00000.ply":
        "58436266f76f3c033b75c81b67fbacbaf2c23055764f3f39a6ddeb5739451d5b",
    "rov/lidar/scan_00001.ply":
        "72d45c45344aea8be661b34fb15d3e67aed65407ef8528ab6556c5b2ffe00d99",
    "rov/lidar/scan_00002.ply":
        "9a071d329dbd3c9f0f453fe8706b5dcc2dcc67aabdd562d10f921c0ef89a5d0e",
    "rov/lidar/scan_00003.ply":
        "ae9f80a4facbf6b0b8b2e36e48494282da37c956ca15858542fdf76380eacf94",
    "rov/lidar/scan_00004.ply":
        "f7ef3e61322a041ebb320a0f611b2c941dee7662205c70c6f9daa2fd6660c5ec",
    "rov/lidar/scan_00005.ply":
        "b9122116e8347959b65c571d4945b691fe8f0e31ffbda3523d2d0cd8833ae176",
    "rov/lidar/scan_00006.ply":
        "213aead0cd73646c1f656264c339e15b72acbe1fc7131ae03f67b4673f88947b",
    "rov/lidar/scan_00007.ply":
        "e6f7c344f4628f1191d770f88c3795cf0e67e85bf5ffb2afa0f84811b482d39e",
    "rov/lidar/scan_00008.ply":
        "adc2bda50b6d8c1f61e693b3d5ede97281df597b2df46865a4314c4ee3ec33e9",
    "rov/lidar/scan_00009.ply":
        "f2c570cbfdadeba15840794d46161b60fad453c3a1751faf179241cbdd39374c",
    "rov/lidar/scan_00010.ply":
        "bccd002d18f2e130a4127ea4e1cf93b90aafce27f7f663c8284a6440267dd53f",
    "rov/pose.csv":
        "bf7dd0eccbcf6ad6fa4de468e57d2022c18ce05ae8fc1e3ad07abd5d7e144181",
    "tile_events.csv":
        "f7ec8247ed31000d5179a12a50a2c299046d86045d3c4092f64d722386d4a1cb",
}


@pytest.fixture(scope="module")
def golden_held_run(tmp_path_factory):
    return _golden_tree(tmp_path_factory, _rippled_heightmap(), GOLDEN_HELD_SCENARIO)


def test_golden_held_run_pins_every_product(golden_held_run):
    written = sorted(p.relative_to(golden_held_run).as_posix() for p in golden_held_run.rglob("*") if p.is_file())
    assert written == sorted([*GOLDEN_HELD_PRODUCTS, "manifest.json"])


@pytest.mark.parametrize("name", sorted(GOLDEN_HELD_PRODUCTS))
def test_golden_held_run_product_digest(golden_held_run, name):
    assert hashlib.sha256((golden_held_run / name).read_bytes()).hexdigest() == GOLDEN_HELD_PRODUCTS[name]


# --- line endings ----------------------------------------------------------------------


def _text(path) -> bytes:
    """The text of an output file. PGM pixels and a PLY body are raw bytes,
    where 13 is data, not a line ending; a PLY header ends at "end_header\\n"."""
    if path.suffix == ".pgm":
        return b""
    data = path.read_bytes()
    return data.partition(b"end_header\n")[0] if path.suffix == ".ply" else data


def _text_files_with_cr(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file() and b"\r" in _text(p))


def test_tiles_output_has_no_carriage_returns(tmp_path):
    from conftest import flat_heightmap

    save_heightmap(flat_heightmap(40.0, n=11, cell_m=10.0), tmp_path / "dem.asc")
    out = tmp_path / "tiles"
    assert cli.main(["tiles", str(tmp_path / "dem.asc"), "--tile-size", "50", "--overlap", "5",
                     "--out", str(out)]) == 0
    assert (out / "tiles.csv").read_bytes().startswith(b"row,col,x0,y0,x1,y1,path\n")
    assert _text_files_with_cr(out) == []


def test_run_output_has_no_carriage_returns(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", str(REPO / "scenarios" / "demo.yaml"), "--out", str(out),
                     "--duration", "1.0"]) == 0
    suffixes = {p.suffix for p in out.rglob("*") if p.is_file()}
    assert {".csv", ".json", ".ply", ".pgm"} <= suffixes
    assert _text_files_with_cr(out) == []
