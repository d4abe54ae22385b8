import math
import warnings

import numpy as np
import pytest

from subsim import meshtools as mt


def single_triangle():
    return mt.TriMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])


def test_subdivide_single_triangle():
    out = mt.subdivide(single_triangle())
    assert out.num_vertices == 6
    assert out.num_triangles == 4


def test_subdivide_tetrahedron_euler_counts():
    # Closed mesh: V' = V + E = 4 + 6 = 10, F' = 4F = 16.
    out = mt.subdivide(mt.unit_tetrahedron())
    assert out.num_vertices == 10
    assert out.num_triangles == 16


def test_subdivide_preserves_surface():
    mesh = mt.unit_tetrahedron()
    out = mt.subdivide(mesh)
    # Every new vertex is an edge midpoint of the original mesh.
    originals = {tuple(v) for v in mesh.vertices}
    edges = set()
    for a, b, c in mesh.triangles:
        for i, j in ((a, b), (b, c), (c, a)):
            edges.add((min(i, j), max(i, j)))
    midpoints = {tuple(0.5 * (mesh.vertices[i] + mesh.vertices[j])) for i, j in edges}
    for v in out.vertices:
        assert tuple(v) in originals | midpoints


def test_subdivide_preserves_area():
    mesh = mt.unit_tetrahedron()
    out = mt.subdivide(mt.subdivide(mesh))
    assert out.surface_area() == pytest.approx(mesh.surface_area(), rel=1e-9)


def _subdivide_reference(mesh):
    """Dict-and-loop midpoint subdivision: the definition subdivide must match."""
    verts = list(mesh.vertices)
    colors = list(mesh.colors) if mesh.colors is not None else None
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            idx = len(verts)
            verts.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            if colors is not None:
                colors.append(0.5 * (mesh.colors[a] + mesh.colors[b]))
            midpoint[key] = idx
        return idx

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return mt.TriMesh(np.array(verts), np.array(tris), np.array(colors) if colors is not None else None)


def _random_open_lattice(rng, rows=9, cols=12):
    """Jittered grid with random holes, triangle order and winding, and colors."""
    node = np.arange(rows * cols).reshape(rows, cols)
    v00, v10 = node[:-1, :-1].ravel(), node[:-1, 1:].ravel()
    v01, v11 = node[1:, :-1].ravel(), node[1:, 1:].ravel()
    tris = np.concatenate([np.stack([v00, v10, v11], 1), np.stack([v00, v11, v01], 1)])
    tris = tris[rng.uniform(size=len(tris)) > 0.2]
    flip = rng.uniform(size=len(tris)) < 0.5
    tris[flip] = tris[flip][:, ::-1]
    tris = tris[rng.permutation(len(tris))]
    gx, gy = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]) * 1000.0 + 1.3e7
    verts = verts + rng.uniform(-300.0, 300.0, verts.shape)
    return mt.TriMesh(verts, tris, colors=rng.uniform(0.0, 1.0, verts.shape))


def _assert_same_mesh(got, want):
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)
    if want.colors is None:
        assert got.colors is None
    else:
        assert np.array_equal(got.colors, want.colors)


def test_subdivide_matches_reference_on_tetrahedron():
    _assert_same_mesh(mt.subdivide(mt.unit_tetrahedron()), _subdivide_reference(mt.unit_tetrahedron()))


def test_subdivide_matches_reference_on_open_lattice_with_colors():
    rng = np.random.default_rng(77)
    for _ in range(5):
        mesh = _random_open_lattice(rng)
        _assert_same_mesh(mt.subdivide(mesh), _subdivide_reference(mesh))


def test_subdivide_midpoints_do_not_overflow_near_the_float_limit():
    mesh = mt.TriMesh([[1e308, 0.0, 0.0], [1.5e308, 0.0, 0.0], [1e308, 1.0, -1.5e308]], [[0, 1, 2]],
                      colors=[[1e308, 0.0, 1.0], [1.7e308, 0.0, 1.0], [1.7e308, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = mt.subdivide(mesh)
    assert np.isfinite(out.vertices).all() and np.isfinite(out.colors).all()
    assert out.vertices[3:].tolist() == [[1.25e308, 0.0, 0.0], [1.25e308, 0.5, -0.75e308], [1e308, 0.5, -0.75e308]]
    assert out.colors[4].tolist() == [1.7e308, 0.0, 1.0]


def test_subdivide_midpoints_are_the_halved_sums_bit_for_bit():
    """Each end is halved before the sum; for normal values that rounds as
    the reference's 0.5 * (a + b), bit for bit, at every scale."""
    rng = np.random.default_rng(79)
    for _ in range(5):
        lattice = _random_open_lattice(rng)
        mesh = mt.TriMesh(lattice.vertices * 10.0 ** rng.integers(-300, 300, 3), lattice.triangles,
                          lattice.colors * 10.0 ** rng.integers(-300, 300))
        _assert_same_mesh(mt.subdivide(mesh), _subdivide_reference(mesh))


def test_subdivide_matches_reference_over_two_levels():
    mesh = _random_open_lattice(np.random.default_rng(78))
    _assert_same_mesh(mt.subdivide(mt.subdivide(mesh)),
                      _subdivide_reference(_subdivide_reference(mesh)))
    tet = mt.unit_tetrahedron()
    _assert_same_mesh(mt.subdivide(mt.subdivide(tet)), _subdivide_reference(_subdivide_reference(tet)))


def test_subdivide_matches_reference_on_edges_listed_both_ways():
    """Each edge's lower and higher end are taken from its two end columns,
    whichever way round a triangle lists it: edge {1, 2} occurs as (1, 2),
    (2, 1) and (1, 2), edge {0, 2} as (2, 0) and (0, 2), and it is the
    first occurrence that places each midpoint."""
    verts = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [0.0, 4.0, 2.0], [4.0, 4.0, 3.0], [2.0, -4.0, 5.0]])
    tris = [[0, 1, 2], [2, 1, 3], [1, 2, 4], [0, 2, 3], [3, 4, 0]]
    mesh = mt.TriMesh(verts, tris, colors=verts[::-1] / 5.0)
    out = mt.subdivide(mesh)
    _assert_same_mesh(out, _subdivide_reference(mesh))
    # midpoints in first-occurrence order: {0,1}, {1,2}, {2,0}, {1,3}, {3,2}, {2,4}, ...
    assert np.array_equal(out.vertices[5:11], 0.5 * (verts[[0, 1, 2, 1, 3, 2]] + verts[[1, 2, 0, 3, 2, 4]]))
    _assert_same_mesh(mt.subdivide(out), _subdivide_reference(_subdivide_reference(mesh)))


def test_subdivide_without_triangles_keeps_vertices():
    mesh = mt.TriMesh([[0.0, 1.0, 2.0]], np.zeros((0, 3)), colors=[[0.5, 0.5, 0.5]])
    out = mt.subdivide(mesh)
    assert np.array_equal(out.vertices, mesh.vertices)
    assert out.num_triangles == 0
    assert np.array_equal(out.colors, mesh.colors)


def test_jitter_extent_zero_is_identity():
    mesh = mt.unit_tetrahedron()
    out = mt.jitter_vertices(mesh, mt.DistortionParams(extent=0.0, scale=0.5, seed=3))
    assert np.array_equal(out.vertices, mesh.vertices)
    assert np.array_equal(out.triangles, mesh.triangles)


def test_jitter_extent_zero_leaves_non_finite_vertices_as_they_are():
    mesh = mt.TriMesh([[0.0, 0.0, 0.0], [1.0, math.nan, 0.0], [0.0, 1.0, -math.inf]], [[0, 1, 2]])
    for scale in (None, 0.5):
        out = mt.jitter_vertices(mesh, mt.DistortionParams(extent=0.0, scale=scale, seed=3))
        assert out.vertices.tobytes() == mesh.vertices.tobytes()


def test_jitter_refuses_a_draw_range_past_the_float_range():
    mesh = mt.unit_tetrahedron()
    largest = mt.jitter_vertices(mesh, mt.DistortionParams(extent=1.0, scale=8e307, seed=3))
    assert np.all(np.isfinite(largest.vertices))
    with pytest.raises(mt.MeshError, match="^no finite displacement bound: extent 1.0 x scale 1e\\+308$"):
        mt.jitter_vertices(mesh, mt.DistortionParams(extent=1.0, scale=1e308, seed=3))


def test_jitter_bound_holds():
    rng = np.random.default_rng(41)
    mesh = mt.TriMesh(rng.normal(size=(200, 3)), [[0, 1, 2]])
    for trial in range(50):
        extent = rng.uniform(0.0, 1.0)
        out = mt.jitter_vertices(mesh, mt.DistortionParams(extent=extent, scale=0.1, seed=trial))
        disp = np.abs(out.vertices - mesh.vertices)
        assert disp.max() <= extent * 0.1 + 1e-15


def test_jitter_deterministic_and_seed_sensitive():
    mesh = mt.unit_tetrahedron()
    p = mt.DistortionParams(extent=1.0, scale=0.1, seed=9)
    a = mt.jitter_vertices(mesh, p)
    b = mt.jitter_vertices(mesh, p)
    c = mt.jitter_vertices(mesh, mt.DistortionParams(extent=1.0, scale=0.1, seed=10))
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)


def test_jitter_default_scale_uses_bbox():
    mesh = mt.unit_tetrahedron()  # bbox diagonal = 2*sqrt(3)
    out = mt.jitter_vertices(mesh, mt.DistortionParams(extent=1.0, seed=0))
    disp = np.abs(out.vertices - mesh.vertices)
    assert disp.max() <= 0.02 * mesh.bbox_diagonal() + 1e-15


def test_distort_pipeline_deterministic_obj_bytes(tmp_path):
    mesh = mt.unit_tetrahedron()
    params = mt.DistortionParams(extent=0.7, scale=0.05, seed=12, subdivision_levels=2)
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    mt.save_obj(mt.distort(mesh, params), p1)
    mt.save_obj(mt.distort(mesh, params), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_connectivity_stays_valid():
    mesh = mt.distort(
        mt.unit_tetrahedron(), mt.DistortionParams(extent=1.0, scale=0.2, seed=2, subdivision_levels=2)
    )
    assert mesh.triangles.min() >= 0
    assert mesh.triangles.max() < mesh.num_vertices
    a, b, c = mesh.triangles.T
    assert not np.any((a == b) | (b == c) | (a == c))


def test_extent_out_of_range_rejected():
    with pytest.raises(mt.MeshError):
        mt.DistortionParams(extent=1.5)


# --- OBJ I/O --------------------------------------------------------------------


def test_load_cube_obj(tmp_path):
    verts = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    faces = [
        (1, 2, 3), (1, 3, 4), (5, 7, 6), (5, 8, 7),
        (1, 5, 6), (1, 6, 2), (2, 6, 7), (2, 7, 3),
        (3, 7, 8), (3, 8, 4), (4, 8, 5), (4, 5, 1),
    ]
    path = tmp_path / "cube.obj"
    lines = [f"v {x} {y} {z}" for x, y, z in verts] + [f"f {a} {b} {c}" for a, b, c in faces]
    path.write_text("\n".join(lines) + "\n")
    mesh = mt.load_obj(path)
    assert mesh.num_vertices == 8
    assert mesh.num_triangles == 12


def test_quad_face_fan_triangulated(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = mt.load_obj(path)
    assert mesh.num_triangles == 2


def test_save_load_round_trip(tmp_path):
    mesh = mt.distort(mt.unit_tetrahedron(), mt.DistortionParams(extent=0.5, scale=0.1, seed=1))
    path = tmp_path / "rt.obj"
    mt.save_obj(mesh, path)
    back = mt.load_obj(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_colors_round_trip(tmp_path):
    mesh = mt.TriMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], colors=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    path = tmp_path / "c.obj"
    mt.save_obj(mesh, path)
    back = mt.load_obj(path)
    assert np.array_equal(back.colors, mesh.colors)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 oops\n")
    with pytest.raises(mt.ObjParseError, match=":4"):
        mt.load_obj(path)


def test_face_index_out_of_range(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(mt.ObjParseError, match="out of range"):
        mt.load_obj(path)


def test_degenerate_triangle_rejected():
    with pytest.raises(mt.MeshError):
        mt.TriMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 1]])


def test_distort_refuses_more_than_max_triangles_before_subdividing(monkeypatch):
    def no_subdivide(mesh):
        raise AssertionError("subdivided before the size check")

    monkeypatch.setattr(mt, "subdivide", no_subdivide)
    params = mt.DistortionParams(extent=0.5, subdivision_levels=30)
    with pytest.raises(mt.MeshError, match=f"4611686018427387904 triangles from 4; distort makes at most {mt.MAX_TRIANGLES}"):
        mt.distort(mt.unit_tetrahedron(), params)


def test_distort_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(mt, "MAX_TRIANGLES", 64)
    tet = mt.unit_tetrahedron()
    assert mt.distort(tet, mt.DistortionParams(extent=0.0, subdivision_levels=2)).num_triangles == 64
    with pytest.raises(mt.MeshError, match="make 256 triangles"):
        mt.distort(tet, mt.DistortionParams(extent=0.0, subdivision_levels=3))


# --- load_obj against the per-line reader it replaced --------------------


def _load_obj_reference(path):
    """The per-line OBJ reader: the definition load_obj must match."""
    verts, colors, tris = [], [], []
    saw_color = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                tag = tokens[0]
                if tag == "v":
                    if len(tokens) not in (4, 7):
                        raise mt.ObjParseError(f"{path}:{lineno}: vertex needs 3 or 6 floats")
                    try:
                        nums = [float(t) for t in tokens[1:]]
                    except ValueError:
                        raise mt.ObjParseError(f"{path}:{lineno}: bad vertex number") from None
                    verts.append(nums[:3])
                    saw_color = saw_color or len(nums) == 6
                    colors.append(nums[3:] if len(nums) == 6 else [1.0, 1.0, 1.0])
                elif tag == "f":
                    if len(tokens) < 4:
                        raise mt.ObjParseError(f"{path}:{lineno}: face needs at least 3 vertices")
                    idx = []
                    for tok in tokens[1:]:
                        try:
                            k = int(tok.split("/")[0])
                        except ValueError:
                            raise mt.ObjParseError(f"{path}:{lineno}: bad face index {tok!r}") from None
                        if k <= 0:
                            raise mt.ObjParseError(f"{path}:{lineno}: only positive indices supported")
                        if k > len(verts):
                            raise mt.ObjParseError(f"{path}:{lineno}: face index {k} out of range")
                        idx.append(k - 1)
                    tris.extend((idx[0], a, b) for a, b in zip(idx[1:-1], idx[2:]))
    except UnicodeDecodeError as err:
        bad = err.object[err.start : err.end]
        raise mt.ObjParseError(f"{path}: not a UTF-8 OBJ file: byte {bad!r}") from None
    if not verts:
        raise mt.ObjParseError(f"{path}: no vertices found")
    return mt.TriMesh(np.array(verts), np.array(tris) if tris else np.zeros((0, 3), dtype=np.int64),
                      np.array(colors) if saw_color else None)


def _outcome(read, path):
    """Everything a reader gives: each array's dtype, shape, layout and
    bytes (so NaN payloads and -0.0 count), or the error's type and text."""
    try:
        mesh = read(path)
    except mt.MeshError as err:
        return type(err).__name__, str(err)
    if mesh is None:
        return None

    def exact(a):
        return None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())

    return exact(mesh.vertices), exact(mesh.triangles), exact(mesh.colors)


_ODD_FLOATS = [[-0.0, 5e-324, 1e16], [1.3e7 + 0.1, -1e-5, 2.0**-1074 * 3],
               [math.nan, math.inf, -math.inf], [0.1, 0.2, 0.30000000000000004]]
_TRI = b"v 0 0 0\nv 1 0 0\nv 0 1 0\n"

# name: (file bytes, or a mesh to save_obj, and whether the bulk parse takes the file)
OBJ_CORPUS = {
    "saved-colors": (_random_open_lattice(np.random.default_rng(5)), True),
    "saved-plain": (mt.TriMesh(_random_open_lattice(np.random.default_rng(6)).vertices,
                               _random_open_lattice(np.random.default_rng(6)).triangles), True),
    "saved-odd-floats": (mt.TriMesh(_ODD_FLOATS, [[0, 1, 2], [1, 3, 2]], colors=np.flipud(_ODD_FLOATS)), True),
    "saved-tetrahedron": (mt.unit_tetrahedron(), True),
    "vertices-only": (_TRI, True),
    "one-vertex-one-row": (b"v 1 2 3", True),
    "mixed-3-and-6-floats": (b"v 0 0 0 1 0 0\nv 1 0 0\nv 0 1 0 0 0 1\nf 1 2 3\n", False),
    "quad": (b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n", False),
    "slashed-faces": (_TRI + b"vt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\nf 1//1 3//1 2//1\n", False),
    "comments-blanks-vn-o": (b"# made by hand\n\no tri\n" + _TRI.replace(b"\n", b"\n\n", 1)
                             + b"vn 0 0 1\n#v 9 9 9\n   # indented\nvt 0.5 0.5\ng g1\nusemtl m\nf 1 2 3\n", True),
    "tab-and-blank-tags": (b"v\t0 0 0\n  v 1\t0 0\n\tv  0 1 0  \n \tf\t1 2\t3\t\n", True),
    "other-tags-like-v": (_TRI + b"vv 1 2 3\nv1 2 3 4\nff 1 2 3\nf1 2 3\nf 3 2 1\n", True),
    "crlf": (_TRI.replace(b"\n", b"\r\n") + b"f 1 2 3\r\n", True),
    "lone-cr": (_TRI.replace(b"\n", b"\r") + b"f 1 2 3", True),
    "mixed-line-ends": (b"v 0 0 0\r\nv 1 0 0\rv 0 1 0\nf 1 2 3\r\n\r\n", True),
    "formfeed-inside-line": (b"v 0\x0c0 0\nv 1 0\x0b0\nv 0 1 0\x0c\nf 1\x0c2 3\n", True),
    "unicode-separators": ("v 0\x1c0 0\nv 1\x850 0\nv 0\u20281\u20290\nf 1\xa02 3\n".encode(), True),
    "underscore-floats": (b"v 1_0 0 0\nv 0 1_0 0\nv 0 0 1_0\nf 1 2 3\n", False),
    "underscore-faces": (b"v 0 0 0\n" * 9 + b"v 1 0 0\nv 0 1 0\nf 1 1_0 1_1\n", False),
    "non-ascii-digits": ("v ٣ 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n".encode(), False),
    "face-before-its-vertex": (b"v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", False),
    "no-faces": (b"# points\n" + _TRI, True),
    # Every error the reader raises.
    "short-vertex": (b"v 0 0 0\nv 1 0\n", False),
    "bare-v": (_TRI + b"v\n", False),
    "bad-vertex-number": (b"v 0 0 0\nv 1 0 x\n", False),
    "vertex-with-trailing-comment": (b"v 0 0 0 # origin\n", False),
    "short-face": (_TRI + b"f 1 2\n", False),
    "bare-f": (_TRI + b"f\n", False),
    "bad-face-index": (_TRI + b"f 1 2 oops\n", False),
    "float-face-index": (_TRI + b"f 1.0 2 3\n", False),
    "zero-face-index": (_TRI + b"f 0 1 2\n", False),
    "negative-face-index": (_TRI + b"f -1 -2 -3\n", False),
    "face-index-out-of-range": (_TRI + b"f 1 2 4\n", False),
    "face-index-beyond-int64": (_TRI + b"f 1 2 99999999999999999999\n", False),
    "degenerate-face": (_TRI + b"f 1 1 2\n", True),
    "no-vertices": (b"# nothing here\n\n", False),
    "empty-file": (b"", False),
    "not-utf8": (_TRI + b"# made by \xff\n", False),
    "crlf-bad-face-on-line-3": (b"v 0 0 0\r\nv 1 0 0\r\nf 1 2 x\r\nv 0 1 0\r\n", False),
}


@pytest.mark.parametrize("name", list(OBJ_CORPUS))
def test_load_obj_matches_per_line_reference(tmp_path, name):
    data, bulk = OBJ_CORPUS[name]
    path = tmp_path / "m.obj"
    if isinstance(data, mt.TriMesh):
        mt.save_obj(data, path)
    else:
        path.write_bytes(data)
    want = _outcome(_load_obj_reference, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on a block without data
        assert _outcome(mt.load_obj, path) == want
    # Each path on its own: the bulk parse takes the files the corpus says
    # it takes (the rest it gives up, returning None), and the line loop
    # reads every file.
    if name != "not-utf8":
        lines = path.read_text(encoding="utf-8").split("\n")
        assert _outcome(lambda _: mt._parse_bulk(lines), path) == (want if bulk else None)
        assert _outcome(lambda _: mt._parse_lines(path, lines), path) == want


def test_load_obj_reads_saved_meshes_without_the_line_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(mt, "_parse_lines", lambda path, lines: pytest.fail("read line by line"))
    for name, mesh in [("plain.obj", mt.unit_tetrahedron()),
                       ("colors.obj", _random_open_lattice(np.random.default_rng(3)))]:
        mt.save_obj(mesh, tmp_path / name)
        _assert_same_mesh(mt.load_obj(tmp_path / name), mesh)


def test_load_obj_matches_reference_on_random_lines(tmp_path):
    """Random files over a small alphabet of tags, tokens and separators."""
    rng = np.random.default_rng(15)
    tags = ["v", "v", "v", "f", "f", "vn", "#", "o", "", " v", "\tf"]
    tokens = ["1", "2", "3", "0", "-1", "1.5", "-0.0", "1e3", "nan", "inf", "1_0", "x", "1/2", "+2", "07"]
    seps = [" ", " ", " ", "\t", "\x0c", "\x0b", "\x1c", "\xa0", "  "]
    ends = ["\n", "\n", "\r\n", "\r"]
    bulk = 0
    for case in range(300):
        lines = []
        for _ in range(rng.integers(1, 9)):
            tag = str(rng.choice(tags))
            width = 3 if tag.strip() in ("v", "f") and rng.uniform() < 0.7 else int(rng.integers(0, 7))
            pool = tokens[:4] if rng.uniform() < 0.6 else tokens
            body = [str(rng.choice(pool)) for _ in range(width)]
            lines.append(str(rng.choice(seps)).join([tag] + body) + str(rng.choice(ends)))
        path = tmp_path / f"r{case}.obj"
        path.write_bytes("".join(lines).encode("utf-8"))
        assert _outcome(mt.load_obj, path) == _outcome(_load_obj_reference, path), "".join(lines)
        lines = path.read_text(encoding="utf-8").split("\n")
        bulk += _outcome(lambda _: mt._parse_bulk(lines), path) is not None
    assert bulk >= 30  # the bulk parse is exercised, not only the line loop
