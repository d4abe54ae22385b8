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


def test_subdivide_matches_reference_over_two_levels():
    mesh = _random_open_lattice(np.random.default_rng(78))
    _assert_same_mesh(mt.subdivide(mt.subdivide(mesh)),
                      _subdivide_reference(_subdivide_reference(mesh)))
    tet = mt.unit_tetrahedron()
    _assert_same_mesh(mt.subdivide(mt.subdivide(tet)), _subdivide_reference(_subdivide_reference(tet)))


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
