"""Triangle meshes with reproducible geometric distortion.

Two distortions are provided: midpoint subdivision (surface-preserving)
and bounded random vertex displacement controlled by an extent in
[0, 1]. Wavefront OBJ is the interchange format, with an optional
per-vertex RGB extension (``v x y z r g b``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .output import write_g17, write_ints


# Most triangles `distort` may make. Each subdivision level multiplies the
# count by 4: four levels of a 9,522-triangle terrain tile, 2.4 M triangles,
# peak at 375 MiB and write a 179 MB OBJ, so the bound keeps a run to a few
# GiB rather than ending in a MemoryError a few levels later.
MAX_TRIANGLES = 10_000_000


class MeshError(ValueError):
    """Invalid mesh data."""


class ObjParseError(MeshError):
    """Malformed OBJ file; message includes the line number."""


class TriMesh:
    """Indexed triangle mesh with optional per-vertex colors."""

    def __init__(self, vertices, triangles, colors=None):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise MeshError("triangle index out of range")
            a, b, c = self.triangles.T
            if np.any((a == b) | (b == c) | (a == c)):
                raise MeshError("degenerate triangle with repeated vertex index")
        if colors is not None:
            colors = np.asarray(colors, dtype=float).reshape(-1, 3)
            if len(colors) != len(self.vertices):
                raise MeshError("colors must match vertex count")
        self.colors = colors

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def bbox_diagonal(self) -> float:
        """The bounding box's diagonal: inf past the float range, NaN with a NaN coordinate."""
        if not len(self.vertices):
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
            return float(np.linalg.norm(span))

    def surface_area(self) -> float:
        v = self.vertices
        t = self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return float(0.5 * np.linalg.norm(cross, axis=1).sum())


@dataclass(frozen=True)
class DistortionParams:
    """Bounded-jitter parameters.

    ``scale`` is the displacement bound at extent 1; None defaults to 2%
    of the mesh bounding-box diagonal at application time.
    """

    extent: float
    scale: float | None = None
    seed: int = 0
    subdivision_levels: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.extent <= 1.0:
            raise MeshError(f"extent must be in [0, 1], got {self.extent}")
        if self.scale is not None and not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise MeshError(f"scale must be finite and >= 0, got {self.scale}")
        if self.seed < 0:
            raise MeshError(f"seed must be >= 0, got {self.seed}")
        if self.subdivision_levels < 0:
            raise MeshError("subdivision_levels must be >= 0")


def subdivide(mesh: TriMesh) -> TriMesh:
    """Split every triangle into 4 at edge midpoints.

    Shared edges produce one shared midpoint vertex, so the subdivided
    surface is geometrically identical to the input. Midpoints are
    appended after the input vertices in the order their edges first
    occur, walking triangles in order and each triangle's edges as
    (a, b), (b, c), (c, a); triangle t becomes children 4t..4t+3.
    """
    n = len(mesh.vertices)
    tris = mesh.triangles
    a, b, c = tris.T
    # Edge occurrences in walk order: triangle-major, then ab, bc, ca.
    start, end = tris.reshape(-1), np.roll(tris, -1, axis=1).reshape(-1)
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    # Group the occurrences of each edge with one stable sort of the keys:
    # a group's first entry is the edge's first occurrence in walk order.
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    first = order[head]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    # The first occurrences, in walk order, are the unique edges by first
    # occurrence; an edge's rank counts the first occurrences up to its own.
    is_first = np.zeros(len(lo), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first)[first] - 1
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    children = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    edge_lo, edge_hi = lo[is_first], hi[is_first]

    def with_midpoints(values):
        out = np.empty((len(values) + len(edge_lo), 3))
        out[:len(values)] = values
        # Each end halved before the sum, which cannot overflow; for normal
        # values a*0.5 + b*0.5 is (a + b)*0.5 bit for bit.
        # The edges index existing vertices; in its default mode take would
        # write to a temporary copy of out and copy it back.
        mid = values.take(edge_lo, axis=0, out=out[len(values):], mode="clip")
        mid *= 0.5
        half_hi = values.take(edge_hi, axis=0)
        half_hi *= 0.5
        mid += half_hi
        return out

    colors = None if mesh.colors is None else with_midpoints(mesh.colors)
    return TriMesh(with_midpoints(mesh.vertices), children, colors)


def _displacement_bound(mesh: TriMesh, params: DistortionParams) -> float:
    """The jitter's bound per axis, extent * scale: 0 at extent 0, whatever
    the mesh; MeshError when the draw's range [-bound, bound] is not finite."""
    if params.extent == 0.0:
        return 0.0
    diagonal = mesh.bbox_diagonal() if params.scale is None else None
    bound = params.extent * (params.scale if diagonal is None else 0.02 * diagonal)
    if not math.isfinite(2.0 * bound):
        source = f"scale {params.scale}" if diagonal is None else f"2% of the bounding-box diagonal {diagonal}"
        raise MeshError(f"no finite displacement bound: extent {params.extent} x {source}")
    return bound


def jitter_vertices(mesh: TriMesh, params: DistortionParams) -> TriMesh:
    """Displace each vertex by an independent uniform vector bounded by
    extent*scale per axis. Connectivity is unchanged; deterministic for a
    fixed seed; extent 0 returns the input unchanged."""
    bound = _displacement_bound(mesh, params)
    vertices = mesh.vertices.copy()
    if bound != 0.0:
        vertices += np.random.default_rng(params.seed).uniform(-bound, bound, size=vertices.shape)
    return TriMesh(vertices, mesh.triangles.copy(), None if mesh.colors is None else mesh.colors.copy())


def distort(mesh: TriMesh, params: DistortionParams) -> TriMesh:
    """Subdivide ``subdivision_levels`` times, then jitter. Refuses, before
    any work, a result of more than MAX_TRIANGLES triangles and a mesh
    whose jitter bound is not finite."""
    levels = params.subdivision_levels
    made = len(mesh.triangles) * 4**levels
    if made > MAX_TRIANGLES:
        raise MeshError(f"{levels} subdivision levels make {made} triangles from "
                        f"{len(mesh.triangles)}; distort makes at most {MAX_TRIANGLES}")
    _displacement_bound(mesh, params)
    out = mesh
    for _ in range(levels):
        out = subdivide(out)
    return jitter_vertices(out, params)


def load_obj(path) -> TriMesh:
    """Read an OBJ file: ``v`` records (x y z, with optional r g b) and
    ``f`` records; every other record type is ignored.

    Faces with more than three vertices are fan-triangulated. Texture and
    normal indices in ``f`` entries are ignored; indices must be positive
    and name a vertex defined on an earlier line.

    The text is read once, with universal newlines, and each line is
    sorted by its first whitespace token. All ``v`` bodies are then
    parsed by one ``np.loadtxt`` and all ``f`` bodies by another. A file
    that pass cannot take (polygon or ``a/b/c`` faces, mixed 3- and
    6-float vertices, tokens such as ``1_0`` that only ``float()`` and
    ``int()`` accept, and every error) is read again line by line, which
    names the line at fault. Both paths give the same mesh, bit for bit.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # Not str.splitlines(): that also breaks lines at \v, \f,
            # \x1c-\x1e, \x85, \u2028 and \u2029, which inside a line
            # are whitespace between tokens.
            lines = fh.read().split("\n")
    except UnicodeDecodeError as err:
        bad = err.object[err.start : err.end]
        raise ObjParseError(f"{path}: not a UTF-8 OBJ file: byte {bad!r}") from None
    mesh = _parse_bulk(lines)
    return mesh if mesh is not None else _parse_lines(path, lines)


def _parse_bulk(lines: list[str]) -> TriMesh | None:
    """The mesh of ``lines`` from one ``np.loadtxt`` per record kind, or
    None where `_parse_lines` must read it."""
    v_rows: list[str] = []
    f_rows: list[str] = []
    f_known: list[int] = []  # v lines before each f line
    for line in lines:
        parts = line.split(None, 1)
        if not parts:
            continue
        if parts[0] == "v":
            v_rows.append(parts[1] if len(parts) == 2 else "")
        elif parts[0] == "f":
            f_rows.append(parts[1] if len(parts) == 2 else "")
            f_known.append(len(v_rows))
    # loadtxt skips empty rows, and warns on a block without data.
    if not v_rows or "" in v_rows or "" in f_rows:
        return None
    try:
        verts = np.loadtxt(v_rows, dtype=np.float64, comments=None, ndmin=2)
        faces = (np.loadtxt(f_rows, dtype=np.int64, comments=None, ndmin=2) if f_rows
                 else np.zeros((0, 3), dtype=np.int64))
    except ValueError:
        return None
    if verts.shape[0] != len(v_rows) or verts.shape[1] not in (3, 6):
        return None
    if faces.shape != (len(f_rows), 3) or not (
        (faces > 0).all() and (faces <= np.array(f_known)[:, None]).all()
    ):
        return None
    colors = np.ascontiguousarray(verts[:, 3:]) if verts.shape[1] == 6 else None
    return TriMesh(np.ascontiguousarray(verts[:, :3]), faces - 1, colors)


def _parse_lines(path: Path, lines: list[str]) -> TriMesh:
    """The mesh of ``lines``, read one line at a time; errors name ``path:line``."""
    verts: list[list[float]] = []
    colors: list[list[float]] = []
    tris: list[tuple[int, int, int]] = []
    saw_color = False
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        tag = tokens[0]
        if tag == "v":
            if len(tokens) not in (4, 7):
                raise ObjParseError(f"{path}:{lineno}: vertex needs 3 or 6 floats")
            try:
                nums = [float(t) for t in tokens[1:]]
            except ValueError:
                raise ObjParseError(f"{path}:{lineno}: bad vertex number") from None
            verts.append(nums[:3])
            if len(nums) == 6:
                saw_color = True
                colors.append(nums[3:])
            else:
                colors.append([1.0, 1.0, 1.0])
        elif tag == "f":
            if len(tokens) < 4:
                raise ObjParseError(f"{path}:{lineno}: face needs at least 3 vertices")
            idx = []
            for tok in tokens[1:]:
                head = tok.split("/")[0]
                try:
                    k = int(head)
                except ValueError:
                    raise ObjParseError(f"{path}:{lineno}: bad face index {tok!r}") from None
                if k <= 0:
                    raise ObjParseError(f"{path}:{lineno}: only positive indices supported")
                if k > len(verts):
                    raise ObjParseError(f"{path}:{lineno}: face index {k} out of range")
                idx.append(k - 1)
            for a, b in zip(idx[1:-1], idx[2:]):
                tris.append((idx[0], a, b))
        # Other record types (vn, vt, o, g, usemtl, ...) are ignored.
    if not verts:
        raise ObjParseError(f"{path}: no vertices found")
    return TriMesh(np.array(verts), np.array(tris) if tris else np.zeros((0, 3), dtype=np.int64),
                   np.array(colors) if saw_color else None)


def save_obj(mesh: TriMesh, path) -> None:
    """Write an OBJ file; per-vertex colors use the x y z r g b extension.

    Floats are written as ``%.17g``, so identical meshes produce
    byte-identical files that read back bit for bit.
    """
    _write_obj(mesh, path, _face_text(mesh.triangles))


def _face_text(triangles: np.ndarray) -> bytes:
    """The ``f`` rows of an OBJ file for ``triangles``: 1-based indices."""
    buf = io.BytesIO()
    write_ints(buf, triangles + 1, b" ", prefix=b"f ")
    return buf.getvalue()


def _write_obj(mesh: TriMesh, path, faces: bytes) -> None:
    """Write ``mesh``'s vertex rows, then ``faces``, its `_face_text`, to ``path``."""
    rows = mesh.vertices if mesh.colors is None else np.hstack([mesh.vertices, mesh.colors])
    with open(path, "wb") as fh:
        write_g17(fh, rows, b" ", prefix=b"v ")
        fh.write(faces)


def unit_tetrahedron() -> TriMesh:
    """Closed tetrahedron used by tests and docs."""
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TriMesh(verts, tris)
