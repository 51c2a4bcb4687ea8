"""Triangulated 2D domains with an extracted closed boundary polyline.

A mesh couples the bulk triangulation of a planar domain with the induced
surface mesh (the boundary cycle) and the trace map between surface node
numbering and bulk vertex numbering.  Meshes are immutable after
construction and validated against the structural invariants below.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from .errors import InvalidArgumentError, InvariantViolationError, ParseError

MESH_FORMAT_HEADER = "bse-mesh 1"


@dataclass(frozen=True)
class Measures:
    """Discrete measures of the domain: triangulated area and boundary length."""

    area: float
    perimeter: float


@dataclass(frozen=True, eq=False)
class Mesh:
    """Bulk triangulation plus its boundary polyline.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Bulk vertex coordinates.
    triangles : (nt, 3) int array
        Counterclockwise vertex index triples.
    surface_nodes : (ns,) int array
        Bulk vertex indices along the boundary, in cycle order.  Entry ``i``
        is the bulk index of surface node ``i`` (the trace map).
    parent : Mesh or None
        The mesh this one refines (set by refinement only).
    prolongation : scipy.sparse CSR matrix or None
        Nodal interpolation from the parent's bulk vertices and then surface
        nodes to this mesh's: each new node averages the two it bisects.
    cache : dict
        The sparse matrices of the basic forms, which
        ``assembly.Discretization`` keeps.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    surface_nodes: np.ndarray
    _measures: Measures = field(init=False, repr=False, compare=False)
    parent: "Mesh | None" = field(default=None, repr=False, compare=False)
    prolongation: sp.csr_matrix | None = field(default=None, repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        triangles = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        surface = np.ascontiguousarray(np.asarray(self.surface_nodes, dtype=np.int64))
        for arr, name in ((vertices, "vertices"), (triangles, "triangles"), (surface, "surface_nodes")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_measures", _validate(vertices, triangles, surface))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_surface(self):
        return self.surface_nodes.shape[0]

    @property
    def surface_edges(self):
        """Boundary edges as (ns, 2) bulk-index pairs in cycle order."""
        s = self.surface_nodes
        return np.column_stack([s, np.roll(s, -1)])

    def surface_lengths(self):
        """Length of each boundary edge, in cycle order."""
        e = self.surface_edges
        d = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def surface_arclength(self):
        """Cumulative arclength coordinate of each surface node (starts at 0)."""
        ell = self.surface_lengths()
        return np.concatenate(([0.0], np.cumsum(ell[:-1])))


def measures(mesh: Mesh) -> Measures:
    """Triangulated area |Omega_h| and boundary length |Gamma_h|."""
    return mesh._measures


def _signed_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def _edge_keys(triangles, nv):
    """Undirected edge (a, b) of each triangle side as the int64 key
    min*nv + max; row i holds the sides (0,1), (1,2), (2,0) of triangle i."""
    a = triangles
    b = np.roll(triangles, -1, axis=1)
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _validate(vertices, triangles, surface):
    """Check the mesh invariants and return the mesh's measures."""
    nv = vertices.shape[0]
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise InvariantViolationError(f"vertex {bad[0]} has non-finite coordinates {vertices[bad[0]]}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise InvariantViolationError("triangle index out of range")
    if surface.size and (surface.min() < 0 or surface.max() >= nv):
        raise InvariantViolationError("surface index out of range")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        areas = _signed_areas(vertices, triangles)
        d = vertices[np.roll(surface, -1)] - vertices[surface]
        m = Measures(area=float(np.sum(areas)), perimeter=float(np.sum(np.hypot(d[:, 0], d[:, 1]))))
    bad = np.flatnonzero(~((areas > 0.0) & (areas < np.inf)))  # NaN fails both
    if bad.size:
        raise InvariantViolationError(
            f"triangle {bad[0]} has signed area {areas[bad[0]]:.3e}, not positive and finite")
    if not np.isfinite([m.area, m.perimeter]).all():
        raise InvariantViolationError(f"mesh measures overflow: {m}")
    surface_set = np.unique(surface)
    if len(surface_set) != len(surface):
        raise InvariantViolationError("surface cycle visits a node twice")
    # sorted unique edges and the number of incident triangles of each
    keys, counts = np.unique(_edge_keys(triangles, nv), return_counts=True)
    if np.any(counts > 2):
        raise InvariantViolationError("non-manifold edge (more than two incident triangles)")
    boundary_edges = keys[counts == 1]
    cycle_edges = np.unique(_edge_keys(surface[None, :], nv))
    if len(cycle_edges) != len(surface):
        raise InvariantViolationError("surface cycle has a repeated edge")
    boundary_vertices = np.unique(np.concatenate([boundary_edges // nv, boundary_edges % nv]))
    if not np.array_equal(boundary_vertices, surface_set):
        raise InvariantViolationError("trace map is not a bijection onto the boundary vertices")
    if not np.array_equal(cycle_edges, boundary_edges):
        raise InvariantViolationError(
            "surface cycle does not match the triangulation boundary; "
            "boundary must be a single closed cycle")
    # Euler relation for a triangulated disk-like domain
    euler = nv - len(keys) + triangles.shape[0]
    if euler != 1:
        raise InvariantViolationError(f"Euler characteristic V-E+T = {euler}, expected 1")
    return m


def max_edge_length(mesh: Mesh) -> float:
    v = mesh.vertices
    t = mesh.triangles
    lengths = [np.linalg.norm(v[t[:, i]] - v[t[:, j]], axis=1) for i, j in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(lengths))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_disk(n_boundary: int, refine: int = 0) -> Mesh:
    """Quasi-uniform triangulation of the unit disk.

    The boundary is the regular inscribed ``n_boundary``-gon.  Interior
    nodes sit on concentric rings spaced to match the boundary edge length;
    each refinement level quadrisects every triangle and projects new
    boundary midpoints back onto the unit circle, doubling the surface
    node count.
    """
    if n_boundary < 8:
        raise InvalidArgumentError(f"n_boundary must be >= 8, got {n_boundary}")
    if refine < 0:
        raise InvalidArgumentError(f"refine must be >= 0, got {refine}")
    # ring spacing ~1.9x the boundary edge keeps dense-eigensolver dimensions
    # tractable while the max-angle condition preserves O(h^2) convergence
    n_rings = max(1, round(n_boundary / 12.0))
    pts = [(0.0, 0.0)]
    ring_counts = []
    for j in range(1, n_rings + 1):
        radius = j / n_rings
        count = n_boundary if j == n_rings else max(6, round(n_boundary * j / n_rings))
        ring_counts.append(count)
        offset = 0.5 * (j % 2)  # stagger alternate rings for triangle quality
        ang = 2.0 * np.pi * (np.arange(count) + offset) / count
        pts.extend(zip(radius * np.cos(ang), radius * np.sin(ang)))
    points = np.array(pts)
    tri = Delaunay(points)
    triangles = _orient_ccw(points, tri.simplices.astype(np.int64))
    surface = np.arange(len(points) - n_boundary, len(points), dtype=np.int64)
    mesh = Mesh(points, triangles, surface)
    for _ in range(refine):
        mesh = _refine(mesh)
    return mesh


def generate_square(n_per_side: int) -> Mesh:
    """Structured right-triangle grid on the unit square [0,1]^2."""
    if n_per_side < 2:
        raise InvalidArgumentError(f"n_per_side must be >= 2, got {n_per_side}")
    n = n_per_side
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    # vertex (i, j) is j*(n+1) + i; cells row by row, two triangles each, with
    # a consistent diagonal direction that keeps refinements nested
    i = np.arange(n)
    v00 = ((n + 1) * i[:, None] + i[None, :]).ravel()
    triangles = np.column_stack([v00, v00 + 1, v00 + n + 2, v00, v00 + n + 2, v00 + n + 1])
    # counterclockwise: bottom, right, top and left side
    surface = np.concatenate([i, (n + 1) * i + n, (n + 1) * n + n - i, (n + 1) * (n - i)])
    return Mesh(vertices, triangles.reshape(-1, 3), surface)


def _orient_ccw(vertices, triangles):
    areas = _signed_areas(vertices, triangles)
    flipped = triangles.copy()
    neg = areas < 0
    flipped[neg, 1], flipped[neg, 2] = triangles[neg, 2], triangles[neg, 1]
    return flipped


def _refine(mesh: Mesh) -> Mesh:
    """Quadrisect every triangle; boundary midpoints move onto the unit circle.

    Edge midpoints are numbered after the old vertices in the order their
    edges first occur, triangle by triangle and side (0,1), (1,2), (2,0).
    Surface node ``i`` becomes ``2i``; the midpoint after it is ``2i + 1``.
    """
    nv, nt = mesh.n_vertices, mesh.n_triangles
    keys = _edge_keys(mesh.triangles, nv).reshape(-1)
    edges, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    number = np.empty(len(edges), dtype=np.int64)
    number[np.argsort(first)] = np.arange(nv, nv + len(edges))
    mids = number[inverse].reshape(nt, 3)

    ends = keys[np.sort(first)]  # edge keys in midpoint order
    lo, hi = ends // nv, ends % nv
    points = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
    surface_keys = _edge_keys(mesh.surface_nodes[None, :], nv).reshape(-1)
    on_boundary = np.isin(ends, surface_keys)
    p = points[on_boundary]
    points[on_boundary] = p / np.hypot(p[:, 0], p[:, 1])[:, None]

    i0, i1, i2 = mesh.triangles.T
    m01, m12, m20 = mids.T
    new_tris = np.stack([i0, m01, m20, m01, i1, m12, m20, m12, i2, m01, m12, m20],
                        axis=1).reshape(-1, 3)
    new_surface = np.column_stack(
        [mesh.surface_nodes, number[np.searchsorted(edges, surface_keys)]]).reshape(-1)
    # prolongation rows: old vertices, midpoints, then surface nodes 2i and 2i + 1
    ns, m, j = mesh.n_surface, len(ends), np.arange(mesh.n_surface)
    counts = np.concatenate([np.ones(nv, dtype=np.int64), np.full(m, 2), np.tile([1, 2], ns)])
    cols = np.concatenate([np.arange(nv), np.column_stack([lo, hi]).ravel(),
                           nv + np.column_stack([j, j, (j + 1) % ns]).ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * m, 0.5), np.tile([1.0, 0.5, 0.5], ns)])
    prolongation = sp.csr_matrix((vals, cols, np.concatenate([[0], np.cumsum(counts)])),
                                 shape=(nv + m + 2 * ns, nv + ns))
    return Mesh(np.concatenate([mesh.vertices, points]), new_tris, new_surface,
                parent=mesh, prolongation=prolongation)


# ---------------------------------------------------------------------------
# Plain-text files
# ---------------------------------------------------------------------------

def table(*columns, sep=" ", end="\n"):
    """Equal-length columns as text, one line per row: integers in decimal,
    floats with 17 significant digits (they read back as the same double).
    Every text artifact is written by it, one ``%`` per block of 4096 rows:
    one ``%`` over a whole refine-5 mesh raised the peak RSS of the write by 16 MB."""
    row = sep.join("%d" if np.asarray(c).dtype.kind in "iu" else "%.17g" for c in columns) + end
    values = np.column_stack(columns)
    blocks = (values[i:i + 4096] for i in range(0, len(values), 4096))
    return "".join(row * len(b) % tuple(b.ravel().tolist()) for b in blocks)


def write_mesh(mesh: Mesh, path):
    """Write the text format: header, vertices, triangles, surface cycle."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines([f"{MESH_FORMAT_HEADER}\n",
                       f"vertices {mesh.n_vertices}\n", table(*mesh.vertices.T),
                       f"triangles {mesh.n_triangles}\n", table(*mesh.triangles.T),
                       f"surface {mesh.n_surface}\n", table(mesh.surface_nodes)])


def read_mesh(path) -> Mesh:
    """Parse the text format; raises ParseError with a line number on bad input."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError("non-ASCII byte", line=data.count(b"\n", 0, exc.start) + 1) from None
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError("unexpected end of file", line=len(lines))
        pos += 1
        return lines[pos - 1].strip(), pos

    header, ln = next_line()
    if header != MESH_FORMAT_HEADER:
        raise ParseError(f"expected header '{MESH_FORMAT_HEADER}'", line=ln)

    def section(name):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 2 or parts[0] != name:
            raise ParseError(f"expected '{name} N'", line=ln)
        try:
            count = int(parts[1])
        except ValueError:
            count = -1
        if not 0 <= count <= len(lines) - pos:  # checked before the section is allocated
            raise ParseError(f"bad count in '{name}' section: {len(lines) - pos} lines left", line=ln)
        return count

    nv = section("vertices")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 2:
            raise ParseError("expected 'x y'", line=ln)
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ParseError("bad float in vertex line", line=ln) from None

    nt = section("triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 3:
            raise ParseError("expected 'i j k'", line=ln)
        try:
            triangles[i] = [int(p) for p in parts]
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise ParseError("bad index in triangle line", line=ln) from None

    ns = section("surface")
    surface = np.empty(ns, dtype=np.int64)
    for i in range(ns):
        text, ln = next_line()
        try:
            surface[i] = int(text)
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise ParseError("bad index in surface line", line=ln) from None

    if any(text.strip() for text in lines[pos:]):
        raise ParseError("unexpected content after the surface section", line=next_line()[1])
    return Mesh(vertices, triangles, surface)
