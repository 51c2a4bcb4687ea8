"""Triangulated 2D domains with an extracted closed boundary polyline.

A mesh couples the bulk triangulation of a planar domain with the induced
surface mesh (the boundary cycle) and the trace map between surface node
numbering and bulk vertex numbering.  Meshes are immutable; ``Mesh(...)``
checks every invariant (``_validate``), ``_refine`` only its children's geometry.
"""

import functools
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
    """Bulk triangulation plus its boundary polyline, checked for every
    invariant, with or without ``parent``, unless ``_refine`` made it.

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
    x, y = vertices.take(triangles, axis=0).T  # (3, nt) each; take gathers rows 3-5x faster than []
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))


def _edge_keys(triangles, nv):
    """Undirected edge (a, b) of each triangle side as the int64 key
    min*nv + max; row i holds the sides (0,1), (1,2), (2,0) of triangle i."""
    a = triangles
    b = np.roll(triangles, -1, axis=1)
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _validate(vertices, triangles, surface, topology=True):
    """Check the mesh invariants and return the mesh's measures; without
    ``topology`` only finite coordinates, areas and measures (``_refine``)."""
    nv = vertices.shape[0]
    bad = np.flatnonzero(~np.isfinite(vertices)) // vertices.shape[1]  # rows with a non-finite value
    if bad.size:
        raise InvariantViolationError(f"vertex {bad[0]} has non-finite coordinates {vertices[bad[0]]}")
    if topology and triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise InvariantViolationError("triangle index out of range")
    if topology and surface.size and (surface.min() < 0 or surface.max() >= nv):
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
    if not topology:
        return m
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
    for j in range(1, n_rings + 1):
        radius = j / n_rings
        count = n_boundary if j == n_rings else max(6, round(n_boundary * j / n_rings))
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
    neg = _signed_areas(vertices, triangles) < 0
    return np.where(neg[:, None], triangles[:, [0, 2, 1]], triangles)


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
    points = 0.5 * (mesh.vertices.take(lo, axis=0) + mesh.vertices.take(hi, axis=0))
    surface_keys = _edge_keys(mesh.surface_nodes[None, :], nv).reshape(-1)
    surface_mids = number[np.searchsorted(edges, surface_keys)]  # of the edges in cycle order
    p = points[surface_mids - nv]
    points[surface_mids - nv] = p / np.hypot(p[:, 0], p[:, 1])[:, None]

    i0, i1, i2 = mesh.triangles.T
    m01, m12, m20 = mids.T
    new_tris = np.stack([i0, m01, m20, m01, i1, m12, m20, m12, i2, m01, m12, m20],
                        axis=1).reshape(-1, 3)
    new_surface = np.column_stack([mesh.surface_nodes, surface_mids]).reshape(-1)
    # prolongation rows: old vertices, midpoints, then surface nodes 2i and 2i + 1
    ns, m, j = mesh.n_surface, len(ends), np.arange(mesh.n_surface)
    counts = np.concatenate([np.ones(nv, dtype=np.int64), np.full(m, 2), np.tile([1, 2], ns)])
    cols = np.concatenate([np.arange(nv), np.column_stack([lo, hi]).ravel(),
                           nv + np.column_stack([j, j, (j + 1) % ns]).ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * m, 0.5), np.tile([1.0, 0.5, 0.5], ns)])
    prolongation = sp.csr_matrix((vals, cols, np.concatenate([[0], np.cumsum(counts)])),
                                 shape=(nv + m + 2 * ns, nv + ns))
    # built past Mesh(), which checks every invariant: quadrisection keeps the
    # parent's topology (V' - E' + T' = V - E + T), but not its geometry
    arrays = np.concatenate([mesh.vertices, points]), new_tris, new_surface
    for arr in arrays:
        arr.setflags(write=False)
    child = object.__new__(Mesh)
    child.__dict__.update(zip(("vertices", "triangles", "surface_nodes"), arrays), parent=mesh,
                          prolongation=prolongation, cache={}, _measures=_validate(*arrays, topology=False))
    return child


# ---------------------------------------------------------------------------
# Plain-text files
# ---------------------------------------------------------------------------

def table(*columns, sep=" "):
    """Equal-length columns as text, one line per row: integers as ``%d``,
    floats as ``%.17g`` (they read back as the same double).  Every text
    artifact is written block by block as this yields 4096 rows at a time,
    so a write holds one block, not the file.  A block renders each value
    into a NUL-padded byte record by exact array arithmetic, joins them row
    by row and drops the NULs; under 128 rows, where that costs more than it
    saves, ``%`` renders the block."""
    cols = [c if c.dtype.kind in "iu" else np.asarray(c, np.float64) for c in map(np.asarray, columns)]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns of unequal length {[len(c) for c in cols]}")
    seps = [sep] * (len(cols) - 1) + ["\n"]
    row = "".join(("%d" if c.dtype.kind in "iu" else "%.17g") + s for c, s in zip(cols, seps))
    for i in range(0, len(cols[0]), 4096):
        block = [c[i:i + 4096] for c in cols]
        if len(block[0]) < 128:
            yield row * len(block[0]) % tuple(v for r in zip(*(b.tolist() for b in block)) for v in r)
            continue
        fields = []
        for b, s in zip(block, seps):
            s = np.frombuffer(s.encode(), np.uint8)
            fields += [_ints(b) if b.dtype.kind in "iu" else _floats(b), np.broadcast_to(s, (len(b), len(s)))]
        yield np.concatenate(fields, axis=1).tobytes().translate(None, b"\0").decode()


@functools.cache
def _format_tables():
    """``table``'s lookup tables, built on first use (see ``_floats``)."""
    i = np.arange(10000)
    d = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    last = np.max(np.where(d != 0, np.arange(1, 5), 0), axis=1)
    powers = np.array([float(f"1e{k}") for k in range(-6, 23)])  # the doubles nearest 10^k
    p10 = powers[:5:-1]  # 10^(22 - e) for e in [0, 22], exact doubles, and Dekker's split
    p10_hi = p10 * 134217729.0 - (p10 * 134217729.0 - p10)
    top = np.where(np.arange(8) < 7, 255, np.arange(48, 58)[:, None])  # 7 bytes that pass, d0
    keep = np.where(np.arange(8) >= 7 - np.arange(8)[:, None], 255, 0)  # the last k + 1 digits
    # a float record's bytes for each (sign, E + 6, L), L the place of the last nonzero
    # digit, 255 where a digit passes: 0 the sign, 7-23 the digits before the point, 24-30
    # a '.' or the "0.000" of -4 <= E < 0, 31-47 those after it up to L, 48-51 "e-0X"
    s, e, l, j = np.ix_(np.arange(2), np.arange(-6, 17), np.arange(17), np.arange(17))
    fixed = e >= -4  # %g's fixed notation, up to E = 16
    split = np.where(fixed, e, 0)  # the last digit before the point
    t = np.zeros((2, 23, 17, 56), np.uint8)
    t[..., 0] = 45 * s[..., 0]
    t[..., 7:24] = np.where(j <= split, 255, 0)
    t[..., 31:48] = np.where((split < j) & (j <= l), 255, 0)
    q = np.arange(24, 31)
    t[..., 24:31] = np.where(fixed & (e < 0), np.where(q == 31 + e, 46, np.where(q >= 30 + e, 48, 0)),
                             np.where((q == 30) & (split < l), 46, 0))
    t[..., 48:51] = np.where(fixed, 0, np.frombuffer(b"e-0", np.uint8))
    t[..., 51] = np.where(fixed, 0, 48 - e)[..., 0]
    words = [a.astype(np.uint8).view(np.uint64).ravel() for a in (top, keep)]
    return ((d + 48).astype(np.uint8).view(np.uint32).ravel(),  # the digit bytes of 0..9999
            np.where(last > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.uint8),  # in d1..d16
            powers, np.stack([p10, p10_hi, p10 - p10_hi]), *words, t.reshape(-1, 56).view(np.uint64))


def _floats(x):
    """56-byte records of ``'%.17g' % v`` for the doubles of ``x``.  Where
    1e-6 < |v| < 1e17 (the double 1e-6 lies below 10^-6), 10^(16 - E) is an
    exact double and the digits are N = round(|v| 10^(16 - E)) to even, from
    Dekker's exact product hi + lo (split by 2^27 + 1).  N < 10^17: no double
    lies within 5e-18 below a 10^k.  ``%`` renders 0, inf, NaN and the rest."""
    chunk, last, powers, p10, top, _, templates = _format_tables()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)  # NaN fails both
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64) + 6  # E + 6, or one off
    e += (a >= powers.take(e + 1)) * 1 - (a < powers.take(e))
    b, b_hi, b_lo = p10.take(e, axis=1)
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)
    a_lo = a - a_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # hi >= 10^16 - 8 > 2^53 is an even integer, so rint's tie rule on lo is the sum's
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    q, r = n // 10 ** 8, n % 10 ** 8  # the digits d0-d8 and d9-d16
    d0, c = q // 10 ** 8, [q // 10000 % 10000, q % 10000, r // 10000, r % 10000]  # d1-d4 ... d13-d16
    src = np.empty((7, len(x)), np.uint64)  # the record's words: d0, d1-d8, d9-d16, again, all
    src[0], src[6] = top.take(d0), 2 ** 64 - 1
    src[1:3] = np.stack([chunk.take(k) for k in c], axis=1).view(np.uint64).T
    src[3:6] = src[:3]
    place = np.max([last[k].take(c[k]) for k in range(4)], axis=0)
    rec = (templates.take((np.signbit(x) * 23 + e) * 17 + place, axis=0) & src.T).view(np.uint8)
    if not fast.all():
        rec[~fast] = np.array(["%.17g" % v for v in x[~fast].tolist()], "S56").view(np.uint8).reshape(-1, 56)
    return rec


def _ints(v):
    """8-byte records of ``'%d' % i`` for the integers of ``v``, 20-byte ones
    if some are negative or above 8 digits (``%`` renders those)."""
    chunk, *_, keep, _ = _format_tables()
    fast = (v >= 0) & (v < 10 ** 8)
    w = np.where(fast, v, 0).astype(np.int64)
    rec = np.stack([chunk.take(w // 10000), chunk.take(w % 10000)], axis=1).view(np.uint64)[:, 0]
    rec = (rec & keep.take(np.searchsorted(10 ** np.arange(1, 8), w, "right"))).view(np.uint8).reshape(-1, 8)
    if not fast.all():
        rec = np.concatenate([np.zeros((len(v), 12), np.uint8), rec], axis=1)
        rec[~fast] = np.array(["%d" % i for i in v[~fast].tolist()], "S20").view(np.uint8).reshape(-1, 20)
    return rec


def write_mesh(mesh: Mesh, path):
    """Write the text format: header, vertices, triangles, surface cycle."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{MESH_FORMAT_HEADER}\n")
        for name, columns in (("vertices", mesh.vertices.T), ("triangles", mesh.triangles.T),
                              ("surface", [mesh.surface_nodes])):
            fh.write(f"{name} {len(columns[0])}\n")
            fh.writelines(table(*columns))


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

    def rows(name, parse, shape, bad):
        """Section ``name``: each line split into the fields of ``shape``
        (a one-field line is read whole) and read by ``parse``."""
        out = np.empty((section(name), len(shape.split())), dtype=parse)
        for row in out:
            text, ln = next_line()
            parts = text.split() if len(row) > 1 else [text]
            if len(parts) != len(row):
                raise ParseError(f"expected '{shape}'", line=ln)
            try:
                row[:] = [parse(p) for p in parts]
            except (ValueError, OverflowError):  # OverflowError: an index beyond int64
                raise ParseError(bad, line=ln) from None
        return out

    vertices = rows("vertices", float, "x y", "bad float in vertex line")
    triangles = rows("triangles", int, "i j k", "bad index in triangle line")
    surface = rows("surface", int, "i", "bad index in surface line")[:, 0]

    if any(text.strip() for text in lines[pos:]):
        raise ParseError("unexpected content after the surface section", line=next_line()[1])
    return Mesh(vertices, triangles, surface)
