"""Discrete forms for the coupled bulk-surface system.

Assembles P1 stiffness/mass on the triangulated bulk and on the closed
boundary polyline, the Robin-coupled block matrix, the mean-constraint
functional, load vectors, and the compatibility handling for source pairs.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels, linalg
from .errors import DegenerateConstraintError, DimensionMismatchError, InvalidArgumentError
from .linalg import ConstraintSet, CsrMatrix
from .mesh import Mesh, measures

MEAN_DEGENERACY_REL_TOL = 1e-12


def sigma(k_like: float) -> float:
    """Robin coupling weight: 1/K for K > 0, 0 in the Dirichlet limit K = 0."""
    if k_like < 0:
        raise InvalidArgumentError(f"Robin parameter must be >= 0, got {k_like}")
    return 1.0 / k_like if k_like > 0 else 0.0


@dataclass(frozen=True)
class ProblemParams:
    """Scalar data of the coupled system.

    K and L are the Robin parameters of the two coupling conditions, alpha
    and beta the coupling strengths, gamma > 0 scales the surface stiffness;
    all are finite.  The solvability condition alpha*beta*|Omega_h| +
    |Gamma_h| != 0 is checked against the discrete measures at solve time.
    """

    K: float = 1.0
    L: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.K, self.L, self.alpha, self.beta, self.gamma])):
            raise InvalidArgumentError(f"parameters must be finite, got {self}")
        if self.K < 0 or self.L < 0:
            raise InvalidArgumentError("K and L must be >= 0")
        if self.gamma <= 0:
            raise InvalidArgumentError("gamma must be > 0")


def check_mean_pairing(alpha_like, mean_like, mm):
    """Reject a mean constraint whose pairing with the kernel (alpha, 1),
    alpha*mean*|Omega_h| + |Gamma_h| for the measures ``mm``, is numerically
    zero: the constrained system is then singular."""
    pairing = alpha_like * mean_like * mm.area + mm.perimeter
    if abs(pairing) <= MEAN_DEGENERACY_REL_TOL * mm.perimeter:
        raise DegenerateConstraintError(
            f"alpha*mean*|Omega_h| + |Gamma_h| = {pairing:.3e} is numerically zero")


@dataclass(frozen=True, eq=False)
class CoupledField:
    """Nodal coefficient pair (bulk values u, surface values v)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float64)
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise InvalidArgumentError("field has non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_vector(cls, mesh: Mesh, x):
        nb = mesh.n_vertices
        return cls(x[:nb], x[nb:])

    def to_vector(self):
        return np.concatenate([self.u, self.v])

    def check_mesh(self, mesh: Mesh):
        if self.u.shape != (mesh.n_vertices,) or self.v.shape != (mesh.n_surface,):
            raise DimensionMismatchError(
                f"field sizes ({self.u.shape[0]}, {self.v.shape[0]}) do not match mesh "
                f"({mesh.n_vertices}, {mesh.n_surface})")


@dataclass(frozen=True, eq=False)
class BasicForms:
    """Mesh-only matrices: bulk/surface stiffness and consistent mass."""

    mesh: Mesh
    a_bulk: sp.csr_matrix
    m_bulk: sp.csr_matrix
    a_surf: sp.csr_matrix
    m_surf: sp.csr_matrix

    @property
    def n_bulk(self):
        return self.mesh.n_vertices

    @property
    def n_surf(self):
        return self.mesh.n_surface

    @property
    def n_total(self):
        return self.n_bulk + self.n_surf

    @functools.cached_property
    def lumped_bulk(self):
        # row sums of the consistent mass; equals the P1 integral weights
        return self.m_bulk @ np.ones(self.n_bulk)

    @functools.cached_property
    def lumped_surf(self):
        return self.m_surf @ np.ones(self.n_surf)

    @functools.cached_property
    def block_mass(self):
        """blockdiag(M_bulk, M_surf) on the coupled index space."""
        return _from_blocks(self.n_total, [[self.m_bulk, None], [None, self.m_surf]])


def _from_blocks(n, blocks):
    coo = sp.bmat(blocks, format="coo")
    return CsrMatrix.from_coo(n, coo.row, coo.col, coo.data)


def assemble_basic(mesh: Mesh) -> BasicForms:
    """P1 stiffness and consistent mass on the bulk and the boundary polyline."""
    rows, cols, stiff, mass, _ = _kernels.tri_entries(mesh.vertices, mesh.triangles)
    nb = mesh.n_vertices
    a_bulk = CsrMatrix.from_coo(nb, rows, cols, stiff)
    m_bulk = CsrMatrix.from_coo(nb, rows, cols, mass)

    ns = mesh.n_surface
    lengths = mesh.surface_lengths()
    i = np.arange(ns, dtype=np.int64)
    j = (i + 1) % ns
    srows = np.concatenate([i, i, j, j])
    scols = np.concatenate([i, j, i, j])
    stiff_s = np.concatenate([1.0 / lengths, -1.0 / lengths, -1.0 / lengths, 1.0 / lengths])
    mass_s = np.concatenate([lengths / 3.0, lengths / 6.0, lengths / 6.0, lengths / 3.0])
    a_surf = CsrMatrix.from_coo(ns, srows, scols, stiff_s)
    m_surf = CsrMatrix.from_coo(ns, srows, scols, mass_s)
    return BasicForms(mesh, a_bulk, m_bulk, a_surf, m_surf)


def assemble_coupled(forms: BasicForms, k_like: float, alpha_like: float,
                     gamma: float = 1.0) -> sp.csr_matrix:
    """Block matrix of the coupled energy form.

    [[A_bulk + s T' M_s T,  -alpha s T' M_s ],
     [  -alpha s M_s T,     gamma A_s + alpha^2 s M_s]]
    with s = sigma(k_like); symmetric positive semidefinite with kernel
    spanned by the constant pair (alpha, 1).
    """
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be > 0, got {gamma}")
    s = sigma(k_like)
    a_bulk, a_surf = forms.a_bulk, gamma * forms.a_surf
    if s == 0.0:
        return _from_blocks(forms.n_total, [[a_bulk, None], [None, a_surf]])
    # a float product overflows to inf where ** raises; finite, it bounds s and alpha s
    if not np.isfinite(float(alpha_like) * float(alpha_like) * s):
        raise InvalidArgumentError(f"coupling weights 1/K, alpha/K, alpha^2/K of the (K, alpha) or "
                                   f"(L, beta) pair ({k_like:.3g}, {alpha_like:.3g}) are not finite")
    # T selects the trace of a bulk field at the surface nodes
    ns = forms.n_surf
    t = sp.csr_matrix((np.ones(ns), (np.arange(ns), forms.mesh.surface_nodes)),
                      shape=(ns, forms.n_bulk))
    ms_t = forms.m_surf @ t
    return _from_blocks(forms.n_total, [
        [a_bulk + s * (t.T @ ms_t), -alpha_like * s * ms_t.T],
        [-alpha_like * s * ms_t, a_surf + alpha_like ** 2 * s * forms.m_surf]])


def kernel_pair(forms: BasicForms, alpha_like: float) -> np.ndarray:
    """The constant kernel direction (alpha, 1) of the coupled form."""
    return np.concatenate([np.full(forms.n_bulk, alpha_like), np.ones(forms.n_surf)])


def _constraint_set(msh, k_like, alpha_like, **kwargs) -> ConstraintSet:
    """Constraints on the bulk vertices and then surface nodes of a mesh: with
    K = 0 each boundary bulk vertex is eliminated as alpha_like times its
    surface node.  A surface node sits at its bulk vertex; the coordinates
    order the sparse LU."""
    nb, ns = msh.n_vertices, msh.n_surface
    points = msh.vertices[np.concatenate([np.arange(nb), msh.surface_nodes])]
    if k_like == 0:
        kwargs.update(elim_index=msh.surface_nodes.astype(np.int64),
                      elim_target=nb + np.arange(ns, dtype=np.int64),
                      elim_weight=np.full(ns, float(alpha_like)))
    return ConstraintSet(n=nb + ns, points=points, **kwargs)


def build_constraints(forms: BasicForms, k_like: float, alpha_like: float,
                      mean_like: float, multigrid=True) -> ConstraintSet:
    """Trace elimination (K = 0), the mean-constraint functional and, for a
    refined mesh and unless ``multigrid`` is false, the prolongations between
    the retained unknowns of its refinement levels (finest first) for
    multigrid.

    The mean constraint is c.(u, v) = mean_like * int(u) + int(v) = 0; its
    pairing with the kernel must stay away from zero (``check_mean_pairing``).
    """
    check_mean_pairing(alpha_like, mean_like, measures(forms.mesh))
    levels, msh = [], forms.mesh
    while multigrid and msh.parent is not None:
        p = msh.prolongation
        if k_like == 0:  # P[retained] R_coarse: a midpoint's ends are eliminated alike
            p = (p[_constraint_set(msh, 0, alpha_like).retained()]
                 @ _constraint_set(msh.parent, 0, alpha_like).reduction_matrix()).tocsr()
        levels.append(p)
        msh = msh.parent
    cvec = np.concatenate([mean_like * forms.lumped_bulk, forms.lumped_surf])
    return _constraint_set(forms.mesh, k_like, alpha_like, mean_vector=cvec,
                           kernel=kernel_pair(forms, alpha_like), levels=tuple(levels))


class Discretization:
    """The systems of one mesh for one call: coupled matrix, constraint set and
    solver of a key (K or L, alpha or beta, mean, gamma), built on first use
    and kept until another key is asked for (a refine-6 LU takes 1.6 GB).  The
    solver is multigrid CG where ``solve_constrained``'s "auto" picks it, else
    (always with ``direct``) the bordered SuperLU.  The forms and reduced
    patterns' orders stay in ``mesh.cache``: arrays and sparse matrices only.
    ``counts``: solvers built, that cache's hits and misses."""

    def __init__(self, mesh: Mesh, direct=False):
        self.mesh, self.direct, self._systems, self._solver = mesh, direct, {}, None
        self.counts = {"solvers": {"splu": 0, "mg-cg": 0}, "forms": {"hits": 0, "misses": 0},
                       "orders": {"hits": 0, "misses": 0}}

    def _cached(self, kind, key, build):
        hit = key in self.mesh.cache
        self.counts[kind]["hits" if hit else "misses"] += 1
        return self.mesh.cache[key] if hit else self.mesh.cache.setdefault(key, build())

    @functools.cached_property
    def forms(self) -> BasicForms:
        def build():
            f = assemble_basic(self.mesh)
            return f.a_bulk, f.m_bulk, f.a_surf, f.m_surf
        return BasicForms(self.mesh, *self._cached("forms", "forms", build))

    def _order(self, a_red, points):  # the pattern fixes the retained unknowns, so the points
        return self._cached("orders", (a_red.indptr.tobytes(), a_red.indices.tobytes()),
                            lambda: linalg.nested_dissection(a_red, points))

    def system(self, *key):
        """Coupled matrix and constraint set, with levels for a multigrid solver."""
        if key not in self._systems:
            self._systems, self._solver = {}, None  # the last key's, freed before the next is built
            k_like, alpha_like, mean_like, gamma = key
            n_red = self.mesh.n_vertices + (self.mesh.n_surface if k_like else 0)  # K = 0: no traces
            multigrid = not self.direct and n_red >= linalg.MG_MIN_UNKNOWNS
            self._systems[key] = (assemble_coupled(self.forms, k_like, alpha_like, gamma),
                                  build_constraints(self.forms, k_like, alpha_like, mean_like, multigrid))
        return self._systems[key]

    def solver(self, *key):
        a, cs = self.system(*key)
        if self._solver is None:
            self._solver = (linalg.MultigridConstrainedSolver(a, cs) if cs.levels
                            else linalg.FactorizedConstrainedSolver(a, cs, ordering=self._order))
            self.counts["solvers"][self._solver.method] += 1
        return self._solver


def assemble_load(forms: BasicForms, f, g) -> np.ndarray:
    """Load vector (M_bulk f, M_surf g) for nodal sources."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != (forms.n_bulk,) or g.shape != (forms.n_surf,):
        raise DimensionMismatchError(
            f"source sizes ({f.shape}, {g.shape}) do not match mesh "
            f"({forms.n_bulk}, {forms.n_surf})")
    return np.concatenate([forms.m_bulk @ f, forms.m_surf @ g])


def compatibility_defect(forms: BasicForms, f, g, alpha_like: float) -> float:
    """alpha * int(f) + int(g); zero is required for solvability."""
    return float(alpha_like * forms.lumped_bulk @ f + forms.lumped_surf @ g)


def compatibility_scale(forms: BasicForms, f, g, alpha_like: float) -> float:
    """Magnitude scale for relative compatibility defects."""
    return float(abs(alpha_like) * forms.lumped_bulk @ np.abs(f)
                 + forms.lumped_surf @ np.abs(g))


def project_compatible(forms: BasicForms, f, g, alpha_like: float):
    """Shift g by a constant so the discrete compatibility defect vanishes."""
    g = np.asarray(g, dtype=np.float64)
    defect = compatibility_defect(forms, f, g, alpha_like)
    return np.asarray(f, dtype=np.float64), g - defect / measures(forms.mesh).perimeter
