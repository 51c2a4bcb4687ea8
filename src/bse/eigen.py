"""Constrained generalized eigenproblems for the coupled system.

Both eigenproblems are reduced onto the constrained subspace (trace
elimination for a Dirichlet coupling, then a Householder basis of the
mean-constraint hyperplane) and solved densely via Cholesky reduction.
The fourth-order problem pairs the energy matrix with the solution-operator
mass B = M A^+ M, formed by one factorized constrained solve with every
basis column as a right-hand side.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    CoupledField,
    ProblemParams,
    assemble_basic,
    assemble_coupled,
    build_constraints,
)
from .errors import InvalidArgumentError, SingularSystemError
from .linalg import FactorizedConstrainedSolver, eig_dense_generalized
from .mesh import Mesh, measures

log = logging.getLogger(__name__)

MULTIPLET_REL_TOL = 1e-8
MIN_EIGENVALUE = 1e-12


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with orthonormalized eigenfields.

    ``residuals`` holds the per-pair relative pencil residual, ``gram_defect``
    the largest deviation of the B-Gram matrix from identity, and
    ``multiplicities`` the size of the numerical multiplet each eigenvalue
    belongs to.
    """

    eigenvalues: np.ndarray
    fields: list
    residuals: np.ndarray
    gram_defect: float
    multiplicities: np.ndarray
    _pencil: tuple = field(repr=False, default=None)


class _Subspace:
    """Dense pencil reduction onto {x = R y : c.x = 0}."""

    def __init__(self, a_cpl, cs):
        from .linalg import _Reduced

        red = _Reduced(a_cpl, cs)
        red.check_kernel()
        self.red = red
        c = red.c_red
        # Householder vector sending c to a multiple of e_0
        w = c.astype(np.float64).copy()
        w[0] += np.sign(c[0] if c[0] != 0 else 1.0) * np.linalg.norm(c)
        self.w = w
        self.wtw = float(w @ w)
        self.dim = red.n_red - 1

    def _reflect(self, mat):
        # H mat H with H = I - 2 w w^T / (w^T w)
        coef = 2.0 / self.wtw
        mat = mat - np.outer(self.w, coef * (self.w @ mat))
        mat = mat - np.outer(coef * (mat @ self.w), self.w)
        return mat

    def reduce_dense(self, mat):
        """Dense reduced pencil matrix of a SciPy sparse matrix."""
        if self.red.r is not None:
            mat = (self.red.r.T @ mat @ self.red.r).tocsr()
        dense = self._reflect(mat.toarray())
        return 0.5 * (dense[1:, 1:] + dense[1:, 1:].T)

    def basis_full(self):
        """Columns span the constrained subspace in full coordinates."""
        n = self.red.n_red
        z = np.eye(n)[:, 1:] - np.outer(self.w, (2.0 / self.wtw) * self.w[1:])
        if self.red.r is not None:
            z = self.red.r @ z
        return z

    def expand(self, y_cols):
        """Reduced eigenvector columns -> full coordinate columns."""
        n = self.red.n_red
        v = np.zeros((n, y_cols.shape[1]))
        v[1:, :] = y_cols
        v -= np.outer(self.w, (2.0 / self.wtw) * (self.w @ v))
        if self.red.r is not None:
            v = self.red.r @ v
        return v


def _group_multiplets(w):
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > MULTIPLET_REL_TOL * max(abs(w[start]), 1e-30):
            groups.append((start, i))
            start = i
    return groups


def _orthonormalize_multiplets(w, y, b_zz):
    """Gram-Schmidt in the B inner product within each multiplet."""
    for start, end in _group_multiplets(w):
        for j in range(start, end):
            col = y[:, j].copy()
            for i in range(start, j):
                col -= (y[:, i] @ (b_zz @ col)) * y[:, i]
            nrm = np.sqrt(col @ (b_zz @ col))
            y[:, j] = col / nrm
    return y


def _finalize(mesh, w, y, a_zz, b_zz, sub):
    if w[0] <= MIN_EIGENVALUE:
        raise SingularSystemError(
            f"smallest computed eigenvalue {w[0]:.3e} is not strictly positive; "
            "the constrained pencil is numerically degenerate")
    y = _orthonormalize_multiplets(w, y, b_zz)
    ay = a_zz @ y
    by = b_zz @ y
    residuals = np.linalg.norm(ay - by * w[None, :], axis=0) / np.linalg.norm(ay, axis=0)
    gram = y.T @ by
    gram_defect = float(np.max(np.abs(gram - np.eye(len(w)))))
    mult = np.empty(len(w), dtype=np.int64)
    for start, end in _group_multiplets(w):
        mult[start:end] = end - start
    full = sub.expand(y)
    fields = [CoupledField.from_vector(mesh, full[:, j]) for j in range(len(w))]
    return EigenResult(eigenvalues=w, fields=fields, residuals=residuals,
                       gram_defect=gram_defect, multiplicities=mult,
                       _pencil=(a_zz, b_zz, y, sub))


def eig_second(mesh: Mesh, params: ProblemParams, k: int, backend="dense") -> EigenResult:
    """Smallest k eigenpairs of the second-order problem.

    Generalized pencil: coupled energy matrix (K, alpha, gamma) against the
    block mass, restricted to the alpha-mean-constrained subspace (with
    trace elimination when K = 0).  Eigenfields are mass-orthonormal.
    """
    if backend != "dense":
        raise InvalidArgumentError(f"unknown eigen backend {backend!r}")
    forms = assemble_basic(mesh)
    a_cpl = assemble_coupled(forms, params.K, params.alpha, params.gamma)
    cs = build_constraints(forms, params.K, params.alpha, params.alpha)
    sub = _Subspace(a_cpl, cs)
    if not 1 <= k <= sub.dim:
        raise InvalidArgumentError(f"k must be in [1, {sub.dim}], got {k}")
    a_zz = sub.reduce_dense(a_cpl.to_scipy())
    m_zz = sub.reduce_dense(forms.block_mass.to_scipy())
    w, y = eig_dense_generalized(a_zz, m_zz, k)
    return _finalize(mesh, w, y, a_zz, m_zz, sub)


def eig_fourth(mesh: Mesh, params: ProblemParams, k: int) -> EigenResult:
    """Smallest k eigenpairs of the fourth-order problem.

    Pencil: energy matrix (K, alpha, gamma) against B = M A_L^+ M on the
    beta-mean-constrained subspace, where A_L^+ is the constrained inverse
    of the (L, beta) system with alpha-mean constraint.  Eigenfields are
    B-orthonormal, the discrete dual-inner-product orthonormality.
    """
    forms = assemble_basic(mesh)
    params.check_nondegenerate(measures(mesh))
    a_cpl = assemble_coupled(forms, params.K, params.alpha, params.gamma)
    cs = build_constraints(forms, params.K, params.alpha, params.beta)
    sub = _Subspace(a_cpl, cs)
    if not 1 <= k <= sub.dim:
        raise InvalidArgumentError(f"k must be in [1, {sub.dim}], got {k}")
    a_zz = sub.reduce_dense(a_cpl.to_scipy())

    a_inner = assemble_coupled(forms, params.L, params.beta, params.gamma)
    cs_inner = build_constraints(forms, params.L, params.beta, params.alpha)
    solver = FactorizedConstrainedSolver(a_inner, cs_inner)
    z = sub.basis_full()
    mass = forms.block_mass.to_scipy()
    b_zz = z.T @ (mass @ solver.solve_many(mass @ z))
    b_zz = 0.5 * (b_zz + b_zz.T)

    w, y = eig_dense_generalized(a_zz, b_zz, k)
    return _finalize(mesh, w, y, a_zz, b_zz, sub)


def poincare_constant(mesh: Mesh, params: ProblemParams) -> float:
    """Discrete constant c_P with ||x||_H0 <= c_P ||x||_(K,alpha) on the
    beta-mean-constrained subspace: inverse square root of the smallest
    constrained eigenvalue of the energy/mass pencil."""
    forms = assemble_basic(mesh)
    a_cpl = assemble_coupled(forms, params.K, params.alpha, params.gamma)
    cs = build_constraints(forms, params.K, params.alpha, params.beta)
    sub = _Subspace(a_cpl, cs)
    a_zz = sub.reduce_dense(a_cpl.to_scipy())
    m_zz = sub.reduce_dense(forms.block_mass.to_scipy())
    w, _ = eig_dense_generalized(a_zz, m_zz, 1)
    if w[0] <= MIN_EIGENVALUE:
        raise SingularSystemError(f"constrained pencil has eigenvalue {w[0]:.3e}")
    return float(1.0 / np.sqrt(w[0]))


def norm_equivalence_constants(mesh: Mesh, params: ProblemParams, return_fields=False):
    """Extremal constants (A_h, B_h) of the H1 / energy norm equivalence on
    the constrained subspace, from the generalized pencil of the H1 Gram
    matrix against the energy matrix.

    With ``return_fields`` the two extremal eigenfields (attaining each
    inequality with equality) are appended to the result.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp

    forms = assemble_basic(mesh)
    a_cpl = assemble_coupled(forms, params.K, params.alpha, params.gamma)
    cs = build_constraints(forms, params.K, params.alpha, params.beta)
    sub = _Subspace(a_cpl, cs)
    a_zz = sub.reduce_dense(a_cpl.to_scipy())
    h1 = sp.bmat([[forms.a_bulk.to_scipy() + forms.m_bulk.to_scipy(), None],
                  [None, forms.a_surf.to_scipy() + forms.m_surf.to_scipy()]]).tocsr()
    h1_zz = sub.reduce_dense(h1)
    try:
        ell = np.linalg.cholesky(a_zz)
    except np.linalg.LinAlgError:
        raise SingularSystemError("energy matrix is not positive definite on the "
                                  "constrained subspace") from None
    c = sla.solve_triangular(ell, h1_zz, lower=True)
    c = sla.solve_triangular(ell, c.T, lower=True)
    c = 0.5 * (c + c.T)
    n = c.shape[0]
    lo, vlo = sla.eigh(c, subset_by_index=[0, 0])
    hi, vhi = sla.eigh(c, subset_by_index=[n - 1, n - 1])
    lo, hi = lo[0], hi[0]
    if lo <= 0:
        raise SingularSystemError(f"H1 pencil produced nonpositive eigenvalue {lo:.3e}")
    a_h, b_h = float(np.sqrt(hi)), float(np.sqrt(1.0 / lo))
    if not return_fields:
        return a_h, b_h
    fields = []
    for vec in (vhi, vlo):
        y = sla.solve_triangular(ell.T, vec, lower=False)
        full = sub.expand(y)
        fields.append(CoupledField.from_vector(mesh, full[:, 0]))
    return a_h, b_h, fields[0], fields[1]


def minimax_check(result: EigenResult, trials: int, seed=0, tol=1e-10) -> float:
    """Sampled verification of the variational principle.

    For each computed eigenvalue, random vectors in the B-orthogonal
    complement of the preceding eigenvectors must have Rayleigh quotient at
    least lambda_j, and the quotient at the eigenvector itself must equal
    lambda_j.  Returns the largest violation found (negative slack means a
    genuine violation; roundoff-level values are expected).
    """
    a_zz, b_zz, y, _ = result._pencil
    w = result.eigenvalues
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(len(w)):
        yj = y[:, j]
        q = float(yj @ (a_zz @ yj)) / float(yj @ (b_zz @ yj))
        worst = max(worst, abs(q - w[j]) / max(abs(w[j]), 1e-30))
        prev = y[:, :j]
        bprev = b_zz @ prev if j else None
        for _ in range(trials):
            v = rng.standard_normal(a_zz.shape[0])
            if j:
                v = v - prev @ (bprev.T @ v)
            q = float(v @ (a_zz @ v)) / float(v @ (b_zz @ v))
            worst = max(worst, (w[j] - q) / max(abs(w[j]), 1e-30))
    return worst
