"""Constrained generalized eigenproblems for the coupled system.

Both pencils act on the constrained subspace (trace elimination for a
Dirichlet coupling, then Householder coordinates of the mean-constraint
hyperplane, applied in O(n)).  Shift-invert Lanczos (ARPACK, shift 0) finds
the smallest eigenpairs, inverting with the bordered sparse LU of the
constrained solves; the fourth-order mass B = M A^+ M is applied through one
factorized solve and never formed.  Requests for (nearly) the whole spectrum
are solved densely on the same operators.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    CoupledField,
    ProblemParams,
    assemble_basic,
    assemble_coupled,
    build_constraints,
)
from .errors import InvalidArgumentError, NoConvergenceError, SingularSystemError
from .linalg import FactorizedConstrainedSolver, _Reduced, eig_dense_generalized
from .mesh import Mesh, measures

MULTIPLET_REL_TOL = 1e-8
MIN_EIGENVALUE = 1e-12


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with orthonormalized eigenfields.

    ``residuals`` holds the per-pair relative pencil residual, ``gram_defect``
    the largest deviation of the B-Gram matrix from identity, and
    ``multiplicities`` the size of the numerical multiplet each eigenvalue
    belongs to.  ``method`` is ``"arpack"`` or ``"dense"`` and
    ``op_applications`` counts the shift-invert solves.
    """

    eigenvalues: np.ndarray
    fields: list
    residuals: np.ndarray
    gram_defect: float
    multiplicities: np.ndarray
    method: str = "arpack"
    op_applications: int = 0
    _pencil: tuple = field(repr=False, default=None)


def _dense(op):
    d = op @ np.eye(op.shape[0])
    return 0.5 * (d + d.T)


class _Subspace:
    """Coordinates y of the constrained space {x = R Z y : c.x = 0}; Z is the
    Householder reflection I - 2ww^T/w^Tw sending c to a multiple of e_0,
    without its first column.  Vectors or blocks of columns throughout."""

    def __init__(self, red):
        c = red.c_red
        self.w = c.astype(np.float64).copy()
        self.w[0] += np.sign(c[0] if c[0] != 0 else 1.0) * np.linalg.norm(c)
        self.coef = 2.0 / float(self.w @ self.w)
        self.red, self.dim = red, red.n_red - 1

    def _reflect(self, v):
        return v - np.multiply.outer(self.w, self.coef * (self.w @ v))

    def lift(self, y):
        """Z y, in reduced coordinates."""
        return self._reflect(np.concatenate([np.zeros((1,) + y.shape[1:]), y]))

    def expand(self, y):
        return self.red.expand(self.lift(y))

    def operator(self, apply):
        """LinearOperator y -> Z^T apply(Z y) of a map on reduced coordinates."""
        import scipy.sparse.linalg as spla

        def matvec(y):
            return self._reflect(apply(self.lift(y)))[1:]

        return spla.LinearOperator((self.dim,) * 2, matvec=matvec, matmat=matvec, dtype=float)


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


def _finalize(mesh, w, y, a_zz, b_zz, sub, method, op_applications):
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
                       gram_defect=gram_defect, multiplicities=mult, method=method,
                       op_applications=op_applications, _pencil=(a_zz, b_zz, y, sub))


def _smallest(mesh, solver, b_apply, k):
    """Smallest k eigenpairs of the energy matrix of ``solver`` against the
    full-space map ``b_apply`` on its constrained space, by shift-invert
    Lanczos with ``solver``'s factorization as the inverse."""
    import scipy.sparse.linalg as spla

    red = solver.red
    sub = _Subspace(red)
    if not 1 <= k <= sub.dim:
        raise InvalidArgumentError(f"k must be in [1, {sub.dim}], got {k}")
    a_zz = sub.operator(lambda x: red.a_red @ x)
    b_zz = sub.operator(lambda x: red.reduce_rhs(b_apply(red.expand(x))))
    if k >= sub.dim - 1:
        # beyond ARPACK (k < dim - 1): the same operators, solved densely
        w, y = eig_dense_generalized(_dense(a_zz), _dense(b_zz), k)
        return _finalize(mesh, w, y, a_zz, b_zz, sub, "dense", 0)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return solver.solve_reduced(x)

    # a fixed start vector: ARPACK's own random start changes between calls
    v0 = np.random.default_rng(0).standard_normal(sub.dim)
    try:
        w, y = spla.eigsh(a_zz, k=k, M=b_zz, sigma=0.0, which="LM",
                          OPinv=sub.operator(solve), v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(f"Lanczos did not converge: {exc}") from None
    order = np.argsort(w)
    return _finalize(mesh, w[order], y[:, order], a_zz, b_zz, sub, "arpack", solves)


def _factored(forms, k_like, alpha_like, mean_like, gamma):
    return FactorizedConstrainedSolver(assemble_coupled(forms, k_like, alpha_like, gamma),
                                       build_constraints(forms, k_like, alpha_like, mean_like))


def _energy_mass(mesh, params, mean_like, k):
    """Energy (K, alpha, gamma) against block mass, mean_like-mean constrained."""
    forms = assemble_basic(mesh)
    mass = forms.block_mass.to_scipy()
    solver = _factored(forms, params.K, params.alpha, mean_like, params.gamma)
    return _smallest(mesh, solver, lambda x: mass @ x, k)


def eig_second(mesh: Mesh, params: ProblemParams, k: int) -> EigenResult:
    """Smallest k eigenpairs of the second-order problem.

    Generalized pencil: coupled energy matrix (K, alpha, gamma) against the
    block mass, restricted to the alpha-mean-constrained subspace (with
    trace elimination when K = 0).  Eigenfields are mass-orthonormal.
    """
    return _energy_mass(mesh, params, params.alpha, k)


def eig_fourth(mesh: Mesh, params: ProblemParams, k: int) -> EigenResult:
    """Smallest k eigenpairs of the fourth-order problem.

    Pencil: energy matrix (K, alpha, gamma) against B = M A_L^+ M on the
    beta-mean-constrained subspace, where A_L^+ is the constrained inverse
    of the (L, beta) system with alpha-mean constraint.  Eigenfields are
    B-orthonormal, the discrete dual-inner-product orthonormality.
    """
    forms = assemble_basic(mesh)
    params.check_nondegenerate(measures(mesh))
    mass = forms.block_mass.to_scipy()
    outer = _factored(forms, params.K, params.alpha, params.beta, params.gamma)
    # with L = K and beta = alpha the (L, beta) system with alpha-mean
    # constraint is the outer system itself: one factorization serves both
    inner = outer
    if (params.L, params.beta) != (params.K, params.alpha):
        inner = _factored(forms, params.L, params.beta, params.alpha, params.gamma)
    return _smallest(mesh, outer, lambda x: mass @ inner.solve(mass @ x), k)


def poincare_constant(mesh: Mesh, params: ProblemParams, return_result=False):
    """Discrete constant c_P with ||x||_H0 <= c_P ||x||_(K,alpha) on the
    beta-mean-constrained subspace: inverse square root of the smallest
    constrained eigenvalue of the energy/mass pencil.

    With ``return_result`` the EigenResult of that eigenvalue is returned
    as well.
    """
    res = _energy_mass(mesh, params, params.beta, 1)
    c = float(1.0 / np.sqrt(res.eigenvalues[0]))
    return (c, res) if return_result else c


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
    red = _Reduced(a_cpl, build_constraints(forms, params.K, params.alpha, params.beta))
    red.check_kernel()
    sub = _Subspace(red)
    a_zz = _dense(sub.operator(lambda x: red.a_red @ x))
    h1 = sp.bmat([[forms.a_bulk.to_scipy() + forms.m_bulk.to_scipy(), None],
                  [None, forms.a_surf.to_scipy() + forms.m_surf.to_scipy()]]).tocsr()
    h1_zz = _dense(sub.operator(lambda x: red.reduce_rhs(h1 @ red.expand(x))))
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
    fields = [CoupledField.from_vector(mesh, sub.expand(sla.solve_triangular(ell.T, v))[:, 0])
              for v in (vhi, vlo)]
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
