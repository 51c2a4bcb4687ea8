"""Constrained generalized eigenproblems for the coupled system.

Both pencils act on the constrained subspace: trace elimination for a
Dirichlet coupling gives the reduced coordinates of the constrained solves,
and the mean constraint c.x = 0 cuts out a hyperplane of them.  Shift-invert
Lanczos (ARPACK, shift 0) finds the smallest eigenpairs, inverting with the
bordered sparse LU of the constrained solves; that solve maps every vector
onto the hyperplane, so every Krylov vector meets the constraint.  The
fourth-order mass B = M A^+ M is applied through one factorized solve and
never formed.  One direct ``assembly.Discretization`` per call factors each
system once (eig4 with L = K and beta = alpha has one).  Requests for
(nearly) the whole spectrum are solved densely in an orthonormal basis of
the hyperplane.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import CoupledField, Discretization, ProblemParams
from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .linalg import DIRECT_RESIDUAL_TOL, ReducedSystem, eig_dense_generalized
from .mesh import Mesh

MULTIPLET_REL_TOL = 1e-8
MIN_EIGENVALUE = 1e-12


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with orthonormalized eigenfields.

    ``residuals`` holds the per-pair relative pencil residual, ``gram_defect``
    the largest deviation of the B-Gram matrix from identity, and
    ``multiplicities`` the size of the numerical multiplet each eigenvalue
    belongs to.  ``method`` is ``"arpack"`` or ``"dense"``, ``op_applications``
    counts the shift-invert solves, ``counts`` are the ``Discretization``'s.
    """

    eigenvalues: np.ndarray
    fields: list
    residuals: np.ndarray
    gram_defect: float
    multiplicities: np.ndarray
    method: str = "arpack"
    op_applications: int = 0
    counts: dict | None = None
    _pencil: tuple = field(repr=False, default=None)


def _group_multiplets(w):
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > MULTIPLET_REL_TOL * max(abs(w[start]), 1e-30):
            groups.append((start, i))
            start = i
    return groups


def _orthonormalize_multiplets(w, y, b):
    """Gram-Schmidt in the B inner product within each multiplet."""
    for start, end in _group_multiplets(w):
        for j in range(start, end):
            col = y[:, j].copy()
            for i in range(start, j):
                col -= (y[:, i] @ (b @ col)) * y[:, i]
            nrm = np.sqrt(col @ (b @ col))
            y[:, j] = col / nrm
    return y


def _project(chat, r):
    """(I - chat chat^T) r: the component of r, a vector or a block of columns,
    in the hyperplane with unit normal chat."""
    return r - np.multiply.outer(chat, chat @ r)


def _finalize(disc, w, y, a, b, solver, chat, method, op_applications):
    if w[0] <= MIN_EIGENVALUE:
        raise SingularSystemError(
            f"smallest computed eigenvalue {w[0]:.3e} is not strictly positive; "
            "the constrained pencil is numerically singular")
    y = _orthonormalize_multiplets(w, y, b)
    ay = a @ y
    by = b @ y
    # A y - lambda B y is a multiple of c (the Lagrange multiplier of the
    # constraint): residuals are measured on the hyperplane
    residuals = (np.linalg.norm(_project(chat, ay - by * w[None, :]), axis=0)
                 / np.linalg.norm(_project(chat, ay), axis=0))
    if not residuals.max() <= DIRECT_RESIDUAL_TOL:
        raise SingularSystemError(f"eigenpair residual {residuals.max():.3e} > "
                                  f"{DIRECT_RESIDUAL_TOL:.0e}: the pencil is numerically singular")
    gram = y.T @ by
    gram_defect = float(np.max(np.abs(gram - np.eye(len(w)))))
    mult = np.empty(len(w), dtype=np.int64)
    for start, end in _group_multiplets(w):
        mult[start:end] = end - start
    full = solver.expand(y)
    fields = [CoupledField.from_vector(disc.mesh, full[:, j]) for j in range(len(w))]
    return EigenResult(eigenvalues=w, fields=fields, residuals=residuals,
                       gram_defect=gram_defect, multiplicities=mult, method=method,
                       op_applications=op_applications, counts=disc.counts, _pencil=(a, b, y, chat))


@np.errstate(over="raise", invalid="raise")  # B of a singular inner system of eig4 overflows
def _smallest(disc, solver, b_apply, k):
    """Smallest k eigenpairs of the energy matrix of ``solver`` against the
    full-space map ``b_apply`` on its constrained space, by shift-invert
    Lanczos in ``solver``'s reduced coordinates with its factorization as
    the inverse."""
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = solver.n_red
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must be in [1, {n - 1}], got {k}")
    a, r = solver.a_red, solver.r
    chat = solver.c_red / np.linalg.norm(solver.c_red)

    def apply_b(x):  # R^T B R through r alone: the result's B keeps no factorization
        return b_apply(x) if r is None else r.T @ b_apply(r @ x)

    b = spla.LinearOperator((n, n), matvec=apply_b, matmat=apply_b, dtype=float)
    if k >= n - 2:
        # beyond ARPACK (k < dim - 1 on the hyperplane of dim n - 1): the
        # same pencil, solved densely in an orthonormal basis q of the
        # hyperplane; the solves behind B leave it symmetric only to roundoff
        q = sla.null_space(solver.c_red[None, :])
        b_qq = q.T @ (b @ q)
        w, v = eig_dense_generalized(q.T @ (a @ q), 0.5 * (b_qq + b_qq.T), k)
        return _finalize(disc, w, q @ v, a, b, solver, chat, "dense", 0)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return solver.solve_reduced(x)

    # a fixed start vector: ARPACK's own random start changes between calls
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        # Lanczos orthonormalizes in B + s chat chat^T, which equals B on the
        # hyperplane.  B = M A^+ M of eig4 is singular off it, and normalizing
        # the roundoff there in B alone wrecks the Krylov basis.  The bordered
        # solve maps c to 0, so the shift-invert operator is the same for both.
        s = float(chat @ apply_b(chat))

        def apply_m(x):
            return apply_b(x) + s * chat * (chat @ x)

        w, y = spla.eigsh(a, k=k, sigma=0.0, which="LM", v0=v0,
                          M=spla.LinearOperator((n, n), matvec=apply_m, dtype=float),
                          OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float))
        order = np.argsort(w)
        return _finalize(disc, w[order], y[:, order], a, b, solver, chat, "arpack", solves)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(f"Lanczos did not converge: {exc}") from None
    except (spla.ArpackError, FloatingPointError) as exc:
        raise SingularSystemError(f"Lanczos broke down ({exc}): the pencil is numerically singular") from None


def _energy_mass(mesh, params, mean_like, k):
    """Energy (K, alpha, gamma) against block mass, mean_like-mean constrained."""
    disc = Discretization(mesh, direct=True)
    mass = disc.forms.block_mass
    return _smallest(disc, disc.solver(params.K, params.alpha, mean_like, params.gamma), mass.dot, k)


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
    disc = Discretization(mesh, direct=True)
    forms = disc.forms
    outer = disc.solver(params.K, params.alpha, params.beta, params.gamma)
    inner = disc.solver(params.L, params.beta, params.alpha, params.gamma)
    return _smallest(disc, outer, lambda x: forms.block_mass @ inner.solve(forms.block_mass @ x), k)


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

    disc = Discretization(mesh, direct=True)
    forms = disc.forms
    red = ReducedSystem(*disc.system(params.K, params.alpha, params.beta, params.gamma))
    q = sla.null_space(red.c_red[None, :])
    a_qq = q.T @ (red.a_red @ q)
    h1 = sp.block_diag([forms.a_bulk + forms.m_bulk, forms.a_surf + forms.m_surf], format="csr")
    h1_qq = q.T @ red.reduce_rhs(h1 @ red.expand(q))
    try:
        lo, vlo = eig_dense_generalized(h1_qq, a_qq, 1)
    except NotPositiveDefiniteError:
        raise SingularSystemError("energy matrix is not positive definite on the "
                                  "constrained subspace") from None
    # the largest eigenvalue of (H1, A) is the inverse of the smallest of (A, H1)
    inv_hi, vhi = eig_dense_generalized(a_qq, h1_qq, 1)
    lo, hi = lo[0], 1.0 / inv_hi[0]
    if lo <= 0:
        raise SingularSystemError(f"H1 pencil produced nonpositive eigenvalue {lo:.3e}")
    a_h, b_h = float(np.sqrt(hi)), float(np.sqrt(1.0 / lo))
    if not return_fields:
        return a_h, b_h
    fields = [CoupledField.from_vector(mesh, red.expand(q @ v)[:, 0]) for v in (vhi, vlo)]
    return a_h, b_h, fields[0], fields[1]


def minimax_check(result: EigenResult, trials: int, seed=0) -> float:
    """Sampled verification of the variational principle.

    For each computed eigenvalue, random vectors of the constrained space in
    the B-orthogonal complement of the preceding eigenvectors must have
    Rayleigh quotient at least lambda_j, and the quotient at the eigenvector
    itself must equal lambda_j.  Returns the largest violation found
    (negative slack means a genuine violation; roundoff-level values are
    expected).
    """
    a, b, y, chat = result._pencil
    w = result.eigenvalues
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(len(w)):
        yj = y[:, j]
        q = float(yj @ (a @ yj)) / float(yj @ (b @ yj))
        worst = max(worst, abs(q - w[j]) / max(abs(w[j]), 1e-30))
        prev = y[:, :j]
        bprev = b @ prev if j else None
        for _ in range(trials):
            v = _project(chat, rng.standard_normal(a.shape[0]))
            if j:
                v = v - prev @ (bprev.T @ v)
            q = float(v @ (a @ v)) / float(v @ (b @ v))
            worst = max(worst, (w[j] - q) / max(abs(w[j]), 1e-30))
    return worst
