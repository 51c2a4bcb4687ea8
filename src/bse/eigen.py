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
(nearly) the whole spectrum, and the norm-equivalence constants, are solved
densely by ``scipy.linalg.eigh`` after one Householder reflector (LAPACK's
dgeqrf and dormqr) has mapped the hyperplane onto coordinates 2..n in place.
Eigenvectors are used as ARPACK or LAPACK returns them, B-orthonormal; the
residual and B-Gram checks of every result confirm it.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import CoupledField, Discretization, ProblemParams
from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    SingularSystemError,
)
from .linalg import DIRECT_RESIDUAL_TOL, ReducedSystem, safe_norm
from .mesh import Mesh
from .solver import _solve_stage

MULTIPLET_REL_TOL = 1e-8
MIN_EIGENVALUE = 1e-12


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with B-orthonormal eigenfields, as the eigensolver
    returns them: data only, no pencil or solver outlives the call.

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


def _multiplicities(w):
    """Size of the numerical multiplet of each of the ascending eigenvalues ``w``."""
    mult = np.empty(len(w), dtype=np.int64)
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > MULTIPLET_REL_TOL * max(abs(w[start]), 1e-30):
            mult[start:i] = i - start
            start = i
    return mult


def _project(chat, r):
    """(I - chat chat^T) r: the component of r, a vector or a block of columns,
    in the hyperplane with unit normal chat."""
    return r - np.multiply.outer(chat, chat @ r)


def _dense(c, a, b, **eigh_args):
    """``scipy.linalg.eigh(**eigh_args)`` of the pencil (A, B) on the hyperplane
    c.x = 0, with A and B dense, Fortran-ordered and overwritten.  One
    Householder reflector H = H^T with H c = beta e_1 (LAPACK's dgeqrf) maps the
    hyperplane onto the last n - 1 coordinates: H A H and H B H are formed in
    place in O(n^2) by dormqr, and eigenvectors v return as H [0; v].  LAPACK
    reads one triangle: a B symmetric to roundoff needs no symmetrizing."""
    import scipy.linalg as sla
    from scipy.linalg import lapack

    k = len(c) - 1
    h, tau = lapack.dgeqrf(c[:, None])[:2]

    def reflect(x, side="L"):
        return lapack.dormqr(side, "N", h, tau, x, max(x.shape), overwrite_c=1)[0]

    def trailing(m):  # H m H, its trailing block moved to the front of the buffer
        m = reflect(reflect(m), "R").ravel(order="F")
        for j in range(k):  # each block column starts past its new place: no overlap
            m[j * k:(j + 1) * k] = m[(j + 1) * (k + 1) + 1:(j + 2) * (k + 1)]
        return m[:k * k].reshape(k, k, order="F")

    try:  # in place: LAPACK reads the Fortran-ordered blocks without a copy
        out = sla.eigh(trailing(a), trailing(b), overwrite_a=True, overwrite_b=True, **eigh_args)
    except np.linalg.LinAlgError as exc:  # B not positive definite, or no convergence
        raise SingularSystemError(f"dense eigensolve failed ({exc}): the pencil is "
                                  "numerically singular") from None
    if eigh_args.get("eigvals_only"):
        return out
    w, v = out
    return w, reflect(np.vstack([np.zeros((1, v.shape[1])), v]))


def _finalize(disc, w, y, a, apply_b, solver, chat, method, op_applications):
    if w[0] <= MIN_EIGENVALUE:
        raise SingularSystemError(
            f"smallest computed eigenvalue {w[0]:.3e} is not strictly positive; "
            "the constrained pencil is numerically singular")
    ay = a @ y
    by = apply_b(y)
    # A y - lambda B y is a multiple of c (the Lagrange multiplier of the
    # constraint): residuals are measured on the hyperplane
    residuals = (np.linalg.norm(_project(chat, ay - by * w[None, :]), axis=0)
                 / np.linalg.norm(_project(chat, ay), axis=0))
    if not residuals.max() <= DIRECT_RESIDUAL_TOL:
        raise SingularSystemError(f"eigenpair residual {residuals.max():.3e} > "
                                  f"{DIRECT_RESIDUAL_TOL:.0e}: the pencil is numerically singular")
    gram = y.T @ by
    gram_defect = float(np.max(np.abs(gram - np.eye(len(w)))))
    full = solver.expand(y)
    fields = [CoupledField.from_vector(disc.mesh, full[:, j]) for j in range(len(w))]
    return EigenResult(eigenvalues=w, fields=fields, residuals=residuals,
                       gram_defect=gram_defect, multiplicities=_multiplicities(w), method=method,
                       op_applications=op_applications, counts=disc.counts)


@np.errstate(over="raise", invalid="raise")  # B of a singular inner system of eig4 overflows
def _smallest(disc, solver, b_apply, k):
    """Smallest k eigenpairs of the energy matrix of ``solver`` against the
    full-space map ``b_apply`` on its constrained space, by shift-invert
    Lanczos in ``solver``'s reduced coordinates with its factorization as
    the inverse."""
    import scipy.sparse.linalg as spla

    n = solver.n_red
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must be in [1, {n - 1}], got {k}")
    a = solver.a_red
    chat = solver.c_red / safe_norm(solver.c_red)

    def apply_b(x):  # R^T B R
        return solver.reduce_rhs(b_apply(solver.expand(x)))

    if k >= n - 2:  # beyond ARPACK: k < dim - 1 on the hyperplane of dim n - 1
        w, y = _dense(solver.c_red, a.toarray(order="F"), np.asfortranarray(apply_b(np.eye(n))),
                      subset_by_index=[0, k - 1])
        return _finalize(disc, w, y, a, apply_b, solver, chat, "dense", 0)
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
        return _finalize(disc, w[order], y[:, order], a, apply_b, solver, chat, "arpack", solves)
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
    inner_key = (params.L, params.beta, params.alpha, params.gamma)
    inner = disc.solver(*inner_key)
    # a singular inner system blows B up inside ARPACK, whose LAPACK calls then
    # print to stdout: one residual-checked solve of it comes first
    _solve_stage(disc, inner_key, np.ones(mesh.n_vertices), np.ones(mesh.n_surface), False,
                 "inner (L, beta) system of B")
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
    the constrained subspace, from one dense eigensolve of the energy matrix
    against the H1 Gram matrix: A_h^-2 is its smallest eigenvalue, B_h^2 its
    largest.

    With ``return_fields`` the two extremal eigenfields (attaining each
    inequality with equality) are appended to the result.
    """
    import scipy.sparse as sp

    disc = Discretization(mesh, direct=True)
    forms = disc.forms
    red = ReducedSystem(*disc.system(params.K, params.alpha, params.beta, params.gamma))
    h1 = sp.block_diag([forms.a_bulk + forms.m_bulk, forms.a_surf + forms.m_surf], format="csr")
    h1 = red.r.T @ h1 @ red.r
    a, b = red.a_red.toarray(order="F"), h1.toarray(order="F")
    # H1 is SPD, so its Cholesky factor reduces the pencil; an energy matrix that
    # is not positive definite shows as w[0] <= 0.  Without vectors LAPACK's
    # sygv is faster than the default sygvd (0.08 against 0.11 s at n = 832)
    if return_fields:
        w, y = _dense(red.c_red, a, b)
    else:
        w = _dense(red.c_red, a, b, eigvals_only=True, driver="gv")
    if not w[0] > 0:
        raise SingularSystemError("energy matrix is not positive definite on the "
                                  f"constrained subspace (smallest eigenvalue {w[0]:.3e})")
    a_h, b_h = float(np.sqrt(1.0 / w[0])), float(np.sqrt(w[-1]))
    if not return_fields:
        return a_h, b_h
    fields = [CoupledField.from_vector(mesh, red.expand(y[:, j])) for j in (0, -1)]
    return a_h, b_h, fields[0], fields[1]

