"""Sparse symmetric matrices and constrained solves.

The constrained solve handles symmetric positive-semidefinite systems whose
kernel is a single known direction: the system is reduced by an elimination
map (Dirichlet-type trace conditions), the mean constraint is appended as a
Lagrange border, and the bordered system is factored once by a sparse LU
(SuperLU) in a nested-dissection order computed from the coordinates of the
unknowns.  Systems of MG_MIN_UNKNOWNS or more on a refined mesh (refine 3
of the disk on) are instead solved by CG preconditioned by a geometric
multigrid V-cycle over the refinement hierarchy, whose smoother relaxes
each boundary vertex and its surface node as a 2x2 block from Robin to
Dirichlet and whose coarsest level is the same bordered sparse LU.
Jacobi-preconditioned CG remains available on request.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    IncompatibleRhsError,
    InvalidArgumentError,
    NoConvergenceError,
    SingularSystemError,
)

DEFAULT_TOL = 1e-12
KERNEL_RHS_TOL = 1e-8
# a solve or eigenpair above this reduced relative residual is numerically singular;
# SuperLU reaches 3.8e-12 at refine 4 (K=1), 1.2e-8 with K=1e4; eigenpairs 6e-8 at K=1e8
DIRECT_RESIDUAL_TOL = 1e-6
# reduced unknowns from which a system with refinement levels is solved by
# multigrid CG, the measured crossover: cold solve2/solve4 favour SuperLU or
# tie up to 4.3k unknowns and multigrid from 5.0k; the n_boundary = 64 disk
# has 2.9k at refine 2 and 11k at refine 3 (SuperLU 78 ms, multigrid 37 ms)
MG_MIN_UNKNOWNS = 5000
# damped block-Jacobi weight, smoothing steps before and after, and the
# relative residual at which each CG sweep stops: weights 0.5-0.8, 1-3 steps
# and 1e-4 to 1e-8 took 14-31 iterations at refine 4-5; these take 18-30 for
# K in [0, 1], alpha up to 100 and gamma down to 1e-3 (0.8: 16-33, less evenly)
MG_OMEGA, MG_SMOOTHING, MG_SWEEP_TOL = 0.6, 2, 1e-6
MG_BACKWARD_TOL = 2e-16  # backward error at which the sweeps stop, or at which
MG_MIN_GAIN = 10.0  # a converged sweep gains less: the floor, 2-3e-16 at K <= 1e-6
# caps: a sweep takes about 10 iterations; one that stalls near the roundoff
# floor (K = 1e5) restarts, and a solve that does not converge ends as
# numerically singular
MG_MAX_SWEEPS, MG_SWEEP_MAXITER = 10, 30


class CsrMatrix(sp.csr_matrix):
    """SciPy CSR matrix; ``n`` and ``to_scipy`` stay only while the benchmark
    calls them on ``assemble_coupled`` and ``BasicForms.block_mass`` results."""

    @property
    def n(self):
        return self.shape[0]

    def to_scipy(self):
        return self

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from COO triplets, summing duplicates; deterministic order."""
        try:
            mat = cls(sp.coo_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)),
                                    shape=(n, n)))
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"invalid COO triplets: {exc}") from None
        mat.sum_duplicates()
        for arr in (mat.indptr, mat.indices, mat.data):
            arr.setflags(write=False)
        return mat


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Dirichlet-type elimination map plus the mean-constraint vector and kernel.

    The elimination map sends each eliminated index to a weighted combination
    of retained indices (here always a single (index, weight) pair realizing
    a nodal trace identity).  ``mean_vector`` is a dense functional c with
    the solution required to satisfy c.x = 0; ``kernel`` is the known kernel
    direction of the operator.  Every solver requires both; a set without
    them only reads out its elimination.  ``points`` are the (x, y)
    coordinates of the unknowns; they order the sparse LU.

    ``levels`` are sparse prolongations between the retained unknowns of a
    refinement hierarchy, finest first: the first maps onto this set's
    retained unknowns, each next one onto the previous one's columns.
    ``pairs`` holds per level a (2, m) array of index pairs among its rows,
    whose 2x2 blocks the smoother inverts.  Multigrid uses both.
    """

    n: int
    points: np.ndarray
    elim_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    elim_target: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    elim_weight: np.ndarray = field(default_factory=lambda: np.empty(0))
    mean_vector: np.ndarray | None = None
    kernel: np.ndarray | None = None
    levels: tuple = ()
    pairs: tuple = ()

    def __post_init__(self):
        elim = np.asarray(self.elim_index, dtype=np.int64)
        targ = np.asarray(self.elim_target, dtype=np.int64)
        if set(elim.tolist()) & set(targ.tolist()):
            raise InvalidArgumentError("eliminated and retained index sets overlap")
        for name, v in (("mean_vector", self.mean_vector), ("kernel", self.kernel)):
            if v is not None and not (np.shape(v) == (self.n,) and np.all(np.isfinite(v)) and np.any(v)):
                raise InvalidArgumentError(f"{name} must be a finite nonzero ({self.n},) array")
        if np.shape(self.points) != (self.n, 2) or not np.all(np.isfinite(self.points)):
            raise InvalidArgumentError(f"points must be a finite ({self.n}, 2) array")
        rows = [self.n - elim.size] + [p.shape[1] for p in self.levels]
        if [p.shape[0] for p in self.levels] != rows[:-1] or len(self.pairs) > len(self.levels):
            raise InvalidArgumentError(f"refinement levels do not chain to n={self.n}")

    @property
    def has_elimination(self):
        return self.elim_index.size > 0

    def retained(self):
        mask = np.ones(self.n, dtype=bool)
        mask[self.elim_index] = False
        return np.flatnonzero(mask)

    def reduction_matrix(self):
        """R with x_full = R x_red (retained identity + elimination rows),
        one entry per row."""
        retained = self.retained()
        cols, vals = np.empty(self.n, dtype=np.int64), np.ones(self.n)
        cols[retained] = np.arange(retained.size)
        cols[self.elim_index] = cols[self.elim_target]  # the targets are retained
        vals[self.elim_index] = self.elim_weight
        return sp.csr_matrix((vals, cols, np.arange(self.n + 1)), shape=(self.n, retained.size))


@dataclass
class ConstrainedSolution:
    x: np.ndarray
    iterations: int
    residual: float
    method: str
    backward_error: float


class ReducedSystem:
    """Constraint-reduced view of A x = b: the reduced matrix R^T A R, the
    reduced mean functional, kernel direction and coordinates, and the maps
    x = R y and R^T b between full and reduced coordinates, R the identity
    when nothing is eliminated.  Construction requires the mean functional
    and the kernel direction and checks that the one pins down the other."""

    iterations = 0  # CG iterations of a subclass's last solve

    def __init__(self, a, cs: ConstraintSet):
        if cs.n != a.shape[0]:
            raise DimensionMismatchError(f"constraints built for n={cs.n}, matrix has n={a.shape[0]}")
        if cs.mean_vector is None or cs.kernel is None:
            raise InvalidArgumentError("constrained solves need the mean functional and the kernel direction")
        self.r, kept = cs.reduction_matrix(), cs.retained()
        self._rt = self.r.T.tocsr()  # once: .T builds a matrix per product (21 against 6 us at refine 2)
        if cs.has_elimination:  # else R = I, and R^T A R would take 21 ms at refine 5
            a = (self.r.T @ a @ self.r).tocsr()
            a.sort_indices()
        self.a_red = a.tocsr()
        self.n_red = self.a_red.shape[0]
        self.c_red = self.reduce_rhs(cs.mean_vector)
        # the kernel direction restricts to retained entries (R k_red = k)
        self.k_red = cs.kernel[kept]
        self.points = cs.points[kept]
        c, k = (np.ldexp(v, -_exponent(v)) for v in (self.c_red, self.k_red))  # no overflow
        ck = float(c @ k)
        if abs(ck) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(k):
            raise SingularSystemError("kernel direction is annihilated by the constraint "
                                      f"functional (c.k = {ck:.3e} with c and k scaled to "
                                      "largest entries in [0.5, 1))")

    @functools.cached_property
    def norm_inf(self):
        return float(np.max(abs(self.a_red) @ np.ones(self.n_red), initial=0.0))

    def backward_error(self, x_red, b_red, res):
        """Normwise backward error |res| / (|A| |x| + |b|) of the reduced
        system, in the infinity norm, for the residual res of x (its sign
        does not matter); NaN when x or b holds a NaN, so that no tolerance
        accepts it."""
        denom = self.norm_inf * np.max(np.abs(x_red)) + np.max(np.abs(b_red))
        return float(np.max(np.abs(res)) / denom) if denom != 0 else 0.0

    def reduce_rhs(self, b):
        # right-hand sides and functionals transform by R^T
        return self._rt @ b

    def expand(self, x_red):
        return self.r @ x_red

    def _count(self, _x):
        self.iterations += 1

    def _cg(self, b_red, precond, tol, maxiter):
        """SciPy's CG on A_red x = b_red, preconditioned by ``precond``
        (r -> M^-1 r) and counted in ``iterations``.  b_red and every
        preconditioned residual lose their component along the kernel k, and
        x moves along k onto c.x = 0 (A k = 0: the residual stays).
        Returns x and whether CG reached the relative residual ``tol``: SciPy
        reports success for maxiter = 0 too, and a run that breaks down in
        roundoff (a division by zero) returns x = 0."""
        import scipy.sparse.linalg as spla

        k, c = self.k_red, self.c_red

        def deflate(v):
            return v - (float(k @ v) / float(k @ k)) * k

        b_red = deflate(b_red)
        m = spla.LinearOperator(self.a_red.shape, matvec=lambda r: deflate(precond(r)), dtype=float)
        try:
            with np.errstate(divide="raise", invalid="raise"):
                x, info = spla.cg(self.a_red, b_red, rtol=tol, maxiter=maxiter, M=m, callback=self._count)
        except FloatingPointError:  # broke down in roundoff, as at K = 1e12 on the refine-4 disk
            return np.zeros_like(b_red), False
        x -= (float(c @ x) / float(c @ k)) * k
        return x, info == 0 and (maxiter > 0 or not b_red.any())


def nested_dissection(a, points):
    """Fill-reducing order of the symmetric sparse matrix ``a`` from the (x, y)
    coordinates of its unknowns (George, SIAM J. Numer. Anal. 10 (1973)).

    All parts of a level are split at once, each at its mean along its axis of
    larger variance; the left end of every edge crossing a cut joins the
    separator.  Each part's halves come before its separator, ties in index
    order.  Splitting stops after ceil(log2(n / 48)) levels: parts of ~48
    factored fastest among leaves of 12-96 at refine 2-4 (smaller ones cut
    the fill by at most 3.5 % but not the time; 96 adds 7-13 % fill).
    """
    n = a.shape[0]
    upper = sp.triu(a, k=1, format="coo")
    ei, ej = upper.row.astype(np.int64), upper.col.astype(np.int64)
    part, key = np.zeros((2, n), dtype=np.int64)  # key: base 3, left 0, right 1, separator 2
    live = np.ones(n, dtype=bool)
    for _ in range(((n - 1) // 48).bit_length()):
        idx = np.flatnonzero(live)
        p, xy = part[idx], points[idx]
        cnt = np.maximum(np.bincount(p), 1)
        dev = xy - np.stack([np.bincount(p, c) / cnt for c in xy.T], axis=1)[p]
        var = np.stack([np.bincount(p, d * d) for d in dev.T], axis=1)
        side = np.zeros(n, dtype=np.int64)
        side[idx] = dev[np.arange(idx.size), var.argmax(axis=1)[p]] > 0
        # live edges never join two parts; the cut ones lose their left end
        live[np.where(side[ei] == 0, ei, ej)[side[ei] != side[ej]]] = False
        key = 3 * key + np.where(live, side, 2)
        part = 2 * part + side
        keep = live[ei] & live[ej]
        ei, ej = ei[keep], ej[keep]
    return np.argsort(key, kind="stable")


def _bordered_lu(a, c, points):
    """Sparse LU of the bordered matrix [[A, c], [c^T, 0]], the unknowns in
    ``nested_dissection`` order of ``points`` and the border last; SuperLU
    keeps that order and prefers diagonal pivots: partial pivoting would
    undo it.  Returns the SuperLU object and the solve b -> x of
    A x + mu c = b, c.x = 0 for a vector or a block of columns."""
    # imported here: scipy.sparse.linalg adds ~0.08 s to importing bse
    import scipy.sparse.linalg as spla

    order = nested_dissection(a, points)
    inv = np.argsort(order)
    border = sp.csc_matrix(c[order].reshape(-1, 1))
    try:
        lu = spla.splu(sp.bmat([[a[order][:, order], border], [border.T, None]], format="csc"),
                       permc_spec="NATURAL", diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"constrained system is singular ({exc})") from None

    def solve(b):
        return lu.solve(np.concatenate([b[order], np.zeros((1,) + b.shape[1:])]))[inv]
    return lu, solve


class FactorizedConstrainedSolver(ReducedSystem):
    """The reduced system with the ``_bordered_lu`` of A_red and c_red,
    reused across many right-hand sides."""

    method = "splu"

    def __init__(self, a, cs: ConstraintSet):
        super().__init__(a, cs)
        # solve_reduced takes reduced right-hand sides, a vector or a block of columns
        self._lu, self.solve_reduced = _bordered_lu(self.a_red, self.c_red, self.points)

    def solve(self, b_full):
        """Solve for a full-space right-hand side, a vector or a matrix whose
        columns are right-hand sides."""
        b_red = self.reduce_rhs(np.asarray(b_full, dtype=np.float64))
        return self.expand(self.solve_reduced(b_red))


def _block_jacobi(a, i, j):
    """Smoother r -> MG_OMEGA D^-1 r, D the diagonal of ``a`` but the 2x2 blocks of the
    pairs (i[k], j[k]): the diagonal scaling plus a correction on the pair entries."""
    d, aij = a.diagonal(), a[i][:, j].diagonal()
    det = d[i] * d[j] - aij * aij
    dinv, off = MG_OMEGA / d, -MG_OMEGA * aij / det
    dinv[i], dinv[j] = MG_OMEGA * d[j] / det, MG_OMEGA * d[i] / det

    def smooth(r):
        z = dinv * r
        z[i] += off * r[j]
        z[j] += off * r[i]
        return z
    return smooth


class MultigridConstrainedSolver(ReducedSystem):
    """The reduced system with a geometric multigrid V-cycle over the
    constraint set's refinement ``levels`` (Hackbusch, *Multi-Grid Methods and
    Applications*, 1985): Galerkin coarse matrices P^T A P of the given
    prolongations P, damped block-Jacobi smoothing over each level's ``pairs``
    (Trottenberg, Oosterlee & Schüller, *Multigrid*, 2001) and, on the coarsest
    level, the ``_bordered_lu`` of P^T A P with border P^T c."""

    method = "mg-cg"

    def __init__(self, a, cs: ConstraintSet):
        super().__init__(a, cs)
        if not cs.levels:
            raise InvalidArgumentError("multigrid needs refinement levels")
        self._levels = []  # (A, smoother, P, P^T), finest first
        a_l, c_l, pts = self.a_red, self.c_red, self.points
        for p, (i, j) in itertools.zip_longest(cs.levels, cs.pairs, fillvalue=np.empty((2, 0), int)):
            pt = p.T.tocsr()
            self._levels.append((a_l, _block_jacobi(a_l, i, j), p, pt))
            # the border and the coordinates, as P^T-weighted means, go down too
            a_l, c_l = (pt @ a_l @ p).tocsr(), pt @ c_l
            pts = (pt @ pts) / (pt @ np.ones(p.shape[0]))[:, None]
        # c_l.k_l = c.(P k_l) = c.k != 0: the bordered coarsest matrix is regular
        self._coarse = _bordered_lu(a_l, c_l, pts)[1]

    def _vcycle(self, r, level=0):
        if level == len(self._levels):
            return self._coarse(r)
        a, smooth, p, pt = self._levels[level]
        x = smooth(r)
        for _ in range(MG_SMOOTHING - 1):
            x += smooth(r - a @ x)
        x += p @ self._vcycle(pt @ (r - a @ x), level + 1)
        for _ in range(MG_SMOOTHING):
            x += smooth(r - a @ x)
        return x

    def solve_reduced(self, b_red):
        """CG sweeps, each on the residual recomputed from the sum of the
        previous ones, until its backward error reaches MG_BACKWARD_TOL or
        a converged sweep lowers it less than MG_MIN_GAIN-fold; one sweep
        leaves an error in the smoothest modes that the backward error barely
        sees.  Each residual loses the multiplier's share (k.r / k.c) c, as
        in the bordered system."""
        a, c, k = self.a_red, self.c_red, self.k_red
        x, self.iterations, last = np.zeros_like(b_red), 0, np.inf
        for _ in range(MG_MAX_SWEEPS):
            r = b_red - a @ x
            r -= (float(k @ r) / float(k @ c)) * c
            eta = self.backward_error(x, b_red, r)
            if eta <= MG_BACKWARD_TOL or eta * MG_MIN_GAIN > last:
                break
            dx, converged = self._cg(r, self._vcycle, MG_SWEEP_TOL, MG_SWEEP_MAXITER)
            x, last = x + dx, eta if converged else np.inf
        return x


class JacobiConstrainedSolver(ReducedSystem):
    """The reduced system solved by Jacobi-preconditioned CG to the relative
    residual ``tol`` within ``maxiter`` iterations (20 n_red by default)."""

    method = "cg"

    def __init__(self, a, cs: ConstraintSet, tol=DEFAULT_TOL, maxiter=None):
        super().__init__(a, cs)
        self.tol, self.maxiter = float(tol), int(20 * self.n_red if maxiter is None else maxiter)

    def solve_reduced(self, b_red):
        diag = self.a_red.diagonal()
        self.iterations = 0
        x, converged = self._cg(b_red, (1.0 / np.where(diag > 0, diag, 1.0)).__mul__,
                                self.tol, self.maxiter)
        if not converged:
            raise NoConvergenceError(f"CG did not reach relative residual {self.tol:.1e} "
                                     f"in {self.maxiter} iterations")
        return x


def _exponent(x):
    """Binary exponent of max |x| (0 for x = 0 or a non-finite entry)."""
    top = float(np.max(np.abs(x), initial=0.0))
    return math.frexp(top)[1] if math.isfinite(top) else 0


def safe_norm(x):
    """np.linalg.norm(x), with x scaled by a power of two first: the same bits
    where that does not overflow, and inf without a warning where it does."""
    e = _exponent(x)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def constrained_solver(a, cs: ConstraintSet):
    """The solver ``method="auto"`` builds for A: multigrid CG from
    MG_MIN_UNKNOWNS reduced unknowns of a constraint set with refinement
    levels, the bordered sparse LU otherwise."""
    mg = cs.levels and cs.levels[0].shape[0] >= MG_MIN_UNKNOWNS
    return (MultigridConstrainedSolver if mg else FactorizedConstrainedSolver)(a, cs)


def solve_constrained(a, b, cs: ConstraintSet, tol=DEFAULT_TOL, maxiter=None, method="auto",
                      solver=None):
    """Solve A x = b, for a square SciPy sparse matrix A, subject to the
    constraint set, whose mean functional and kernel every method requires.

    Returns a ConstrainedSolution whose ``x`` satisfies the elimination map
    exactly and c.x = 0.  The default ``method="auto"`` solves by
    ``constrained_solver``: the bordered sparse LU (``"splu"``) or multigrid
    CG (``"mg-cg"``).  ``method="cg"`` runs Jacobi-preconditioned CG to the
    relative residual ``tol`` within ``maxiter`` iterations, and raises
    NoConvergenceError when it does not reach it.  Every method reports the
    achieved reduced relative residual off the mean functional, where the
    Lagrange multiplier lives, and the normwise backward error; above
    DIRECT_RESIDUAL_TOL the system is numerically singular and
    SingularSystemError is raised.  A ``solver`` built for A is used as is.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.shape != (a.shape[0],):
        raise DimensionMismatchError(f"rhs length {b.shape} against matrix dimension {a.shape[0]}")
    if method not in ("auto", "cg"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    red = solver or (constrained_solver(a, cs) if method == "auto"
                     else JacobiConstrainedSolver(a, cs, tol, maxiter))
    b_red = red.reduce_rhs(b)
    bnorm = safe_norm(b_red)
    rel = abs(float(red.k_red @ b_red)) / (safe_norm(red.k_red) * bnorm) if bnorm > 0 else 0.0
    if rel > KERNEL_RHS_TOL:
        raise IncompatibleRhsError(f"rhs has kernel component {rel:.3e} (tolerance "
                                   f"{KERNEL_RHS_TOL:.1e}); project the sources first")
    x_red = red.solve_reduced(b_red)
    r = red.a_red @ x_red - b_red
    eta = red.backward_error(x_red, b_red, r)
    c = np.ldexp(red.c_red, -_exponent(red.c_red))  # c.c cannot overflow; same bits
    r -= c * ((c @ r) / (c @ c))  # A x + mu c = b: the multiplier's share mu c is no error
    res = safe_norm(r) / (bnorm if bnorm > 0 else 1.0)
    if not res <= DIRECT_RESIDUAL_TOL:
        raise SingularSystemError(f"constrained system is numerically singular: {red.method} solve "
                                  f"residual {res:.3e} > {DIRECT_RESIDUAL_TOL:.0e}")
    return ConstrainedSolution(red.expand(x_red), red.iterations, res, red.method, eta)
