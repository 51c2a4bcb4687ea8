"""Correctness gates for benchmark outputs.

Each gate takes its reference from a source independent of the method
being timed: the constrained linear system rebuilt from the public
``bse.assembly`` functions and a scipy SuperLU solve of it (solves), a
``scipy.special`` Bessel dispersion scan (eigenvalues and oracle roots),
the exact identity lambda4 = lambda2^2 against a dense ``scipy.linalg``
eigensolve, the P1 order of convergence, and values frozen from the dense
solvers of the first benchmarked commit.  A failed gate raises ``GateError``.
"""

import csv
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import optimize, special

# A solve passes when it is the exact solution of a system within this
# normwise (infinity-norm) relative distance of the assembled one, and lies
# within FORWARD_ERROR_TOL (relative, infinity norm) of a sparse direct
# solve.  The relative residual is not used: a direct solve at 42k unknowns
# reaches a 1e-17 backward error but only a 1e-11 relative residual.  On
# disk solves at refine 0-4, projected CG at its 1e-12 target reaches
# backward errors up to 2e-14 (3e-15 from refine 2 on) and forward errors up
# to 7e-13; stopped at 1e-10 it reaches 3e-15 to 6e-13 and 3e-12 to 3e-11,
# at 1e-8 at least 4e-13 and 2e-10.  The forward check catches an early stop
# whose error sits in the smooth low modes, which the backward error barely
# sees on the finer meshes.
BACKWARD_ERROR_TOL = 1e-13
FORWARD_ERROR_TOL = 2e-12
MEAN_DEFECT_TOL = 1e-10
INNER_DUAL_RTOL = 1e-8
ORACLE_ROOT_RTOL = 1e-9
# discretization-level gap between the eig2 eigenvalues and the first five
# Bessel roots, per refinement level of the n_boundary=64 disk
EIG2_ORACLE_RTOL = {0: 0.1, 1: 0.03, 2: 0.01, 3: 0.003}
EIG4_IDENTITY_RTOL = 1e-8
# the dense eig4 pencil residuals are about 3e-8, so a different eigensolver
# may move its values by more than roundoff
FROZEN_RTOL = 1e-7
EOC_L2_RANGE = (1.8, 2.3)

# Dense-solver values at the first benchmarked commit, for the fixed
# parameters used by the spectrum ops (n_boundary=64 disk).
FROZEN = {
    # eigen.poincare_constant, refine 1, K=L=alpha=beta=gamma=1
    "poincare": 0.8489421689691578,
    # eigen.norm_equivalence_constants (A_h, B_h), same mesh and parameters
    "norm_equivalence": (1.293401246165965, 1.8268275358892296),
    # first eight eig4 values, refine 2, K=1, L=2, alpha=1.5, beta=0.5, gamma=1
    "eig4": (2.082616551213857, 2.0826188966469075, 2.629961782699871, 21.729090316525948,
             21.729100600347785, 30.019882405289053, 30.021728802354026, 95.62687552030195),
}


class GateError(Exception):
    pass


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Constrained solves
# ---------------------------------------------------------------------------

def constrained_system(forms, k_like, alpha_like, mean_like, gamma):
    """Coupled matrix (scipy CSR) and constraint set from public assembly calls."""
    from bse import assembly

    a = assembly.assemble_coupled(forms, k_like, alpha_like, gamma).to_scipy()
    cs = assembly.build_constraints(forms, k_like, alpha_like, mean_like)
    return a, cs


def _reduction(cs):
    if cs.has_elimination:
        return cs.reduction_matrix().tocsr()
    return sp.identity(cs.n, format="csr")


def backward_error(a, cs, b, x):
    """(normwise backward error, relative |c.x|, elimination defect) of x."""
    r_mat = _reduction(cs)
    y = x[cs.retained()]
    xr = r_mat @ y
    scale_x = max(np.max(np.abs(x)), 1e-300)
    elim = float(np.max(np.abs(x - xr)) / scale_x)
    a_red = (r_mat.T @ a @ r_mat).tocsr()
    b_red = r_mat.T @ b
    res = b_red - a_red @ y
    norm_a = float(np.max(np.abs(a_red).sum(axis=1)))
    denom = norm_a * np.max(np.abs(y)) + np.max(np.abs(b_red))
    eta = float(np.max(np.abs(res)) / denom) if denom > 0 else 0.0
    c = cs.mean_vector
    mean = float(abs(c @ x) / max(np.abs(c) @ np.abs(x), 1e-300))
    return eta, mean, elim


def check_solve(a, cs, b, x, what):
    """Backward error, mean constraint, elimination map, and forward error
    against ``reference_solve``; returns the backward error."""
    eta, mean, elim = backward_error(a, cs, b, x)
    if not np.all(np.isfinite(x)):
        raise GateError(f"{what}: non-finite solution")
    if eta > BACKWARD_ERROR_TOL:
        raise GateError(f"{what}: backward error {eta:.3e} > {BACKWARD_ERROR_TOL:.0e}")
    if mean > MEAN_DEFECT_TOL:
        raise GateError(f"{what}: mean-constraint defect |c.x| {mean:.3e}")
    if elim > 1e-12:
        raise GateError(f"{what}: trace elimination violated by {elim:.3e}")
    ref = reference_solve(a, cs, b)
    fwd = float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300))
    if fwd > FORWARD_ERROR_TOL:
        raise GateError(f"{what}: forward error {fwd:.3e} against a direct solve "
                        f"> {FORWARD_ERROR_TOL:.0e}")
    return eta


def reference_solve(a, cs, b):
    """Bordered sparse LU solve of the constrained system (scipy SuperLU)."""
    r_mat = _reduction(cs)
    a_red = (r_mat.T @ a @ r_mat).tocsc()
    c_red = sp.csc_matrix((r_mat.T @ cs.mean_vector).reshape(-1, 1))
    big = sp.bmat([[a_red, c_red], [c_red.T, None]], format="csc")
    rhs = np.append(r_mat.T @ b, 0.0)
    y = spla.splu(big).solve(rhs)[:-1]
    return r_mat @ y


def check_inner_dual(a_l, cs_l, b1, b2, value):
    s1 = reference_solve(a_l, cs_l, b1)
    s2 = reference_solve(a_l, cs_l, b2)
    ref = float(s1 @ (a_l @ s2))
    scale = math.sqrt(abs(float(s1 @ (a_l @ s1))) * abs(float(s2 @ (a_l @ s2))))
    err = abs(value - ref) / max(scale, 1e-300)
    if not err <= INNER_DUAL_RTOL:
        raise GateError(f"inner_dual {value!r} vs reference {ref!r} (rel {err:.3e})")
    return err


# ---------------------------------------------------------------------------
# Bessel reference for the disk spectrum
# ---------------------------------------------------------------------------

def bessel_roots(k_like, alpha, gamma, m_max, lam_max, step=0.01):
    """Disk dispersion roots (m, lambda, multiplicity) in (0, lam_max].

    Rationalized relation (lam - gamma m^2)(K s J_m'(s) + J_m(s))
    - alpha^2 s J_m'(s) = 0 with s = sqrt(lam), scanned on a grid and
    refined with Brent's method; for alpha = 0 the bulk Robin roots plus
    the surface modes gamma m^2.
    """
    roots = []
    grid = step * np.arange(1, int(round(lam_max / step)) + 1)
    for m in range(m_max + 1):
        mult = 1 if m == 0 else 2

        def fun(lam, m=m):
            s = np.sqrt(lam)
            djm = special.jvp(m, s)
            robin = k_like * s * djm + special.jv(m, s)
            if alpha == 0.0:
                return robin
            return (lam - gamma * m * m) * robin - alpha * alpha * s * djm

        vals = fun(grid)
        for i in np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:])):
            lam = optimize.brentq(fun, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15)
            roots.append((m, float(lam), mult))
        if alpha == 0.0 and 0 < gamma * m * m <= lam_max:
            roots.append((m, gamma * m * m, mult))
    return sorted(roots, key=lambda r: r[1])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_oracle(path, k_like, alpha, gamma, m_max, lam_max):
    rows = read_csv(path)
    ref = bessel_roots(k_like, alpha, gamma, m_max, lam_max)
    if len(rows) != len(ref):
        raise GateError(f"oracle: {len(rows)} roots, reference has {len(ref)}")
    worst = 0.0
    for row, (m, lam, mult) in zip(rows, ref):
        got = float(row["lambda"])
        worst = max(worst, _rel(got, lam))
        if int(row["m"]) != m or int(row["multiplicity"]) != mult or _rel(got, lam) > ORACLE_ROOT_RTOL:
            raise GateError(f"oracle: root (m={row['m']}, {got!r}) vs reference (m={m}, {lam!r})")
    return worst


def check_eig2(path, k_like, alpha, gamma, refine):
    """Largest relative gap between the eigenvalues and the first five Bessel
    roots, each root repeated by its multiplicity (two roots of different
    modes may nearly coincide, so the eigenvalues are not clustered)."""
    vals = [float(r["lambda"]) for r in read_csv(path)]
    if not all(np.isfinite(vals)) or vals != sorted(vals) or vals[0] <= 0:
        raise GateError("eig2: eigenvalues not finite, positive and ascending")
    ref = [lam for _, lam, mult in bessel_roots(k_like, alpha, gamma, 8, 1.5 * vals[-1])[:5]
           for _ in range(mult)]
    if len(ref) > len(vals):
        raise GateError(f"eig2: {len(vals)} eigenvalues cannot cover the first five roots")
    worst = max(_rel(v, lam) for v, lam in zip(vals, ref))
    if worst > EIG2_ORACLE_RTOL[refine]:
        raise GateError(f"eig2: relative gap {worst:.3e} to Bessel roots > {EIG2_ORACLE_RTOL[refine]}")
    return worst


def dense_eig2(forms, k_like, alpha, gamma, k):
    """Smallest k nonzero eigenvalues of the full energy/mass pencil (dense scipy)."""
    from bse import assembly

    a = assembly.assemble_coupled(forms, k_like, alpha, gamma).to_scipy()
    m = forms.block_mass.to_scipy()
    r_mat = _reduction(assembly.build_constraints(forms, k_like, alpha, alpha))
    a_red = (r_mat.T @ a @ r_mat).toarray()
    m_red = (r_mat.T @ m @ r_mat).toarray()
    w = sla.eigh(a_red, m_red, eigvals_only=True, subset_by_index=[0, k])
    return w[1:]  # drop the constant kernel mode, which the mean constraint removes


def check_eig4_identity(path, forms, k_like, alpha, gamma):
    """With K = L and alpha = beta the fourth-order spectrum is the square of
    the second-order one."""
    vals = np.array([float(r["lambda"]) for r in read_csv(path)])
    lam2 = dense_eig2(forms, k_like, alpha, gamma, len(vals))
    err = float(np.max(np.abs(vals - lam2 ** 2) / lam2 ** 2))
    if not err <= EIG4_IDENTITY_RTOL:
        raise GateError(f"eig4: lambda4 = lambda2^2 violated by {err:.3e}")
    return err


def check_frozen(name, values):
    ref = np.atleast_1d(np.asarray(FROZEN[name], dtype=float))
    got = np.atleast_1d(np.asarray(values, dtype=float))
    if got.shape != ref.shape:
        raise GateError(f"{name}: {got.size} values, frozen reference has {ref.size}")
    err = float(np.max(np.abs(got - ref) / np.abs(ref)))
    if not err <= FROZEN_RTOL:
        raise GateError(f"{name}: differs from the frozen value by {err:.3e}")
    return err


def check_convergence(path, levels):
    """Returns the finest-level L2 error after checking the L2 order."""
    rows = read_csv(path)
    if len(rows) != levels:
        raise GateError(f"convergence: {len(rows)} levels, expected {levels}")
    errs = [float(r["error_L2"]) for r in rows]
    if not all(e2 < e1 for e1, e2 in zip(errs, errs[1:])):
        raise GateError("convergence: L2 errors do not decrease")
    order = float(rows[-1]["eoc_L2"])
    lo, hi = EOC_L2_RANGE
    if not lo <= order <= hi:
        raise GateError(f"convergence: L2 order {order:.3f} outside [{lo}, {hi}]")
    return errs[-1]


# ---------------------------------------------------------------------------
# Mesh files
# ---------------------------------------------------------------------------

def check_mesh_file(path, n_boundary, refine):
    """Parse the text mesh format and check the disk's structural invariants."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "bse-mesh 1":
        raise GateError("mesh: bad header")
    pos = 1

    def section(name, width, dtype):
        nonlocal pos
        head, count = lines[pos].split()
        if head != name:
            raise GateError(f"mesh: expected section {name}")
        count = int(count)
        rows = np.array([ln.split() for ln in lines[pos + 1:pos + 1 + count]], dtype=dtype)
        pos += 1 + count
        return rows.reshape(count, width)

    verts = section("vertices", 2, float)
    tris = section("triangles", 3, np.int64)
    surf = section("surface", 1, np.int64)[:, 0]
    ns = n_boundary * 2 ** refine
    if surf.size != ns:
        raise GateError(f"mesh: {surf.size} surface nodes, expected {ns}")
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    areas = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                   - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    if np.any(areas <= 0):
        raise GateError("mesh: triangle with nonpositive orientation")
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    n_edges = np.unique(edges, axis=0).shape[0]
    if len(verts) - n_edges + len(tris) != 1:
        raise GateError("mesh: Euler characteristic is not 1")
    if np.max(np.abs(np.hypot(verts[surf, 0], verts[surf, 1]) - 1.0)) > 1e-12:
        raise GateError("mesh: surface nodes off the unit circle")
    # the boundary is the regular inscribed polygon, so the triangles tile it
    inscribed = 0.5 * ns * math.sin(2.0 * math.pi / ns)
    if _rel(float(areas.sum()), inscribed) > 1e-10:
        raise GateError(f"mesh: area {areas.sum():.15g}, inscribed polygon {inscribed:.15g}")
    return len(verts)
