"""Hot numerical kernels, one numpy/SciPy implementation per operation.

Every result is deterministic: the same inputs give bit-identical outputs.
"""

import numpy as np
import scipy.sparse as sp
from scipy import special


def kernel_backend():
    """Name recorded in run summaries; there is one implementation."""
    return "numpy"


# ---------------------------------------------------------------------------
# P1 triangle assembly: stiffness and consistent mass, COO entries
# ---------------------------------------------------------------------------

def tri_entries(vertices, triangles):
    """Vectorized per-triangle stiffness/mass entries.

    Returns (rows, cols, stiff_vals, mass_vals, areas); 9 COO entries per
    triangle in row-major local order.
    """
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    # b_i, c_i are the gradient components of the barycentric functions
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    area = 0.5 * area2
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = area[:, None, None] * mref[None, :, :]
    rows = np.repeat(triangles, 3, axis=1).reshape(-1)
    cols = np.tile(triangles, (1, 3)).reshape(-1)
    return rows, cols, stiff.reshape(-1), mass.reshape(-1), area


# ---------------------------------------------------------------------------
# CSR matrix-vector product
# ---------------------------------------------------------------------------

def csr_matvec(indptr, indices, data, x):
    """y = A x for a CSR matrix given by its arrays (the benchmark's kernel probe)."""
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, x.size)) @ x


# ---------------------------------------------------------------------------
# Preconditioned conjugate gradient on a consistent singular system.
#
# Solves A x = b where A is symmetric positive semidefinite with kernel
# span{kdir} (pass an empty kdir when A is definite).  b is deflated along
# kdir, search vectors are kept Euclid-orthogonal to kdir, and each iterate
# is projected onto the hyperplane {cvec . x = 0} along kdir (A kdir = 0, so
# the residual recurrence is unaffected).  ``precond`` maps a residual r to
# z = M^-1 r, or is the inverse diagonal (Jacobi).  Returns (x, iterations,
# relres).
# ---------------------------------------------------------------------------

def pcg(a, precond, b, cvec, kdir, tol, maxiter):
    apply = precond if callable(precond) else precond.__mul__
    has_kernel = kdir.shape[0] > 0
    has_mean = cvec.shape[0] > 0
    if has_kernel:
        kk = float(kdir @ kdir)
        b = b - ((kdir @ b) / kk) * kdir
        if has_mean:
            ck = float(cvec @ kdir)
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0
    r = b.copy()
    z = apply(r)
    if has_kernel:
        z -= ((kdir @ z) / kk) * kdir
    p = z.copy()
    rz = float(r @ z)
    relres = 1.0
    it = 0
    while it < maxiter:
        it += 1
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        if has_kernel and has_mean:
            x -= ((cvec @ x) / ck) * kdir
        r -= alpha * ap
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            break
        z = apply(r)
        if has_kernel:
            z -= ((kdir @ z) / kk) * kdir
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, it, relres


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    return float(special.jv(m, x))
