"""Hot numerical kernels, one numpy/SciPy implementation per operation.

Every result is deterministic: the same inputs give bit-identical outputs.
"""

import numpy as np
import scipy.sparse as sp


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
# Jacobi-preconditioned conjugate gradient on a consistent singular system.
#
# Solves A x = b where A is symmetric positive semidefinite with kernel
# span{kdir} (pass an empty kdir when A is definite).  b is deflated along
# kdir, search vectors are kept Euclid-orthogonal to kdir, and each iterate
# is projected onto the hyperplane {cvec . x = 0} along kdir (A kdir = 0, so
# the residual recurrence is unaffected).  Returns (x, iterations, relres).
# ---------------------------------------------------------------------------

def pcg(a, dinv, b, cvec, kdir, tol, maxiter):
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
    z = dinv * r
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
        z = dinv * r
        if has_kernel:
            z -= ((kdir @ z) / kk) * kdir
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, it, relres


# ---------------------------------------------------------------------------
# Bessel functions J_m: ascending series (x <= 12) and Miller's backward
# recurrence normalized by J_0 + 2 sum J_2k = 1 (x > 12).
# ---------------------------------------------------------------------------

def _bessel_j_series(m, x):
    half = 0.5 * x
    term = 1.0
    for i in range(1, m + 1):
        term *= half / i
    total = term
    x2 = -half * half
    # 64 terms suffice for x <= 12 (tail < 1e-70); early out on underflow
    for j in range(1, 64):
        term *= x2 / (j * (m + j))
        total += term
        if term == 0.0:
            break
    return total


def _bessel_j_miller(m, x):
    # start index well above max(m, x); even start keeps the recurrence stable
    nstart = int(x + 20.0 + 12.0 * x ** (1.0 / 3.0))
    if nstart < m + 20:
        nstart = m + 20
    if nstart % 2 == 1:
        nstart += 1
    f_up = 0.0  # f_{k+1}
    f_k = 1e-30  # f_k, starting at k = nstart
    norm = 0.0  # accumulates 2 * sum of f at even indices >= 2
    f_m = 0.0
    for k in range(nstart, 0, -1):
        f_dn = (2.0 * k / x) * f_k - f_up
        f_up = f_k
        f_k = f_dn  # f_k now holds f_{k-1}
        idx = k - 1
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * f_k
        if idx == m:
            f_m = f_k
        if abs(f_k) > 1e250:
            f_k *= 1e-250
            f_up *= 1e-250
            norm *= 1e-250
            f_m *= 1e-250
    norm += f_k  # add f_0 once: J_0 + 2*(J_2 + J_4 + ...) = 1
    return f_m / norm


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    if x <= 12.0:
        return _bessel_j_series(m, x)
    return _bessel_j_miller(m, x)
