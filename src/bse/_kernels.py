"""Hot numerical kernels: numba-jitted loops with pure-numpy fallbacks.

The backend is chosen once at import time.  Set ``BSE_NUMBA=0`` in the
environment to force the numpy fallback path; anything else (or an
importable numba) selects the jitted path.  ``bse.kernel_backend()``
reports which one is active.

Both paths compute identical quantities; floating-point summation order
differs, so results agree to roundoff but not bit-for-bit across
backends.  Within one backend everything is deterministic.
"""

import math
import os

import numpy as np

_env = os.environ.get("BSE_NUMBA", "").strip().lower()
_want_numba = _env not in ("0", "false", "off", "no")

try:
    if not _want_numba:
        raise ImportError("numba disabled via BSE_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

    def njit(*args, **kwargs):
        # transparent decorator so the same source runs un-jitted
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


def kernel_backend():
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# P1 triangle assembly: stiffness and consistent mass, COO entries
# ---------------------------------------------------------------------------

def _tri_entries_numpy(vertices, triangles):
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


@njit(cache=True)
def _tri_entries_numba(vertices, triangles):
    nt = triangles.shape[0]
    rows = np.empty(9 * nt, dtype=np.int64)
    cols = np.empty(9 * nt, dtype=np.int64)
    stiff = np.empty(9 * nt, dtype=np.float64)
    mass = np.empty(9 * nt, dtype=np.float64)
    areas = np.empty(nt, dtype=np.float64)
    b = np.empty(3, dtype=np.float64)
    c = np.empty(3, dtype=np.float64)
    for t in range(nt):
        i0, i1, i2 = triangles[t, 0], triangles[t, 1], triangles[t, 2]
        x0, y0 = vertices[i0, 0], vertices[i0, 1]
        x1, y1 = vertices[i1, 0], vertices[i1, 1]
        x2, y2 = vertices[i2, 0], vertices[i2, 1]
        b[0], b[1], b[2] = y1 - y2, y2 - y0, y0 - y1
        c[0], c[1], c[2] = x2 - x1, x0 - x2, x1 - x0
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        areas[t] = area
        base = 9 * t
        for a in range(3):
            ia = triangles[t, a]
            for bb in range(3):
                k = base + 3 * a + bb
                rows[k] = ia
                cols[k] = triangles[t, bb]
                stiff[k] = (b[a] * b[bb] + c[a] * c[bb]) / (4.0 * area)
                mass[k] = area * (2.0 if a == bb else 1.0) / 12.0
    return rows, cols, stiff, mass, areas


# ---------------------------------------------------------------------------
# CSR matrix-vector product
# ---------------------------------------------------------------------------

def _csr_matvec_numpy(indptr, indices, data, x):
    prod = data * x[indices]
    cs = np.concatenate((np.zeros(1), np.cumsum(prod)))
    return cs[indptr[1:]] - cs[indptr[:-1]]


@njit(cache=True)
def _csr_matvec_numba(indptr, indices, data, x):
    n = indptr.shape[0] - 1
    y = np.zeros(n, dtype=np.float64)
    for i in range(n):
        acc = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            acc += data[k] * x[indices[k]]
        y[i] = acc
    return y


# ---------------------------------------------------------------------------
# Jacobi-preconditioned conjugate gradient on a consistent singular system.
#
# Solves A x = b where A is symmetric positive semidefinite with kernel
# span{kdir} (pass an empty kdir when A is definite).  b is deflated along
# kdir, search vectors are kept Euclid-orthogonal to kdir, and each iterate
# is projected onto the hyperplane {cvec . x = 0} along kdir (A kdir = 0, so
# the residual recurrence is unaffected).  Returns (x, iterations, relres).
# ---------------------------------------------------------------------------

def _pcg_numpy(indptr, indices, data, dinv, b, cvec, kdir, tol, maxiter):
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
        ap = _csr_matvec_numpy(indptr, indices, data, p)
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


@njit(cache=True)
def _pcg_numba(indptr, indices, data, dinv, b, cvec, kdir, tol, maxiter):
    n = b.shape[0]
    has_kernel = kdir.shape[0] > 0
    has_mean = cvec.shape[0] > 0
    bd = b.copy()
    kk = 0.0
    ck = 0.0
    if has_kernel:
        kb = 0.0
        for i in range(n):
            kk += kdir[i] * kdir[i]
            kb += kdir[i] * bd[i]
        s = kb / kk
        for i in range(n):
            bd[i] -= s * kdir[i]
        if has_mean:
            for i in range(n):
                ck += cvec[i] * kdir[i]
    bnorm = 0.0
    for i in range(n):
        bnorm += bd[i] * bd[i]
    bnorm = math.sqrt(bnorm)
    x = np.zeros(n, dtype=np.float64)
    if bnorm == 0.0:
        return x, 0, 0.0
    r = bd.copy()
    z = dinv * r
    if has_kernel:
        kz = 0.0
        for i in range(n):
            kz += kdir[i] * z[i]
        s = kz / kk
        for i in range(n):
            z[i] -= s * kdir[i]
    p = z.copy()
    rz = 0.0
    for i in range(n):
        rz += r[i] * z[i]
    relres = 1.0
    it = 0
    while it < maxiter:
        it += 1
        ap = _csr_matvec_numba(indptr, indices, data, p)
        pap = 0.0
        for i in range(n):
            pap += p[i] * ap[i]
        if pap <= 0.0:
            break
        alpha = rz / pap
        for i in range(n):
            x[i] += alpha * p[i]
        if has_kernel and has_mean:
            cx = 0.0
            for i in range(n):
                cx += cvec[i] * x[i]
            s = cx / ck
            for i in range(n):
                x[i] -= s * kdir[i]
        rnorm = 0.0
        for i in range(n):
            r[i] -= alpha * ap[i]
            rnorm += r[i] * r[i]
        relres = math.sqrt(rnorm) / bnorm
        if relres <= tol:
            break
        z = dinv * r
        if has_kernel:
            kz = 0.0
            for i in range(n):
                kz += kdir[i] * z[i]
            s = kz / kk
            for i in range(n):
                z[i] -= s * kdir[i]
        rz_new = 0.0
        for i in range(n):
            rz_new += r[i] * z[i]
        beta = rz_new / rz
        for i in range(n):
            p[i] = z[i] + beta * p[i]
        rz = rz_new
    return x, it, relres


# ---------------------------------------------------------------------------
# Bessel functions J_m: ascending series (x <= 12) and Miller's backward
# recurrence normalized by J_0 + 2 sum J_2k = 1 (x > 12).
# ---------------------------------------------------------------------------

@njit(cache=True)
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


@njit(cache=True)
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


@njit(cache=True)
def _bessel_j_kernel(m, x):
    if x <= 12.0:
        return _bessel_j_series(m, x)
    return _bessel_j_miller(m, x)


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    return _bessel_j_kernel(m, x)


# backend dispatch ----------------------------------------------------------

if NUMBA_ENABLED:
    tri_entries = _tri_entries_numba
    csr_matvec = _csr_matvec_numba
    pcg = _pcg_numba
else:
    tri_entries = _tri_entries_numpy
    csr_matvec = _csr_matvec_numpy
    pcg = _pcg_numpy
