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
# Bessel functions J_m over arrays of orders and arguments: ascending series
# (x <= 12) and Miller's backward recurrence normalized by
# J_0 + 2 sum J_2k = 1 (x > 12).  Every element goes through the same
# floating-point operations, in the same order, whatever the arrays hold.
# ---------------------------------------------------------------------------

def _flat(m, x):
    m, x = np.broadcast_arrays(np.asarray(m, dtype=np.int64),
                               np.asarray(x, dtype=np.float64))
    return m.reshape(-1), x.reshape(-1)


def _bessel_j_series(m, x):
    m, x = _flat(m, x)
    half = 0.5 * x
    term = np.ones_like(half)
    for i in range(1, int(m.max(initial=0)) + 1):
        np.multiply(term, half / i, out=term, where=m >= i)
    total = term.copy()
    # 63 terms suffice for x <= 12 (tail < 1e-70); once a term underflows
    # to zero the rest add nothing
    j = np.arange(1, 64)[:, None]
    for factor in (-half * half) / (j * (m + j)).astype(np.float64):
        term *= factor
        total += term
    return total


def _bessel_j_miller(m, x):
    m, x = _flat(m, x)
    # start index well above max(m, x); even start keeps the recurrence stable
    starts = []
    for order, v in zip(m.tolist(), x.tolist()):
        nstart = max(int(v + 20.0 + 12.0 * v ** (1.0 / 3.0)), order + 20)
        starts.append(nstart + nstart % 2)
    # descending start order: at index k the running elements are a prefix
    order = np.argsort(-np.array(starts), kind="stable")
    m, xs = m[order], x[order]
    starts = [starts[i] for i in order.tolist()]
    n = x.size
    f_up = np.zeros(n)  # f_{k+1}
    f_k = np.full(n, 1e-30)  # f_k, starting at k = nstart
    norm = np.zeros(n)  # accumulates 2 * sum of f at even indices >= 2
    f_m = np.zeros(n)
    m_lo, m_hi = int(m.min()), int(m.max())
    live = 0
    for k in range(starts[0], 0, -1):
        while live < n and starts[live] >= k:
            live += 1
        up, cur = f_up[:live], f_k[:live]
        f_dn = (2.0 * k / xs[:live]) * cur - up
        up[:] = cur
        cur[:] = f_dn  # f_k now holds f_{k-1}
        idx = k - 1
        if idx > 0 and idx % 2 == 0:
            norm[:live] += 2.0 * cur
        if m_lo <= idx <= m_hi:  # every element is running at its own order
            np.copyto(f_m[:live], cur, where=m[:live] == idx)
        big = np.abs(cur) > 1e250
        if big.any():
            for arr in (cur, up, norm[:live], f_m[:live]):
                arr[big] *= 1e-250
    norm += f_k  # add f_0 once: J_0 + 2*(J_2 + J_4 + ...) = 1
    out = np.empty(n)
    out[order] = f_m / norm
    return out


def bessel_j_array(m, x):
    """J_m(x) elementwise for integer orders m >= 0 and arguments x >= 0,
    broadcast against each other (no argument validation here)."""
    shape = np.broadcast_shapes(np.shape(m), np.shape(x))
    m, x = _flat(m, x)
    out = np.empty(x.size)
    low = x <= 12.0
    if low.any():
        out[low] = _bessel_j_series(m[low], x[low])
    if not low.all():
        out[~low] = _bessel_j_miller(m[~low], x[~low])
    return out.reshape(shape)


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    return float(bessel_j_array(m, x))
