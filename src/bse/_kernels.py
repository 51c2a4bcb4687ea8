"""Hot numerical kernels, one numpy/SciPy implementation per operation.

Every result is deterministic: the same inputs give bit-identical outputs.
"""

import numpy as np
import scipy.sparse as sp
from scipy import special


def kernel_backend():
    """Name the benchmark records; there is one implementation."""
    return "numpy"


# ---------------------------------------------------------------------------
# P1 triangle assembly: stiffness and consistent mass, COO entries
# ---------------------------------------------------------------------------

def tri_entries(vertices, triangles):
    """Vectorized per-triangle stiffness/mass entries.

    Returns (rows, cols, entries, areas); 9 COO entries per triangle in
    row-major local order, int32 indices, stiffness + i mass as ``entries``.
    Each symmetric stiffness pair is computed once: b_i b_j == b_j b_i.
    """
    x, y = vertices.take(triangles, axis=0).T  # (3, nt) each
    # b_i, c_i are the gradient components of the barycentric functions
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    i, j = np.triu_indices(3)  # the pairs 00 01 02 11 12 22
    stiff = (b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area)[:, None]
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    entries = np.empty((len(triangles), 9), dtype=np.complex128)
    # "clip" (the indices are in range) writes the strided ``out`` unbuffered
    np.take(stiff, [0, 1, 2, 1, 3, 4, 2, 4, 5], axis=1, out=entries.real, mode="clip")
    np.multiply(area[:, None], mref.ravel(), out=entries.imag)
    t = triangles.astype(np.int32 if len(vertices) <= np.iinfo(np.int32).max else np.int64)
    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    return rows, cols, entries.reshape(-1), area


# ---------------------------------------------------------------------------
# CSR matrix-vector product
# ---------------------------------------------------------------------------

def csr_matvec(indptr, indices, data, x):
    """y = A x for a CSR matrix given by its arrays (the benchmark's kernel probe)."""
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, x.size)) @ x


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    return float(special.jv(m, x))
