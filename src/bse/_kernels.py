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


def bessel_j_raw(m, x):
    """J_m(x) for integer m >= 0, x >= 0 (no argument validation here)."""
    return float(special.jv(m, x))
