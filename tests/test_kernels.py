"""The hot kernels must agree with independent oracles."""

import numpy as np
import scipy.sparse as sp

from bse import _kernels


def _random_csr(n, rng):
    a = sp.random(n, n, density=0.2, random_state=np.random.RandomState(3), format="csr")
    a = a + sp.eye(n)
    a.sort_indices()
    return a


def test_csr_matvec_matches_scipy():
    rng = np.random.default_rng(0)
    a = _random_csr(50, rng)
    x = rng.standard_normal(50)
    got = _kernels.csr_matvec(a.indptr.astype(np.int64), a.indices.astype(np.int64),
                              np.asarray(a.data, dtype=np.float64), x)
    np.testing.assert_allclose(got, a @ x, atol=1e-13)


def test_tri_entries_reference_triangle():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]], dtype=np.int64)
    rows, cols, entries, areas = _kernels.tri_entries(vertices, triangles)
    stiff, mass = entries.real, entries.imag
    k = np.zeros((3, 3))
    m = np.zeros((3, 3))
    for r, c, sv, mv in zip(rows, cols, stiff, mass):
        k[r, c] += sv
        m[r, c] += mv
    np.testing.assert_allclose(k, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]),
                               atol=1e-15)
    np.testing.assert_allclose(m, (0.5 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
                               atol=1e-16)
    np.testing.assert_allclose(areas, [0.5])


def test_bessel_vs_scipy_grid(bessel_reference):
    # the scalar probe and the array evaluation of the oracle scan against
    # 40-digit mpmath literals
    from bse import oracle

    m, x, j, jp = (np.array(col) for col in zip(*bessel_reference))
    for mi, xi, ji in zip(m.tolist(), x.tolist(), j.tolist()):
        assert abs(_kernels.bessel_j_raw(mi, xi) - ji) <= 1e-14
    j_arr, jp_arr = oracle._bessel_pair(m, x)
    assert np.max(np.abs(j_arr - j)) <= 1e-14
    assert np.max(np.abs(jp_arr - jp)) <= 1e-14


def test_backend_flag_reports():
    assert _kernels.kernel_backend() == "numpy"
