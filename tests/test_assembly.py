import math

import numpy as np
import pytest
import scipy.sparse as sp

from bse import assembly, mesh
from bse.assembly import CoupledField, ProblemParams
from bse.errors import (
    DegenerateConstraintError,
    DimensionMismatchError,
    InvalidArgumentError,
)


@pytest.fixture(scope="module")
def disk8():
    return mesh.generate_disk(8, 0)


@pytest.fixture(scope="module")
def disk32():
    return mesh.generate_disk(32, 0)


def test_sigma():
    assert assembly.sigma(0.0) == 0.0
    assert assembly.sigma(2.0) == 0.5
    with pytest.raises(InvalidArgumentError):
        assembly.sigma(-1.0)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        ProblemParams(K=-1.0)
    with pytest.raises(InvalidArgumentError):
        ProblemParams(gamma=0.0)
    ProblemParams(K=0.0, L=0.0, alpha=-2.0, beta=3.0, gamma=0.5)


def test_reference_triangle_local_matrices():
    m = mesh.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([[0, 1, 2]]), np.array([0, 1, 2]))
    forms = assembly.assemble_basic(m)
    np.testing.assert_allclose(
        forms.a_bulk.toarray(),
        0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-15)
    np.testing.assert_allclose(
        forms.m_bulk.toarray(),
        (0.5 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), atol=1e-16)


def test_surface_local_matrices():
    # closed 3-cycle: each edge contributes 1/h stiffness and h/6 mass stencils
    m = mesh.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([[0, 1, 2]]), np.array([0, 1, 2]))
    forms = assembly.assemble_basic(m)
    h01, h12, h20 = 1.0, np.sqrt(2.0), 1.0
    expected_stiff = np.array([
        [1 / h01 + 1 / h20, -1 / h01, -1 / h20],
        [-1 / h01, 1 / h01 + 1 / h12, -1 / h12],
        [-1 / h20, -1 / h12, 1 / h12 + 1 / h20]])
    np.testing.assert_allclose(forms.a_surf.toarray(), expected_stiff, atol=1e-14)
    expected_mass = np.array([
        [(h01 + h20) / 3, h01 / 6, h20 / 6],
        [h01 / 6, (h01 + h12) / 3, h12 / 6],
        [h20 / 6, h12 / 6, (h12 + h20) / 3]])
    np.testing.assert_allclose(forms.m_surf.toarray(), expected_mass, atol=1e-15)


def test_stiffness_row_sums_vanish(disk32):
    forms = assembly.assemble_basic(disk32)
    assert np.abs(forms.a_bulk @ np.ones(forms.n_bulk)).max() <= 1e-12
    assert np.abs(forms.a_surf @ np.ones(forms.n_surf)).max() <= 1e-12


def test_coupled_block_structure_dirichlet_limit(disk8):
    forms = assembly.assemble_basic(disk8)
    a = assembly.assemble_coupled(forms, 0.0, 5.0, gamma=2.0).toarray()
    nb = forms.n_bulk
    np.testing.assert_allclose(a[:nb, :nb], forms.a_bulk.toarray(), atol=1e-15)
    np.testing.assert_allclose(a[nb:, nb:], 2.0 * forms.a_surf.toarray(), atol=1e-15)
    assert np.abs(a[:nb, nb:]).max() == 0.0


def test_coupled_robin_blocks(disk8):
    forms = assembly.assemble_basic(disk8)
    s = 0.5  # sigma(2)
    alpha = 3.0
    a = assembly.assemble_coupled(forms, 2.0, alpha, gamma=1.0).toarray()
    nb = forms.n_bulk
    t = np.zeros((forms.n_surf, nb))
    t[np.arange(forms.n_surf), disk8.surface_nodes] = 1.0
    ms = forms.m_surf.toarray()
    np.testing.assert_allclose(a[:nb, :nb], forms.a_bulk.toarray() + s * t.T @ ms @ t,
                               atol=1e-14)
    np.testing.assert_allclose(a[:nb, nb:], -alpha * s * t.T @ ms, atol=1e-14)
    np.testing.assert_allclose(a[nb:, nb:], forms.a_surf.toarray() + alpha ** 2 * s * ms,
                               atol=1e-14)


@pytest.mark.parametrize("k_like,alpha", [(0.0, 2.0), (1.0, 2.0), (3.5, -1.5), (2.0, 0.0)])
def test_coupled_kernel_pair(disk32, k_like, alpha):
    forms = assembly.assemble_basic(disk32)
    a = assembly.assemble_coupled(forms, k_like, alpha, gamma=1.3)
    k = assembly.kernel_pair(forms, alpha)
    scale = np.abs(a.data).max()
    assert np.abs(a @ k).max() <= 1e-12 * scale


@pytest.mark.parametrize("k_like", [0.0, 1.0])
def test_matrices_are_scipy_csr_with_benchmark_members(disk8, k_like):
    """The coupled matrix and the block mass are SciPy CSR matrices that keep
    ``to_scipy()`` (returning the matrix itself) and ``n``: the benchmark
    calls both on them in ``gates.constrained_system``, ``gates.dense_eig2``,
    ``ops._replay_stage`` and ``ops.kernel_probes``."""
    forms = assembly.assemble_basic(disk8)
    for m in (assembly.assemble_coupled(forms, k_like, 1.5), forms.block_mass):
        assert isinstance(m, sp.csr_matrix)
        assert m.to_scipy() is m
        assert m.n == m.shape[0] == forms.n_total


def test_coupled_validation(disk8):
    forms = assembly.assemble_basic(disk8)
    with pytest.raises(InvalidArgumentError):
        assembly.assemble_coupled(forms, -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        assembly.assemble_coupled(forms, 1.0, 1.0, gamma=-2.0)


def test_coupled_psd_smallest_eigenvalue(disk32):
    forms = assembly.assemble_basic(disk32)
    a = assembly.assemble_coupled(forms, 1.0, 1.0).toarray()
    w = np.linalg.eigvalsh(a)
    assert w[0] >= -1e-10 * np.abs(a).max()


def quadratic_form_oracle(msh, field, k_like, alpha, gamma):
    """Element-wise recomputation of the energy quadratic form."""
    total = 0.0
    for tri in msh.triangles:
        p = msh.vertices[tri]
        u = field.u[tri]
        b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
        c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
        area = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                      - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        grad = np.array([u @ b, u @ c]) / (2.0 * area)
        total += area * (grad @ grad)
    s = assembly.sigma(k_like)
    trace = msh.surface_nodes
    ns = msh.n_surface
    lengths = msh.surface_lengths()
    for i in range(ns):
        j = (i + 1) % ns
        h = lengths[i]
        dv = field.v[j] - field.v[i]
        total += gamma * dv * dv / h
        if s != 0.0:
            # integral of the linear interpolant squared over the edge
            w0 = alpha * field.v[i] - field.u[trace[i]]
            w1 = alpha * field.v[j] - field.u[trace[j]]
            total += s * h * (w0 * w0 + w0 * w1 + w1 * w1) / 3.0
    return total


@pytest.mark.parametrize("k_like,alpha,gamma", [(0.0, 1.0, 1.0), (2.0, -1.5, 0.7), (1.0, 0.0, 2.0)])
def test_quadratic_form_identity(disk32, k_like, alpha, gamma):
    forms = assembly.assemble_basic(disk32)
    a = assembly.assemble_coupled(forms, k_like, alpha, gamma)
    rng = np.random.default_rng(12)
    for _ in range(5):
        field = CoupledField(rng.standard_normal(forms.n_bulk),
                             rng.standard_normal(forms.n_surf))
        x = field.to_vector()
        q_mat = x @ (a @ x)
        q_ora = quadratic_form_oracle(disk32, field, k_like, alpha, gamma)
        assert q_mat == pytest.approx(q_ora, rel=1e-12)


def test_dirichlet_reduction_matches_constrained_fields(disk8):
    # reduced quadratic form equals the full form on fields with u|G = alpha v
    alpha = 1.7
    forms = assembly.assemble_basic(disk8)
    a = assembly.assemble_coupled(forms, 0.0, alpha)
    cs = assembly.build_constraints(forms, 0.0, alpha, mean_like=1.0)
    r = cs.reduction_matrix()
    rng = np.random.default_rng(3)
    y = rng.standard_normal(r.shape[1])
    x = r @ y
    field = CoupledField.from_vector(disk8, x)
    np.testing.assert_allclose(field.u[disk8.surface_nodes], alpha * field.v, atol=1e-14)
    a_red = r.T @ a @ r
    assert y @ (a_red @ y) == pytest.approx(x @ (a @ x), rel=1e-13)


def test_constraints_mean_vector(disk8):
    forms = assembly.assemble_basic(disk8)
    beta = 1.5
    cs = assembly.build_constraints(forms, 1.0, 2.0, mean_like=beta)
    mm = mesh.measures(disk8)
    ones_bulk = np.concatenate([np.ones(forms.n_bulk), np.zeros(forms.n_surf)])
    assert cs.mean_vector @ ones_bulk == pytest.approx(beta * mm.area, rel=1e-13)
    ones_surf = np.concatenate([np.zeros(forms.n_bulk), np.ones(forms.n_surf)])
    assert cs.mean_vector @ ones_surf == pytest.approx(mm.perimeter, rel=1e-13)


def test_constraints_dirichlet_zero_alpha(disk8):
    forms = assembly.assemble_basic(disk8)
    cs = assembly.build_constraints(forms, 0.0, 0.0, mean_like=1.0)
    assert cs.has_elimination
    assert np.all(cs.elim_weight == 0.0)  # homogeneous Dirichlet on the bulk trace


def test_constraints_degenerate(disk8):
    forms = assembly.assemble_basic(disk8)
    mm = mesh.measures(disk8)
    alpha = 2.0
    mean = -mm.perimeter / (alpha * mm.area)
    with pytest.raises(DegenerateConstraintError):
        assembly.build_constraints(forms, 1.0, alpha, mean_like=mean)


def test_load_vector(disk8):
    forms = assembly.assemble_basic(disk8)
    sq = mesh.generate_square(3)
    sq_forms = assembly.assemble_basic(sq)
    load = assembly.assemble_load(sq_forms, np.ones(sq.n_vertices), np.zeros(sq.n_surface))
    assert load[:sq.n_vertices].sum() == pytest.approx(1.0, rel=1e-13)
    load = assembly.assemble_load(forms, np.zeros(forms.n_bulk), np.ones(forms.n_surf))
    assert load[forms.n_bulk:].sum() == pytest.approx(6.1229349, abs=1e-6)
    zero = assembly.assemble_load(forms, np.zeros(forms.n_bulk), np.zeros(forms.n_surf))
    assert np.all(zero == 0.0)
    with pytest.raises(DimensionMismatchError):
        assembly.assemble_load(forms, np.ones(3), np.ones(forms.n_surf))


def test_compatibility_defect_values(disk8):
    forms = assembly.assemble_basic(disk8)
    nb, ns = forms.n_bulk, forms.n_surf
    assert assembly.compatibility_defect(forms, np.zeros(nb), np.zeros(ns), 2.0) == 0.0
    assert assembly.compatibility_defect(forms, np.ones(nb), np.zeros(ns), 0.0) == 0.0
    mm = mesh.measures(disk8)
    defect = assembly.compatibility_defect(forms, np.full(nb, -4.0), np.full(ns, 4.0), 2.0)
    # 2*(-4)*|Omega_h| + 4*|Gamma_h|; nonzero on the polygon, zero in the continuum
    expected = -8.0 * mm.area + 4.0 * mm.perimeter
    assert defect == pytest.approx(expected, rel=1e-12)
    assert defect == pytest.approx(1.8643227, abs=1e-6)


def test_project_compatible(disk8):
    forms = assembly.assemble_basic(disk8)
    nb, ns = forms.n_bulk, forms.n_surf
    mm = mesh.measures(disk8)
    # already compatible: unchanged
    f, g = np.zeros(nb), np.zeros(ns)
    _, g2 = assembly.project_compatible(forms, f, g, 2.0)
    np.testing.assert_array_equal(g2, g)
    # constant shift by defect / |Gamma_h|
    f = np.full(nb, -4.0)
    g = np.full(ns, 4.0)
    defect = assembly.compatibility_defect(forms, f, g, 2.0)
    _, g2 = assembly.project_compatible(forms, f, g, 2.0)
    np.testing.assert_allclose(g2, g - defect / mm.perimeter, rtol=1e-14)
    scale = assembly.compatibility_scale(forms, f, g2, 2.0)
    assert abs(assembly.compatibility_defect(forms, f, g2, 2.0)) <= 1e-14 * scale
    # f = 0, g constant: projects to zero
    _, g3 = assembly.project_compatible(forms, np.zeros(nb), np.full(ns, 3.3), 1.0)
    np.testing.assert_allclose(g3, np.zeros(ns), atol=1e-14)


def test_coupled_field_validation(disk8):
    with pytest.raises(InvalidArgumentError):
        CoupledField(np.array([np.nan]), np.array([1.0]))
    f = CoupledField(np.zeros(disk8.n_vertices), np.zeros(disk8.n_surface))
    f.check_mesh(disk8)
    with pytest.raises(DimensionMismatchError):
        CoupledField(np.zeros(3), np.zeros(2)).check_mesh(disk8)


def test_lumped_weights_match_exact_row_sums():
    # the lumped weights are the mean-constraint vector; each must be its
    # mass row's sum to within roundoff of that row, at any matrix size
    forms = assembly.assemble_basic(mesh.generate_disk(64, 3))
    for mat, lumped in ((forms.m_bulk, forms.lumped_bulk), (forms.m_surf, forms.lumped_surf)):
        ptr, data = mat.indptr, mat.data
        rows = [data[ptr[i]:ptr[i + 1]] for i in range(mat.shape[0])]
        exact = np.array([math.fsum(r) for r in rows])
        scale = np.array([math.fsum(np.abs(r)) for r in rows])
        assert np.max(np.abs(lumped - exact) / scale) <= 1e-14
