import dataclasses

import numpy as np
import pytest

from bse import assembly, eigen, linalg, mesh, solver
from bse.assembly import CoupledField, ProblemParams
from bse.errors import InvalidArgumentError, SingularSystemError


@pytest.fixture(scope="module")
def disk():
    return mesh.generate_disk(32, 1)


@pytest.fixture(scope="module")
def small_disk():
    return mesh.generate_disk(16, 0)


def random_constrained(msh, params, mean_like, rng):
    """Random field satisfying the trace condition and the mean constraint."""
    forms = assembly.assemble_basic(msh)
    x = np.concatenate([rng.standard_normal(msh.n_vertices),
                        rng.standard_normal(msh.n_surface)])
    if params.K == 0.0:
        x[msh.surface_nodes] = params.alpha * x[msh.n_vertices:]
    cs = assembly.build_constraints(forms, params.K, params.alpha, mean_like)
    k = assembly.kernel_pair(forms, params.alpha)
    x -= (cs.mean_vector @ x) / (cs.mean_vector @ k) * k
    return CoupledField.from_vector(msh, x)


def test_decoupled_surface_spectrum(disk):
    p = ProblemParams(K=1.0, alpha=0.0, gamma=1.0)
    res = eigen.eig_second(disk, p, k=10)
    forms = assembly.assemble_basic(disk)
    surface = [lam for lam, f in zip(res.eigenvalues, res.fields)
               if solver.inner_h0(forms, CoupledField(np.zeros(disk.n_vertices), f.v),
                                  CoupledField(np.zeros(disk.n_vertices), f.v))
               > 0.5 * solver.inner_h0(forms, f, f)]
    np.testing.assert_allclose(surface[:4], [1.0, 1.0, 4.0, 4.0], rtol=2e-2)


def test_rayleigh_identity_per_pair(disk):
    p = ProblemParams(K=1.0, alpha=1.0, gamma=1.0)
    res = eigen.eig_second(disk, p, k=6)
    forms = assembly.assemble_basic(disk)
    for lam, f in zip(res.eigenvalues, res.fields):
        energy = solver.inner_ka(forms, p, f, f)
        mass = solver.inner_h0(forms, f, f)
        assert energy == pytest.approx(lam * mass, rel=1e-12)


def _check_sorted_positive_orthonormal(msh, p, fourth=False, residual_tol=1e-10):
    res = (eigen.eig_fourth if fourth else eigen.eig_second)(msh, p, k=8)
    assert np.all(np.diff(res.eigenvalues) >= -1e-14)
    assert res.eigenvalues[0] > 1e-12
    assert res.gram_defect <= 1e-8
    assert res.residuals.max() <= residual_tol
    if fourth:  # B = M A_L^+ M: the gram defect is the B-orthonormality
        return
    forms = assembly.assemble_basic(msh)
    # mass-orthonormality across all computed pairs, including multiplets
    for i, fi in enumerate(res.fields):
        for j, fj in enumerate(res.fields):
            expect = 1.0 if i == j else 0.0
            assert solver.inner_h0(forms, fi, fj) == pytest.approx(expect, abs=1e-10)


def test_eigenvalues_sorted_positive_orthonormal(disk):
    _check_sorted_positive_orthonormal(disk, ProblemParams(K=0.0, alpha=1.0, gamma=1.0))


@pytest.mark.parametrize("fourth, refine, params, residual_tol", [
    (False, 3, {}, 1e-10),
    (False, 4, {}, 1e-10),
    (True, 3, {}, 1e-10),
    (True, 4, {}, 1e-10),
    # the pencil of a tiny Robin weight is nearly singular: its residuals are
    # about 2e-7, inside the DIRECT_RESIDUAL_TOL that every eigensolve checks
    (False, 1, {"K": 1e-9}, 1e-6),
    (False, 1, {"alpha": 100.0, "gamma": 1e3}, 1e-10),
    (True, 1, {"L": 1e-6}, 1e-10),
    (True, 1, {"gamma": 1e-3}, 1e-10),
])
def test_hard_cases_sorted_positive_orthonormal(fourth, refine, params, residual_tol):
    # the eigenvectors are used as ARPACK returns them, with no
    # re-orthonormalization: they stay B-orthonormal on fine meshes, with
    # tiny and large weights, for both pencils
    p = ProblemParams(**{"K": 0.0, "alpha": 1.0, "gamma": 1.0, **params})
    _check_sorted_positive_orthonormal(mesh.generate_disk(32, refine), p, fourth, residual_tol)


def test_eigenfields_satisfy_mean_constraint(disk):
    p = ProblemParams(K=1.0, alpha=1.0, gamma=1.0)
    res = eigen.eig_second(disk, p, k=6)
    forms = assembly.assemble_basic(disk)
    cs = assembly.build_constraints(forms, p.K, p.alpha, p.alpha)
    for f in res.fields:
        assert abs(cs.mean_vector @ f.to_vector()) <= 1e-8


def test_gamma_scales_decoupled_surface_modes(small_disk):
    p1 = ProblemParams(K=1.0, alpha=0.0, gamma=1.0)
    p3 = ProblemParams(K=1.0, alpha=0.0, gamma=3.0)
    forms = assembly.assemble_basic(small_disk)

    def surface_lams(res):
        out = []
        for lam, f in zip(res.eigenvalues, res.fields):
            sv = f.v @ (forms.m_surf @ f.v)
            if sv > 0.5 * solver.inner_h0(forms, f, f):
                out.append(lam)
        return out

    s1 = surface_lams(eigen.eig_second(small_disk, p1, k=8))
    s3 = surface_lams(eigen.eig_second(small_disk, p3, k=8))
    np.testing.assert_allclose(np.array(s3[:2]), 3.0 * np.array(s1[:2]), rtol=1e-10)


def test_fourth_order_squares_second_when_params_equal(small_disk):
    p = ProblemParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    r2 = eigen.eig_second(small_disk, p, k=6)
    r4 = eigen.eig_fourth(small_disk, p, k=6)
    np.testing.assert_allclose(r4.eigenvalues, r2.eigenvalues ** 2, rtol=1e-8)


def test_fourth_order_identity_and_constraint(small_disk):
    p = ProblemParams(K=1.0, L=2.0, alpha=1.5, beta=0.5)
    res = eigen.eig_fourth(small_disk, p, k=5)
    forms = assembly.assemble_basic(small_disk)
    assert res.eigenvalues[0] > 1e-12
    assert res.gram_defect <= 1e-8
    cs = assembly.build_constraints(forms, p.K, p.alpha, p.beta)
    inner_params = ProblemParams(K=p.L, L=p.L, alpha=p.beta, beta=p.alpha, gamma=p.gamma)
    for lam, f in zip(res.eigenvalues, res.fields):
        assert abs(cs.mean_vector @ f.to_vector()) <= 1e-8
        # energy of the eigenfield equals lambda times the energy of its solve
        s = solver.solve_second(small_disk, inner_params, f.u, f.v).field
        energy = solver.inner_ka(forms, p, f, f)
        inner_energy = solver.inner_ka(forms, inner_params, s, s)
        assert energy == pytest.approx(lam * inner_energy, rel=1e-10)


def test_expansion_reconstructs_constrained_fields():
    msh = mesh.generate_disk(8, 0)
    p = ProblemParams(K=1.0, alpha=1.0, gamma=1.0)
    forms = assembly.assemble_basic(msh)
    dim = msh.n_vertices + msh.n_surface - 1
    res = eigen.eig_second(msh, p, k=dim)
    assert res.method == "dense"  # the whole spectrum is beyond ARPACK
    rng = np.random.default_rng(0)
    y = random_constrained(msh, p, p.alpha, rng)
    mass = forms.block_mass
    recon = np.zeros(msh.n_vertices + msh.n_surface)
    yv = y.to_vector()
    for f in res.fields:
        coeff = f.to_vector() @ (mass @ yv)
        recon += coeff * f.to_vector()
    np.testing.assert_allclose(recon, yv, atol=1e-8 * max(1.0, np.abs(yv).max()))


@pytest.mark.parametrize("fourth, k_like", [(False, 0.0), (True, 0.0), (True, 1.0)],
                         ids=["eig2-K0", "eig4-K0", "eig4-K1"])
@pytest.mark.parametrize("short, method", [(0, "dense"), (2, "arpack")],
                         ids=["dense", "arpack"])
def test_whole_spectrum_matches_dense_oracle(fourth, k_like, short, method,
                                             dense_bordered_solve, dense_constrained_eigs):
    # k = dim runs the dense fallback, k = dim - 2 the largest ARPACK request,
    # whose Krylov space fills the constrained space
    msh = mesh.generate_disk(8, 0)
    p = ProblemParams(K=k_like, L=2.0, alpha=1.5, beta=0.5)
    forms = assembly.assemble_basic(msh)
    mass = forms.block_mass.toarray()
    a = assembly.assemble_coupled(forms, p.K, p.alpha, p.gamma)
    if fourth:
        cs = assembly.build_constraints(forms, p.K, p.alpha, p.beta)
        b = mass @ dense_bordered_solve(assembly.assemble_coupled(forms, p.L, p.beta, p.gamma),
                                        mass, assembly.build_constraints(forms, p.L, p.beta, p.alpha))
    else:
        cs = assembly.build_constraints(forms, p.K, p.alpha, p.alpha)
        b = mass
    k = cs.retained().size - 1 - short
    res = (eigen.eig_fourth if fourth else eigen.eig_second)(msh, p, k)
    assert res.method == method
    np.testing.assert_allclose(res.eigenvalues, dense_constrained_eigs(a, b, cs, k),
                               rtol=1e-9, atol=0)
    assert res.residuals.max() <= 1e-10
    assert res.gram_defect <= 1e-8


def test_poincare_matches_first_eigenvalue(disk):
    p = ProblemParams(K=1.0, alpha=1.0, beta=1.0, gamma=1.0)
    res = eigen.eig_second(disk, p, k=1)
    c = eigen.poincare_constant(disk, p)
    assert c == pytest.approx(res.eigenvalues[0] ** -0.5, rel=1e-10)


def test_poincare_bounds_random_fields(disk):
    p = ProblemParams(K=1.0, alpha=1.0, beta=1.0)
    c = eigen.poincare_constant(disk, p)
    forms = assembly.assemble_basic(disk)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = random_constrained(disk, p, p.beta, rng)
        h0 = np.sqrt(solver.inner_h0(forms, x, x))
        ka = solver.norm_ka(forms, p, x)
        assert h0 <= c * ka * (1.0 + 1e-10)
    # equality at the minimizing eigenvector
    res = eigen.eig_second(disk, p, k=1)
    f = res.fields[0]
    h0 = np.sqrt(solver.inner_h0(forms, f, f))
    ka = solver.norm_ka(forms, p, f)
    assert h0 == pytest.approx(c * ka, rel=1e-8)


def test_poincare_monotone_on_nested_square_meshes():
    # nested P1 spaces enlarge the admissible set, so the discrete constant
    # grows monotonically toward the continuum value under refinement
    p = ProblemParams(K=1.0, alpha=1.0, beta=1.0)
    values = [eigen.poincare_constant(mesh.generate_square(n), p) for n in (2, 4, 8)]
    assert values[1] >= values[0] - 1e-10
    assert values[2] >= values[1] - 1e-10


@pytest.mark.parametrize("k_like", [0.0, 1.0])
def test_norm_equivalence(disk, k_like):
    p = ProblemParams(K=k_like, alpha=1.0, beta=1.0)
    a_h, b_h, f_hi, f_lo = eigen.norm_equivalence_constants(disk, p, return_fields=True)
    assert np.isfinite(a_h) and np.isfinite(b_h) and a_h > 0 and b_h > 0
    forms = assembly.assemble_basic(disk)

    def h1_norm(x):
        q = (x.u @ (forms.a_bulk @ x.u) + x.u @ (forms.m_bulk @ x.u)
             + x.v @ (forms.a_surf @ x.v) + x.v @ (forms.m_surf @ x.v))
        return np.sqrt(max(q, 0.0))

    rng = np.random.default_rng(2)
    for _ in range(50):
        x = random_constrained(disk, p, p.beta, rng)
        h1 = h1_norm(x)
        ka = solver.norm_ka(forms, p, x)
        assert h1 <= a_h * ka * (1 + 1e-10)
        assert ka <= b_h * h1 * (1 + 1e-10)
    # equality attained at the extremal eigenfields
    assert h1_norm(f_hi) == pytest.approx(a_h * solver.norm_ka(forms, p, f_hi), rel=1e-8)
    assert solver.norm_ka(forms, p, f_lo) == pytest.approx(b_h * h1_norm(f_lo), rel=1e-8)


def test_minimax_check_and_negative_control(small_disk, minimax_check):
    p = ProblemParams(K=1.0, alpha=1.0, gamma=1.0)
    res = eigen.eig_second(small_disk, p, k=5)
    violation = minimax_check(res, small_disk, p, trials=30, seed=3)
    assert violation <= 1e-10
    # perturbing an eigenvector must produce a detectable violation
    c = assembly.build_constraints(assembly.assemble_basic(small_disk), p.K, p.alpha, p.alpha).mean_vector
    rng = np.random.default_rng(4)
    # a perturbation inside the constrained space {c.x = 0}
    r = rng.standard_normal(c.shape[0])
    x_bad = res.fields[0].to_vector() + 0.2 * (r - (c @ r) / (c @ c) * c)
    bad = dataclasses.replace(res, fields=[CoupledField.from_vector(small_disk, x_bad)] + res.fields[1:])
    assert minimax_check(bad, small_disk, p, trials=30, seed=3) > 1e-6


def test_eig_argument_validation(small_disk):
    p = ProblemParams(K=1.0, alpha=1.0)
    with pytest.raises(InvalidArgumentError):
        eigen.eig_second(small_disk, p, k=0)
    with pytest.raises(InvalidArgumentError):
        eigen.eig_second(small_disk, p, k=10 ** 6)
    with pytest.raises(TypeError):
        eigen.eig_second(small_disk, p, k=2, backend="lanczos")


def test_multiplicity_reporting(disk):
    p = ProblemParams(K=1.0, alpha=0.0, gamma=1.0)
    res = eigen.eig_second(disk, p, k=5)
    # the circle surface modes come in exact discrete pairs on the regular polygon
    pairs = [i for i, m in enumerate(res.multiplicities) if m == 2]
    assert pairs, "expected at least one exact multiplet"


@pytest.mark.parametrize("k_like", [0.0, 1.0])
@pytest.mark.parametrize("beta", [1.0, 0.5], ids=["beta=alpha", "beta!=alpha"])
def test_sparse_eigs_match_dense_oracle(disk, k_like, beta, dense_bordered_solve,
                                        dense_constrained_eigs):
    # beta = alpha with L = K: eig_fourth's two systems coincide
    p = ProblemParams(K=k_like, L=k_like if beta == 1.0 else 2.0, alpha=1.0, beta=beta)
    forms = assembly.assemble_basic(disk)
    mass = forms.block_mass.toarray()
    a = assembly.assemble_coupled(forms, p.K, p.alpha, p.gamma)
    cs = assembly.build_constraints(forms, p.K, p.alpha, p.beta)
    # B = M A_L^+ M from dense constrained solves of the (L, beta) system
    a_inv_m = dense_bordered_solve(assembly.assemble_coupled(forms, p.L, p.beta, p.gamma), mass,
                                   assembly.build_constraints(forms, p.L, p.beta, p.alpha))
    k = 8
    ref2 = dense_constrained_eigs(a, mass, assembly.build_constraints(forms, p.K, p.alpha, p.alpha), k)
    ref4 = dense_constrained_eigs(a, mass @ a_inv_m, cs, k)
    ref_poincare = dense_constrained_eigs(a, mass, cs, 1)[0] ** -0.5

    r2 = eigen.eig_second(disk, p, k)
    r4 = eigen.eig_fourth(disk, p, k)
    for res in (r2, r4):
        assert res.method == "arpack" and res.op_applications > 0
    np.testing.assert_allclose(r2.eigenvalues, ref2, rtol=1e-9, atol=0)
    np.testing.assert_allclose(r4.eigenvalues, ref4, rtol=1e-9, atol=0)
    assert eigen.poincare_constant(disk, p) == pytest.approx(ref_poincare, rel=1e-10, abs=0)


@pytest.mark.parametrize("params, factorizations", [
    (ProblemParams(K=1.0, L=1.0, alpha=1.5, beta=1.5), 1),
    (ProblemParams(K=1.0, L=2.0, alpha=1.5, beta=0.5), 2),
], ids=["coinciding", "distinct"])
def test_eig4_factors_coinciding_systems_once(small_disk, splu_calls, params, factorizations):
    eigen.eig_fourth(small_disk, params, k=3)
    assert len(splu_calls) == factorizations


def test_norm_equivalence_factors_nothing(small_disk, splu_calls):
    # the dense pencil needs the reduction of the energy matrix, not its LU
    eigen.norm_equivalence_constants(small_disk, ProblemParams(K=0.0, alpha=1.5, beta=0.5))
    assert splu_calls == []


@pytest.mark.parametrize("return_fields", [False, True])
def test_norm_equivalence_makes_one_dense_eigensolve(small_disk, monkeypatch, return_fields):
    # both extremes come from the one pencil (A, H1): no second reduction
    import scipy.linalg as sla

    calls = []
    real = sla.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", counting)
    out = eigen.norm_equivalence_constants(small_disk, ProblemParams(), return_fields=return_fields)
    assert len(out) == (4 if return_fields else 2)
    assert len(calls) == 1
    assert calls[0].get("eigvals_only", False) is not return_fields


@pytest.mark.parametrize("k_like, refine, alpha, gamma", [
    (0.0, 1, 1.0, 1.0), (0.0, 2, 1.0, 1.0), (1.0, 1, 1.0, 1.0), (1.0, 2, 1.0, 1.0),
    (0.0, 1, 1.5, 0.3), (1.0, 1, 1.5, 0.3),
], ids=["0.0-1", "0.0-2", "1.0-1", "1.0-2", "0.0-1-alpha1.5-gamma0.3", "1.0-1-alpha1.5-gamma0.3"])
def test_norm_equivalence_matches_two_subset_eigensolves(k_like, refine, alpha, gamma):
    # the computation the single eigensolve replaced: the smallest eigenvalue
    # of (H1, A) gives B_h, that of (A, H1) gives A_h, in a null_space basis
    import scipy.linalg as sla
    import scipy.sparse as sp

    msh = mesh.generate_disk(16 if refine == 2 else 32, refine)
    p = ProblemParams(K=k_like, alpha=alpha, beta=1.0, gamma=gamma)
    a_h, b_h = eigen.norm_equivalence_constants(msh, p)
    forms = assembly.assemble_basic(msh)
    a = assembly.assemble_coupled(forms, p.K, p.alpha, p.gamma)
    red = linalg.ReducedSystem(a, assembly.build_constraints(forms, p.K, p.alpha, p.beta))
    q = sla.null_space(red.c_red[None, :])
    a_qq = q.T @ (red.a_red @ q)
    h1 = sp.block_diag([forms.a_bulk + forms.m_bulk, forms.a_surf + forms.m_surf], format="csr")
    h1_qq = q.T @ red.reduce_rhs(h1 @ red.expand(q))
    lo = sla.eigh(h1_qq, a_qq, subset_by_index=[0, 0], eigvals_only=True)[0]
    inv_hi = sla.eigh(a_qq, h1_qq, subset_by_index=[0, 0], eigvals_only=True)[0]
    assert a_h == pytest.approx(np.sqrt(1.0 / inv_hi), rel=1e-12)
    assert b_h == pytest.approx(np.sqrt(1.0 / lo), rel=1e-12)


@pytest.mark.parametrize("return_fields", [False, True])
@pytest.mark.parametrize("k_like", [0.0, 1.0])
def test_norm_equivalence_peak_memory(k_like, return_fields):
    # one reflector restricts the dense pencil in place: the two n x n matrices
    # and LAPACK's workspace, no n x (n - 1) basis and no basis products
    # (a null_space basis peaked at 5.0 n^2 doubles, 7.0 n^2 with fields)
    import tracemalloc

    msh = mesh.generate_disk(64, 1)
    n = msh.n_vertices + (msh.n_surface if k_like else 0)  # K = 0 eliminates the trace
    tracemalloc.start()
    try:
        eigen.norm_equivalence_constants(msh, ProblemParams(K=k_like), return_fields=return_fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n ** 2


def test_norm_equivalence_rejects_an_indefinite_energy_matrix(small_disk, monkeypatch):
    # H1 is factored, not the energy matrix: an indefinite one shows as a
    # nonpositive smallest eigenvalue
    real = assembly.assemble_coupled
    monkeypatch.setattr(assembly, "assemble_coupled", lambda *args: -real(*args))
    with pytest.raises(SingularSystemError, match="not positive definite"):
        eigen.norm_equivalence_constants(small_disk, ProblemParams())
