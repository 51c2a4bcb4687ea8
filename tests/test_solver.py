import signal

import numpy as np
import pytest

from bse import assembly, expr, mesh, oracle, solver
from bse.assembly import CoupledField, ProblemParams
from bse.errors import DomainError, IncompatibleSourceError

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def disk():
    return mesh.generate_disk(24, 0)


@pytest.fixture(scope="module")
def disk_forms(disk):
    return assembly.assemble_basic(disk)


def random_compatible(forms, alpha_like, rng):
    f = rng.standard_normal(forms.n_bulk)
    g = rng.standard_normal(forms.n_surf)
    return assembly.project_compatible(forms, f, g, alpha_like)


def test_zero_sources_give_zero_solution(disk):
    p = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    rep = solver.solve_second(disk, p, np.zeros(disk.n_vertices), np.zeros(disk.n_surface))
    assert np.all(rep.field.u == 0.0)
    assert np.all(rep.field.v == 0.0)
    rep4 = solver.solve_fourth(disk, p, np.zeros(disk.n_vertices), np.zeros(disk.n_surface))
    assert np.all(rep4.field.u == 0.0)
    assert np.all(rep4.intermediate.u == 0.0)


def test_strict_gate_and_autoprojection(disk):
    p = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    f = np.full(disk.n_vertices, -4.0)
    g = np.full(disk.n_surface, 4.0)  # discrete defect is O(h^2), nonzero
    with pytest.raises(IncompatibleSourceError):
        solver.solve_second(disk, p, f, g, strict=True)
    rep = solver.solve_second(disk, p, f, g, strict=False)
    forms = assembly.assemble_basic(disk)
    scale = assembly.compatibility_scale(forms, f, g, p.alpha)
    assert abs(rep.defect_compat) > 1e-10 * scale
    assert abs(rep.defect_compat_post) <= 1e-14 * scale


@pytest.mark.parametrize("strict", [True, False])
def test_non_finite_sources_are_rejected(disk, strict):
    p = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    f, g = np.zeros(disk.n_vertices), np.zeros(disk.n_surface)
    f[3] = np.nan
    with pytest.raises(DomainError, match="^source f is nan at node 3"):
        solver.solve_second(disk, p, f, g, strict=strict)
    f[3], g[5] = 0.0, -np.inf
    with pytest.raises(DomainError, match="^source g is -inf at node 5"):
        solver.solve_second(disk, p, f, g, strict=strict)


def test_manufactured_solution_accuracy():
    # fine mesh: discrete solution close to the closed-form fields
    p = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    m = mesh.generate_disk(32, 2)
    man = oracle.manufactured_second(p.K, p.alpha, p.beta)
    f = np.full(m.n_vertices, man.f_value())
    g = np.full(m.n_surface, man.g_value())
    rep = solver.solve_second(m, p, f, g, strict=False)
    u_exact = expr.eval_on_points(expr.parse(man.u_expr), m.vertices)
    assert np.abs(rep.field.u - u_exact).max() < 5e-3
    assert np.abs(rep.field.v - man.v_value).max() < 5e-3
    assert rep.defect_mean <= 1e-12 * np.linalg.norm(rep.field.to_vector())


def test_robin_mean_flux_identity(disk):
    # testing the weak form with (1, 0): -int(f) = sigma * int(alpha v - u)
    p = ProblemParams(K=2.0, alpha=1.5, beta=0.5)
    forms = assembly.assemble_basic(disk)
    f, g = random_compatible(forms, p.alpha, np.random.default_rng(1))
    rep = solver.solve_second(disk, p, f, g)
    lhs = -forms.lumped_bulk @ f
    trace = disk.surface_nodes
    rhs = (1.0 / p.K) * (forms.lumped_surf @ (p.alpha * rep.field.v - rep.field.u[trace]))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_fourth_equals_second_twice_when_params_match(disk):
    p = ProblemParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    forms = assembly.assemble_basic(disk)
    f, g = random_compatible(forms, p.alpha, np.random.default_rng(2))
    rep4 = solver.solve_fourth(disk, p, f, g)
    rep2a = solver.solve_second(disk, p, f, g)
    rep2b = solver.solve_second(disk, p, rep2a.field.u, rep2a.field.v)
    scale = np.abs(rep4.field.to_vector()).max()
    np.testing.assert_allclose(rep4.field.to_vector(), rep2b.field.to_vector(),
                               atol=1e-12 * max(scale, 1.0))
    np.testing.assert_allclose(rep4.intermediate.to_vector(), rep2a.field.to_vector(),
                               atol=1e-12 * max(scale, 1.0))


def test_solution_operator_self_adjoint(disk, disk_forms):
    p = ProblemParams(K=1.0, alpha=1.3, beta=0.8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        fa, ga = random_compatible(disk_forms, p.alpha, rng)
        fb, gb = random_compatible(disk_forms, p.alpha, rng)
        sa = solver.solve_second(disk, p, fa, ga).field
        sb = solver.solve_second(disk, p, fb, gb).field
        lhs = sa.to_vector() @ assembly.assemble_load(disk_forms, fb, gb)
        rhs = sb.to_vector() @ assembly.assemble_load(disk_forms, fa, ga)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_energy_identity_and_injectivity(disk, disk_forms):
    p = ProblemParams(K=0.5, alpha=2.0, beta=1.0)
    rng = np.random.default_rng(4)
    f, g = random_compatible(disk_forms, p.alpha, rng)
    rep = solver.solve_second(disk, p, f, g)
    energy = solver.inner_ka(disk_forms, p, rep.field, rep.field)
    pairing = rep.field.to_vector() @ assembly.assemble_load(disk_forms, f, g)
    assert energy == pytest.approx(pairing, rel=1e-10)
    assert solver.norm_ka(disk_forms, p, rep.field) > 1e-8  # injectivity on nonzero source


def test_dirichlet_coupling_solve(disk):
    # K = 0 path: eliminated boundary values match alpha * v exactly
    p = ProblemParams(K=0.0, alpha=1.5, beta=1.0)
    forms = assembly.assemble_basic(disk)
    f, g = random_compatible(forms, p.alpha, np.random.default_rng(5))
    rep = solver.solve_second(disk, p, f, g)
    np.testing.assert_allclose(rep.field.u[disk.surface_nodes], p.alpha * rep.field.v,
                               atol=1e-13 * max(1.0, np.abs(rep.field.v).max()))


def test_inner_ka_kernel_and_cauchy_schwarz(disk, disk_forms):
    p = ProblemParams(K=1.0, alpha=2.0)
    kernel = CoupledField(np.full(disk.n_vertices, p.alpha), np.ones(disk.n_surface))
    rng = np.random.default_rng(6)
    zero = CoupledField(np.zeros(disk.n_vertices), np.zeros(disk.n_surface))
    assert solver.norm_ka(disk_forms, p, zero) == 0.0
    for _ in range(20):
        b = CoupledField(rng.standard_normal(disk.n_vertices),
                         rng.standard_normal(disk.n_surface))
        assert abs(solver.inner_ka(disk_forms, p, kernel, b)) <= 1e-10
        a = CoupledField(rng.standard_normal(disk.n_vertices),
                         rng.standard_normal(disk.n_surface))
        lhs = abs(solver.inner_ka(disk_forms, p, a, b))
        rhs = solver.norm_ka(disk_forms, p, a) * solver.norm_ka(disk_forms, p, b)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_inner_h0_unit_square():
    sq = mesh.generate_square(4)
    forms = assembly.assemble_basic(sq)
    ones = CoupledField(np.ones(sq.n_vertices), np.ones(sq.n_surface))
    assert solver.inner_h0(forms, ones, ones) == pytest.approx(5.0, rel=1e-13)
    zero = CoupledField(np.zeros(sq.n_vertices), np.zeros(sq.n_surface))
    assert solver.inner_h0(forms, ones, zero) == 0.0


def test_inner_dual_properties(disk, disk_forms):
    p = ProblemParams(K=1.0, L=0.5, alpha=1.2, beta=0.9)
    rng = np.random.default_rng(7)
    f1, g1 = random_compatible(disk_forms, p.beta, rng)
    f2, g2 = random_compatible(disk_forms, p.beta, rng)
    d11 = solver.inner_dual(disk, p, (f1, g1), (f1, g1))
    assert d11 > 0.0
    d12 = solver.inner_dual(disk, p, (f1, g1), (f2, g2))
    d21 = solver.inner_dual(disk, p, (f2, g2), (f1, g1))
    assert d12 == pytest.approx(d21, rel=1e-12)
    # defining identity: <S f1, f2-load>_H0
    s1 = solver.solve_second(disk, ProblemParams(K=p.L, alpha=p.beta, beta=p.alpha,
                                                 gamma=p.gamma), f1, g1).field
    pairing = s1.to_vector() @ assembly.assemble_load(disk_forms, f2, g2)
    assert d12 == pytest.approx(pairing, rel=1e-10)
    zero = (np.zeros(disk.n_vertices), np.zeros(disk.n_surface))
    assert solver.inner_dual(disk, p, zero, zero) == 0.0


def test_fourth_order_self_adjoint_in_dual_inner(disk, disk_forms):
    p = ProblemParams(K=1.0, L=2.0, alpha=1.5, beta=0.5)
    rng = np.random.default_rng(8)
    for _ in range(3):
        fa, ga = random_compatible(disk_forms, p.beta, rng)
        fb, gb = random_compatible(disk_forms, p.beta, rng)
        pa = solver.solve_fourth(disk, p, fa, ga).field
        pb = solver.solve_fourth(disk, p, fb, gb).field
        lhs = solver.inner_dual(disk, p, (pa.u, pa.v), (fb, gb))
        rhs = solver.inner_dual(disk, p, (fa, ga), (pb.u, pb.v))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fourth_order_energy_identity(disk, disk_forms):
    p = ProblemParams(K=1.0, L=2.0, alpha=1.5, beta=0.5)
    rng = np.random.default_rng(9)
    f, g = random_compatible(disk_forms, p.beta, rng)
    rep = solver.solve_fourth(disk, p, f, g)
    energy = solver.inner_ka(disk_forms, p, rep.field, rep.field)
    pairing = solver.inner_h0(disk_forms, rep.intermediate, rep.field)
    assert energy == pytest.approx(pairing, rel=1e-10)


def test_autoprojection_matches_preprojected_strict_solve(disk, disk_forms):
    # auto-projected solve equals the strict solve of the projected sources
    p = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    f = np.full(disk.n_vertices, -4.0)
    g = np.full(disk.n_surface, 4.0)
    auto = solver.solve_second(disk, p, f, g, strict=False)
    fp, gp = assembly.project_compatible(disk_forms, f, g, p.alpha)
    strict = solver.solve_second(disk, p, fp, gp, strict=True)
    np.testing.assert_allclose(auto.field.to_vector(), strict.field.to_vector(),
                               atol=1e-13)


def test_solve_report_tolerances(disk, disk_forms):
    p = ProblemParams(K=1.0, alpha=1.0, beta=1.0)
    f, g = random_compatible(disk_forms, p.alpha, np.random.default_rng(10))
    rep = solver.solve_second(disk, p, f, g)
    assert rep.residual <= 1e-12
    assert rep.defect_mean <= 1e-12 * max(1.0, np.linalg.norm(rep.field.to_vector()))


def _smooth_sources(msh, rng):
    # bulk c0 + c1 sin(k0 x) - c2 cos(k1 y) + c3 x y and surface
    # c0 + c1 cos(k0 theta) - c2 sin(k1 theta) + c3 x y, c in [0.5, 2], k in {1, 2, 3}
    cf, kf = rng.uniform(0.5, 2.0, 4), rng.integers(1, 4, 2)
    cg, kg = rng.uniform(0.5, 2.0, 4), rng.integers(1, 4, 2)
    x, y = msh.vertices[:, 0], msh.vertices[:, 1]
    f = cf[0] + cf[1] * np.sin(kf[0] * x) - cf[2] * np.cos(kf[1] * y) + cf[3] * x * y
    xs, ys = x[msh.surface_nodes], y[msh.surface_nodes]
    theta = np.arctan2(ys, xs)
    g = cg[0] + cg[1] * np.cos(kg[0] * theta) - cg[2] * np.sin(kg[1] * theta) + cg[3] * xs * ys
    return f, g


def _rel_inf(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("k_like", [0.0, 1.0])
def test_solves_match_dense_oracle(k_like, dense_bordered_solve):
    # forward error of both solves against dense bordered solves, at the
    # 2e-12 (relative, infinity norm) bound the benchmark gates solves with;
    # a CG stopped at a 1e-12 relative residual exceeds it on some seeds
    m = mesh.generate_disk(64, 0)
    forms = assembly.assemble_basic(m)
    nb = m.n_vertices
    p = ProblemParams(K=k_like, L=1.0, alpha=1.0, beta=1.0)
    a = assembly.assemble_coupled(forms, p.K, p.alpha, p.gamma)
    cs = assembly.build_constraints(forms, p.K, p.alpha, p.beta)
    a_l = assembly.assemble_coupled(forms, p.L, p.beta, p.gamma)
    cs_l = assembly.build_constraints(forms, p.L, p.beta, p.alpha)
    for seed in range(20):
        f, g = _smooth_sources(m, np.random.default_rng(seed))
        f, g = assembly.project_compatible(forms, f, g, 1.0)
        b = assembly.assemble_load(forms, f, g)

        rep2 = solver.solve_second(m, p, f, g)
        assert rep2.method == "splu"
        assert _rel_inf(rep2.field.to_vector(), dense_bordered_solve(a, b, cs)) <= 2e-12

        rep4 = solver.solve_fourth(m, p, f, g)
        ref1 = dense_bordered_solve(a_l, b, cs_l)
        ref4 = dense_bordered_solve(a, assembly.assemble_load(forms, ref1[:nb], ref1[nb:]), cs)
        assert _rel_inf(rep4.intermediate.to_vector(), ref1) <= 2e-12
        assert _rel_inf(rep4.field.to_vector(), ref4) <= 2e-12


def test_refine4_robin_solve_terminates():
    # 42.5k unknowns, K = 1, radial source c0 - c1 r^2 and constant g
    m = mesh.generate_disk(64, 4)
    p = ProblemParams(K=1.0)
    r2 = np.sum(m.vertices ** 2, axis=1)
    f = 1.3 - 0.9 * r2
    g = np.full(m.n_surface, 0.7)

    def _over_budget(signum, frame):
        raise TimeoutError("refine-4 solve still running after 120 s")

    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, 120.0)
    try:
        rep = solver.solve_second(m, p, f, g, strict=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rep.method == "mg-cg"

    forms = assembly.assemble_basic(m)
    f, g = assembly.project_compatible(forms, f, g, p.alpha)
    a = assembly.assemble_coupled(forms, p.K, p.alpha, p.gamma)
    b = assembly.assemble_load(forms, f, g)
    x = rep.field.to_vector()
    # normwise backward error in the infinity norm
    eta = np.max(np.abs(b - a @ x)) / (np.max(np.abs(a).sum(axis=1)) * np.max(np.abs(x))
                                       + np.max(np.abs(b)))
    assert eta <= 1e-13
    c = assembly.build_constraints(forms, p.K, p.alpha, p.beta).mean_vector
    assert abs(c @ x) <= 1e-10 * (np.abs(c) @ np.abs(x))


def test_refine3_small_k_solve_runs_multigrid():
    # refine 3 (11k unknowns) is above linalg.MG_MIN_UNKNOWNS, and the
    # V-cycle's 2x2 bulk-surface blocks keep K = 1e-9 as fast as K = 1
    m = mesh.generate_disk(64, 3)
    x, y = m.vertices.T
    xs, ys = m.vertices[m.surface_nodes].T
    rep = solver.solve_second(m, ProblemParams(K=1e-9), 1.0 - 0.5 * (x * x + y * y) + x * y,
                              np.cos(3.0 * np.arctan2(ys, xs)), strict=False)
    assert rep.method == "mg-cg" and rep.iterations <= 30
    assert rep.backward_error <= 1e-15


def test_solve_report_carries_its_forms():
    msh = mesh.generate_disk(16, 0)
    params = ProblemParams(K=1.0, alpha=1.0, beta=1.0)
    f = np.ones(msh.n_vertices)
    g = np.ones(msh.n_surface)
    for solve in (solver.solve_second, solver.solve_fourth):
        report = solve(msh, params, f, g, strict=False)
        assert report.forms.mesh is msh
        assert solver.inner_h0(report.forms, report.field, report.field) > 0
