import math

import numpy as np
import pytest
from scipy import optimize, special

from bse import oracle
from bse.errors import InvalidArgumentError


def test_decoupled_dirichlet_roots():
    roots = oracle.disk_eigs_second(0.0, 0.0, 1.0, m_max=2, lam_max=10.0)
    lams = [r.lam for r in roots]
    # surface modes at m^2 and the first bulk Dirichlet mode at j_{0,1}^2
    assert lams[0] == pytest.approx(1.0, abs=1e-9)
    assert lams[1] == pytest.approx(4.0, abs=1e-9)
    assert lams[2] == pytest.approx(2.404825557695773 ** 2, abs=1e-9)
    assert [r.multiplicity for r in roots[:3]] == [2, 2, 1]


def test_robin_roots_satisfy_relations():
    for k_like, alpha in ((1.0, 1.0), (0.0, 1.0), (2.0, -1.3), (1.0, 0.0)):
        roots = oracle.disk_eigs_second(k_like, alpha, 1.0, m_max=5, lam_max=40.0)
        assert roots == sorted(roots, key=lambda r: r.lam)
        assert all(r.lam > 0 for r in roots)
        for r in roots:
            s = math.sqrt(r.lam)
            jm = special.jv(r.m, s)
            jp = special.jvp(r.m, s)
            denom = r.lam - r.m ** 2
            if alpha == 0.0 and abs(denom) < 1e-8:
                continue  # pure surface mode: u = 0, relations trivial
            c = alpha * s * jp / denom
            surface_res = (r.lam - r.m ** 2) * c - alpha * s * jp
            robin_res = k_like * s * jp - (alpha * c - jm)
            scale = max(abs(jm), abs(s * jp), abs(c), 1.0)
            assert abs(surface_res) <= 1e-9 * scale
            assert abs(robin_res) <= 1e-9 * scale


def test_roots_stable_under_grid_refinement():
    a = oracle.disk_eigs_second(1.0, 1.0, 1.0, m_max=4, lam_max=25.0, grid_step=0.01)
    b = oracle.disk_eigs_second(1.0, 1.0, 1.0, m_max=4, lam_max=25.0, grid_step=0.005)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.m == rb.m
        assert abs(ra.lam - rb.lam) <= 1e-10


def test_mode_constraint_conservation():
    # any alpha != 0 eigenpair satisfies alpha*int(u) + int(v) = 0; verified by
    # radial Gauss-Legendre quadrature of the Bessel profile (m = 0 modes; the
    # angular integral kills every m >= 1 mode identically)
    alpha, k_like = 1.0, 1.0
    roots = [r for r in oracle.disk_eigs_second(k_like, alpha, 1.0, 6, 40.0) if r.m == 0]
    assert roots
    nodes, weights = np.polynomial.legendre.leggauss(200)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for root in roots:
        s = math.sqrt(root.lam)
        bulk = 2.0 * math.pi * np.sum(w * r * special.jv(0, s * r))
        c = alpha * s * special.jvp(0, s) / root.lam
        surf = 2.0 * math.pi * c
        scale = max(abs(bulk), abs(surf), 1.0)
        assert abs(alpha * bulk + surf) <= 1e-8 * scale


def test_manufactured_examples():
    man = oracle.manufactured_second(1.0, 2.0, 1.0)
    assert man.f_value() == -4.0
    assert man.g_value() == 4.0
    from bse import expr
    u = expr.parse(man.u_expr)
    assert expr.eval_on_points(u, [[1.0, 0.0]])[0] == pytest.approx(1.0 - 7.0 / 4.0, rel=1e-14)
    assert man.v_value == pytest.approx(5.0 / 8.0, rel=1e-14)

    man0 = oracle.manufactured_second(0.0, 1.0, 1.0)
    u0 = expr.parse(man0.u_expr)
    assert expr.eval_on_points(u0, [[0.0, 0.0]])[0] == pytest.approx(-5.0 / 6.0, rel=1e-14)
    assert man0.v_value == pytest.approx(1.0 / 6.0, rel=1e-14)

    # continuum compatibility is exact for any K, alpha
    for k_like, alpha in ((0.0, 1.0), (1.0, 2.0), (3.0, -1.5)):
        man = oracle.manufactured_second(k_like, alpha, 1.0)
        defect = alpha * man.f_value() * math.pi + man.g_value() * 2.0 * math.pi
        assert defect == pytest.approx(0.0, abs=1e-12)


def test_manufactured_validation():
    with pytest.raises(InvalidArgumentError):
        oracle.manufactured_second(1.0, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        oracle.manufactured_second(1.0, 2.0, -1.0)  # alpha*beta*pi + 2pi = 0
    with pytest.raises(InvalidArgumentError):
        oracle.manufactured_second(-1.0, 1.0, 1.0)


def test_disk_eigs_validation():
    with pytest.raises(InvalidArgumentError):
        oracle.disk_eigs_second(-1.0, 1.0, 1.0, 2, 10.0)
    with pytest.raises(InvalidArgumentError):
        oracle.disk_eigs_second(1.0, 1.0, 0.0, 2, 10.0)
    with pytest.raises(InvalidArgumentError):
        oracle.disk_eigs_second(1.0, 1.0, 1.0, -1, 10.0)
    # the order bound is an integer, never truncated: 2.0 is not 2, True is not 1
    for m_max in (2.7, 2.0, True):
        with pytest.raises(InvalidArgumentError, match="m_max"):
            oracle.disk_eigs_second(1.0, 1.0, 1.0, m_max, 10.0)
    assert (oracle.disk_eigs_second(1.0, 1.0, 1.0, np.int64(2), 10.0)
            == oracle.disk_eigs_second(1.0, 1.0, 1.0, 2, 10.0))
    for step in (0.0, -0.01):
        with pytest.raises(InvalidArgumentError, match="grid_step"):
            oracle.disk_eigs_second(1.0, 1.0, 1.0, 2, 10.0, grid_step=step)
    assert oracle.disk_eigs_second(1.0, 1.0, 1.0, 0, 0.5) == []


@pytest.mark.parametrize("k_like,alpha,gamma,m_max,lam_max,step", [
    (1.0, 1.0, 1.0, 8, 40.0, 0.01),     # the benchmark's oracle runs
    (0.0, 1.0, 1.0, 8, 40.0, 0.01),
    (1.0, 0.0, 1.0, 6, 50.0, 0.01),     # decoupled: Robin roots plus surface modes
    (0.0, 0.0, 1.3, 5, 30.0, 0.01),     # decoupled Dirichlet
    (2.0, -1.3, 0.7, 6, 45.0, 0.01),    # gamma m^2 at 0.7, 2.8, ..., 25.2 in range
    (1.0, 2.0, 0.3, 6, 30.0, 0.01),
    (1.0, 1.0, 1.0, 3, 400.0, 0.25),    # sqrt(lam) > 12
    (1.0, 1e-3, 1.0, 4, 30.0, 0.01),    # roots close to the surface modes m^2
    (1.0, 1e3, 1.0, 4, 30.0, 0.01),     # roots close to the zeros of J_m'
    (1e8, 1.0, 1.0, 4, 30.0, 0.01),     # mode 0's first root 3e-8, below the grid
])
def test_vectorized_scan_matches_scalar_scan(scalar_disk_eigs_second, k_like, alpha, gamma,
                                             m_max, lam_max, step):
    # the scalar scan bisects to a width of 1e-12, the vectorized one to adjacent doubles
    roots = oracle.disk_eigs_second(k_like, alpha, gamma, m_max, lam_max, grid_step=step)
    expected = scalar_disk_eigs_second(k_like, alpha, gamma, m_max, lam_max, grid_step=step)
    assert expected
    assert [(r.m, r.multiplicity) for r in roots] == [(m, mult) for m, _, mult in expected]
    np.testing.assert_allclose([r.lam for r in roots], [lam for _, lam, _ in expected],
                               rtol=0, atol=1e-12)
    if lam_max > 144.0:
        assert roots[-1].lam > 144.0



def _per_mode_roots(k_like, alpha, gamma, m_max, lam_max):
    """The scan with J_m and J_m' of every mode evaluated by ``_bessel_pair``
    on that mode's grid, as before the orders were shared."""
    def fun(m, lam):
        return oracle._relation(k_like, alpha, gamma, m, lam, *oracle._bessel_pair(m, np.sqrt(lam)))

    grid = oracle.GRID_STEP * np.arange(1, int(round(lam_max / oracle.GRID_STEP)) + 1)
    grid = grid[grid <= lam_max]
    roots = []
    for m in range(m_max + 1):
        extra = (oracle.GRID_STEP * oracle.SUBGRID if m == 0
                 else np.nextafter(gamma * m * m, [0.0, np.inf]))
        lo, hi, flo = oracle._brackets(fun, m, grid, fun(m, grid), extra, lam_max)
        lams = oracle._bisect(fun, np.full(lo.size, m), lo, hi, flo)
        roots += [oracle.DispersionRoot(m, lam, 1 if m == 0 else 2)
                  for lam in lams.tolist() if lam <= lam_max]
    return sorted(roots, key=lambda r: r.lam)


@pytest.mark.parametrize("k_like,alpha,gamma,m_max,lam_max", [
    (1.0, 0.0, 1.0, 6, 50.0),
    (0.0, 0.0, 1.3, 5, 30.0),
    (2.0, -1.3, 0.7, 6, 45.0),   # gamma m^2 at 0.7, 2.8, ..., 25.2 in range
    (1.0, 1.0, 1.0, 8, 40.0),    # gamma m^2 at 1, 4, ..., 36 on the grid
    (10.0, 0.5, 2.5, 3, 120.0),
])
def test_shared_orders_give_the_per_mode_roots(k_like, alpha, gamma, m_max, lam_max):
    roots = oracle.disk_eigs_second(k_like, alpha, gamma, m_max, lam_max)
    assert roots
    assert roots == _per_mode_roots(k_like, alpha, gamma, m_max, lam_max)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_scan_evaluates_each_order_once_over_the_grid(monkeypatch, alpha):
    real = oracle.special.jv
    orders = []

    def counting(m, x):
        if np.size(x) == 4000:  # the grid of lam_max = 40, step 0.01
            orders.append(m)
        return real(m, x)

    monkeypatch.setattr(oracle.special, "jv", counting)
    oracle.disk_eigs_second(1.0, alpha, 1.0, 8, 40.0)
    assert orders == list(range(-1, 10))


def test_scan_memory_does_not_grow_with_the_modes():
    import tracemalloc

    def peak(m_max):
        tracemalloc.start()
        try:
            oracle.disk_eigs_second(1.0, 1.0, 1.0, m_max, 400.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(30)
    # each grid row is 320 kB; the roots and brackets of 26 more modes are a
    # few kB
    assert large <= 1.05 * small + 64 * 1024, (small, large)


def _brentq_roots(k_like, alpha, gamma, m_max, lam_max, step=0.01):
    """Roots (m, lam, multiplicity) of the rationalized relation, or for
    alpha = 0 of the Robin relation plus the surface modes, from sign changes
    on the grid refined by Brent's method: no extra scan points and no filter."""
    grid = step * np.arange(1, int(round(lam_max / step)) + 1)
    roots = []
    for m in range(m_max + 1):
        def fun(lam, m=m):
            s = np.sqrt(lam)
            robin = k_like * s * special.jvp(m, s) + special.jv(m, s)
            return robin if alpha == 0.0 else (
                (lam - gamma * m * m) * robin - alpha * alpha * s * special.jvp(m, s))

        vals = fun(grid)
        roots += [(m, optimize.brentq(fun, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))
                  for i in np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))]
        if alpha == 0.0 and 0 < gamma * m * m <= lam_max:
            roots.append((m, gamma * m * m))
    return sorted((m, lam, 1 if m == 0 else 2) for m, lam in roots)


def _every_root_case(k_like, alpha, m_max, lam_max, gamma=1.0):
    """One case; its id names gamma only where it is not 1."""
    shown = (k_like, alpha, m_max, lam_max) + ((gamma,) if gamma != 1.0 else ())
    return pytest.param(k_like, alpha, gamma, m_max, lam_max, id="-".join(map(str, shown)))


@pytest.mark.parametrize("k_like,alpha,gamma,m_max,lam_max", [
    _every_root_case(1.0, 1.0, 6, 60.0),
    _every_root_case(1.0, 30.0, 6, 60.0),
    _every_root_case(1.0, 1e3, 6, 60.0),      # roots near the zeros of J_m'
    _every_root_case(1.0, 1e6, 6, 60.0),
    _every_root_case(1e8, 1.0, 6, 60.0),
    _every_root_case(1.0, 1e-3, 4, 30.0),     # roots near the surface modes m^2
    _every_root_case(1.0, 1e-5, 4, 30.0),
    _every_root_case(0.0, 1e3, 6, 60.0),
    _every_root_case(1.0, 1e300, 8, 60.0),    # alpha^2 overflows: the zeros of J_m'
    _every_root_case(1e3, 0.1, 6, 60.0),
    # J_m and J_m' of orders from about 102 up underflow to 0 on the first grid
    # points: a zero product there keeps the sign of lam - gamma m^2
    _every_root_case(1.0, 1.0, 110, 60.0),
    _every_root_case(1.0, 0.0, 110, 60.0),
    # a root about 4e-11 above each gamma m^2, which lies off the grid
    _every_root_case(1.0, 1e-5, 8, 60.0, gamma=1.2345),
    _every_root_case(0.0, 1e-5, 8, 60.0, gamma=1.2345),
    # decoupled: the surface mode gamma and the Dirichlet root j_{1,k}^2 share a grid cell,
    # with J_1 and J_1' of either sign at gamma
    _every_root_case(0.0, 0.0, 4, 30.0, gamma=float(special.jn_zeros(1, 1)[0] ** 2 + 0.003)),
    _every_root_case(0.0, 0.0, 4, 60.0, gamma=float(special.jn_zeros(1, 2)[1] ** 2 + 0.001)),
    # decoupled: the surface mode 2.5 * 5^2 lies at lam_max
    _every_root_case(1.0, 0.0, 5, 62.5, gamma=2.5),
])
def test_every_root_of_the_relation_is_returned(k_like, alpha, gamma, m_max, lam_max):
    # the scanned determinant has no pole, and it is the coupled relation
    # times lam - gamma m^2, so no root it has is spurious
    roots = sorted((r.m, r.lam, r.multiplicity)
                   for r in oracle.disk_eigs_second(k_like, alpha, gamma, m_max, lam_max)
                   if r.lam >= oracle.GRID_STEP)
    expected = _brentq_roots(k_like, alpha, gamma, m_max, lam_max)
    assert [(m, mult) for m, _, mult in roots] == [(m, mult) for m, _, mult in expected]
    np.testing.assert_allclose([lam for _, lam, _ in roots], [lam for _, lam, _ in expected],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("k_like,alpha", [(1e3, 0.1), (1e8, 1.0), (1e5, 0.0), (1e300, 1.0)])
def test_mode_zero_root_below_the_grid(k_like, alpha):
    # near 0 mode 0's relation is about lam (1 + alpha^2/2 - K lam/2): its
    # first root (2 + alpha^2)/K (1 - 1/(4K) + O(1/K^2)) lies below the grid
    # step for K above ~200
    first = oracle.disk_eigs_second(k_like, alpha, 1.0, 4, 10.0)[0]
    assert first.m == 0 and first.lam < oracle.GRID_STEP
    rel = 1e-13 if k_like >= 1e8 else 1e-3
    assert first.lam == pytest.approx((2.0 + alpha * alpha) / k_like * (1.0 - 0.25 / k_like),
                                      rel=rel, abs=0)
    fine = oracle.disk_eigs_second(k_like, alpha, 1.0, 0, 2 * first.lam, grid_step=first.lam / 20)[0]
    assert abs(first.lam - fine.lam) <= 1e-11


@pytest.mark.parametrize("m_max", [115, 130])
@pytest.mark.parametrize("k_like,alpha", [(1.0, 0.0), (1.0, 1.0), (0.0, 1e-3)])
def test_high_orders_add_no_spurious_roots(k_like, alpha, m_max):
    # modes above 8 have no root up to lam_max = 60; SciPy's jv gives 0.0
    # for J_114 and J_115 near s = 0.22 where J_116 is nonzero, which once
    # made two mode-115 roots near 0.0435 and 0.0587
    expected = oracle.disk_eigs_second(k_like, alpha, 1.0, 8, 60.0)
    assert expected
    assert oracle.disk_eigs_second(k_like, alpha, 1.0, m_max, 60.0) == expected


@pytest.mark.parametrize("k_like,alpha", [(1.0, 30.0), (1.0, 1e-3), (0.0, 1e3)])
def test_refine2_eig2_matches_the_oracle(k_like, alpha):
    from bse import eigen, mesh
    from bse.assembly import ProblemParams

    w = eigen.eig_second(mesh.generate_disk(64, 2), ProblemParams(K=k_like, alpha=alpha), 12).eigenvalues
    ref = [r.lam for r in oracle.disk_eigs_second(k_like, alpha, 1.0, 12, 1.5 * w[-1])
           for _ in range(r.multiplicity)]
    assert len(ref) >= 12
    np.testing.assert_allclose(w, ref[:12], rtol=6e-3)
