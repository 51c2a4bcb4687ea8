import math

import numpy as np
import pytest

from bse import oracle
from bse.errors import InvalidArgumentError


def test_bessel_at_zero():
    assert oracle.bessel_j(0, 0.0) == 1.0
    assert oracle.bessel_j(1, 0.0) == 0.0
    assert oracle.bessel_j(7, 0.0) == 0.0


def test_bessel_first_j0_zero():
    # bisection on the evaluated J_0, cross-checked against the known value
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle.bessel_j(0, lo) * oracle.bessel_j(0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)


def test_bessel_three_term_recurrence():
    for m in range(1, 12):
        for x in np.linspace(0.5, 60.0, 25):
            lhs = oracle.bessel_j(m - 1, x) + oracle.bessel_j(m + 1, x)
            rhs = (2.0 * m / x) * oracle.bessel_j(m, x)
            assert abs(lhs - rhs) <= 1e-10


def test_bessel_against_scipy(bessel_reference):
    # SciPy-backed values against 40-digit mpmath literals
    for m, x, j, jp in bessel_reference:
        assert abs(oracle.bessel_j(m, x) - j) <= 1e-14
        assert abs(oracle.bessel_j_prime(m, x) - jp) <= 1e-14


def test_bessel_range_validation():
    with pytest.raises(InvalidArgumentError):
        oracle.bessel_j(-1, 1.0)
    with pytest.raises(InvalidArgumentError):
        oracle.bessel_j(31, 1.0)
    with pytest.raises(InvalidArgumentError):
        oracle.bessel_j(0, -0.5)
    with pytest.raises(InvalidArgumentError):
        oracle.bessel_j(0, 201.0)
    # the order is an integer, never truncated: J_2.5 is not J_2, True is not 1
    for m in (2.5, True, 2.0):
        for fun in (oracle.bessel_j, oracle.bessel_j_prime):
            with pytest.raises(InvalidArgumentError, match="order"):
                fun(m, 1.0)
    assert oracle.bessel_j(np.int64(2), 1.0) == oracle.bessel_j(2, 1.0)


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
            jm = oracle.bessel_j(r.m, s)
            jp = oracle.bessel_j_prime(r.m, s)
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
        bulk = 2.0 * math.pi * np.sum(w * r * np.array(
            [oracle.bessel_j(0, float(s * ri)) for ri in r]))
        c = alpha * s * oracle.bessel_j_prime(0, s) / root.lam
        surf = 2.0 * math.pi * c
        scale = max(abs(bulk), abs(surf), 1.0)
        assert abs(alpha * bulk + surf) <= 1e-8 * scale


def test_circle_surface_eigs():
    assert oracle.circle_surface_eigs(1.0, 3) == [1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
    assert oracle.circle_surface_eigs(2.0, 2) == [2.0, 2.0, 8.0, 8.0]
    assert oracle.circle_surface_eigs(1.0, 0) == []
    with pytest.raises(InvalidArgumentError):
        oracle.circle_surface_eigs(0.0, 3)


def test_manufactured_examples():
    man = oracle.manufactured_second(1.0, 2.0, 1.0)
    assert man.f_value() == -4.0
    assert man.g_value() == 4.0
    from bse import expr
    u = expr.parse(man.u_expr)
    assert expr.evaluate(u, 1.0, 0.0) == pytest.approx(1.0 - 7.0 / 4.0, rel=1e-14)
    assert man.v_value == pytest.approx(5.0 / 8.0, rel=1e-14)

    man0 = oracle.manufactured_second(0.0, 1.0, 1.0)
    assert expr.evaluate(expr.parse(man0.u_expr), 0.0, 0.0) == pytest.approx(-5.0 / 6.0, rel=1e-14)
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
    for m_max in (2.7, True):
        with pytest.raises(InvalidArgumentError, match="m_max"):
            oracle.disk_eigs_second(1.0, 1.0, 1.0, m_max, 10.0)
    for step in (0.0, -0.01):
        with pytest.raises(InvalidArgumentError, match="grid_step"):
            oracle.disk_eigs_second(1.0, 1.0, 1.0, 2, 10.0, grid_step=step)
    assert oracle.disk_eigs_second(1.0, 1.0, 1.0, 0, 0.5) == []


@pytest.mark.parametrize("k_like,alpha,gamma,m_max,lam_max,step", [
    (1.0, 1.0, 1.0, 8, 40.0, 0.01),     # the benchmark's oracle runs
    (0.0, 1.0, 1.0, 8, 40.0, 0.01),
    (1.0, 0.0, 1.0, 6, 50.0, 0.01),     # decoupled: Robin roots plus surface modes
    (0.0, 0.0, 1.3, 5, 30.0, 0.01),     # decoupled Dirichlet
    (2.0, -1.3, 0.7, 6, 45.0, 0.01),    # poles gamma m^2 at 0.7, 2.8, ..., 25.2 in range
    (1.0, 2.0, 0.3, 6, 30.0, 0.01),
    (1.0, 1.0, 1.0, 3, 400.0, 0.25),    # sqrt(lam) > 12
])
def test_vectorized_scan_matches_scalar_scan(scalar_disk_eigs_second, k_like, alpha, gamma,
                                             m_max, lam_max, step):
    roots = oracle.disk_eigs_second(k_like, alpha, gamma, m_max, lam_max, grid_step=step)
    expected = scalar_disk_eigs_second(k_like, alpha, gamma, m_max, lam_max, grid_step=step)
    assert expected
    assert [(r.m, r.lam, r.multiplicity) for r in roots] == expected
    if lam_max > 144.0:
        assert roots[-1].lam > 144.0

