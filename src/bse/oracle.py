"""Independent reference results on the unit disk.

Separation of variables turns the coupled eigenproblem on the disk into a
per-mode transcendental dispersion relation in the eigenvalue; its roots
are semi-analytic references for the finite-element spectra.  The module
also carries the Bessel functions behind those relations, closed-form
circle spectra for the decoupled case, and a manufactured solution family
for convergence studies.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidArgumentError

log = logging.getLogger(__name__)

BESSEL_MAX_ORDER = 30
BESSEL_MAX_ARG = 200.0
GRID_STEP = 0.01
ROOT_TOL = 1e-12
POLE_EXCLUSION = 1e-9
RESIDUAL_TOL = 1e-9


def _check_order(name, m, upper):
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 0 <= m <= upper:
        raise InvalidArgumentError(f"{name} must be an integer in [0, {upper}], got {m!r}")


def _check_bessel_range(m, x):
    _check_order("order", m, BESSEL_MAX_ORDER)
    if not (0.0 <= x <= BESSEL_MAX_ARG):
        raise InvalidArgumentError(f"argument must be in [0, {BESSEL_MAX_ARG}], got {x}")


def bessel_j(m: int, x: float) -> float:
    """Bessel function J_m(x) (``scipy.special.jv``)."""
    _check_bessel_range(m, x)
    return float(special.jv(m, x))


def bessel_j_prime(m: int, x: float) -> float:
    """Derivative J_m'(x) (``scipy.special.jvp``)."""
    _check_bessel_range(m, x)
    return float(special.jvp(m, x))


@dataclass(frozen=True)
class DispersionRoot:
    """One semi-analytic disk eigenvalue: angular mode, value, multiplicity."""

    m: int
    lam: float
    multiplicity: int


def _bessel_pair(m, s):
    """J_m(s) and J_m'(s) elementwise; the orders ``m`` are a scalar or an
    array like ``s``."""
    return special.jv(m, s), special.jvp(m, s)


def _robin_side(k_like, m, lam):
    """Bulk Robin/Dirichlet relation K s J_m'(s) + J_m(s), s = sqrt(lam),
    elementwise over the array ``lam``."""
    s = np.sqrt(lam)
    j, jp = _bessel_pair(m, s)
    return k_like * s * jp + j


def _dispersion(k_like, alpha, gamma, m, lam):
    """Rationalized dispersion function, elementwise over the array ``lam``;
    poles at lam = gamma m^2 removed."""
    s = np.sqrt(lam)
    j, jp = _bessel_pair(m, s)
    return (lam - gamma * m * m) * (k_like * s * jp + j) - alpha * alpha * s * jp


def _coupling_residual(k_like, alpha, gamma, m, lam):
    """Residual of the unrationalized Robin/Dirichlet relation, elementwise
    over the array ``lam``.

    The surface amplitude is recovered from the surface equation; at a pole
    of that expression the relation cannot hold for alpha != 0, which is
    what rejects spurious rationalization roots.
    """
    s = np.sqrt(lam)
    j, jp = _bessel_pair(m, s)
    denom = lam - gamma * m * m
    with np.errstate(divide="ignore", invalid="ignore"):
        c = alpha * s * jp / denom
        lhs = k_like * s * jp + j
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(alpha * c)), 1.0)
        res = np.abs(lhs - alpha * c) / scale
    return np.where(np.abs(denom) < POLE_EXCLUSION, np.inf, res)


def _brackets(fun, m, lam_max, pole, step):
    """Sign-change brackets (lo, hi, fun(m, lo)) of mode ``m`` on the
    standard grid.

    Grid points falling inside the exclusion window of ``pole`` (None for
    no pole) are nudged so each side of the pole is bracketed separately,
    and the cell across the pole is no bracket.
    """
    grid = step * np.arange(1, int(round(lam_max / step)) + 1)
    if pole is not None and 0 < pole < lam_max:
        grid = np.sort(np.concatenate([grid, [pole - POLE_EXCLUSION, pole + POLE_EXCLUSION]]))
    grid = grid[(grid > 0) & (grid <= lam_max)]
    f = fun(m, grid)
    bracket = (f[:-1] < 0) != (f[1:] < 0)
    if pole is not None:
        bracket &= ~((grid[:-1] < pole) & (pole < grid[1:]))
    return grid[:-1][bracket], grid[1:][bracket], f[:-1][bracket]


def _bisect(fun, m, lo, hi, flo):
    """Bisect every bracket [lo_i, hi_i] of fun(m_i, .) in lockstep; ``flo``
    holds the values at ``lo``.

    Each bracket follows the scalar rule: stop at width ROOT_TOL or on an
    exact zero of fun, otherwise keep the half whose ends change sign.
    """
    roots = np.empty(lo.size)
    pending = np.arange(lo.size)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = hi - lo <= ROOT_TOL
        roots[pending[done]] = mid[done]
        keep = ~done
        pending, m, lo, hi, flo, mid = (pending[keep], m[keep], lo[keep], hi[keep],
                                        flo[keep], mid[keep])
        if not pending.size:
            return roots
        fmid = fun(m, mid)
        done = fmid == 0.0
        roots[pending[done]] = mid[done]
        keep = ~done
        pending, m, lo, hi, flo, mid, fmid = (pending[keep], m[keep], lo[keep], hi[keep],
                                              flo[keep], mid[keep], fmid[keep])
        left = (flo < 0) != (fmid < 0)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
    roots[pending] = 0.5 * (lo + hi)
    return roots


def disk_eigs_second(k_like: float, alpha: float, gamma: float, m_max: int,
                     lam_max: float, grid_step: float = GRID_STEP) -> list[DispersionRoot]:
    """All dispersion roots in (0, lam_max] for angular modes 0..m_max.

    For alpha = 0 the system decouples into bulk Robin/Dirichlet modes and
    pure surface modes at gamma m^2; for alpha != 0 the rationalized
    relation is scanned and spurious pole roots are rejected by the
    residual of the unrationalized relation.  Each mode's relation is
    evaluated over the whole grid at once, and the brackets of all modes
    are bisected together.
    """
    if not np.all(np.isfinite([k_like, alpha, gamma, lam_max, grid_step])):
        raise InvalidArgumentError("oracle parameters must be finite")
    if k_like < 0:
        raise InvalidArgumentError(f"Robin parameter must be >= 0, got {k_like}")
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be > 0, got {gamma}")
    _check_order("m_max", m_max, math.inf)
    if lam_max <= 0:
        raise InvalidArgumentError("lam_max must be > 0")
    if grid_step <= 0:
        raise InvalidArgumentError(f"grid_step must be > 0, got {grid_step}")
    if lam_max > BESSEL_MAX_ARG ** 2:
        raise InvalidArgumentError(f"lam_max beyond supported Bessel range {BESSEL_MAX_ARG}^2")
    if alpha == 0.0:
        def fun(m, lam):
            return _robin_side(k_like, m, lam)
    else:
        def fun(m, lam):
            return _dispersion(k_like, alpha, gamma, m, lam)
    modes = range(m_max + 1)
    parts = [_brackets(fun, m, lam_max, gamma * m * m if alpha != 0.0 else None, grid_step)
             for m in modes]
    mode = np.repeat(np.arange(m_max + 1), [lo.size for lo, _, _ in parts])
    lams = _bisect(fun, mode, *(np.concatenate(arrays) for arrays in zip(*parts)))
    if alpha != 0.0:
        spurious = _coupling_residual(k_like, alpha, gamma, mode, lams) > RESIDUAL_TOL
        for m, lam in zip(mode[spurious].tolist(), lams[spurious].tolist()):
            log.debug("rejected spurious root m=%d lam=%.12g", m, lam)
        mode, lams = mode[~spurious], lams[~spurious]
    roots = []
    for m in modes:
        mult = 1 if m == 0 else 2
        roots += [DispersionRoot(m=m, lam=lam, multiplicity=mult)
                  for lam in lams[mode == m].tolist()]
        surf = gamma * m * m
        if alpha == 0.0 and 0 < surf <= lam_max:
            roots.append(DispersionRoot(m=m, lam=surf, multiplicity=mult))
    return sorted(roots, key=lambda r: r.lam)


def circle_surface_eigs(gamma: float, m_max: int) -> list[float]:
    """Eigenvalues gamma m^2 of the weighted circle Laplacian, each doubled;
    the constant mode is excluded by the mean constraint."""
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be > 0, got {gamma}")
    out = []
    for m in range(1, m_max + 1):
        out.extend([gamma * m * m, gamma * m * m])
    return out


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution family on the unit disk.

    The bulk field is the paraboloid r^2 shifted along the constant kernel
    pair so the beta-mean constraint holds with continuum measures; the
    sources are constants and satisfy the compatibility condition exactly
    in the continuum.
    """

    g_expr: str
    u_expr: str
    v_value: float

    def f_value(self):
        return -4.0

    def g_value(self):
        return float(self.g_expr)


def manufactured_second(k_like: float, alpha: float, beta: float) -> ManufacturedSolution:
    """Manufactured pair for the (K, alpha, beta) second-order solve on the
    unit disk: f = -4, g = 2*alpha, u = r^2 + alpha*c, v = (2K+1)/alpha + c."""
    if alpha == 0:
        raise InvalidArgumentError("manufactured family needs alpha != 0")
    if k_like < 0:
        raise InvalidArgumentError(f"Robin parameter must be >= 0, got {k_like}")
    denom = alpha * beta * math.pi + 2.0 * math.pi
    if abs(denom) < 1e-12:
        raise InvalidArgumentError("alpha*beta*pi + 2*pi is numerically zero")
    v0 = (2.0 * k_like + 1.0) / alpha
    c = -(beta * (math.pi / 2.0) + 2.0 * math.pi * v0) / denom
    return ManufacturedSolution(
        g_expr=f"{2.0 * alpha:.17g}",
        u_expr=f"x^2+y^2+({alpha * c:.17g})",
        v_value=v0 + c,
    )
