"""Independent reference results on the unit disk.

Separation of variables turns the coupled eigenproblem on the disk into a
per-mode transcendental dispersion relation in the eigenvalue; its roots
are semi-analytic references for the finite-element spectra.  The module
also carries the Bessel functions behind those relations, closed-form
circle spectra for the decoupled case, and a manufactured solution family
for convergence studies.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidArgumentError

BESSEL_MAX_ORDER = 30
BESSEL_MAX_ARG = 200.0
GRID_STEP = 0.01
ROOT_TOL = 1e-12
POLE_EXCLUSION = 1e-9
# mode 0 alone is also scanned at these multiples of the grid step: its first root, near
# (2 + alpha^2) / K, lies below the grid for K > ~200 (J_m of high orders underflows there)
SUBGRID = 10.0 ** np.arange(-6, 0)


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


def _relation(k_like, alpha, gamma, m, lam, j, jp):
    """Dispersion function of mode ``m`` from J_m and J_m' at s = sqrt(lam),
    elementwise over the array ``lam``: the bulk Robin/Dirichlet relation
    K s J_m'(s) + J_m(s) for alpha = 0, else the rationalized relation, with
    its poles at lam = gamma m^2 removed."""
    s = np.sqrt(lam)
    robin = k_like * s * jp + j
    return robin if alpha == 0.0 else (lam - gamma * m * m) * robin - alpha * alpha * s * jp


def _brackets(fun, m, grid, f, lam_max, pole, grid_step):
    """Sign-change brackets (lo, hi, fun(m, lo)) of mode ``m`` from its values
    ``f`` on the standard ``grid`` of step ``grid_step``.

    Points evaluated by ``fun`` are added: the SUBGRID points for mode 0, and
    the two at the edges of the exclusion window of ``pole`` (0 for no pole),
    so each side of the pole is bracketed separately, and the cell across the
    pole is no bracket.
    """
    extra = grid_step * SUBGRID if m == 0 else np.empty(0)
    if 0 < pole < lam_max:
        extra = np.array([pole - POLE_EXCLUSION, pole + POLE_EXCLUSION])
    extra = extra[(extra > 0) & (extra <= lam_max)]
    if extra.size:
        at = np.searchsorted(grid, extra)
        grid, f = np.insert(grid, at, extra), np.insert(f, at, fun(m, extra))
    bracket = (f[:-1] < 0) != (f[1:] < 0)
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
    relation is scanned.  Away from its pole gamma m^2, whose window no bracket
    spans, it is the coupled relation K s J' + J = alpha^2 s J' / (lam - gamma m^2)
    times a nonzero factor, so every root it has is genuine.  Mode 0 is also
    scanned below the grid.  Each Bessel order is evaluated over the whole grid
    once, for the three modes whose relations use it, with
    J_m' = (J_{m-1} - J_{m+1}) / 2 as in ``scipy.special.jvp``; the brackets of
    all modes are bisected together.
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

    def fun(m, lam):
        return _relation(k_like, alpha, gamma, m, lam, *_bessel_pair(m, np.sqrt(lam)))

    modes = range(m_max + 1)
    grid = grid_step * np.arange(1, int(round(lam_max / grid_step)) + 1)
    grid = grid[grid <= lam_max]
    s = np.sqrt(grid)
    rows, parts = [None, special.jv(-1, s), special.jv(0, s)], []
    for m in modes:  # rows J_{m-1}, J_m, J_{m+1}; J_m' is formed as scipy.special.jvp does
        rows = rows[1:] + [special.jv(m + 1, s)]
        f = _relation(k_like, alpha, gamma, m, grid, rows[1], (rows[0] - rows[2]) / 2)
        parts.append(_brackets(fun, m, grid, f, lam_max, gamma * m * m if alpha else 0.0, grid_step))
    mode = np.repeat(np.arange(m_max + 1), [lo.size for lo, _, _ in parts])
    lams = _bisect(fun, mode, *(np.concatenate(arrays) for arrays in zip(*parts)))
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
