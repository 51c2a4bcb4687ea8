"""Independent reference results on the unit disk.

Separation of variables turns the coupled eigenproblem on the disk into a
per-mode transcendental dispersion relation in the eigenvalue; its roots
are semi-analytic references for the finite-element spectra.  The module
also carries a manufactured solution family for convergence studies.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidArgumentError

BESSEL_MAX_ARG = 200.0
BESSEL_UNDERFLOW = 1e-280  # far below |J_m| at a zero of J_{m-1}, which stays
GRID_STEP = 0.01
# mode 0 alone is also scanned at these multiples of the grid step: its first root, near
# (2 + alpha^2) / K, lies below the grid for K > ~200 and above 1e-300 of the step for K <= 1e300
SUBGRID = 10.0 ** np.arange(-300, 0)


@dataclass(frozen=True)
class DispersionRoot:
    """One semi-analytic disk eigenvalue: angular mode, value, multiplicity."""

    m: int
    lam: float
    multiplicity: int


def _pair(below, j, above):
    """J_m and J_m' = (J_{m-1} - J_{m+1}) / 2, as ``scipy.special.jvp`` forms
    it, from J_{m-1}, J_m and J_{m+1}, with orders below BESSEL_UNDERFLOW
    above a 0.0 taken as 0.0: SciPy 1.17 gives 0.0 for J_114(s) and J_115(s)
    near s = 0.22, but not for J_116(s), which gave J_115' the wrong sign."""
    j = np.where((below == 0) & (np.abs(j) < BESSEL_UNDERFLOW), 0.0, j)
    above = np.where(((below == 0) | (j == 0)) & (np.abs(above) < BESSEL_UNDERFLOW), 0.0, above)
    return j, (below - above) / 2


def _bessel_pair(m, s):
    """J_m(s) and J_m'(s) elementwise, as ``_pair`` forms them; the orders
    ``m`` are a scalar or an array like ``s``."""
    return _pair(special.jv(m - 1, s), special.jv(m, s), special.jv(m + 1, s))


def _relation(k_like, alpha, gamma, m, lam, j, jp):
    """Dispersion function of mode ``m`` from J_m and J_m' at s = sqrt(lam),
    elementwise over the array ``lam``: the determinant
    det[[alpha s J_m', gamma m^2 - lam], [K s J_m' + J_m, -alpha]]
    = (lam - gamma m^2)(K s J_m' + J_m) - alpha^2 s J_m', divided by
    max(1, alpha^2) so that an overflowing alpha^2 meets no inf * 0."""
    s = np.sqrt(lam)
    a2 = alpha * alpha
    return (lam - gamma * m * m) * (k_like * s * jp + j) / max(1.0, a2) - min(1.0, a2) * s * jp


def _brackets(fun, m, grid, f, extra, lam_max):
    """Sign-change brackets (lo, hi, fun(m, lo)) of mode ``m`` from its values
    ``f`` on the ascending ``grid``, with the points ``extra`` in (0, lam_max]
    and the double after lam_max, which brackets a root at lam_max, evaluated
    by ``fun`` and added: every cell whose ends differ in sign is a bracket."""
    extra = extra[(extra > 0) & (extra <= np.nextafter(lam_max, np.inf))]
    at = np.searchsorted(grid, extra)
    grid, f = np.insert(grid, at, extra), np.insert(f, at, fun(m, extra))
    bracket = np.signbit(f[:-1]) != np.signbit(f[1:])
    return grid[:-1][bracket], grid[1:][bracket], f[:-1][bracket]


def _bisect(fun, m, lo, hi, flo):
    """Halve every bracket [lo_i, hi_i] of fun(m_i, .) in lockstep, keeping the
    half whose ends differ in sign, until its ends are adjacent doubles;
    ``flo`` holds the values at ``lo``.  Returns the end of each bracket at
    which fun has no sign bit."""
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        fmid = fun(m, mid)
        left = np.signbit(flo) != np.signbit(fmid)
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
        mid = 0.5 * (lo + hi)
    return np.where(np.signbit(flo), hi, lo)


def disk_eigs_second(k_like: float, alpha: float, gamma: float, m_max: int,
                     lam_max: float, grid_step: float = GRID_STEP) -> list[DispersionRoot]:
    """All dispersion roots in (0, lam_max] for angular modes 0..m_max.

    Each mode's relation is the pole-free determinant
    (lam - gamma m^2)(K s J_m' + J_m) - alpha^2 s J_m' for every alpha; at
    alpha = 0 its roots are the bulk Robin/Dirichlet roots and gamma m^2.
    It is scanned on the grid, mode 0 also at the SUBGRID points below it
    and mode m >= 1 also at the two doubles beside gamma m^2, where the
    surface factor has a sign: a root on either side of gamma m^2 and one at
    it get a bracket each, also in one grid cell.  Every sign change is a
    bracket and every root in (0, lam_max] is kept.  Each Bessel order is
    evaluated over the whole grid once, for the three modes whose relations
    use it, as ``_pair`` forms J_m and J_m'; the brackets of all modes are
    bisected together."""
    if not np.all(np.isfinite([k_like, alpha, gamma, lam_max, grid_step])):
        raise InvalidArgumentError("oracle parameters must be finite")
    if k_like < 0:
        raise InvalidArgumentError(f"Robin parameter must be >= 0, got {k_like}")
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be > 0, got {gamma}")
    if isinstance(m_max, bool) or not isinstance(m_max, (int, np.integer)) or m_max < 0:
        raise InvalidArgumentError(f"m_max must be a non-negative integer, got {m_max!r}")
    if lam_max <= 0:
        raise InvalidArgumentError("lam_max must be > 0")
    if grid_step <= 0:
        raise InvalidArgumentError(f"grid_step must be > 0, got {grid_step}")
    if lam_max > BESSEL_MAX_ARG ** 2:
        raise InvalidArgumentError(f"lam_max beyond supported Bessel range {BESSEL_MAX_ARG}^2")

    def fun(m, lam):
        return _relation(k_like, alpha, gamma, m, lam, *_bessel_pair(m, np.sqrt(lam)))

    grid = grid_step * np.arange(1, int(round(lam_max / grid_step)) + 1)
    grid = grid[grid <= lam_max]
    s = np.sqrt(grid)
    rows, parts = [None, special.jv(-1, s), special.jv(0, s)], []
    for m in range(m_max + 1):  # rows J_{m-1}, J_m, J_{m+1}
        rows = rows[1:] + [special.jv(m + 1, s)]
        f = _relation(k_like, alpha, gamma, m, grid, *_pair(*rows))
        extra = grid_step * SUBGRID if m == 0 else np.nextafter(gamma * m * m, [0.0, np.inf])
        parts.append(_brackets(fun, m, grid, f, extra, lam_max))
    mode = np.repeat(np.arange(m_max + 1), [lo.size for lo, _, _ in parts])
    lams = _bisect(fun, mode, *(np.concatenate(arrays) for arrays in zip(*parts)))
    return sorted((DispersionRoot(m=m, lam=lam, multiplicity=1 if m == 0 else 2)
                   for m, lam in zip(mode.tolist(), lams.tolist()) if lam <= lam_max),
                  key=lambda r: r.lam)


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
