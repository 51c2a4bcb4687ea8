"""Solution operators for the second- and fourth-order coupled systems.

The second-order solve maps a compatible source pair onto the unique
mean-constrained weak solution.  The fourth-order solve is the literal
composition of two second-order solves with swapped coupling constants;
the intermediate pair is retained on the report.  Each call builds its
systems in one ``assembly.Discretization``, so solves of one system share its
solver.  The module also exposes the energy, product-L2, and solution-induced
dual inner products.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import (
    BasicForms,
    CoupledField,
    Discretization,
    ProblemParams,
    assemble_coupled,
    assemble_load,
    compatibility_defect,
    compatibility_scale,
    project_compatible,
)
from .errors import DomainError, IncompatibleSourceError
from .linalg import solve_constrained
from .mesh import Mesh

STRICT_COMPAT_REL_TOL = 1e-10


@dataclass
class SolveReport:
    """Solution field plus solver diagnostics.

    ``defect_compat`` is the compatibility defect of the sources before any
    projection, ``defect_compat_post`` after; ``defect_mean`` is |c.x| of
    the returned solution; ``method`` names the constrained-solve path
    (``"splu"`` or ``"mg-cg"``); ``backward_error`` is the normwise
    backward error of the reduced system; ``forms`` are the basic forms the solve
    used and, for a second-order solve, ``energy`` its coupled matrix, for
    norms of the result; ``counts`` are its ``Discretization``'s.  For
    fourth-order solves ``intermediate`` holds the first stage's pair.
    """

    field: CoupledField
    iterations: int
    residual: float
    defect_compat: float
    defect_compat_post: float
    defect_mean: float
    method: str
    backward_error: float
    forms: BasicForms
    energy: "scipy.sparse.csr_matrix | None" = None
    intermediate: CoupledField | None = None
    counts: dict | None = None


def _check_sources(forms, f, g, alpha_like, strict):
    """Compatibility gate: non-finite sources are rejected, then strict mode
    rejects an incompatible pair, otherwise g is shifted."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    for name, values in (("f", f), ("g", g)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError(f"source {name} is {values[bad[0]]} at node {bad[0]}: "
                              "sources must be finite")
    defect = compatibility_defect(forms, f, g, alpha_like)
    scale = compatibility_scale(forms, f, g, alpha_like)
    rel = abs(defect) / scale if scale > 0 else 0.0
    if strict:
        if rel > STRICT_COMPAT_REL_TOL:
            raise IncompatibleSourceError(
                f"source pair violates the compatibility condition: relative defect "
                f"{rel:.3e} > {STRICT_COMPAT_REL_TOL:.1e}; project the sources or "
                "disable strict mode")
        return f, g, defect, defect
    f, g = project_compatible(forms, f, g, alpha_like)
    return f, g, defect, compatibility_defect(forms, f, g, alpha_like)


def _solve_stage(disc, key, f, g, strict, stage=None):
    """One solve by the shared solver of ``key`` in ``disc``; errors name the ``stage``."""
    try:
        a, cs = disc.system(*key)
        f, g, defect_pre, defect_post = _check_sources(disc.forms, f, g, key[1], strict)
        sol = solve_constrained(a, assemble_load(disc.forms, f, g), cs, solver=disc.solver(*key))
    except Exception as exc:
        exc.args = (f"{stage}: {exc}",) if stage and exc.args else exc.args
        raise
    return sol, defect_pre, defect_post, abs(float(cs.mean_vector @ sol.x))


def solve_second(mesh: Mesh, params: ProblemParams, f, g, strict=True) -> SolveReport:
    """Second-order solve: Robin scale K, coupling alpha, mean constraint beta.

    Nodal sources (f, g) must be finite and satisfy the alpha-compatibility
    condition; in strict mode an incompatible pair raises, otherwise g is
    shifted by a constant first.
    """
    disc = Discretization(mesh)
    key = (params.K, params.alpha, params.beta, params.gamma)
    sol, pre, post, dmean = _solve_stage(disc, key, f, g, strict)
    return SolveReport(field=CoupledField.from_vector(mesh, sol.x), iterations=sol.iterations,
                       residual=sol.residual, defect_compat=pre, defect_compat_post=post,
                       defect_mean=dmean, method=sol.method, backward_error=sol.backward_error,
                       forms=disc.forms, energy=disc.system(*key)[0], counts=disc.counts)


def solve_fourth(mesh: Mesh, params: ProblemParams, f, g, strict=True) -> SolveReport:
    """Fourth-order solve as a composition of two second-order solves.

    Stage 1 solves with (L, beta) coupling and alpha-mean constraint; its
    output is beta-compatible by construction and feeds stage 2, which
    solves with (K, alpha) coupling and beta-mean constraint.
    """
    disc = Discretization(mesh)
    sol1, pre, post, dmean1 = _solve_stage(disc, (params.L, params.beta, params.alpha, params.gamma),
                                           f, g, strict, "stage 1 (Robin L, coupling beta)")
    mu = CoupledField.from_vector(mesh, sol1.x)
    sol2, _, _, dmean2 = _solve_stage(disc, (params.K, params.alpha, params.beta, params.gamma),
                                      mu.u, mu.v, True, "stage 2 (Robin K, coupling alpha)")
    return SolveReport(field=CoupledField.from_vector(mesh, sol2.x),
                       iterations=sol1.iterations + sol2.iterations,
                       residual=max(sol1.residual, sol2.residual), defect_compat=pre,
                       defect_compat_post=post, defect_mean=max(dmean1, dmean2), method=sol2.method,
                       backward_error=max(sol1.backward_error, sol2.backward_error),
                       forms=disc.forms, intermediate=mu, counts=disc.counts)


# ---------------------------------------------------------------------------
# Inner products and norms
# ---------------------------------------------------------------------------

def inner_ka(forms: BasicForms, params: ProblemParams, a: CoupledField,
             b: CoupledField) -> float:
    """Coupled energy form with Robin scale K, coupling alpha, weight gamma."""
    a.check_mesh(forms.mesh)
    b.check_mesh(forms.mesh)
    mat = assemble_coupled(forms, params.K, params.alpha, params.gamma)
    return float(a.to_vector() @ (mat @ b.to_vector()))


def norm_ka(forms: BasicForms, params: ProblemParams, a: CoupledField) -> float:
    """Energy seminorm; quadratic-form noise below zero is clamped."""
    q = inner_ka(forms, params, a, a)
    return float(np.sqrt(max(q, 0.0)))


def inner_h0(forms: BasicForms, a: CoupledField, b: CoupledField) -> float:
    """Product-L2 inner product via the consistent block mass matrix."""
    a.check_mesh(forms.mesh)
    b.check_mesh(forms.mesh)
    return float(a.to_vector() @ (forms.block_mass @ b.to_vector()))


def inner_dual(mesh: Mesh, params: ProblemParams, fg1, fg2) -> float:
    """Inner product on beta-compatible source pairs, induced by the solves
    with (L, beta) coupling and alpha-mean constraint: the energy pairing
    x1^T A x2 of the two solutions.  It equals x1 . b2 with b2 the load of the
    second pair (A x2 = b2 - mu c, mu = 0 for a compatible pair, c . x1 = 0),
    so one solve serves; the second pair is checked as strictly."""
    disc = Discretization(mesh)
    key = (params.L, params.beta, params.alpha, params.gamma)
    x1 = _solve_stage(disc, key, *fg1, strict=True)[0].x
    f2, g2 = _check_sources(disc.forms, *fg2, key[1], strict=True)[:2]
    return float(x1 @ assemble_load(disc.forms, f2, g2))
