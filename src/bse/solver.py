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
from .errors import IncompatibleSourceError
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
    used, for norms of the result, and ``counts`` its ``Discretization``'s.
    For fourth-order solves ``intermediate`` holds the first stage's pair.
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
    intermediate: CoupledField | None = None
    counts: dict | None = None


def _check_sources(forms, f, g, alpha_like, strict):
    """Compatibility gate: strict mode rejects, otherwise shift g."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
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

    Nodal sources (f, g) must satisfy the alpha-compatibility condition; in
    strict mode an incompatible pair raises, otherwise g is shifted by a
    constant first.
    """
    disc = Discretization(mesh)
    sol, pre, post, dmean = _solve_stage(disc, (params.K, params.alpha, params.beta, params.gamma),
                                         f, g, strict)
    return SolveReport(field=CoupledField.from_vector(mesh, sol.x), iterations=sol.iterations,
                       residual=sol.residual, defect_compat=pre, defect_compat_post=post,
                       defect_mean=dmean, method=sol.method, backward_error=sol.backward_error,
                       forms=disc.forms, counts=disc.counts)


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
    with (L, beta) coupling and alpha-mean constraint: the energy pairing of
    the two solutions, which share one solver."""
    disc = Discretization(mesh)
    key = (params.L, params.beta, params.alpha, params.gamma)
    s = [_solve_stage(disc, key, f, g, strict=True)[0].x for f, g in (fg1, fg2)]
    return float(s[0] @ (disc.system(*key)[0] @ s[1]))
