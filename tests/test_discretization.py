"""One ``Discretization`` per library call: coinciding systems share one
solver within the call, the forms stay on the mesh across calls, and
nothing else outlives the call, not even in an eigensolve's result.  The SuperLU counts
run on refine 2 (2.9k unknowns), below ``linalg.MG_MIN_UNKNOWNS``."""

import gc
import weakref

import numpy as np
import pytest

from bse import _kernels, assembly, eigen, linalg, mesh, solver
from bse.assembly import ProblemParams


@pytest.fixture
def order_calls(monkeypatch):
    """The sizes of the matrices ``linalg.nested_dissection`` orders."""
    calls = []
    real = linalg.nested_dissection

    def counting(a, points):
        calls.append(a.shape[0])
        return real(a, points)

    monkeypatch.setattr(linalg, "nested_dissection", counting)
    return calls


@pytest.fixture
def tri_calls(monkeypatch):
    """The vertex counts of the meshes whose triangles are assembled."""
    calls = []
    real = _kernels.tri_entries

    def counting(vertices, triangles):
        calls.append(len(vertices))
        return real(vertices, triangles)

    monkeypatch.setattr(_kernels, "tri_entries", counting)
    return calls


def _sources(msh):
    x, y = msh.vertices.T
    xs, ys = msh.vertices[msh.surface_nodes].T
    return 1.0 - 0.5 * (x * x + y * y) + x * y, np.cos(3.0 * np.arctan2(ys, xs))


def _counts(splu=0, mg=0, forms=(0, 1)):
    return {"solvers": {"splu": splu, "mg-cg": mg}, "forms": dict(zip(("hits", "misses"), forms))}


def test_solve_fourth_factors_coinciding_stages_once(splu_calls, order_calls):
    msh = mesh.generate_disk(64, 2)
    rep = solver.solve_fourth(msh, ProblemParams(K=1.0, L=1.0, alpha=1.5, beta=1.5),
                              *_sources(msh), strict=False)
    assert rep.method == "splu"
    assert len(splu_calls) == 1 and len(order_calls) == 1
    assert rep.counts == _counts(splu=1)


def test_solve_fourth_orders_a_shared_pattern_once(splu_calls):
    # K = 1 and L = 2 give two systems on one sparsity pattern, each factored once
    msh = mesh.generate_disk(64, 2)
    rep = solver.solve_fourth(msh, ProblemParams(K=1.0, L=2.0), *_sources(msh), strict=False)
    assert len(splu_calls) == 2
    assert rep.counts == _counts(splu=2)


def test_inner_dual_factors_once(splu_calls, order_calls):
    msh = mesh.generate_disk(64, 2)
    p = ProblemParams(K=1.0, L=2.0, alpha=1.0, beta=0.5)
    forms = assembly.assemble_basic(msh)
    f, g = _sources(msh)
    pairs = [assembly.project_compatible(forms, f, g, p.beta),
             assembly.project_compatible(forms, np.ones_like(f), g, p.beta)]
    assert np.isfinite(solver.inner_dual(msh, p, *pairs))
    assert len(splu_calls) == 1 and len(order_calls) == 1


def test_inner_dual_solves_once(monkeypatch):
    # x1^T A x2 = x1 . b2 for a compatible second pair: one constrained solve
    calls = []
    real = solver.solve_constrained

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_constrained", counting)
    msh = mesh.generate_disk(16, 1)
    p = ProblemParams(K=1.0, L=2.0, alpha=1.0, beta=0.5)
    forms = assembly.assemble_basic(msh)
    f, g = _sources(msh)
    pairs = [assembly.project_compatible(forms, f, g, p.beta),
             assembly.project_compatible(forms, np.ones_like(f), g, p.beta)]
    assert np.isfinite(solver.inner_dual(msh, p, *pairs))
    assert len(calls) == 1


def test_eig_fourth_orders_a_shared_pattern_once(splu_calls):
    msh = mesh.generate_disk(64, 2)
    res = eigen.eig_fourth(msh, ProblemParams(K=1.0, L=2.0, alpha=1.0, beta=0.5), k=3)
    assert len(splu_calls) == 2
    assert res.counts == _counts(splu=2)


def test_second_call_reuses_forms(tri_calls):
    msh = mesh.generate_disk(64, 2)
    f, g = _sources(msh)
    first = solver.solve_second(msh, ProblemParams(), f, g, strict=False)
    assert len(tri_calls) == 1
    second = solver.solve_second(msh, ProblemParams(), f, g, strict=False)
    assert len(tri_calls) == 1
    assert second.counts == _counts(splu=1, forms=(1, 0))
    # the cached forms give the same factorization: the same bytes
    np.testing.assert_array_equal(second.field.u, first.field.u)
    np.testing.assert_array_equal(second.field.v, first.field.v)


def test_solve_fourth_builds_one_multigrid_hierarchy(monkeypatch):
    built = []

    class Counting(linalg.MultigridConstrainedSolver):
        def __init__(self, a, cs):
            built.append(a.shape[0])
            super().__init__(a, cs)

    monkeypatch.setattr(linalg, "MultigridConstrainedSolver", Counting)
    msh = mesh.generate_disk(64, 4)
    rep = solver.solve_fourth(msh, ProblemParams(K=1.0, L=1.0, alpha=1.0, beta=1.0),
                              *_sources(msh), strict=False)
    assert rep.method == "mg-cg" and rep.backward_error <= 1e-15
    assert built == [msh.n_vertices + msh.n_surface]
    assert rep.counts == _counts(mg=1)


def test_eigensolve_skips_the_dirichlet_level_restriction(monkeypatch):
    # K = 0 multigrid restricts each level's prolongation to the retained
    # unknowns, which needs the constraint sets of the coarser meshes; the
    # SuperLU of an eigensolve needs neither
    msh = mesh.generate_disk(64, 4)
    sizes = []
    real = assembly._constraint_set

    def recording(m, *args, **kwargs):
        sizes.append(m.n_vertices)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(assembly, "_constraint_set", recording)
    p = ProblemParams(K=0.0)
    assert eigen.eig_second(msh, p, 1).counts["solvers"] == {"splu": 1, "mg-cg": 0}
    assert sizes == [msh.n_vertices]
    sizes.clear()
    assert solver.solve_second(msh, p, *_sources(msh), strict=False).method == "mg-cg"
    assert msh.parent.n_vertices in sizes


@pytest.mark.parametrize("refine", (2, 4))
def test_no_solver_or_mesh_outlives_the_call(refine):
    # the mesh's cache holds arrays and sparse matrices only, so a dead mesh
    # is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        alive = sum(isinstance(o, linalg.ReducedSystem) for o in gc.get_objects())
        msh = mesh.generate_disk(64, refine)
        rep = solver.solve_second(msh, ProblemParams(), *_sources(msh), strict=False)
        assert rep.method == ("mg-cg" if refine == 4 else "splu")
        assert sum(isinstance(o, linalg.ReducedSystem) for o in gc.get_objects()) == alive
        ref = weakref.ref(msh)
        del msh, rep
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("eig, params", [
    (eigen.eig_second, ProblemParams()),
    (eigen.eig_second, ProblemParams(K=0.0)),
    (eigen.eig_fourth, ProblemParams(K=1.0, L=2.0, beta=0.5)),  # nor B's inner solve
])
def test_eigen_result_keeps_no_outer_factorization(eig, params, minimax_check):
    def factorizations():
        gc.collect()
        return sum(isinstance(o, linalg.FactorizedConstrainedSolver) for o in gc.get_objects())

    before = factorizations()
    msh = mesh.generate_disk(16, 2)
    res = eig(msh, params, 4)
    assert factorizations() == before
    assert minimax_check(res, msh, params, 3, fourth=eig is eigen.eig_fourth) < 1e-8
    assert factorizations() == before
