import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from bse import assembly, linalg, mesh
from bse.errors import (
    DimensionMismatchError,
    IncompatibleRhsError,
    InvalidArgumentError,
    NoConvergenceError,
    SingularSystemError,
)
from bse.linalg import ConstraintSet, CsrMatrix


def line_points(n):
    """Coordinates for an abstract matrix: unknown i at (i, 0)."""
    return np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])


def path_laplacian():
    return CsrMatrix.from_coo(
        3, [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2],
        [1.0, -1.0, -1.0, 2.0, -1.0, -1.0, 1.0])


def test_from_coo_diagonal():
    d = CsrMatrix.from_coo(2, [0, 1], [0, 1], [2.0, 3.0])
    np.testing.assert_array_equal(d @ np.ones(2), [2.0, 3.0])
    np.testing.assert_array_equal(d @ np.zeros(2), [0.0, 0.0])


def test_from_coo_sums_duplicates():
    a = CsrMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(a.toarray(), [[0.0, 5.0], [1.0, 0.0]])
    assert a.has_canonical_format
    assert not any(arr.flags.writeable for arr in (a.indptr, a.indices, a.data))


def test_from_coo_rejects_bad_triplets():
    with pytest.raises(InvalidArgumentError):
        CsrMatrix.from_coo(2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        CsrMatrix.from_coo(2, [0], [0, 0], [1.0, 1.0])


def test_zero_matrix_with_constraint():
    # only admissible solution of the n=1 all-zero system is x = 0
    a = CsrMatrix.from_coo(1, [], [], [])
    cs = ConstraintSet(n=1, points=line_points(1), mean_vector=np.array([1.0]),
                       kernel=np.array([1.0]))
    sol = linalg.solve_constrained(a, np.zeros(1), cs)
    np.testing.assert_array_equal(sol.x, [0.0])


def test_path_laplacian_constrained_solve():
    # hand KKT solve of A x + mu c = b, c.x = 0 gives x = (1, 0, -1), mu = 0
    a = path_laplacian()
    b = np.array([1.0, 0.0, -1.0])
    cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.ones(3), kernel=np.ones(3))
    x = linalg.solve_constrained(a, b, cs).x
    np.testing.assert_allclose(x, [1.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(a @ x, b, atol=1e-12)
    assert abs(np.sum(x)) <= 1e-12


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_solve_accepts_any_scipy_sparse_format(fmt):
    a = path_laplacian()
    b = np.array([1.0, 0.0, -1.0])
    cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.ones(3), kernel=np.ones(3))
    x = linalg.solve_constrained(sp.csr_matrix(a.toarray()).asformat(fmt), b, cs).x
    np.testing.assert_array_equal(x, linalg.solve_constrained(a, b, cs).x)


def test_solve_checks_dimensions_against_matrix_shape():
    cs = ConstraintSet(n=3, points=line_points(3))
    with pytest.raises(DimensionMismatchError, match="rhs length"):
        linalg.solve_constrained(sp.identity(3, format="csr"), np.ones(4), cs)
    with pytest.raises(DimensionMismatchError, match="constraints built for n=3, matrix has n=2"):
        linalg.solve_constrained(sp.identity(2, format="csr"), np.ones(2), cs)


def test_pure_kernel_rhs_rejected():
    a = path_laplacian()
    cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.ones(3), kernel=np.ones(3))
    with pytest.raises(IncompatibleRhsError):
        linalg.solve_constrained(a, np.ones(3), cs)


def test_degenerate_constraint_detected():
    a = path_laplacian()
    # constraint functional annihilates the kernel
    cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.array([1.0, -2.0, 1.0]),
                       kernel=np.ones(3))
    with pytest.raises(SingularSystemError):
        linalg.solve_constrained(a, np.zeros(3), cs)


@pytest.mark.parametrize("scale", [1e-300, 1e160, 1e300])
def test_kernel_pairing_is_checked_at_any_scale(scale):
    # c.k = 3 scale pairs the kernel at every scale; c and k are scaled by
    # powers of two to largest entries near 1 first, so |c| |k| cannot overflow
    a = path_laplacian()
    for kernel in (np.ones(3), np.full(3, scale)):
        cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.full(3, scale), kernel=kernel)
        x = linalg.solve_constrained(a, np.array([1.0, 0.0, -1.0]), cs).x
        assert abs(x.sum()) <= 1e-12 * np.abs(x).max()
        cs = ConstraintSet(n=3, points=line_points(3), mean_vector=scale * np.array([1.0, -2.0, 1.0]),
                           kernel=kernel)
        with pytest.raises(SingularSystemError, match="annihilated"):
            linalg.solve_constrained(a, np.zeros(3), cs)


def test_safe_norm_keeps_the_bits_and_does_not_overflow():
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(1000), 1e-3 * rng.standard_normal(7), np.zeros(3)):
        assert linalg.safe_norm(x) == np.linalg.norm(x)
    assert linalg.safe_norm(np.full(4, 1e300)) == 2e300
    assert linalg.safe_norm(np.full(4, 1.5e308)) == np.inf
    assert np.isnan(linalg.safe_norm(np.array([1.0, np.nan])))


def test_mean_constraint_residual_invariant():
    rng = np.random.default_rng(7)
    n = 40
    lap = _graph_laplacian(n, rng)
    c = rng.uniform(1.0, 2.0, n)
    cs = ConstraintSet(n=n, points=line_points(n), mean_vector=c, kernel=np.ones(n))
    b = rng.standard_normal(n)
    b -= np.mean(b)  # orthogonal to the constant kernel
    sol = linalg.solve_constrained(lap, b, cs)
    assert abs(c @ sol.x) <= 1e-12 * np.linalg.norm(sol.x) * np.linalg.norm(c)
    assert sol.residual <= 1e-12


def _graph_laplacian(n, rng):
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        w = rng.uniform(0.5, 2.0)
        rows += [i, i, i + 1, i + 1]
        cols += [i, i + 1, i, i + 1]
        vals += [w, -w, -w, w]
    # a few extra chords keep it irregular
    for _ in range(n // 3):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if i == j:
            continue
        w = rng.uniform(0.5, 2.0)
        rows += [i, i, j, j]
        cols += [i, j, i, j]
        vals += [w, -w, -w, w]
    return CsrMatrix.from_coo(n, rows, cols, vals)


@pytest.mark.parametrize("n", [20, 120, 200])
def test_cg_and_dense_paths_agree(n, dense_bordered_solve):
    rng = np.random.default_rng(n)
    a = _graph_laplacian(n, rng)
    c = rng.uniform(0.5, 1.5, n)
    cs = ConstraintSet(n=n, points=line_points(n), mean_vector=c, kernel=np.ones(n))
    b = rng.standard_normal(n)
    b -= np.mean(b)
    x_ref = dense_bordered_solve(a, b, cs)
    for method in ("cg", "auto"):
        x = linalg.solve_constrained(a, b, cs, method=method).x
        np.testing.assert_allclose(x, x_ref, atol=1e-9 * max(1.0, np.abs(x_ref).max()))


def _laplacian_system(n=40):
    # a graph Laplacian with kernel and mean ones, and a load orthogonal to the kernel
    rng = np.random.default_rng(2)
    a = _graph_laplacian(n, rng)
    b = rng.standard_normal(n)
    b -= np.mean(b)
    return a, b, ConstraintSet(n=n, points=line_points(n), mean_vector=np.ones(n), kernel=np.ones(n))


def test_cg_solves_a_definite_system():
    # definite on the mean-zero space: the multiplier vanishes and A x = b
    a, b, cs = _laplacian_system()
    sol = linalg.solve_constrained(a, b, cs, tol=1e-13, method="cg")
    assert sol.method == "cg" and sol.iterations > 0
    np.testing.assert_allclose(a @ sol.x, b, atol=1e-10)


@pytest.mark.parametrize("maxiter", (3, 0))
def test_cg_that_misses_tol_raises(maxiter):
    # 1e-13 takes more than 3 iterations; SciPy's cg reports success after 0
    a, b, cs = _laplacian_system()
    with pytest.raises(NoConvergenceError):
        linalg.solve_constrained(a, b, cs, tol=1e-13, maxiter=maxiter, method="cg")


def test_elimination_map_reconstruction():
    # eliminate x2 = 0.5 * x0 on A = D^T D, D = [[1, -1, 0], [1, 0, -2]], whose
    # kernel (2, 2, 1) satisfies the elimination
    d = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -2.0]])
    a = sp.csr_matrix(d.T @ d)
    cs = ConstraintSet(n=3, points=line_points(3), elim_index=np.array([2]),
                       elim_target=np.array([0]), elim_weight=np.array([0.5]),
                       mean_vector=np.ones(3), kernel=np.array([2.0, 2.0, 1.0]))
    b = np.array([0.0, 1.0, -2.0])
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.x[2] == pytest.approx(0.5 * sol.x[0], rel=1e-14)
    # reduced system: [[1, -1], [-1, 1]] y = (0 - 0.5 * 2, 1) with the mean 1.5 y0 + y1 = 0
    np.testing.assert_allclose(sol.x[:2], [-0.4, 0.6], rtol=1e-12)


def test_elimination_overlap_rejected():
    with pytest.raises(InvalidArgumentError):
        ConstraintSet(n=3, points=line_points(3), elim_index=np.array([1]),
                      elim_target=np.array([1]), elim_weight=np.array([1.0]))


def test_solvers_require_the_kernel_and_the_mean():
    # a set without either is rejected when any solver is built, the
    # multigrid one before it reads the levels
    forms = assembly.assemble_basic(mesh.generate_disk(16, 1))
    a = assembly.assemble_coupled(forms, 1.0, 1.0)
    full = assembly.build_constraints(forms, 1.0, 1.0, 1.0)
    fields = dict(n=full.n, points=full.points, mean_vector=full.mean_vector, kernel=full.kernel,
                  levels=full.levels, pairs=full.pairs)
    for missing in ("kernel", "mean_vector"):
        cs = ConstraintSet(**{**fields, missing: None})
        for build in (linalg.FactorizedConstrainedSolver, linalg.MultigridConstrainedSolver,
                      linalg.JacobiConstrainedSolver, linalg.constrained_solver):
            with pytest.raises(InvalidArgumentError, match="mean functional and the kernel"):
                build(a, cs)
        for method in ("auto", "cg"):
            with pytest.raises(InvalidArgumentError, match="mean functional and the kernel"):
                linalg.solve_constrained(a, np.zeros(full.n), cs, method=method)


def test_factorized_solver_matches_single_solves(dense_bordered_solve):
    rng = np.random.default_rng(5)
    n = 30
    a = _graph_laplacian(n, rng)
    c = rng.uniform(0.5, 1.5, n)
    cs = ConstraintSet(n=n, points=line_points(n), mean_vector=c, kernel=np.ones(n))
    solver = linalg.FactorizedConstrainedSolver(a, cs)
    cols = []
    rhs = []
    for _ in range(4):
        b = rng.standard_normal(n)
        b -= np.mean(b)
        rhs.append(b)
        cols.append(dense_bordered_solve(a, b, cs))
    batch = solver.solve(np.column_stack(rhs))
    np.testing.assert_allclose(batch, np.column_stack(cols), atol=1e-10)


def _two_paths(weight, n=10):
    # two unit-weight path graphs joined by one edge of the given weight
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        w = weight if i == n // 2 - 1 else 1.0
        rows += [i, i, i + 1, i + 1]
        cols += [i, i + 1, i, i + 1]
        vals += [w, -w, -w, w]
    return CsrMatrix.from_coo(n, rows, cols, vals)


def test_direct_solve_checks_its_residual():
    # the rhs is compatible with the joined graph, not with either path alone
    cs = ConstraintSet(n=10, points=line_points(10), mean_vector=np.ones(10), kernel=np.ones(10))
    b = np.concatenate([np.ones(5), -np.ones(5)])
    assert linalg.solve_constrained(_two_paths(1e-4), b, cs).residual <= 1e-11
    with pytest.raises(SingularSystemError, match="numerically singular"):
        linalg.solve_constrained(_two_paths(1e-14), b, cs)


def test_backward_error_of_a_nan_solution_is_nan():
    cs = ConstraintSet(n=3, points=line_points(3), mean_vector=np.ones(3), kernel=np.ones(3))
    red = linalg.ReducedSystem(path_laplacian(), cs)

    def eta(x, b):
        return red.backward_error(x, b, b - red.a_red @ x)

    b = np.array([1.0, 0.0, -1.0])
    assert eta(b, b) == 0.0  # A (1, 0, -1) = (1, 0, -1)
    assert eta(np.zeros(3), np.zeros(3)) == 0.0
    for x in (np.array([np.nan, 1.0, 1.0]), np.full(3, np.nan)):
        assert np.isnan(eta(x, b))
        assert not eta(x, b) <= linalg.MG_BACKWARD_TOL


def test_factorizations_per_solve(splu_calls):
    rng = np.random.default_rng(9)
    n = 30
    a = _graph_laplacian(n, rng)
    cs = ConstraintSet(n=n, points=line_points(n), mean_vector=rng.uniform(0.5, 1.5, n),
                       kernel=np.ones(n))
    b = rng.standard_normal(n)
    b -= np.mean(b)
    for calls in (1, 2):
        linalg.solve_constrained(a, b, cs)
        assert len(splu_calls) == calls
    linalg.solve_constrained(a, b, cs, method="cg")
    assert len(splu_calls) == 2


def test_importing_bse_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg costs ~0.08 s to import; bse loads it on the first factorization
    code = ("import sys\n"
            "from bse import assembly, cli, eigen, expr, linalg, mesh, oracle, solver\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _mesh_system(msh, k_like, alpha, gamma):
    """Coupled matrix, constraints without refinement levels (the direct
    solve at every size) and a compatible load on a mesh."""
    forms = assembly.assemble_basic(msh)
    a = assembly.assemble_coupled(forms, k_like, alpha, gamma)
    cs = assembly.build_constraints(forms, k_like, alpha, alpha, multigrid=False)
    x, y = msh.vertices[:, 0], msh.vertices[:, 1]
    f, g = assembly.project_compatible(forms, 1.0 - 0.5 * (x * x + y * y) + x,
                                       np.cos(3.0 * y[msh.surface_nodes]), alpha)
    return a, cs, assembly.assemble_load(forms, f, g)


def _relative_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (1.5, 0.3)])
@pytest.mark.parametrize("k_like", [0.0, 1.0])
@pytest.mark.parametrize("geometry,size", [("disk", 0), ("disk", 1), ("disk", 2), ("disk", 3),
                                           ("square", 16)])
def test_nested_dissection_solve_matches_default_order(geometry, size, k_like, alpha, gamma,
                                                       default_order_solve):
    msh = mesh.generate_disk(64, size) if geometry == "disk" else mesh.generate_square(size)
    a, cs, b = _mesh_system(msh, k_like, alpha, gamma)
    ref, _ = default_order_solve(a, b, cs)
    assert _relative_gap(linalg.solve_constrained(a, b, cs).x, ref) <= 2e-12


def test_nested_dissection_large_k(default_order_solve):
    # the coupling block grows with K and the conditioning with it: the 1-norm
    # condition estimate (scipy onenormest) of the refine-2 bordered matrix is
    # 5.2e4 at K=1 and 3.2e8 at K=1e4; the K=1 bound 2e-12 scaled by that
    # ratio is 1.3e-8 (1.1e-10 measured)
    a, cs, b = _mesh_system(mesh.generate_disk(64, 2), 1e4, 1.0, 1.0)
    ref, _ = default_order_solve(a, b, cs)
    assert _relative_gap(linalg.solve_constrained(a, b, cs).x, ref) <= 1e-8


@pytest.mark.parametrize("k_like", [0.0, 1.0])
def test_nested_dissection_reduces_fill(k_like, default_order_solve):
    # an exact count: 735,356 against 836,548 (K=0), 774,614 against 893,022 (K=1)
    a, cs, b = _mesh_system(mesh.generate_disk(64, 3), k_like, 1.0, 1.0)
    _, ref = default_order_solve(a, b, cs)
    lu = linalg.FactorizedConstrainedSolver(a, cs)._lu
    assert lu.L.nnz + lu.U.nnz < ref.L.nnz + ref.U.nnz


def test_nested_dissection_is_a_deterministic_permutation():
    msh = mesh.generate_disk(64, 2)
    a, cs, _ = _mesh_system(msh, 0.0, 1.0, 1.0)
    # bulk vertices, then the vertex each surface node sits on
    np.testing.assert_array_equal(cs.points, np.vstack([msh.vertices, msh.vertices[msh.surface_nodes]]))
    red = linalg.ReducedSystem(a, cs)
    assert red.points.shape == (red.n_red, 2)
    order = linalg.nested_dissection(red.a_red, red.points)
    np.testing.assert_array_equal(np.sort(order), np.arange(red.n_red))
    assert not np.array_equal(order, np.arange(red.n_red))
    np.testing.assert_array_equal(linalg.nested_dissection(red.a_red, red.points), order)


def test_permuted_solver_block_matches_single_solves():
    a, cs, b = _mesh_system(mesh.generate_disk(16, 2), 0.0, 1.5, 0.3)
    solver = linalg.FactorizedConstrainedSolver(a, cs)
    rhs = np.column_stack([b, 2.0 * b, -b])
    np.testing.assert_allclose(solver.solve(rhs), np.column_stack([solver.solve(col) for col in rhs.T]),
                               rtol=0, atol=1e-14 * np.max(np.abs(solver.solve(b))))


@pytest.mark.parametrize("points", [None, np.zeros((4, 2)), np.zeros((3, 3)), np.zeros(6),
                                    np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]),
                                    np.array([[0.0, 0.0], [np.inf, 1.0], [1.0, 1.0]])],
                         ids=["none", "rows", "cols", "flat", "nan", "inf"])
def test_constraint_points_validation(points):
    with pytest.raises(InvalidArgumentError, match="points"):
        ConstraintSet(n=3, points=points, mean_vector=np.ones(3), kernel=np.ones(3))


@pytest.mark.parametrize("name,value", [("mean_vector", np.ones(2)), ("kernel", np.ones(2)),
                                        ("mean_vector", np.array([1.0, np.nan, 1.0])),
                                        ("kernel", np.array([1.0, np.inf, 1.0]))],
                         ids=["short-mean", "short-kernel", "nan-mean", "inf-kernel"])
def test_constraint_mean_and_kernel_validation(name, value):
    # these ended as a dimension mismatch in a product, an IndexError, an exactly
    # singular factor and an annihilated kernel on the path Laplacian
    fields = {"mean_vector": np.ones(3), "kernel": np.ones(3), name: value}
    with pytest.raises(InvalidArgumentError, match=f"{name} must be a finite"):
        ConstraintSet(n=3, points=line_points(3), **fields)


# ---------------------------------------------------------------------------
# Multigrid CG over the refinement hierarchy
# ---------------------------------------------------------------------------

def _disk_system(refine, k_like, alpha, gamma, n_boundary=64):
    """Coupled matrix, constraint set and load of smooth non-radial sources on
    the disk with ``n_boundary`` boundary nodes before refinement."""
    msh = mesh.generate_disk(n_boundary, refine)
    forms = assembly.assemble_basic(msh)
    x, y = msh.vertices.T
    s = msh.surface_nodes
    f, g = assembly.project_compatible(forms, np.cos(2.0 * x) + y ** 2 - 0.3 * x * y,
                                       0.5 + x[s] - 0.4 * y[s] ** 3, alpha)
    return (assembly.assemble_coupled(forms, k_like, alpha, gamma),
            assembly.build_constraints(forms, k_like, alpha, 1.0),
            assembly.assemble_load(forms, f, g))


def _reduced_backward_error(a, cs, b, x):
    """Normwise infinity-norm backward error of x on the reduced system."""
    red = linalg.ReducedSystem(a, cs)
    y, b_red = x[cs.retained()], red.reduce_rhs(b)
    norm_a = np.max(abs(red.a_red) @ np.ones(red.n_red))
    return np.max(np.abs(b_red - red.a_red @ y)) / (norm_a * np.max(np.abs(y))
                                                     + np.max(np.abs(b_red)))


def _rel_inf(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("k_like", (0.0, 1.0))
@pytest.mark.parametrize("alpha,gamma", ((1.0, 1.0), (1.5, 0.3)))
def test_multigrid_matches_the_bordered_direct_solve(default_order_solve, k_like, alpha, gamma):
    # refine 3 (11k unknowns) and refine 4 (42k) reach the multigrid solver
    # through the dispatch of solve_constrained
    a, cs, b = _disk_system(3, k_like, alpha, gamma)
    sol3 = linalg.solve_constrained(a, b, cs)
    assert sol3.method == "mg-cg"
    x3 = sol3.x
    assert _rel_inf(x3, default_order_solve(a, b, cs)[0]) <= 1e-12
    assert _reduced_backward_error(a, cs, b, x3) <= 1e-15
    assert abs(cs.mean_vector @ x3) <= 1e-12 * (np.abs(cs.mean_vector) @ np.abs(x3))

    a, cs, b = _disk_system(4, k_like, alpha, gamma)
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.method == "mg-cg"
    assert _rel_inf(sol.x, default_order_solve(a, b, cs)[0]) <= 1e-12
    eta = _reduced_backward_error(a, cs, b, sol.x)
    assert eta <= 1e-15
    assert sol.backward_error == pytest.approx(eta, rel=1e-6)
    # the V-cycle keeps the iteration count flat under refinement
    assert abs(sol.iterations - sol3.iterations) <= 3


def test_smaller_or_unrefined_systems_keep_the_direct_solve(splu_calls):
    for msh in (mesh.generate_disk(64, 2), mesh.generate_square(150)):
        forms = assembly.assemble_basic(msh)
        a = assembly.assemble_coupled(forms, 1.0, 1.0)
        cs = assembly.build_constraints(forms, 1.0, 1.0, 1.0)
        b = assembly.assemble_load(forms, np.ones(msh.n_vertices), -np.ones(msh.n_surface)
                                   * assembly.measures(msh).area / assembly.measures(msh).perimeter)
        assert linalg.solve_constrained(a, b, cs).method == "splu"
    assert len(splu_calls) == 2


def test_multigrid_at_large_k_solves_what_superlu_solves():
    # with K = 1e5 the first CG sweep stalls near the roundoff floor of its
    # residual; a restart on the recomputed residual finishes the solve
    a, cs, b = _disk_system(4, 1e5, 1.0, 1.0)
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.method == "mg-cg"
    assert sol.residual <= linalg.DIRECT_RESIDUAL_TOL
    assert _reduced_backward_error(a, cs, b, sol.x) <= 1e-15


def test_multigrid_on_a_numerically_singular_system_raises():
    # K = 1e12 decouples bulk and surface in roundoff; the capped iteration
    # ends instead of running on
    a, cs, b = _disk_system(4, 1e12, 1.0, 1.0)
    with pytest.raises(SingularSystemError, match="mg-cg"):
        linalg.solve_constrained(a, b, cs)


@pytest.mark.parametrize("k_like,bound", ((1e4, 1.2e-8), (1e5, 1.2e-7)))
def test_multigrid_at_large_k_agrees_with_superlu(default_order_solve, k_like, bound):
    # as for the refine-2 solve at K = 1e4: the 1-norm condition estimate of
    # the refine-4 bordered matrix is 3.15e6 at K = 1, 1.94e10 at K = 1e4 and
    # 1.94e11 at K = 1e5, so the K = 1 bound 2e-12 scales to 1.2e-8 and 1.2e-7
    # (3.4e-9 and 2.0e-8 measured; SuperLU in nested-dissection order 6.1e-10
    # and 1.2e-8)
    a, cs, b = _disk_system(4, k_like, 1.0, 1.0)
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.method == "mg-cg"
    assert _rel_inf(sol.x, default_order_solve(a, b, cs)[0]) <= bound


@pytest.mark.parametrize("k_like,bound", ((1e-4, 1.5e-12), (1e-6, 2.4e-11), (1e-9, 3.5e-8)))
def test_block_smoother_holds_multigrid_at_small_k(default_order_solve, k_like, bound):
    # the V-cycle relaxes each boundary vertex and its surface node, coupled
    # by 1/K, as one 2x2 block: point Jacobi took 22 iterations at K = 1e-4
    # and the 300-iteration cap at 1e-6 and 1e-9.  The 1-norm condition
    # estimate of the refine-4 bordered matrix is 2.30e6, 3.85e7 and 5.53e10
    # (3.15e6 at K = 1), so the K = 1 bound 2e-12 scales to these bounds
    # (2.9e-13, 7.7e-12 and 5.0e-9 measured)
    a, cs, b = _disk_system(4, k_like, 1.0, 1.0)
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.method == "mg-cg" and sol.iterations <= 30
    assert _reduced_backward_error(a, cs, b, sol.x) <= 1e-15
    assert _rel_inf(sol.x, default_order_solve(a, b, cs)[0]) <= bound


@pytest.mark.parametrize("k_like", (0.0, 1.0))
def test_multigrid_on_a_large_coarsest_level(default_order_solve, splu_calls, k_like):
    # refine 1 of the n_boundary = 512 disk has 46k unknowns and a coarsest
    # level of 11.8k, which the V-cycle closes with the bordered sparse LU:
    # the one factorization of the solve
    a, cs, b = _disk_system(1, k_like, 1.0, 1.0, n_boundary=512)
    n_coarse = cs.levels[-1].shape[1]
    assert cs.levels[0].shape[0] >= linalg.MG_MIN_UNKNOWNS and n_coarse > 11000
    sol = linalg.solve_constrained(a, b, cs)
    assert sol.method == "mg-cg"
    assert [m.shape for m in splu_calls] == [(n_coarse + 1, n_coarse + 1)]
    assert _rel_inf(sol.x, default_order_solve(a, b, cs)[0]) <= 1e-12
    assert _reduced_backward_error(a, cs, b, sol.x) <= 1e-15


@pytest.mark.parametrize("k_like", (0.0, 1.0))
def test_levels_must_chain_to_the_system_size(k_like):
    msh = mesh.generate_disk(16, 2)
    forms = assembly.assemble_basic(msh)
    cs = assembly.build_constraints(forms, k_like, 1.0, 1.0)
    p0, p1 = cs.levels
    assert p0.shape == (cs.n - cs.elim_index.size, p1.shape[0])
    fields = dict(n=cs.n, points=cs.points, elim_index=cs.elim_index, elim_target=cs.elim_target,
                  elim_weight=cs.elim_weight, mean_vector=cs.mean_vector, kernel=cs.kernel)
    ConstraintSet(**fields, levels=cs.levels)
    ConstraintSet(**fields, levels=cs.levels[:1])  # a shorter hierarchy chains too
    for levels in (cs.levels[1:], (p0, p0), (p0[:-1], p1), (p0, p1[:-1])):
        with pytest.raises(InvalidArgumentError, match="refinement levels"):
            ConstraintSet(**fields, levels=levels)
    with pytest.raises(InvalidArgumentError, match="refinement levels"):
        linalg.MultigridConstrainedSolver(assembly.assemble_coupled(forms, k_like, 1.0),
                                          ConstraintSet(**fields))
