import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.special
# bound before ``splu_calls`` can patch the module attribute: the reference
# factorization below is not one of the program's
from scipy.sparse.linalg import splu as _splu

from bse import assembly, linalg, oracle
from bse import mesh as meshmod


def _dense_bordered_solve(a, b, cs):
    """Reference constrained solve on small systems: numpy.linalg.solve of the
    dense bordered system [[R^T A R, R^T c], [c^T R, 0]], with R the
    trace-elimination map (identity without elimination).  ``b`` is a vector
    or a block of columns."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    a_red = r.T @ a.toarray() @ r
    b_red = r.T @ np.asarray(b, dtype=np.float64)
    c = r.T @ cs.mean_vector
    n = a_red.shape[0]
    big = np.zeros((n + 1, n + 1))
    big[:n, :n] = a_red
    big[:n, n] = c
    big[n, :n] = c
    rhs = np.concatenate([b_red, np.zeros((1,) + b_red.shape[1:])])
    return r @ np.linalg.solve(big, rhs)[:n]


def _default_order_solve(a, b, cs):
    """Reference constrained solve: SuperLU of the bordered system
    [[R^T A R, R^T c], [c^T R, 0]] with SuperLU's own default (COLAMD) column
    order and partial pivoting, independent of the program's
    nested-dissection order.  Returns the full-space solution and the
    ``SuperLU`` object."""
    red = linalg.ReducedSystem(a, cs)
    c = sp.csc_matrix(red.c_red.reshape(-1, 1))
    lu = _splu(sp.bmat([[red.a_red, c], [c.T, None]], format="csc"))
    rhs = np.concatenate([red.reduce_rhs(b), np.zeros(1)])
    return red.expand(lu.solve(rhs)[:red.n_red]), lu


def _dense_constrained_eigs(a, b, cs, k):
    """Reference constrained eigenvalues on small systems: the smallest k of
    the pencil (A, B) on {x = R y : c.x = 0}, by scipy.linalg.eigh in an
    orthonormal null-space basis of the reduced constraint functional R^T c.
    ``b`` is a dense full-space matrix."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    basis = r @ sla.null_space((r.T @ cs.mean_vector)[None, :])
    a_nn = basis.T @ a.toarray() @ basis
    b_nn = basis.T @ b @ basis
    return sla.eigh(a_nn, 0.5 * (b_nn + b_nn.T), eigvals_only=True,
                    subset_by_index=[0, k - 1])


def _minimax_check(result, mesh, params, trials, seed=0, fourth=False):
    """Sampled check of the variational principle for an ``eig_second`` (or,
    with ``fourth``, ``eig_fourth``) result on ``mesh``.  The pencil is rebuilt
    from public data: A the (K, alpha, gamma) energy matrix, B the block mass M
    or M A_L^+ M with A_L^+ a FactorizedConstrainedSolver of the (L, beta)
    system, on the alpha- (beta-) mean-constrained space, spanned as in
    ``dense_constrained_eigs``.  At eigenvector j the Rayleigh quotient must
    equal lambda_j; random vectors of the space B-orthogonal to the preceding
    eigenvectors must have quotient at least lambda_j.  Returns the largest
    relative violation: roundoff-level values are expected."""
    forms = assembly.assemble_basic(mesh)
    a = assembly.assemble_coupled(forms, params.K, params.alpha, params.gamma)
    cs = assembly.build_constraints(forms, params.K, params.alpha,
                                    params.beta if fourth else params.alpha, multigrid=False)
    mass = forms.block_mass
    if fourth:
        inner = linalg.FactorizedConstrainedSolver(
            assembly.assemble_coupled(forms, params.L, params.beta, params.gamma),
            assembly.build_constraints(forms, params.L, params.beta, params.alpha, multigrid=False))

        def b(x):
            return mass @ inner.solve(mass @ x)
    else:
        b = mass.dot
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    basis = r @ sla.null_space((r.T @ cs.mean_vector)[None, :])
    x = np.column_stack([f.to_vector() for f in result.fields])
    bx = b(x)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j, lam in enumerate(result.eigenvalues):
        worst = max(worst, abs(x[:, j] @ (a @ x[:, j]) / (x[:, j] @ bx[:, j]) - lam) / lam)
        for _ in range(trials):
            v = basis @ rng.standard_normal(basis.shape[1])
            v -= x[:, :j] @ (bx[:, :j].T @ v)
            worst = max(worst, (lam - v @ (a @ v) / (v @ b(v))) / lam)
    return worst


@pytest.fixture(scope="session")
def dense_bordered_solve():
    return _dense_bordered_solve


@pytest.fixture(scope="session")
def default_order_solve():
    return _default_order_solve


@pytest.fixture(scope="session")
def dense_constrained_eigs():
    return _dense_constrained_eigs


@pytest.fixture(scope="session")
def minimax_check():
    return _minimax_check


@pytest.fixture
def splu_calls(monkeypatch):
    """The matrices passed to ``scipy.sparse.linalg.splu`` while the test runs:
    one entry per sparse factorization."""
    import scipy.sparse.linalg as spla

    calls = []
    real = spla.splu

    def counting(mat, *args, **kwargs):
        calls.append(mat)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


# ---------------------------------------------------------------------------
# Reference Bessel values (m, x, J_m(x), J_m'(x)), computed once with mpmath
# at 40 significant digits and rounded to the nearest double:
#   mpmath.mp.dps = 40
#   j = mpmath.besselj(m, mpmath.mpf(x)); jp = mpmath.besselj(m, mpmath.mpf(x), derivative=1)
# ---------------------------------------------------------------------------

BESSEL_REFERENCE = [
    (0, 0.0, 1.0, 0.0),
    (0, 0.3, 0.9776262465382961, -0.148318816273104),
    (0, 2.0, 0.22389077914123567, -0.5767248077568734),
    (0, 7.25, 0.291996924191779, -0.06858170065313174),
    (0, 11.5, -0.06765394811166522, 0.22837862066532347),
    (0, 11.9, 0.025049441699589645, 0.22898324966192404),
    (0, 12.01, 0.049920430319825355, 0.2227732009297032),
    (0, 31.7, 0.12399787757698108, 0.06664383546658981),
    (0, 47.0, -0.07124878990180619, -0.09126876424000789),
    (0, 113.3, 0.06254221077481278, 0.0410439289791004),
    (0, 200.0, -0.015437439930565091, 0.05430453818237822),
    (1, 0.0, 0.0, 0.5),
    (1, 0.3, 0.148318816273104, 0.48323019229461606),
    (1, 2.0, 0.5767248077568734, -0.06447162473720103),
    (1, 7.25, 0.06858170065313174, 0.28253737927410566),
    (1, 11.5, -0.22837862066532347, -0.04779493761902841),
    (1, 11.9, -0.22898324966192404, 0.04429173158714629),
    (1, 12.01, -0.2227732009297032, 0.06846940625069156),
    (1, 31.7, -0.06664383546658981, 0.1261002067715107),
    (1, 47.0, 0.09126876424000789, -0.07319067850265742),
    (1, 113.3, -0.0410439289791004, 0.06290446963605816),
    (1, 200.0, -0.05430453818237822, -0.015165917239653201),
    (2, 0.0, 0.0, 0.0),
    (2, 0.3, 0.011165861949063964, 0.07387973661267758),
    (2, 2.0, 0.35283402861563773, 0.22389077914123567),
    (2, 7.25, -0.2730778343564323, 0.14391351702731997),
    (2, 11.5, 0.02793592712639158, -0.23323704277426113),
    (2, 11.9, -0.06353402147470293, -0.21830526285945298),
    (2, 12.01, -0.08701838218155777, -0.208282213056005),
    (2, 31.7, -0.12820253596604037, -0.058555347393022594),
    (2, 47.0, 0.07513256710350866, 0.08807163372496496),
    (2, 113.3, -0.06326672849730353, -0.03992712882910387),
    (2, 200.0, 0.01489439454874131, -0.05445348212786564),
    (5, 0.0, 0.0, 0.0),
    (5, 0.3, 6.304432633771071e-07, 1.0491618190006582e-05),
    (5, 2.0, 0.007039629755871685, 0.01639664541788922),
    (5, 7.25, 0.3203580732712001, -0.12930318174909178),
    (5, 11.5, -0.1711126518868622, 0.17068459885043483),
    (5, 11.9, -0.0945381715083847, 0.20794196381788063),
    (5, 12.01, -0.07133772599064789, 0.21353261873835047),
    (5, 31.7, -0.01570228571605431, 0.14023132412051997),
    (5, 47.0, 0.07024171851775567, -0.09344013331304718),
    (5, 113.3, -0.03419800758836393, 0.06683117695287691),
    (5, 200.0, -0.055132678944014676, -0.011878004792940352),
    (11, 0.0, 0.0, 0.0),
    (11, 0.3, 2.1628867030130906e-17, 7.927880579287901e-16),
    (11, 2.0, 2.3042847583672514e-08, 1.2480296656147484e-07),
    (11, 7.25, 0.01130295784798715, 0.013391840580918926),
    (11, 11.5, 0.2390468041492426, 0.07110576773683795),
    (11, 11.9, 0.26492182893462546, 0.057144887139609885),
    (11, 12.01, 0.2709360761233609, 0.052120089619715926),
    (11, 31.7, -0.14469422195835088, -0.017766692006043413),
    (11, 47.0, 0.043880550861313865, 0.10604097448141792),
    (11, 113.3, 0.0037146258435003404, -0.07470745135336095),
    (11, 200.0, 0.056443381222896515, -0.001574217153579144),
    (20, 0.0, 0.0, 0.0),
    (20, 0.3, 1.3653224688572002e-35, 9.101174514547027e-34),
    (20, 2.0, 3.918972805090754e-19, 3.90027046827299e-18),
    (20, 7.25, 3.343998679003677e-08, 8.630211070068101e-08),
    (20, 11.5, 0.00012486857217967876, 0.0001801229851709313),
    (20, 11.9, 0.00021920024856698157, 0.00030068658893124165),
    (20, 12.01, 0.00025463725372295367, 0.0003445048224942536),
    (20, 31.7, 0.15593384593010765, 0.026351590444758596),
    (20, 47.0, 0.11795148529008352, -0.03089769101845918),
    (20, 113.3, 0.028365230018517314, -0.06905802492502824),
    (20, 200.0, 0.03745093871086004, 0.042078850536124195),
    (30, 0.0, 0.0, 0.0),
    (30, 0.3, 7.223746206919441e-58, 7.223396662884321e-56),
    (30, 2.0, 3.6502562664740974e-33, 5.463597486254908e-32),
    (30, 7.25, 1.4799463743544997e-16, 5.948504546869581e-16),
    (30, 11.5, 7.854409859851759e-11, 1.8980932523797178e-10),
    (30, 11.9, 2.0257747155121556e-10, 4.703250976192274e-10),
    (30, 12.01, 2.611582640623901e-10, 5.997822291859615e-10),
    (30, 31.7, 0.20358411809158455, 0.022674710173402925),
    (30, 47.0, -0.12250445124899488, -0.03690599501851281),
    (30, 113.3, 0.0735708142311269, -0.019972672069943968),
    (30, 200.0, -0.05212227902988283, 0.022302468966747084),
]


@pytest.fixture
def bessel_reference():
    return BESSEL_REFERENCE


# ---------------------------------------------------------------------------
# The scalar Bessel dispersion scan that the vectorized one replaced: one
# Python-float evaluation per grid point and one bisection per bracket.
# ---------------------------------------------------------------------------

def _scalar_bessel_j(m, x):
    return float(scipy.special.jv(m, x))


def _scalar_bessel_jp(m, x):
    return float(scipy.special.jvp(m, x))


def _scalar_bisect(fun, lo, hi):
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12:
            return mid
        fmid = fun(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _scalar_scan(fun, lam_max, exclude, step, below=()):
    grid = [step * i for i in range(1, int(round(lam_max / step)) + 1)] + list(below)
    for p in exclude:
        if 0 < p < lam_max:
            grid.extend([p - 1e-9, p + 1e-9])
    grid = sorted(g for g in grid if 0 < g <= lam_max)
    roots = []
    prev_x, prev_f = grid[0], fun(grid[0])
    for x in grid[1:]:
        f = fun(x)
        if not any(prev_x < p < x for p in exclude) and (prev_f < 0) != (f < 0):
            roots.append(_scalar_bisect(fun, prev_x, x))
        prev_x, prev_f = x, f
    return roots


def _scalar_disk_eigs_second(k_like, alpha, gamma, m_max, lam_max, grid_step=0.01):
    """Reference dispersion roots as (m, lam, multiplicity) tuples, sorted by lam."""
    def robin(m, s):
        return k_like * s * _scalar_bessel_jp(m, s) + _scalar_bessel_j(m, s)

    def dispersion(m, lam):
        s = math.sqrt(lam)
        return (lam - gamma * m * m) * robin(m, s) - alpha * alpha * s * _scalar_bessel_jp(m, s)

    roots = []
    for m in range(m_max + 1):
        mult = 1 if m == 0 else 2
        # mode 0 is also scanned below the grid, at the oracle's SUBGRID points
        below = [grid_step * x for x in oracle.SUBGRID.tolist()] if m == 0 else ()
        if alpha == 0.0:
            roots += [(m, lam, mult) for lam in _scalar_scan(
                lambda lam: robin(m, math.sqrt(lam)), lam_max, (), grid_step, below)]
            if 0 < gamma * m * m <= lam_max:
                roots.append((m, gamma * m * m, mult))
            continue
        pole = gamma * m * m
        roots += [(m, lam, mult) for lam in _scalar_scan(
            lambda lam: dispersion(m, lam), lam_max, (pole,) if pole > 0 else (), grid_step, below)]
    return sorted(roots, key=lambda r: r[1])


# ---------------------------------------------------------------------------
# The dict-loop refinement and the nested-loop square generator that the
# array versions replaced
# ---------------------------------------------------------------------------

def _dict_refine(mesh, project_unit_circle=False):
    verts = list(map(tuple, mesh.vertices))
    boundary_edges = {tuple(sorted(e)) for e in mesh.surface_edges.tolist()}
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            p = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            if project_unit_circle and key in boundary_edges:
                p = p / np.hypot(p[0], p[1])
            idx = len(verts)
            verts.append((float(p[0]), float(p[1])))
            midpoint[key] = idx
        return idx

    new_tris = []
    for i0, i1, i2 in mesh.triangles.tolist():
        m01, m12, m20 = mid(i0, i1), mid(i1, i2), mid(i2, i0)
        new_tris.extend([(i0, m01, m20), (m01, i1, m12), (m20, m12, i2), (m01, m12, m20)])
    new_surface = []
    s = mesh.surface_nodes.tolist()
    for i in range(len(s)):
        a, b = s[i], s[(i + 1) % len(s)]
        new_surface.append(a)
        new_surface.append(midpoint[(a, b) if a < b else (b, a)])
    return meshmod.Mesh(np.array(verts), np.array(new_tris, dtype=np.int64),
                        np.array(new_surface, dtype=np.int64))


def _loop_square(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    surface = ([vid(i, 0) for i in range(n)] + [vid(n, j) for j in range(n)]
               + [vid(i, n) for i in range(n, 0, -1)] + [vid(0, j) for j in range(n, 0, -1)])
    return meshmod.Mesh(vertices, np.array(triangles, dtype=np.int64),
                        np.array(surface, dtype=np.int64))


@pytest.fixture(scope="session")
def loop_square():
    return _loop_square


@pytest.fixture(scope="session")
def scalar_disk_eigs_second():
    return _scalar_disk_eigs_second


@pytest.fixture(scope="session")
def dict_refine():
    return _dict_refine


# ---------------------------------------------------------------------------
# The per-point expression evaluator that the array path replaced: one
# np.float64 walk of the AST per point.
# ---------------------------------------------------------------------------

def _scalar_eval(e, env):
    from bse import expr
    from bse.errors import DomainError

    if isinstance(e, expr.Num):
        return np.float64(e.value)
    if isinstance(e, expr.Name):
        if e.ident in expr.CONSTANTS:
            return np.float64(expr.CONSTANTS[e.ident])
        return env[e.ident]
    if isinstance(e, expr.Neg):
        return -_scalar_eval(e.operand, env)
    if isinstance(e, expr.Bin):
        a = _scalar_eval(e.left, env)
        b = _scalar_eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return np.power(a, b)
    a = _scalar_eval(e.arg, env)
    if e.func in ("sqrt", "log") and a < 0.0:
        raise DomainError(f"{e.func} of negative argument {float(a)}")
    return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
            "abs": np.abs, "log": np.log}[e.func](a)


def _scalar_eval_on_points(e, points):
    values = []
    for x, y in np.asarray(points, dtype=np.float64).tolist():
        theta = math.atan2(y, x)
        if theta == -math.pi:
            theta = math.pi
        env = {"x": np.float64(x), "y": np.float64(y),
               "r": np.float64(math.hypot(x, y)), "theta": np.float64(theta)}
        with np.errstate(all="ignore"):
            values.append(float(_scalar_eval(e, env)))
    return np.array(values)


@pytest.fixture(scope="session")
def scalar_eval_on_points():
    return _scalar_eval_on_points


# ---------------------------------------------------------------------------
# The per-line writers that the whole-table text path replaced
# ---------------------------------------------------------------------------

def _per_line_write_mesh(mesh, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{meshmod.MESH_FORMAT_HEADER}\n")
        fh.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        fh.write(f"surface {mesh.n_surface}\n")
        for i in mesh.surface_nodes:
            fh.write(f"{i}\n")


def _per_row_csv(header, rows):
    """CSV text of ``rows``: integers in decimal, None as a blank cell,
    anything else as a float with 17 significant digits."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    return ",".join(header) + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


@pytest.fixture(scope="session")
def per_line_write_mesh():
    return _per_line_write_mesh


@pytest.fixture(scope="session")
def per_row_csv():
    return _per_row_csv
