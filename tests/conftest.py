import math

import numpy as np
import pytest
import scipy.linalg as sla

from bse import mesh as meshmod


def _dense_bordered_solve(a, b, cs):
    """Reference constrained solve on small systems: numpy.linalg.solve of the
    dense bordered system [[R^T A R, R^T c], [c^T R, 0]], with R the
    trace-elimination map (identity without elimination) and no border
    without a mean constraint.  ``b`` is a vector or a block of columns."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    a_red = r.T @ a.to_dense() @ r
    b_red = r.T @ np.asarray(b, dtype=np.float64)
    if cs.mean_vector is None:
        return r @ np.linalg.solve(a_red, b_red)
    c = r.T @ cs.mean_vector
    n = a_red.shape[0]
    big = np.zeros((n + 1, n + 1))
    big[:n, :n] = a_red
    big[:n, n] = c
    big[n, :n] = c
    rhs = np.concatenate([b_red, np.zeros((1,) + b_red.shape[1:])])
    return r @ np.linalg.solve(big, rhs)[:n]


def _dense_constrained_eigs(a, b, cs, k):
    """Reference constrained eigenvalues on small systems: the smallest k of
    the pencil (A, B) on {x = R y : c.x = 0}, by scipy.linalg.eigh in an
    orthonormal null-space basis of the reduced constraint functional R^T c.
    ``b`` is a dense full-space matrix."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    basis = r @ sla.null_space((r.T @ cs.mean_vector)[None, :])
    a_nn = basis.T @ a.to_dense() @ basis
    b_nn = basis.T @ b @ basis
    return sla.eigh(a_nn, 0.5 * (b_nn + b_nn.T), eigvals_only=True,
                    subset_by_index=[0, k - 1])


@pytest.fixture(scope="session")
def dense_bordered_solve():
    return _dense_bordered_solve


@pytest.fixture(scope="session")
def dense_constrained_eigs():
    return _dense_constrained_eigs


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
# The scalar Bessel dispersion scan that the vectorized one replaced: one
# Python-float evaluation per grid point and one bisection per bracket.
# ---------------------------------------------------------------------------

def _scalar_bessel_j(m, x):
    if x <= 12.0:  # ascending series
        half = 0.5 * x
        term = 1.0
        for i in range(1, m + 1):
            term *= half / i
        total = term
        x2 = -half * half
        for j in range(1, 64):
            term *= x2 / (j * (m + j))
            total += term
            if term == 0.0:
                break
        return total
    # Miller's backward recurrence normalized by J_0 + 2 sum J_2k = 1
    nstart = int(x + 20.0 + 12.0 * x ** (1.0 / 3.0))
    if nstart < m + 20:
        nstart = m + 20
    if nstart % 2 == 1:
        nstart += 1
    f_up, f_k, norm, f_m = 0.0, 1e-30, 0.0, 0.0
    for k in range(nstart, 0, -1):
        f_dn = (2.0 * k / x) * f_k - f_up
        f_up = f_k
        f_k = f_dn
        idx = k - 1
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * f_k
        if idx == m:
            f_m = f_k
        if abs(f_k) > 1e250:
            f_k *= 1e-250
            f_up *= 1e-250
            norm *= 1e-250
            f_m *= 1e-250
    norm += f_k
    return f_m / norm


def _scalar_bessel_jp(m, x):
    if m == 0:
        return -_scalar_bessel_j(1, x)
    return 0.5 * (_scalar_bessel_j(m - 1, x) - _scalar_bessel_j(m + 1, x))


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


def _scalar_scan(fun, lam_max, exclude, step):
    grid = [step * i for i in range(1, int(round(lam_max / step)) + 1)]
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

    def residual(m, lam):
        s = math.sqrt(lam)
        denom = lam - gamma * m * m
        if abs(denom) < 1e-9:
            return math.inf
        c = alpha * s * _scalar_bessel_jp(m, s) / denom
        lhs = robin(m, s)
        return abs(lhs - alpha * c) / max(abs(lhs), abs(alpha * c), 1.0)

    roots = []
    for m in range(m_max + 1):
        mult = 1 if m == 0 else 2
        if alpha == 0.0:
            roots += [(m, lam, mult) for lam in _scalar_scan(
                lambda lam: robin(m, math.sqrt(lam)), lam_max, (), grid_step)]
            if 0 < gamma * m * m <= lam_max:
                roots.append((m, gamma * m * m, mult))
            continue
        pole = gamma * m * m
        roots += [(m, lam, mult) for lam in _scalar_scan(
            lambda lam: dispersion(m, lam), lam_max, (pole,) if pole > 0 else (), grid_step)
            if not residual(m, lam) > 1e-9]
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
    with open(path, "w", encoding="ascii") as fh:
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
