"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; the heavy spectral runs take a few minutes on one core.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from bse import assembly, eigen, expr, mesh, oracle, solver
from bse.assembly import CoupledField, ProblemParams
from bse.cli import eoc
from bse.errors import IncompatibleSourceError


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def surface_eigenvalues(msh, result):
    forms = assembly.assemble_basic(msh)
    out = []
    for lam, f in zip(result.eigenvalues, result.fields):
        sv = f.v @ (forms.m_surf @ f.v)
        tot = sv + f.u @ (forms.m_bulk @ f.u)
        if sv > 0.5 * tot:
            out.append(float(lam))
    return out


def cluster(values, rel_gap=5e-3):
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= rel_gap * max(abs(v), 1e-30):
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def random_compatible(forms, alpha_like, rng):
    f = rng.standard_normal(forms.n_bulk)
    g = rng.standard_normal(forms.n_surf)
    return assembly.project_compatible(forms, f, g, alpha_like)


def random_constrained(msh, params, mean_like, rng):
    forms = assembly.assemble_basic(msh)
    x = np.concatenate([rng.standard_normal(msh.n_vertices),
                        rng.standard_normal(msh.n_surface)])
    if params.K == 0.0:
        x[msh.surface_nodes] = params.alpha * x[msh.n_vertices:]
    cs = assembly.build_constraints(forms, params.K, params.alpha, mean_like)
    k = assembly.kernel_pair(forms, params.alpha)
    x -= (cs.mean_vector @ x) / (cs.mean_vector @ k) * k
    return CoupledField.from_vector(msh, x)


def test_criterion_01_circle_spectrum_decoupled():
    params = ProblemParams(K=1.0, alpha=0.0, gamma=1.0)
    lams = {}
    runtimes = {}
    for n in (64, 128, 256):
        msh = mesh.generate_disk(n, 0)
        t0 = time.perf_counter()
        res = eigen.eig_second(msh, params, k=14)
        runtimes[n] = time.perf_counter() - t0
        surf = surface_eigenvalues(msh, res)
        # first three angular modes: two eigenvalues each
        lams[n] = [0.5 * (surf[0] + surf[1]), 0.5 * (surf[2] + surf[3]),
                   0.5 * (surf[4] + surf[5])]
    ok = all(rt <= 60.0 for rt in runtimes.values())
    detail = [f"runtimes {['%.1fs' % runtimes[n] for n in (64, 128, 256)]}"]
    for i, m in enumerate((1, 2, 3)):
        rel = abs(lams[256][i] / m ** 2 - 1.0)
        ok &= rel <= 0.02
        errors = [abs(lams[n][i] - m ** 2) for n in (64, 128, 256)]
        orders = eoc(errors, [1.0 / 64, 1.0 / 128, 1.0 / 256])
        ok &= all(1.7 <= o <= 2.3 for o in orders)
        detail.append(f"m={m}: rel {rel:.2e}, eoc {[round(o, 2) for o in orders]}")
    report(1, ok, "; ".join(detail))


@pytest.mark.parametrize("k_like", [1.0, 0.0])
def test_criterion_02_disk_bessel_oracle(k_like):
    params = ProblemParams(K=k_like, alpha=1.0, gamma=1.0)
    msh = mesh.generate_disk(64, 2)
    res = eigen.eig_second(msh, params, k=12)
    roots = oracle.disk_eigs_second(k_like, 1.0, 1.0, m_max=8, lam_max=40.0)
    fem_clusters = cluster(list(res.eigenvalues))[:5]
    ok = True
    detail = []
    for i in range(5):
        fem = float(np.mean(fem_clusters[i]))
        rel = abs(fem / roots[i].lam - 1.0)
        ok &= rel <= 0.02
        ok &= len(fem_clusters[i]) == roots[i].multiplicity
        detail.append(f"lam={fem:.4f} vs {roots[i].lam:.4f} "
                      f"({rel:.2e}, mult {len(fem_clusters[i])}/{roots[i].multiplicity})")
    report(2, ok, f"K={k_like}: " + "; ".join(detail))


def test_criterion_03_manufactured_solution():
    params = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    man = oracle.manufactured_second(params.K, params.alpha, params.beta)
    u_ast = expr.parse(man.u_expr)
    hs, e_l2, e_en = [], [], []
    last = None
    for level in range(4):
        msh = mesh.generate_disk(16, level)
        forms = assembly.assemble_basic(msh)
        f = np.full(msh.n_vertices, man.f_value())
        g = np.full(msh.n_surface, man.g_value())
        rep = solver.solve_second(msh, params, f, g, strict=False)
        u_exact = expr.eval_on_points(u_ast, msh.vertices)
        diff = CoupledField(rep.field.u - u_exact,
                            rep.field.v - np.full(msh.n_surface, man.v_value))
        hs.append(mesh.max_edge_length(msh))
        e_l2.append(math.sqrt(max(solver.inner_h0(forms, diff, diff), 0.0)))
        e_en.append(solver.norm_ka(forms, params, diff))
        last = (msh, forms, f, g, rep)
    orders_l2 = eoc(e_l2, hs)
    orders_en = eoc(e_en, hs)
    msh, forms, f, g, rep = last
    fp, gp = assembly.project_compatible(forms, f, g, params.alpha)
    flux = (1.0 / params.K) * (forms.lumped_surf
                               @ (params.alpha * rep.field.v - rep.field.u[msh.surface_nodes]))
    identity_defect = abs(-forms.lumped_bulk @ fp - flux)
    ok = (min(orders_l2) >= 1.8 and min(orders_en) >= 0.9
          and rep.defect_mean <= 1e-10 and identity_defect <= 1e-8)
    report(3, ok, f"eoc_L2 {[round(o, 2) for o in orders_l2]}, "
                  f"eoc_energy {[round(o, 2) for o in orders_en]}, "
                  f"|c.x| {rep.defect_mean:.1e}, flux identity {identity_defect:.1e}")


def test_criterion_04_self_adjointness():
    msh = mesh.generate_disk(32, 0)
    assert msh.n_vertices <= 400
    forms = assembly.assemble_basic(msh)
    params = ProblemParams(K=1.0, L=0.5, alpha=1.2, beta=0.7)
    rng = np.random.default_rng(2024)
    worst_s = worst_f = 0.0
    for _ in range(10):
        fa, ga = random_compatible(forms, params.alpha, rng)
        fb, gb = random_compatible(forms, params.alpha, rng)
        p2 = ProblemParams(K=params.K, alpha=params.alpha, beta=params.beta)
        sa = solver.solve_second(msh, p2, fa, ga).field
        sb = solver.solve_second(msh, p2, fb, gb).field
        lhs = sa.to_vector() @ assembly.assemble_load(forms, fb, gb)
        rhs = sb.to_vector() @ assembly.assemble_load(forms, fa, ga)
        worst_s = max(worst_s, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        fa, ga = random_compatible(forms, params.beta, rng)
        fb, gb = random_compatible(forms, params.beta, rng)
        pa = solver.solve_fourth(msh, params, fa, ga).field
        pb = solver.solve_fourth(msh, params, fb, gb).field
        lhs = solver.inner_dual(msh, params, (pa.u, pa.v), (fb, gb))
        rhs = solver.inner_dual(msh, params, (fa, ga), (pb.u, pb.v))
        worst_f = max(worst_f, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    ok = worst_s <= 1e-10 and worst_f <= 1e-10
    report(4, ok, f"second-order defect {worst_s:.2e}, fourth-order defect {worst_f:.2e}")


def test_criterion_05_composition_identity():
    params = ProblemParams(K=1.0, L=1.0, alpha=1.0, beta=1.0)
    msh = mesh.generate_disk(64, 1)
    r2 = eigen.eig_second(msh, params, k=8)
    r4 = eigen.eig_fourth(msh, params, k=8)
    rel = np.abs(r4.eigenvalues / r2.eigenvalues ** 2 - 1.0)
    ok = float(rel.max()) <= 1e-8
    report(5, ok, f"max |lam4/lam2^2 - 1| = {rel.max():.2e} over k=8")


def test_criterion_06_positivity_and_constraint():
    cases = [
        ("eig2 K=1", mesh.generate_disk(64, 1), ProblemParams(K=1.0, alpha=1.0), False),
        ("eig2 K=0", mesh.generate_disk(64, 1), ProblemParams(K=0.0, alpha=1.0), False),
        ("eig4", mesh.generate_disk(32, 1),
         ProblemParams(K=1.0, L=2.0, alpha=1.5, beta=0.5), True),
    ]
    ok = True
    detail = []
    for name, msh, params, fourth in cases:
        res = (eigen.eig_fourth(msh, params, k=6) if fourth
               else eigen.eig_second(msh, params, k=6))
        forms = assembly.assemble_basic(msh)
        mean_like = params.beta if fourth else params.alpha
        cs = assembly.build_constraints(forms, params.K, params.alpha, mean_like)
        defects = [abs(cs.mean_vector @ f.to_vector()) for f in res.fields]
        ok &= res.eigenvalues[0] > 1e-12 and max(defects) <= 1e-8
        detail.append(f"{name}: lam1 {res.eigenvalues[0]:.3e}, |c.x| {max(defects):.1e}")
    report(6, ok, "; ".join(detail))


def test_criterion_07_poincare_norm_equivalence():
    msh = mesh.generate_disk(64, 1)
    params = ProblemParams(K=1.0, alpha=1.0, beta=1.0)
    forms = assembly.assemble_basic(msh)
    c_p = eigen.poincare_constant(msh, params)
    a_h, b_h, f_hi, f_lo = eigen.norm_equivalence_constants(msh, params, return_fields=True)

    def h1_norm(x):
        q = (x.u @ (forms.a_bulk @ x.u) + x.u @ (forms.m_bulk @ x.u)
             + x.v @ (forms.a_surf @ x.v) + x.v @ (forms.m_surf @ x.v))
        return math.sqrt(max(q, 0.0))

    rng = np.random.default_rng(7)
    worst_slack = 0.0
    for _ in range(100):
        x = random_constrained(msh, params, params.beta, rng)
        h0 = math.sqrt(max(solver.inner_h0(forms, x, x), 0.0))
        ka = solver.norm_ka(forms, params, x)
        h1 = h1_norm(x)
        worst_slack = max(worst_slack,
                          (h0 - c_p * ka) / (c_p * ka),
                          (h1 - a_h * ka) / (a_h * ka),
                          (ka - b_h * h1) / (b_h * h1))
    res = eigen.eig_second(msh, params, k=1)
    fmin = res.fields[0]
    eq_poincare = abs(math.sqrt(solver.inner_h0(forms, fmin, fmin))
                      / (c_p * solver.norm_ka(forms, params, fmin)) - 1.0)
    eq_a = abs(h1_norm(f_hi) / (a_h * solver.norm_ka(forms, params, f_hi)) - 1.0)
    eq_b = abs(solver.norm_ka(forms, params, f_lo) / (b_h * h1_norm(f_lo)) - 1.0)
    ok = worst_slack <= 1e-10 and max(eq_poincare, eq_a, eq_b) <= 1e-8
    report(7, ok, f"c_P={c_p:.4f}, A_h={a_h:.4f}, B_h={b_h:.4f}, "
                  f"max slack {worst_slack:.1e}, equality defects "
                  f"{eq_poincare:.1e}/{eq_a:.1e}/{eq_b:.1e}")


def test_criterion_08_compatibility_gate():
    msh = mesh.generate_disk(24, 0)
    forms = assembly.assemble_basic(msh)
    params = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    f = np.full(msh.n_vertices, -4.0)
    g = np.full(msh.n_surface, 4.0)
    scale = assembly.compatibility_scale(forms, f, g, params.alpha)
    rel_before = abs(assembly.compatibility_defect(forms, f, g, params.alpha)) / scale
    raised = False
    try:
        solver.solve_second(msh, params, f, g, strict=True)
    except IncompatibleSourceError:
        raised = True
    rep = solver.solve_second(msh, params, f, g, strict=False)
    rel_after = abs(rep.defect_compat_post) / scale
    ok = rel_before > 1e-10 and raised and rel_after <= 1e-14
    report(8, ok, f"defect {rel_before:.2e} -> strict raise {raised}, "
                  f"projected {rel_after:.2e}")


def test_criterion_09_parser_round_trips():
    ok = expr.eval_on_points(expr.parse("-2^2"), [[0.0, 0.0]])[0] == -4.0
    ok &= expr.eval_on_points(expr.parse("2+3*4"), [[0.0, 0.0]])[0] == 14.0
    rng = random.Random(90210)

    def random_ast(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return expr.Num(round(rng.uniform(0, 9), 3))
            return expr.Name(rng.choice(["x", "y", "r", "theta", "pi", "e"]))
        roll = rng.random()
        if roll < 0.15:
            return expr.Neg(random_ast(depth - 1))
        if roll < 0.3:
            return expr.Call(rng.choice(["sin", "cos", "exp", "abs"]),
                             random_ast(depth - 1))
        return expr.Bin(rng.choice(["+", "-", "*", "/", "^"]),
                        random_ast(depth - 1), random_ast(depth - 1))

    exact = 0
    for _ in range(1000):
        tree = random_ast(rng.randint(1, 5))
        printed = expr.to_string(tree)
        reparsed = expr.parse(printed)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a, b = (float(expr.eval_on_points(t, [[x, y]])[0]) for t in (tree, reparsed))
        if reparsed == tree and (a == b or (math.isnan(a) and math.isnan(b))):
            exact += 1
    ok &= exact == 1000
    report(9, bool(ok), f"{exact}/1000 round trips exact; precedence cases hold")


def test_criterion_10_determinism(tmp_path):
    configs = {
        "eig": {
            "geometry": {"type": "disk", "n_boundary": 32, "refine": 0},
            "params": {"K": 1.0, "alpha": 1.0, "gamma": 1.0},
            "task": "eig2",
            "eig": {"k": 5},
        },
        "solve": {
            "geometry": {"type": "disk", "n_boundary": 24, "refine": 1},
            "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
            "task": "solve2",
            "sources": {"f": "-4", "g": "4", "strict_compat": False},
        },
    }
    ok = True
    detail = []
    for name, cfg in configs.items():
        digests = []
        for tag in ("a", "b"):
            cfg_path = tmp_path / f"{name}-{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}-{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "bse.cli", "run", str(cfg_path),
                 "--out", str(out), "--threads", "1"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blob = b"".join(sorted(p.read_bytes() for p in out.glob("*.csv")))
            digests.append(blob)
        same = digests[0] == digests[1]
        ok &= same
        detail.append(f"{name}: byte-identical {same}")
    report(10, ok, "; ".join(detail))
