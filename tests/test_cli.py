import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from bse import cli, mesh
from bse.errors import InvalidArgumentError


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_eoc_basic():
    assert cli.eoc([4.0, 1.0], [2.0, 1.0]) == [pytest.approx(2.0)]
    assert cli.eoc([2.0, 1.0], [2.0, 1.0]) == [pytest.approx(1.0)]
    assert cli.eoc([1.0, 1.0], [2.0, 1.0]) == [pytest.approx(0.0)]
    assert len(cli.eoc([8.0, 2.0, 0.5], [4.0, 2.0, 1.0])) == 2


def test_eoc_validation():
    with pytest.raises(InvalidArgumentError):
        cli.eoc([1.0], [1.0])
    with pytest.raises(InvalidArgumentError):
        cli.eoc([1.0, 2.0], [1.0, 2.0])  # increasing h
    with pytest.raises(InvalidArgumentError):
        cli.eoc([1.0, 0.0], [2.0, 1.0])  # nonpositive error


def test_run_eig2(tmp_path):
    cfg = write_config(tmp_path, "eig.json", {
        "geometry": {"type": "disk", "n_boundary": 32, "refine": 0},
        "params": {"K": 1.0, "alpha": 0.0, "gamma": 1.0},
        "task": "eig2",
        "eig": {"k": 4},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    header, rows = read_csv(tmp_path / "out" / "eigenvalues.csv")
    assert header == ["index", "lambda", "residual", "multiplicity"]
    assert len(rows) == 4
    lams = [float(r[1]) for r in rows]
    assert lams == sorted(lams)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["task"] == "eig2"
    assert sorted(summary["versions"]) == ["numpy", "python", "scipy"]
    assert summary["gram_defect"] <= 1e-8
    assert summary["method"] == "arpack"
    assert summary["op_applications"] > 0


def test_run_solve2_and_artifacts(tmp_path):
    cfg = write_config(tmp_path, "solve.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 1},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "solve2",
        "sources": {"f": "-4", "g": "4", "strict_compat": False},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    header, rows = read_csv(tmp_path / "out" / "solution.csv")
    assert header == ["node", "x", "y", "u"]
    from bse import mesh
    assert len(rows) == mesh.generate_disk(16, 1).n_vertices
    header, surf = read_csv(tmp_path / "out" / "surface.csv")
    assert header == ["s", "v"]
    assert len(surf) == 32
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["defect_compat_post"]) < abs(summary["defect_compat_pre"])
    assert summary["defect_mean"] <= 1e-10
    assert summary["method"] == "splu"


def test_run_solve4_reports_intermediate(tmp_path):
    cfg = write_config(tmp_path, "solve4.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 0},
        "params": {"K": 1.0, "L": 1.0, "alpha": 1.0, "beta": 1.0},
        "task": "solve4",
        "sources": {"f": "x", "g": "0", "strict_compat": False},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "intermediate_norm_max" in summary
    assert summary["method"] == "splu"


@pytest.mark.parametrize("task,params,solvers", [
    ("solve2", {"K": 0.0}, 1), ("solve4", {"K": 1.0, "L": 1.0}, 1), ("solve4", {"K": 1.0, "L": 2.0}, 2),
    ("eig2", {"K": 0.0}, 1), ("eig4", {"K": 1.0, "L": 2.0, "beta": 0.5}, 2), ("poincare", {}, 1),
])
def test_summary_counts_solvers_and_cache(tmp_path, task, params, solvers):
    cfg = write_config(tmp_path, "counts.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 1},
        "params": params, "task": task, "eig": {"k": 3},
        "sources": {"f": "1 - x*x", "g": "y", "strict_compat": False},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["counts"] == {"solvers": {"splu": solvers, "mg-cg": 0},
                                 "forms": {"hits": 0, "misses": 1}}
    if task != "poincare":  # the CSV writes are timed apart from the solve
        assert summary["seconds"] >= 0 and summary["write_seconds"] >= 0


@pytest.mark.parametrize("task", ["solve2", "solve4"])
@pytest.mark.parametrize("refine,method,iterations", [(1, "splu", (0, 0)), (4, "mg-cg", (1, 60))])
def test_solve_reports_method_and_backward_error(tmp_path, task, refine, method, iterations):
    cfg = write_config(tmp_path, "mg.json", {
        "geometry": {"type": "disk", "n_boundary": 64, "refine": refine},
        "params": {"K": 0.0, "L": 1.0}, "task": task,
        "sources": {"f": "1 - x*x", "g": "y", "strict_compat": False},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["method"] == method
    assert iterations[0] <= summary["iterations"] <= iterations[1]
    assert summary["backward_error"] <= 1e-15
    assert summary["residual"] <= 1e-6


def test_strict_incompatible_exits_2(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "bad.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 0},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "solve2",
        "sources": {"f": "1", "g": "1", "strict_compat": True},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "incompatible-source"


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_non_boolean_strict_compat_exits_2(tmp_path, flag):
    # "false" must not switch strict mode on by truthiness
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "flag.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 0},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "solve2",
        "sources": {"f": "1", "g": "1", "strict_compat": flag},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert "sources.strict_compat" in err["message"]


def test_invalid_config_exits_2(tmp_path):
    # an explicit output directory: the default one is bse-out in the cwd
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert cli.run(str(path), outdir=tmp_path / "parse") == 2
    assert json.loads((tmp_path / "parse" / "error.json").read_text())["kind"] == "parse-error"
    cfg = write_config(tmp_path, "task.json", {"task": "fly"})
    assert cli.run(cfg, outdir=tmp_path / "out") == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["kind"] == "invalid-argument"


def test_degenerate_params_exit_2(tmp_path):
    from bse import mesh
    mm = mesh.measures(mesh.generate_disk(64, 0))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "degen.json", {
        "geometry": {"type": "disk", "n_boundary": 64, "refine": 0},
        # beta chosen so alpha*beta*|Omega_h| + |Gamma_h| = 0 exactly
        "params": {"K": 1.0, "alpha": 1.0, "beta": -mm.perimeter / mm.area, "gamma": 1.0},
        "task": "eig2",
        "eig": {"k": 2},
        "output": {"dir": str(out)},
    })
    code = cli.run(cfg)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "degenerate-constraint"


@pytest.mark.parametrize("task", ["solve2", "solve4", "eig2", "eig4", "poincare"])
@pytest.mark.parametrize("k_like", [1e20, 1e12])
def test_numerically_singular_solve_exits_3(tmp_path, task, k_like):
    # with K this large the coupling vanishes in roundoff and the bulk and
    # surface constants both become kernels: the direct solve's residual, or
    # the eigenpairs' pencil residual, shows it
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "weak.json", {
        "task": task, "geometry": {"n_boundary": 16}, "params": {"K": k_like},
        "sources": {"f": "1", "g": "0", "strict_compat": False},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "singular-system"
    assert "numerically singular" in err["message"]
    if task == "solve4":
        assert err["message"].startswith("stage 2 (Robin K, coupling alpha): ")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("task", ["eig2", "eig4", "poincare"])
def test_large_k_eigensolve_within_residual_bound(tmp_path, task):
    # K=1e8 is still well resolved: pencil residuals about 6e-8
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "strong.json", {
        "task": task, "geometry": {"n_boundary": 16}, "params": {"K": 1e8},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    if task != "poincare":
        assert summary["max_residual"] <= 1e-6


def test_domain_error_in_source_exits_2(tmp_path):
    # the disk has vertices with x < 0, where log(x) is undefined
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "log.json", {
        "task": "solve2", "geometry": {"n_boundary": 16},
        "sources": {"f": "log(x)", "g": "0", "strict_compat": False},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "domain-error"
    assert err["message"].startswith("log of negative argument -")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("f,value", [("1/0", "inf"), ("0/0", "nan"), ("log(0)", "-inf")])
def test_non_finite_source_is_a_domain_error(tmp_path, f, value):
    # before the compatibility gate, whose NaN defect would pass as compatible
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "inf.json", {
        "task": "solve2", "geometry": {"n_boundary": 16},
        "sources": {"f": f, "g": "0"}, "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "domain-error"
    assert err["message"].startswith(f"source f is {value} at node 0")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("params", [{"K": math.nan}, {"gamma": math.nan}, {"K": "inf"},
                                    {"alpha": "-Infinity"}, {"L": math.inf}],
                         ids=["K-nan", "gamma-nan", "K-inf-string", "alpha-inf-string",
                              "L-inf"])
def test_non_finite_params_exit_2(tmp_path, params):
    # json.dumps writes NaN and Infinity literals, which json.load accepts
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "nan.json", {
        "task": "solve2", "geometry": {"n_boundary": 16}, "params": params,
        "sources": {"f": "1", "g": "0", "strict_compat": False},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert "finite" in err["message"]


@pytest.mark.parametrize("task,params", [(task, {"alpha": alpha}) for task in (
    "solve2", "eig2", "eig4", "poincare", "convergence") for alpha in (1e160, -1e300)] + [
    ("solve4", {"beta": 1e160}), ("solve4", {"beta": -1e300})])
def test_overflowing_coupling_weights_exit_2(tmp_path, task, params):
    # finite parameters whose weight alpha^2/K overflows: a validation error
    # that names the pair, not an OverflowError
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "big.json", {
        "task": task, "geometry": {"n_boundary": 16}, "params": params,
        "sources": {"f": "1", "g": "0", "strict_compat": False},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert "(K, alpha) or (L, beta) pair" in err["message"]
    assert "not finite" in err["message"]
    if task == "solve4":
        assert err["message"].startswith("stage 1 (Robin L, coupling beta): coupling weights")


@pytest.mark.parametrize("n_boundary", [8, 16])
@pytest.mark.parametrize("l_like", [1e160, 1e300])
def test_singular_inner_system_of_eig4_exits_3(tmp_path, capfd, l_like, n_boundary):
    # with L this large the (L, beta) system behind B = M A_L^+ M is singular;
    # its checked solve before Lanczos says so, before B blows up inside
    # ARPACK, whose LAPACK calls print to stdout (L = 1e160, n_boundary 8)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "weak.json", {
        "task": "eig4", "geometry": {"n_boundary": n_boundary}, "params": {"L": l_like},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "singular-system"
    assert err["message"].startswith("inner (L, beta) system of B: ")
    assert "numerically singular" in err["message"]
    assert not (out / "summary.json").exists()
    assert capfd.readouterr().out == ""


def test_failed_dense_eigensolve_is_a_singular_system(tmp_path, monkeypatch):
    # k = n - 1 takes the dense branch; LAPACK's LinAlgError there (B not
    # positive definite, or no convergence) is a numerically singular pencil,
    # not an internal error
    import scipy.linalg

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("the leading minor of order 3 is not positive")

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    msh = mesh.generate_disk(8, 0)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "dense.json", {
        "task": "eig2", "geometry": {"n_boundary": 8, "refine": 0},
        "eig": {"k": msh.n_vertices + msh.n_surface - 1}, "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "singular-system"
    assert err["message"].startswith("dense eigensolve failed (the leading minor")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("task,params,code", [
    ("oracle", {"alpha": 1e300}, 0),
    ("oracle", {"alpha": -1e300}, 0),
    ("solve2", {"beta": 1e160}, 0),
    ("solve2", {"beta": -1e300}, 0),
    ("poincare", {"beta": 1e160}, 0),
    ("convergence", {"beta": 1e160}, 0),
    ("solve2", {"K": 1e300}, 3),
    ("solve2", {"K": 1e-300}, 3),
    ("solve4", {"L": 1e300}, 3),
    ("solve4", {"L": 1e-300}, 3),
    ("convergence", {"K": 1e-300}, 3),
])
def test_huge_and_tiny_weights_overflow_nothing(tmp_path, task, params, code):
    # under the RuntimeWarning-as-error policy an overflow in a norm or a
    # product would end as internal-error; a mean weight of 1e160 pairs with
    # the kernel (c.k = 2.8e160), which is no annihilation
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "big.json", {
        "task": task, "geometry": {"n_boundary": 8, "refine": 1 if task == "convergence" else 0},
        "params": params, "sources": {"f": "1 - r^2/2", "g": "1", "strict_compat": False},
        "oracle": {"m_max": 3, "lambda_max": 20.0}, "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == code
    if code:
        err = json.loads((out / "error.json").read_text())
        assert err["kind"] == "singular-system"
        # the residual is a finite number, not an overflowed norm
        assert math.isfinite(float(err["message"].split("residual ")[1].split()[0]))
    else:
        assert not (out / "error.json").exists()


@pytest.mark.parametrize("option", ["--K", "--alpha", "--gamma", "--lmax"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_oracle_rejects_non_finite_values(tmp_path, option, value):
    roots = tmp_path / "roots.csv"
    assert cli.main(["oracle", option, value, "--mmax", "1", "--out", str(roots)]) == 2
    assert not roots.exists()


def test_convergence_task(tmp_path):
    cfg = write_config(tmp_path, "conv.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 2},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "convergence",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    header, rows = read_csv(tmp_path / "out" / "convergence.csv")
    assert header == ["h", "error_L2", "error_energy", "eoc_L2", "eoc_energy"]
    assert len(rows) == 3
    assert rows[0][3] == ""
    eoc_l2 = float(rows[-1][3])
    assert 1.8 <= eoc_l2 <= 2.2


@pytest.mark.parametrize("refine", [0, -1])
def test_convergence_needs_two_levels(tmp_path, monkeypatch, refine):
    from bse import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(solver, "solve_second", no_solve)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "conv.json", {
        "task": "convergence", "geometry": {"n_boundary": 16, "refine": refine},
        "output": {"dir": str(out)},
    })
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert err["message"].startswith("geometry.refine must be >= 1")
    assert not (out / "convergence.csv").exists()


def test_poincare_task(tmp_path):
    cfg = write_config(tmp_path, "poin.json", {
        "geometry": {"type": "square", "n_per_side": 4},
        "params": {"K": 1.0, "alpha": 1.0, "beta": 1.0},
        "task": "poincare",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["poincare_constant"] > 0
    assert summary["method"] == "arpack"
    assert summary["op_applications"] > 0


def test_oracle_task_and_geometry_file(tmp_path):
    cfg = write_config(tmp_path, "oracle.json", {
        "params": {"K": 1.0, "alpha": 1.0, "gamma": 1.0},
        "task": "oracle",
        "oracle": {"m_max": 3, "lambda_max": 12.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    header, rows = read_csv(tmp_path / "out" / "oracle_roots.csv")
    assert header == ["m", "lambda", "multiplicity"]
    assert rows

    # mesh file round trip through the CLI geometry loader
    from bse import mesh
    msh = mesh.generate_square(3)
    mesh.write_mesh(msh, tmp_path / "m.txt")
    cfg2 = write_config(tmp_path, "file.json", {
        "geometry": {"type": "file", "path": str(tmp_path / "m.txt")},
        "params": {"K": 1.0, "alpha": 1.0, "beta": 1.0},
        "task": "eig2",
        "eig": {"k": 2},
        "output": {"dir": str(tmp_path / "out2")},
    })
    assert cli.run(cfg2) == 0


@pytest.mark.parametrize("data", [
    b"bse-mesh 1\nvertices 100000000000\n",
    None,  # a valid mesh followed by a stray line
    b"bse-mesh 1\nvertices 1\n0 \xe9\ntriangles 0\nsurface 0\n",
    b"bse-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n",
], ids=["huge-count", "trailing-line", "non-ascii", "index-beyond-int64"])
def test_bad_mesh_file_is_a_parse_error(tmp_path, data):
    from bse import mesh
    path = tmp_path / "m.txt"
    if data is None:
        mesh.write_mesh(mesh.generate_disk(8, 0), path)
        data = path.read_bytes() + b"garbage here\n"
    path.write_bytes(data)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "file.json", {
        "geometry": {"type": "file", "path": str(path)}, "task": "solve2",
        "sources": {"f": "1", "g": "-1"}, "output": {"dir": str(out)}})
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "parse-error"
    assert "line" in err["message"]


@pytest.mark.parametrize("name", ["missing.txt", "."], ids=["missing", "directory"])
def test_unreadable_mesh_file_is_an_invalid_argument(tmp_path, name):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "file.json", {
        "geometry": {"type": "file", "path": str(tmp_path / name)}, "task": "solve2",
        "sources": {"f": "1", "g": "-1"}, "output": {"dir": str(out)}})
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert err["message"].startswith("cannot read mesh file: ")


@pytest.mark.parametrize("vertices,area", [
    ("1e308 1e308\n1e308 1e308\n", "nan"),
    ("1e308 0\n0 1e308\n", "inf"),
], ids=["nan", "inf"])
def test_overflowing_mesh_file_is_an_invariant_violation(tmp_path, vertices, area):
    # finite vertices whose signed area overflows
    path = tmp_path / "m.txt"
    path.write_text(f"bse-mesh 1\nvertices 3\n0 0\n{vertices}triangles 1\n0 1 2\nsurface 3\n0\n1\n2\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "file.json", {
        "geometry": {"type": "file", "path": str(path)}, "task": "solve2",
        "sources": {"f": "1", "g": "-1"}, "output": {"dir": str(out)}})
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invariant-violation"
    assert f"triangle 0 has signed area {area}" in err["message"]


@pytest.mark.parametrize("f", ["(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_source_is_a_parse_error(tmp_path, f):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "deep.json", {
        "geometry": {"type": "disk", "n_boundary": 8, "refine": 0}, "task": "solve2",
        "sources": {"f": f, "g": "1"}, "output": {"dir": str(out)}})
    assert cli.run(cfg) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "parse-error"
    assert "nests deeper" in err["message"]


def test_main_mesh_and_oracle_subcommands(tmp_path):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh", "--geometry", "disk", "--n", "16", "--refine", "1",
                     "--out", str(out)]) == 0
    from bse import mesh
    m = mesh.read_mesh(out)
    assert m.n_surface == 32
    roots = tmp_path / "roots.csv"
    assert cli.main(["oracle", "--K", "1", "--alpha", "1", "--gamma", "1",
                     "--mmax", "2", "--lmax", "8", "--out", str(roots)]) == 0
    header, rows = read_csv(roots)
    assert header == ["m", "lambda", "multiplicity"]
    assert cli.main(["mesh", "--geometry", "disk", "--n", "4", "--out", str(out)]) == 2


@pytest.mark.parametrize("argv", [["mesh", "--n", "16"],
                                  ["oracle", "--mmax", "1", "--lmax", "5"]],
                         ids=["mesh", "oracle"])
def test_unwritable_out_is_one_line_internal_error(tmp_path, argv):
    # no run directory: one log line, exit 3, no traceback and no error.json
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("BSE_LOG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "bse.cli", *argv, "--out", str(tmp_path / "missing" / "out")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("ERROR bse.cli: internal-error: FileNotFoundError: ")
    assert not list(tmp_path.rglob("*"))


def test_repeated_runs_byte_identical(tmp_path):
    cfg_body = {
        "geometry": {"type": "disk", "n_boundary": 24, "refine": 0},
        "params": {"K": 1.0, "alpha": 1.0, "gamma": 1.0},
        "task": "eig2",
        "eig": {"k": 4},
    }
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_config(tmp_path, f"{tag}.json", cfg_body)
        proc = subprocess.run(
            [sys.executable, "-m", "bse.cli", "run", cfg, "--out", str(out),
             "--threads", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "eigenvalues.csv").read_bytes())
    assert outputs[0] == outputs[1]
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["blas_threads"] == 1
    assert summary["peak_rss_mb"] > 0


def test_run_defaults_to_one_blas_thread(tmp_path):
    # ARPACK ran 2-3x slower with two BLAS threads: without --threads, bse run
    # sets every thread variable the environment leaves unset to 1
    cfg = write_config(tmp_path, "eig.json", {"task": "eig2", "geometry": {"n_boundary": 8},
                                              "eig": {"k": 2}})
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "bse.cli", "run", cfg, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["blas_threads"] == 1


@pytest.mark.parametrize("threads", ["0", "-1", "-7"])
def test_thread_count_below_one_exits_2(tmp_path, threads):
    cfg = write_config(tmp_path, "oracle.json", {"task": "oracle"})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bse.cli", "run", cfg, "--out", str(out), "--threads", threads],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert not out.exists()


def test_refine4_eig2_terminates_and_repeats(tmp_path):
    # 42.5k unknowns, beyond the reach of a dense pencil; two runs in one
    # process must agree bit for bit
    def _over_budget(signum, frame):
        raise TimeoutError("refine-4 eig2 still running after 120 s")

    outputs = []
    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, 120.0)
    try:
        for tag in ("a", "b"):
            cfg = write_config(tmp_path, f"{tag}.json", {
                "geometry": {"type": "disk", "n_boundary": 64, "refine": 4},
                "params": {"K": 1.0, "alpha": 1.0, "gamma": 1.0},
                "task": "eig2",
                "eig": {"k": 6},
            })
            assert cli.run(cfg, outdir=tmp_path / tag) == 0
            outputs.append((tmp_path / tag / "eigenvalues.csv").read_bytes())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert outputs[0] == outputs[1]
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["method"] == "arpack"
    assert summary["max_residual"] <= 1e-8


@pytest.mark.parametrize("bad,name", [
    ({"geometry": {"type": "disk", "n_boundary": "abc"}}, "n_boundary"),
    ({"params": [1, 2]}, "params"),
    ({"geometry": {"type": "file", "path": 0}}, "geometry.path"),
], ids=["geometry-string", "params-list", "geometry-path-int"])
def test_malformed_config_writes_error_json(tmp_path, bad, name):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "bad.json", {
        "task": "eig2", "eig": {"k": 2}, "output": {"dir": str(out)}, **bad})
    assert cli.run(cfg) == 2
    lines = (out / "error.json").read_text().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["kind"] == "invalid-argument"
    assert name in err["message"]


_INT_KEYS = [("geometry", "n_boundary", "eig2"), ("geometry", "refine", "eig2"),
             ("geometry", "n_per_side", "eig2"), ("eig", "k", "eig2"),
             ("oracle", "m_max", "oracle")]
_FLOAT_KEYS = [("params", key, "oracle") for key in ("K", "L", "alpha", "beta", "gamma")]
_FLOAT_KEYS.append(("oracle", "lambda_max", "oracle"))
_STR_KEYS = [("sources", "f", "solve2"), ("sources", "g", "solve2")]


@pytest.mark.parametrize("section,key,task,value",
                         [(*k, v) for k in _INT_KEYS for v in (1.7, 2.0, True, "2", None)]
                         + [(*k, v) for k in _FLOAT_KEYS
                            for v in (True, False, "2", None, [1.0], float("nan"), 10 ** 400)]
                         + [(*k, v) for k in _STR_KEYS for v in (1, True, None, [1])],
                         ids=lambda v: repr(v)[:12] if not isinstance(v, str) else v)
def test_config_values_are_not_coerced(tmp_path, section, key, task, value):
    # integer keys take JSON integers only, float keys finite JSON numbers and
    # source expressions JSON strings: 1.7 and true used to run as refine 1,
    # "2" as refine 2, 1 as the source "1", and true as a parse error about
    # 'True'; an integer beyond the float range is no finite number either
    geometry = {"type": "square" if key == "n_per_side" else "disk", "n_boundary": 16}
    cfg = {"task": task, "geometry": geometry, "eig": {"k": 2}, "sources": {"f": "0", "g": "0"},
           "oracle": {"m_max": 1, "lambda_max": 5.0}, "output": {"dir": str(tmp_path / "out")}}
    cfg.setdefault(section, {})[key] = value
    assert cli.run(write_config(tmp_path, "cfg.json", cfg)) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert f"{section}.{key} must be" in err["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("exc", [RuntimeError("task blew up\nsecond line"),
                                 KeyError("task blew up"), np.linalg.LinAlgError("task blew up")])
def test_unexpected_exception_writes_internal_error(tmp_path, monkeypatch, exc):
    def broken_task(cfg, params, outdir):
        raise exc

    monkeypatch.setattr(cli, "_task_oracle", broken_task)
    cfg = write_config(tmp_path, "oracle.json", {"task": "oracle"})
    out = tmp_path / "out"
    assert cli.run(cfg, outdir=str(out)) == 3
    text = (out / "error.json").read_text()
    assert text.count("\n") == 1
    err = json.loads(text)
    assert err["kind"] == "internal-error"
    assert err["message"].startswith(f"{type(exc).__name__}: ")
    assert "task blew up" in err["message"]
    assert not (out / "summary.json").exists()


def test_callers_own_exception_propagates(tmp_path, monkeypatch):
    class Budget(Exception):
        pass

    def interrupted_task(cfg, params, outdir):
        raise Budget("over budget")

    monkeypatch.setattr(cli, "_task_oracle", interrupted_task)
    cfg = write_config(tmp_path, "oracle.json", {"task": "oracle"})
    with pytest.raises(Budget):
        cli.run(cfg, outdir=str(tmp_path / "out"))


def test_non_string_output_dir_is_invalid_argument(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "oracle.json", {"task": "oracle", "output": {"dir": 5}})
    assert cli.run(cfg) == 2
    err = json.loads((tmp_path / "bse-out" / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert "output.dir" in err["message"]


def test_seed_option_is_gone(tmp_path):
    cfg = write_config(tmp_path, "oracle.json", {"task": "oracle"})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", cfg, "--seed", "3", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    assert cli.main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    assert "seed" not in json.loads((tmp_path / "b" / "summary.json").read_text())


def test_convergence_assembles_forms_once_per_level(tmp_path, monkeypatch):
    # counts the triangle assemblies themselves: the solve and the error
    # norms of a level share one set of forms
    from bse import _kernels

    calls = []
    real = _kernels.tri_entries

    def counting(vertices, triangles):
        calls.append(len(vertices))
        return real(vertices, triangles)

    monkeypatch.setattr(_kernels, "tri_entries", counting)
    cfg = write_config(tmp_path, "conv.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 1},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "convergence",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    assert len(calls) == 2


def test_convergence_builds_and_assembles_each_level_once(tmp_path, monkeypatch):
    # the levels are one generate_disk's parent chain, and the energy error
    # uses the coupled matrix the level's solve assembled
    from bse import assembly, mesh, solver

    refines, coupled = [], []
    real_refine, real_coupled = mesh._refine, assembly.assemble_coupled
    monkeypatch.setattr(mesh, "_refine", lambda m: refines.append(m.n_vertices) or real_refine(m))
    for module in (assembly, solver):
        monkeypatch.setattr(module, "assemble_coupled",
                            lambda *args: coupled.append(args[0].n_bulk) or real_coupled(*args))
    cfg = write_config(tmp_path, "conv.json", {
        "geometry": {"type": "disk", "n_boundary": 16, "refine": 2},
        "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0},
        "task": "convergence",
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.run(cfg) == 0
    assert len(refines) == 2
    assert len(coupled) == 3 and len(set(coupled)) == 3


def test_csv_write_holds_one_block_at_a_time(tmp_path):
    # a refine-5 solution.csv of about 11 MB is written as mesh.table yields its
    # blocks: the whole text at once traced a peak of 26.6 MB
    import tracemalloc

    msh = mesh.generate_disk(64, 5)
    u = np.random.default_rng(5).standard_normal(msh.n_vertices)
    path = tmp_path / "solution.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, ("node", "x", "y", "u"), np.arange(msh.n_vertices), *msh.vertices.T, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 10e6
    assert peak <= 5e6, f"traced peak {peak / 1e6:.1f} MB"


def test_csv_artifacts_match_per_row_writer(tmp_path, per_row_csv):
    # every CSV artifact has the bytes the per-row writer gives the same values
    from bse import expr, mesh
    from bse.assembly import ProblemParams
    from bse.eigen import eig_second
    from bse.oracle import disk_eigs_second
    from bse.solver import solve_second

    params = ProblemParams(K=1.0, alpha=2.0, beta=1.0)
    base = {"geometry": {"type": "disk", "n_boundary": 16, "refine": 1},
            "params": {"K": 1.0, "alpha": 2.0, "beta": 1.0}}
    sources = {"f": "1-0.5*r^2+sin(3*x)", "g": "cos(2*theta)", "strict_compat": False}
    runs = {"solve2": {"sources": sources}, "eig2": {"eig": {"k": 4}},
            "oracle": {"oracle": {"m_max": 3, "lambda_max": 12.0}},
            "convergence": {"geometry": {"type": "disk", "n_boundary": 16, "refine": 2}}}
    for task, extra in runs.items():
        cfg = write_config(tmp_path, f"{task}.json", {**base, "task": task, **extra})
        assert cli.run(cfg, outdir=str(tmp_path / task)) == 0

    msh = mesh.generate_disk(16, 1)
    f = expr.eval_on_points(expr.parse(sources["f"]), msh.vertices)
    g = expr.eval_on_points(expr.parse(sources["g"]), msh.vertices[msh.surface_nodes])
    field = solve_second(msh, params, f, g, strict=False).field
    res = eig_second(msh, params, 4)
    roots = disk_eigs_second(1.0, 2.0, 1.0, 3, 12.0)
    summary = json.loads((tmp_path / "convergence" / "summary.json").read_text())
    hs = [mesh.max_edge_length(mesh.generate_disk(16, level)) for level in range(3)]
    eocs = [(None, None)] + list(zip(summary["eoc_L2"], summary["eoc_energy"]))
    expected = {
        ("solve2", "solution.csv"): per_row_csv(
            ("node", "x", "y", "u"),
            [(i, x, y, u) for i, ((x, y), u) in enumerate(zip(msh.vertices, field.u))]),
        ("solve2", "surface.csv"): per_row_csv(
            ("s", "v"), zip(msh.surface_arclength(), field.v)),
        ("eig2", "eigenvalues.csv"): per_row_csv(
            ("index", "lambda", "residual", "multiplicity"),
            [(i, lam, r, m) for i, (lam, r, m) in enumerate(
                zip(res.eigenvalues, res.residuals, res.multiplicities))]),
        ("oracle", "oracle_roots.csv"): per_row_csv(
            ("m", "lambda", "multiplicity"), [(r.m, r.lam, r.multiplicity) for r in roots]),
        ("convergence", "convergence.csv"): per_row_csv(
            ("h", "error_L2", "error_energy", "eoc_L2", "eoc_energy"),
            [(h, e2, ee) + eo for h, e2, ee, eo in zip(
                hs, summary["errors_L2"], summary["errors_energy"], eocs)]),
    }
    for (task, name), text in expected.items():
        assert (tmp_path / task / name).read_text() == text, name
