"""Tests of the benchmark itself: gates trip on corrupted outputs, over-budget
ops count as failed, and compare.py flags a planted regression.

    python3 -m pytest bsebench/tests -q
"""

import json
import os

import numpy as np
import pytest

import compare
import gates
import ops
import run
import tracing


@pytest.fixture
def runner(tmp_path):
    wl = ops.Workload([], 1, ops._pairs(np.random.default_rng(0)))
    r = ops.Runner(str(tmp_path), wl)
    r.new_pass()
    return r


def _run1(runner, op):
    return runner.run_pass([op])[0]


def _solve_op(kind="solve2", refine=1, k_like=1.0, budget=30.0, seed=0):
    return ops._solve(kind, refine, k_like, np.random.default_rng(seed), budget)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_workloads_are_seeded(name):
    a, b, c = ops.build(name, 3), ops.build(name, 3), ops.build(name, 4)
    assert [(op.label, op.sources) for op in a.ops] == [(op.label, op.sources) for op in b.ops]
    assert [(op.label, op.sources) for op in a.ops] != [(op.label, op.sources) for op in c.ops]
    assert [op.budget_s for op in a.ops] == [op.budget_s for op in c.ops]


def test_workloads_cover_every_kind():
    kinds = {name: {op.kind for op in ops.build(name, 1).ops} for name in ops.WORKLOADS}
    assert kinds == {"solve": {"solve2", "solve4", "convergence", "sweep"},
                     "spectrum": {"eig2", "eig4", "constants", "oracle"},
                     "scale": {"mesh", "solve2"}}
    assert set().union(*kinds.values()) == set(ops.KINDS)


@pytest.mark.parametrize("shape", ("bulk", "surface", "radial", "constant"))
def test_source_text_and_numpy_twin_agree(shape):
    from bse import expr, mesh

    msh = mesh.generate_disk(16, 1)
    src = ops.Source.draw(np.random.default_rng(5), shape)
    got = expr.eval_on_points(expr.parse(src.text), msh.vertices)
    np.testing.assert_allclose(got, src.values(msh.vertices), rtol=1e-14, atol=1e-14)


def test_bessel_reference_matches_bse_oracle():
    from bse import oracle

    ref = gates.bessel_roots(1.0, 1.0, 1.0, 3, 20.0)
    roots = oracle.disk_eigs_second(1.0, 1.0, 1.0, 3, 20.0)
    assert [(r.m, r.multiplicity) for r in roots] == [(m, mult) for m, _, mult in ref]
    np.testing.assert_allclose([r.lam for r in roots], [lam for _, lam, _ in ref], rtol=1e-10)


# ---------------------------------------------------------------------------
# gates trip on corrupted results
# ---------------------------------------------------------------------------

def test_solve_gate_passes_reference_and_rejects_corruption():
    from bse import assembly, mesh

    msh = mesh.generate_disk(64, 1)
    forms = assembly.assemble_basic(msh)
    bulk, surf = ops._sources(np.random.default_rng(1))
    f, g = assembly.project_compatible(forms, bulk.values(msh.vertices),
                                       surf.values(msh.vertices[msh.surface_nodes]), 1.0)
    for k_like in (1.0, 0.0):
        a, cs = gates.constrained_system(forms, k_like, 1.0, 1.0, 1.0)
        b = assembly.assemble_load(forms, f, g)
        x = gates.reference_solve(a, cs, b)
        assert gates.check_solve(a, cs, b, x, "ref") < 1e-14
        bad = x.copy()
        bad[7] += 1e-6 * np.max(np.abs(x))
        with pytest.raises(gates.GateError):
            gates.check_solve(a, cs, b, bad, "perturbed")
        # a shift along the kernel keeps the residual but breaks the mean constraint
        with pytest.raises(gates.GateError, match="mean"):
            gates.check_solve(a, cs, b, x + 1e-6 * cs.kernel, "shifted")


@pytest.mark.parametrize("k_like", (1.0, 0.0))
def test_solve_gate_rejects_an_early_stopped_cg(k_like):
    """CG stopped at a 1e-8 relative residual leaves a smooth error; the
    library's own 1e-12 target passes."""
    from bse import assembly, linalg, mesh

    msh = mesh.generate_disk(64, 2)
    forms = assembly.assemble_basic(msh)
    bulk, surf = ops._sources(np.random.default_rng(2))
    f, g = assembly.project_compatible(forms, bulk.values(msh.vertices),
                                       surf.values(msh.vertices[msh.surface_nodes]), 1.0)
    a, cs = gates.constrained_system(forms, k_like, 1.0, 1.0, 1.0)
    b = assembly.assemble_load(forms, f, g)
    a_bse = assembly.assemble_coupled(forms, k_like, 1.0)
    gates.check_solve(a, cs, b, linalg.solve_constrained(a_bse, b, cs).x, "default")
    early = linalg.solve_constrained(a_bse, b, cs, tol=1e-8, method="cg")
    assert early.method == "cg"
    with pytest.raises(gates.GateError):
        gates.check_solve(a, cs, b, early.x, "early")


def test_corrupted_cli_solution_fails_its_op(runner, monkeypatch):
    from bse import solver

    real = solver.solve_constrained

    def corrupt(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.x[3] += 1e-6
        return sol

    monkeypatch.setattr(solver, "solve_constrained", corrupt)
    rec = _run1(runner, _solve_op())
    assert rec.status == "gate", rec.detail
    assert rec.seconds == 30.0
    assert run.summarize([rec])["correct"] is False


def test_corrupted_eigenvalues_fail_the_oracle_gate(runner, monkeypatch):
    from bse import eigen

    real = eigen.eig_second

    def corrupt(*args, **kwargs):
        res = real(*args, **kwargs)
        res.eigenvalues = res.eigenvalues * 1.1
        return res

    op = ops.Op("eig2", 30.0, 1, task="eig2", params={"K": 1.0}, args={"k": 12})
    assert _run1(runner, op).ok
    monkeypatch.setattr(eigen, "eig_second", corrupt)
    rec = _run1(runner, op)
    assert rec.status == "gate" and "Bessel" in rec.detail


def test_oracle_gate_rejects_a_missing_root(tmp_path):
    ref = gates.bessel_roots(0.0, 1.0, 1.0, 2, 20.0)
    path = tmp_path / "roots.csv"
    path.write_text("m,lambda,multiplicity\n"
                    + "".join(f"{m},{lam!r},{mult}\n" for m, lam, mult in ref[1:]))
    with pytest.raises(gates.GateError):
        gates.check_oracle(str(path), 0.0, 1.0, 1.0, 2, 20.0)


def test_frozen_gate():
    gates.check_frozen("poincare", gates.FROZEN["poincare"])
    with pytest.raises(gates.GateError):
        gates.check_frozen("poincare", gates.FROZEN["poincare"] * (1 + 1e-5))


def test_corrupted_eig4_fails_the_square_identity(runner, monkeypatch):
    from bse import eigen

    real = eigen.eig_fourth

    def corrupt(*args, **kwargs):
        res = real(*args, **kwargs)
        res.eigenvalues = res.eigenvalues * (1 + 1e-6)
        return res

    op = ops._eig4_identity(1, 30.0)
    assert _run1(runner, op).ok
    monkeypatch.setattr(eigen, "eig_fourth", corrupt)
    rec = _run1(runner, op)
    assert rec.status == "gate" and "lambda2^2" in rec.detail


def test_mesh_gate_rejects_a_flipped_triangle(runner, tmp_path):
    from bse import mesh

    path = str(tmp_path / "m.txt")
    mesh.write_mesh(mesh.generate_disk(64, 0), path)
    gates.check_mesh_file(path, 64, 0)
    lines = open(path).read().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("triangles"))) + 1
    a, b, c = lines[i].split()
    lines[i] = f"{a} {c} {b}"
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(gates.GateError):
        gates.check_mesh_file(path, 64, 0)


# ---------------------------------------------------------------------------
# time budgets
# ---------------------------------------------------------------------------

def test_over_budget_op_is_failed_charged_and_counted(runner):
    slow = _solve_op(refine=3, budget=0.05)
    fast = _solve_op(refine=1, seed=1)
    wl = ops.Workload([slow, fast], 1, runner.workload.sweep_pairs)
    runner.workload = wl
    tracer = tracing.Tracer()
    records = runner.run_pass(wl.ops)
    replays = [runner.replay(op, i, tracer) for i, op in enumerate(wl.ops)]
    assert [r.status for r in records] == ["timeout", "ok"]
    assert replays[0] == "timeout"
    summary = run.summarize(records)
    assert summary == {"correct": True, "attempted": 2, "failed": 1}
    per_kind = run.op_metrics(records)
    assert per_kind["solve2_s"]["value"] == pytest.approx(0.05 + records[1].measured)
    layers = run.per_layer(tracer, replays, records, wl)
    assert layers["fail_ratio"]["value"] == 0.5
    assert {m["name"] for m in json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
            ["per_layer"]} == set(layers)


def test_end_to_end_keys_match_benchmark_json():
    recs = [ops.OpRecord(i, kind, kind, "ok", 1.0, 1.0) for i, kind in enumerate(ops.KINDS)]
    metrics = run.end_to_end([recs, recs[:3]], 0.5)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert metrics["wall_s"]["value"] == (len(ops.KINDS) + 3) / 2


def test_budget_interrupts_the_cg_loop():
    from bse import assembly, linalg, mesh

    msh = mesh.generate_disk(64, 3)
    forms = assembly.assemble_basic(msh)
    a = assembly.assemble_coupled(forms, 1.0, 1.0)
    cs = assembly.build_constraints(forms, 1.0, 1.0, 1.0)
    f, g = assembly.project_compatible(forms, np.ones(msh.n_vertices), np.zeros(msh.n_surface), 1.0)
    b = assembly.assemble_load(forms, f, g)
    with pytest.raises(ops.OpTimeout):
        with ops.time_budget(0.05):
            linalg.solve_constrained(a, b, cs, tol=0.0, maxiter=10 ** 7)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _records(workload, wall, rss=100.0):
    return [{"workload": workload, "trace": 0,
             "result": {"correct": True, "attempted": 10, "failed": 0,
                        "metrics": {"wall_s": {"value": w, "unit": "s"},
                                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}}
            for w in wall]


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}],
        "per_layer": []}


def _verdicts(before, after):
    rows, _, _ = compare.compare(before, after, SPEC)
    return {(r[0], r[1]): r[-1] for r in rows}


def test_compare_flags_a_planted_regression(tmp_path):
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    before = _records("solve", base) + _records("scale", base)
    after = _records("solve", [w * 1.3 for w in base]) + _records("scale", base)
    v = _verdicts(before, after)
    assert v[("solve", "wall_s")] == "worse"
    assert v[("scale", "wall_s")] == "unchanged"
    assert v[("solve", "peak_rss_mb")] == "unchanged"
    for path, recs in (("a.jsonl", before), ("b.jsonl", after)):
        (tmp_path / path).write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 0


def test_compare_better_and_unresolved():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    v = _verdicts(_records("solve", base), _records("solve", [w * 0.8 for w in base]))
    assert v[("solve", "wall_s")] == "better"
    noisy = [10.0, 13.0, 7.0, 12.0, 8.0]
    v = _verdicts(_records("solve", noisy), _records("solve", [w * 1.05 for w in noisy]))
    assert v[("solve", "wall_s")] == "unresolved"


def test_a_repeat_must_reproduce_the_first_output(runner, monkeypatch):
    from bse import solver

    real = solver.solve_constrained
    calls = []

    def drift(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            sol.x[3] += 1e-13
        return sol

    monkeypatch.setattr(solver, "solve_constrained", drift)
    rec = _run1(runner, _solve_op())
    assert rec.status == "gate" and "differs" in rec.detail
    assert rec.runs == 2
