"""Seeded operation lists, their execution through bse's public entry points,
their correctness gates, and the traced replay through each module.

An operation (``Op``) is one user-level action: a ``bse run`` task
(``cli.run`` on a generated config), the ``bse mesh`` command
(``cli.main``), or a library call (``bse.solver``/``bse.eigen``).  Each op
has a fixed time budget; an op that exceeds it, raises, or fails its gate
is recorded as failed and charged its full budget.
"""

import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import gates

N_BOUNDARY = 64
# op kinds; each names a per-kind time metric "<kind>_s"
KINDS = ("mesh", "solve2", "solve4", "convergence", "sweep", "eig2", "eig4", "constants", "oracle")
# A pass runs the op list in rounds: every op runs in the first round, and
# an op runs again in the next round while its runs total less than
# REPEAT_S seconds (at most MAX_REPEATS runs).  An op is timed by its median
# run, so on a machine whose speed drifts from second to second a short op
# is sampled across the whole pass rather than in one burst.
REPEAT_S = 1.5
MAX_REPEATS = 3
# extra calls the replay makes only to time a layer or to count its work;
# the op itself does not make them, so cli.self_s leaves them out
EXTRA_SPANS = ("mesh.validate", "linalg.factorize", "bench.factorize_inputs",
               "bench.matvec_nnz")


class OpTimeout(Exception):
    pass


class OpFailed(Exception):
    pass


@contextmanager
def time_budget(seconds):
    """Raise OpTimeout in the main thread once ``seconds`` have elapsed.

    The alarm interrupts Python-level loops (the projected CG iteration is
    one); a single long native call is interrupted when it returns.
    """
    def _alarm(signum, frame):
        raise OpTimeout(f"over budget of {seconds:g} s")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """Source term, rendered both as a bse expression and with numpy.

    bulk:     c0 + c1 sin(k0 x) - c2 cos(k1 y) + c3 x y
    surface:  c0 + c1 cos(k0 theta) - c2 sin(k1 theta) + c3 x y
    radial:   c0 - c1 r^2
    constant: c0
    """

    shape: str
    coef: tuple
    freq: tuple = ()

    @classmethod
    def draw(cls, rng, shape):
        coef = tuple(float(c) for c in rng.uniform(0.5, 2.0, 4))
        if shape in ("bulk", "surface"):
            return cls(shape, coef, tuple(int(k) for k in rng.integers(1, 4, 2)))
        if shape == "radial":
            # c1/c0 in [0.25, 1.5]: near c1 = 2 c0 the bulk source has zero
            # mean, and there the refine-4 K=1 CG reaches its target (it does
            # at 2.2), so that op's outcome would depend on the seed
            return cls(shape, (coef[0], coef[0] * float(rng.uniform(0.25, 1.5))))
        return cls(shape, coef[:1])

    @property
    def text(self):
        c, k = self.coef, self.freq
        if self.shape == "radial":
            return f"{c[0]!r}-{c[1]!r}*r^2"
        if self.shape == "constant":
            return repr(c[0])
        a, b = ("theta", "theta") if self.shape == "surface" else ("x", "y")
        f1, f2 = ("cos", "sin") if self.shape == "surface" else ("sin", "cos")
        return (f"{c[0]!r}+{c[1]!r}*{f1}({k[0]}*{a})-{c[2]!r}*{f2}({k[1]}*{b})"
                f"+{c[3]!r}*x*y")

    def values(self, points):
        x, y = points[:, 0], points[:, 1]
        c, k = self.coef, self.freq
        if self.shape == "radial":
            return c[0] - c[1] * np.power(np.hypot(x, y), 2.0)
        if self.shape == "constant":
            return np.full(len(points), c[0])
        if self.shape == "surface":
            theta = np.arctan2(y, x)
            theta[theta == -np.pi] = np.pi
            return c[0] + c[1] * np.cos(k[0] * theta) - c[2] * np.sin(k[1] * theta) + c[3] * x * y
        return c[0] + c[1] * np.sin(k[0] * x) - c[2] * np.cos(k[1] * y) + c[3] * x * y


def _sources(rng, radial=False):
    if radial:
        return Source.draw(rng, "radial"), Source.draw(rng, "constant")
    return Source.draw(rng, "bulk"), Source.draw(rng, "surface")


@dataclass
class Op:
    kind: str
    budget_s: float
    refine: int = 0
    task: str = None          # bse run task, or None for bse mesh / library ops
    call: str = None          # library function for library ops
    params: dict = field(default_factory=dict)
    sources: tuple = None     # (bulk, surface) Source pair for cli solves
    args: dict = field(default_factory=dict)

    @property
    def via(self):
        return "lib" if self.call else "cli"

    @property
    def label(self):
        what = self.task or self.call or "mesh"
        p = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{what}:r{self.refine}" + (f"[{p}]" if p else "")

    def problem(self):
        from bse.assembly import ProblemParams

        return ProblemParams(**self.params)


@dataclass
class Workload:
    ops: list
    sweep_refine: int = None  # refine level of the library sweep's shared mesh
    sweep_pairs: list = ()    # seeded (bulk, surface) Source pairs for the sweep


def _solve(kind, refine, k_like, rng, budget, radial=False):
    return Op(kind, budget, refine, task=kind, params={"K": k_like, "L": 1.0},
              sources=_sources(rng, radial))


def _sweep_ops(refine, budget):
    """Library calls on the workload's shared mesh of this refine level."""
    return [Op("sweep", budget, refine, call="solve_second", args={"pairs": (0,)}),
            Op("sweep", budget, refine, call="solve_second", args={"pairs": (1,)}),
            Op("sweep", budget, refine, call="solve_fourth", args={"pairs": (2,)}),
            Op("sweep", budget, refine, call="inner_dual", args={"pairs": (1, 2)})]


def _eig4_identity(refine, budget):
    # K = L and alpha = beta: the gate checks lambda4 = lambda2^2
    return Op("eig4", budget, refine, task="eig4", args={"k": 8, "identity": True},
              params={"K": 1.0, "L": 1.0, "alpha": 1.0, "beta": 1.0})


def _constants(budget):
    # fixed parameters: the gate compares with values frozen at this refine level
    return [Op("constants", budget, 1, task="poincare"),
            Op("constants", budget, 1, call="norm_equivalence_constants")]


def _oracle(k_like, m_max, lam_max, budget):
    return Op("oracle", budget, task="oracle", params={"K": k_like},
              args={"m_max": m_max, "lambda_max": lam_max})


def _pairs(rng, n=3):
    return [_sources(rng) for _ in range(n)]


def _interleave(op_list):
    """Alternate op kinds, so that each time metric samples the whole pass
    rather than one stretch of it."""
    groups = {}
    for op in op_list:
        groups.setdefault(op.kind, []).append(op)
    out = []
    while len(out) < len(op_list):
        for group in groups.values():
            if group:
                out.append(group.pop(0))
    return out


def build(workload, seed):
    """The workload's op list for ``seed``; the same seed gives the same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "solve":
        # cold solves share nothing; the sweep shares one refine-3 mesh
        ops = [_solve(kind, r, k, rng, 10.0 * r)
               for kind in ("solve2", "solve4") for r in (2, 3) for k in (1.0, 0.0)]
        ops.append(Op("convergence", 30.0, 3, task="convergence"))
        ops += _sweep_ops(3, 20.0)
        return Workload(_interleave(ops), 3, _pairs(rng))
    if workload == "spectrum":
        # dense eigensolves at 2.9k unknowns; refine 3 would need several GB
        # the seed moves alpha and gamma of eig2, which the Bessel gate follows
        # and which leave the dense work unchanged
        ops = [Op("eig2", 60.0, 2, task="eig2", args={"k": 12},
                  params={"K": k, "alpha": float(rng.uniform(0.9, 1.1)),
                          "gamma": float(rng.uniform(0.9, 1.1))})
               for k in (1.0, 0.0)]
        ops += [Op("eig4", 90.0, 2, task="eig4", args={"k": 8},
                   params={"K": 1.0, "L": 2.0, "alpha": 1.5, "beta": 0.5}),
                _eig4_identity(1, 20.0)]
        ops += _constants(20.0)
        ops += [_oracle(1.0, 8, 40.0, 30.0), _oracle(0.0, 8, 40.0, 30.0)]
        return Workload(_interleave(ops))
    if workload == "scale":
        # refine 4, 42.5k unknowns, radially symmetric sources like the
        # manufactured family.  With K=1 the projected CG residual levels off
        # between 2e-12 and 7e-12 for these sources, above its 1e-12 target
        # (see Source.draw), so the solve runs towards
        # maxiter (about 50 min) and must show up as an over-budget op.
        # (Generic smooth sources converge there in about 1750 iterations.)
        ops = [Op("mesh", 20.0, 4),
               _solve("solve2", 4, 0.0, rng, 15.0, radial=True),
               _solve("solve2", 4, 1.0, rng, 15.0, radial=True)]
        return Workload(_interleave(ops))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("solve", "spectrum", "scale")


def warmup_workload(rng):
    """Tiny op of every kind, run untimed so lazy imports and first-call set-up
    finish before measuring."""
    ops = [Op("mesh", 30.0, 0), _solve("solve2", 0, 1.0, rng, 30.0),
           _solve("solve4", 0, 0.0, rng, 30.0),
           Op("convergence", 30.0, 1, task="convergence"),
           Op("eig2", 30.0, 0, task="eig2", params={"K": 1.0}, args={"k": 12}),
           _eig4_identity(0, 30.0),
           _oracle(1.0, 1, 5.0, 30.0)]
    return Workload(ops + _sweep_ops(0, 30.0), 0, _pairs(rng))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    kind: str
    label: str
    status: str              # ok | timeout | error | gate
    seconds: float           # charged: measured if ok, else the full budget
    measured: float
    detail: str = ""
    values: dict = field(default_factory=dict)
    runs: int = 1

    @property
    def ok(self):
        return self.status == "ok"


def _fingerprint(op, d, out):
    """Digest of an op's output: the files it wrote, except the timing-bearing
    summary, or the values a library call returned."""
    h = hashlib.sha256()
    if op.via == "lib":
        vec = out.field.to_vector() if hasattr(out, "field") else out
        h.update(np.asarray(vec, dtype=np.float64).tobytes())
    else:
        for name in sorted(os.listdir(d)):
            if name not in ("summary.json", "config.json"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Runner:
    """Runs ops of one workload; output files go under ``workdir``."""

    def __init__(self, workdir, workload):
        self.workdir = workdir
        self.workload = workload
        self._gate_meshes = {}
        self.sweep = None

    def new_pass(self):
        """Fresh shared mesh for the library sweep, so every pass starts cold."""
        from bse import assembly, mesh

        if self.workload.sweep_refine is None:
            return
        msh = mesh.generate_disk(N_BOUNDARY, self.workload.sweep_refine)
        forms = assembly.assemble_basic(msh)
        pairs = []
        for bulk, surf in self.workload.sweep_pairs:
            f = bulk.values(msh.vertices)
            g = surf.values(msh.vertices[msh.surface_nodes])
            pairs.append(assembly.project_compatible(forms, f, g, 1.0))
        self.sweep = (msh, forms, pairs)

    def _opdir(self, index):
        d = os.path.join(self.workdir, f"op{index:03d}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    # untraced path -----------------------------------------------------------

    def run_pass(self, op_list):
        """Run ``op_list`` in rounds (see REPEAT_S); returns one OpRecord per op.
        The first run of an op is gated; a repeat must reproduce its output
        exactly.  The first failed run ends its op and charges the op's full
        budget."""
        runs = [[] for _ in op_list]
        last = [("ok", "", {}) for _ in op_list]
        first = [None] * len(op_list)
        active = list(range(len(op_list)))
        while active:
            for i in active:
                gc.collect()  # start every timed run from a collected heap
                status, detail, measured, values, fp = self._run_once(op_list[i], i, first[i])
                runs[i].append(measured)
                last[i] = (status, detail, values)
                if first[i] is None:
                    first[i] = (fp, values)
            active = [i for i in active if last[i][0] == "ok"
                      and sum(runs[i]) < REPEAT_S and len(runs[i]) < MAX_REPEATS]
        records = []
        for i, op in enumerate(op_list):
            status, detail, values = last[i]
            measured = statistics.median(runs[i]) if status == "ok" else runs[i][-1]
            charged = measured if status == "ok" else op.budget_s
            records.append(OpRecord(i, op.kind, op.label, status, charged, measured, detail,
                                    values, len(runs[i])))
        return records

    def _run_once(self, op, index, first=None):
        """One timed run; ``first`` is (fingerprint, gate values) of the op's
        first run, whose output this run must reproduce."""
        d = self._opdir(index)
        cfg = self._write_config(op, d)
        status, detail, values, fp = "ok", "", {}, None
        t0 = time.perf_counter()
        try:
            with time_budget(op.budget_s):
                out = self._execute(op, d, cfg)
            measured = time.perf_counter() - t0
            fp = _fingerprint(op, d, out)
            if first is None:
                values = self._gate(op, d, out)
            elif fp != first[0]:
                raise gates.GateError(f"{op.kind}: output differs from the op's first run")
            else:
                values = first[1]
        except OpTimeout as exc:
            measured = time.perf_counter() - t0
            status, detail = "timeout", str(exc)
        except gates.GateError as exc:
            status, detail = "gate", str(exc)
        except Exception as exc:  # the benchmark records every failure and goes on
            measured = time.perf_counter() - t0
            status = "error"
            detail = f"{type(exc).__name__}: {exc} | " + traceback.format_exc(limit=3)[-400:]
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return status, detail, measured, values, fp

    def _write_config(self, op, d):
        if op.task is None:
            return None
        cfg = {"geometry": {"type": "disk", "n_boundary": N_BOUNDARY, "refine": op.refine},
               "params": op.params, "task": op.task}
        if op.sources:
            cfg["sources"] = {"f": op.sources[0].text, "g": op.sources[1].text,
                              "strict_compat": False}
        if "k" in op.args:
            cfg["eig"] = {"k": op.args["k"]}
        if op.task == "oracle":
            cfg["oracle"] = {"m_max": op.args["m_max"], "lambda_max": op.args["lambda_max"]}
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def _execute(self, op, d, cfg):
        from bse import cli, eigen, mesh, solver

        if op.kind == "mesh":
            path = os.path.join(d, "mesh.txt")
            rc = cli.main(["mesh", "--geometry", "disk", "--n", str(N_BOUNDARY),
                           "--refine", str(op.refine), "--out", path])
            if rc != 0:
                raise OpFailed(f"bse mesh exited {rc}")
            return path
        if op.task is not None:
            rc = cli.run(cfg, outdir=d)
            if rc != 0:
                with open(os.path.join(d, "error.json")) as fh:
                    raise OpFailed(f"bse run exited {rc}: {fh.read().strip()}")
            return d
        if op.call == "norm_equivalence_constants":
            msh = mesh.generate_disk(N_BOUNDARY, op.refine)
            return eigen.norm_equivalence_constants(msh, op.problem())
        return self._sweep_call(op, solver)

    def _sweep_call(self, op, solver):
        from bse.assembly import ProblemParams

        msh, _, pairs = self.sweep
        p = ProblemParams()
        if op.call == "inner_dual":
            i, j = op.args["pairs"]
            return solver.inner_dual(msh, p, pairs[i], pairs[j])
        f, g = pairs[op.args["pairs"][0]]
        return getattr(solver, op.call)(msh, p, f, g, strict=True)

    # gates -------------------------------------------------------------------

    def _gate_forms(self, refine):
        if refine not in self._gate_meshes:
            from bse import assembly, mesh

            msh = mesh.generate_disk(N_BOUNDARY, refine)
            self._gate_meshes[refine] = (msh, assembly.assemble_basic(msh))
        return self._gate_meshes[refine]

    def _gate(self, op, d, out):
        p = op.problem()
        if op.kind == "mesh":
            gates.check_mesh_file(out, N_BOUNDARY, op.refine)
            return {}
        if op.kind == "oracle":
            gates.check_oracle(os.path.join(d, "oracle_roots.csv"), p.K, p.alpha, p.gamma,
                               op.args["m_max"], op.args["lambda_max"])
            return {}
        if op.kind == "convergence":
            return {"mms_l2_err": gates.check_convergence(os.path.join(d, "convergence.csv"),
                                                          op.refine + 1)}
        if op.kind == "eig2":
            return {"eig2_oracle_relerr": gates.check_eig2(os.path.join(d, "eigenvalues.csv"),
                                                           p.K, p.alpha, p.gamma, op.refine)}
        if op.kind == "eig4":
            path = os.path.join(d, "eigenvalues.csv")
            if op.args.get("identity"):
                _, forms = self._gate_forms(op.refine)
                gates.check_eig4_identity(path, forms, p.K, p.alpha, p.gamma)
            else:
                gates.check_frozen("eig4", [float(r["lambda"]) for r in gates.read_csv(path)])
            return {}
        if op.kind == "constants":
            if op.task == "poincare":
                with open(os.path.join(d, "summary.json")) as fh:
                    gates.check_frozen("poincare", json.load(fh)["poincare_constant"])
            else:
                gates.check_frozen("norm_equivalence", out)
            return {}
        if op.kind == "sweep":
            self._gate_sweep(op, p, out)
            return {}
        self._gate_cli_solve(op, p, d)
        return {}

    def _gate_cli_solve(self, op, p, d):
        from bse import assembly

        msh, forms = self._gate_forms(op.refine)
        sol = gates.read_csv(os.path.join(d, "solution.csv"))
        xy = np.array([[float(r["x"]), float(r["y"])] for r in sol])
        if xy.shape != msh.vertices.shape or np.any(xy != msh.vertices):
            raise gates.GateError(f"{op.kind}: solution nodes differ from the mesh")
        u = np.array([float(r["u"]) for r in sol])
        v = np.array([float(r["v"]) for r in gates.read_csv(os.path.join(d, "surface.csv"))])
        x = np.concatenate([u, v])
        bulk, surf = op.sources
        f = bulk.values(msh.vertices)
        g = surf.values(msh.vertices[msh.surface_nodes])
        if op.kind == "solve2":
            f, g = assembly.project_compatible(forms, f, g, p.alpha)
            a, cs = gates.constrained_system(forms, p.K, p.alpha, p.beta, p.gamma)
            gates.check_solve(a, cs, assembly.assemble_load(forms, f, g), x, "solve2")
            return
        # solve4: stage 1 (L, beta; alpha-mean) from the reference direct solve,
        # then the backward error of the reported pair against stage 2
        f, g = assembly.project_compatible(forms, f, g, p.beta)
        a1, cs1 = gates.constrained_system(forms, p.L, p.beta, p.alpha, p.gamma)
        w = gates.reference_solve(a1, cs1, assembly.assemble_load(forms, f, g))
        nb = forms.n_bulk
        a2, cs2 = gates.constrained_system(forms, p.K, p.alpha, p.beta, p.gamma)
        gates.check_solve(a2, cs2, assembly.assemble_load(forms, w[:nb], w[nb:]), x,
                          "solve4 stage 2")

    def _gate_sweep(self, op, p, out):
        from bse.assembly import assemble_load

        msh, forms, pairs = self.sweep
        a1, cs1 = gates.constrained_system(forms, p.L, p.beta, p.alpha, p.gamma)
        if op.call == "inner_dual":
            i, j = op.args["pairs"]
            gates.check_inner_dual(a1, cs1, assemble_load(forms, *pairs[i]),
                                   assemble_load(forms, *pairs[j]), out)
            return
        f, g = pairs[op.args["pairs"][0]]
        a2, cs2 = gates.constrained_system(forms, p.K, p.alpha, p.beta, p.gamma)
        x = out.field.to_vector()
        if op.call == "solve_second":
            gates.check_solve(a2, cs2, assemble_load(forms, f, g), x, "solve_second")
            return
        w = out.intermediate.to_vector()
        gates.check_solve(a1, cs1, assemble_load(forms, f, g), w, "solve_fourth stage 1")
        nb = forms.n_bulk
        gates.check_solve(a2, cs2, assemble_load(forms, w[:nb], w[nb:]), x,
                          "solve_fourth stage 2")

    # traced replay -----------------------------------------------------------

    def replay(self, op, index, tracer):
        """Repeat ``op`` through the public functions of each module, one span
        per call.  Returns the status: ok, timeout or error."""
        d = self._opdir(index)
        tracer.op = index
        status = "ok"
        try:
            with time_budget(op.budget_s), tracer.span(f"op.{op.kind}"):
                self._replay(op, d, tracer)
        except OpTimeout:
            status = "timeout"
            hit = [s["name"] for s in tracer.op_spans(index) if s["status"] == "OpTimeout"]
            if hit and hit[0].startswith("linalg."):
                tracer.count("linalg.timeouts")
        except Exception:  # recorded like an untraced failure
            status = "error"
        finally:
            shutil.rmtree(d, ignore_errors=True)
            tracer.op = None
        return status

    def _replay(self, op, d, t):
        from bse import assembly, eigen, linalg, mesh, oracle, solver

        p = op.problem()
        if op.kind == "oracle":
            with t.span("oracle.disk_eigs_second"):
                roots = oracle.disk_eigs_second(p.K, p.alpha, p.gamma, op.args["m_max"],
                                                op.args["lambda_max"])
            t.count("oracle.n_roots", len(roots))
            return
        if op.kind == "sweep":
            with t.span(f"solver.{op.call}"):
                self._sweep_call(op, solver)
            return
        if op.kind == "convergence":
            self._replay_convergence(op, p, t)
            return
        msh = self._replay_mesh(t, op.refine)
        if op.kind == "mesh":
            with t.span("mesh.write"):
                mesh.write_mesh(msh, os.path.join(d, "mesh.txt"))
            return
        if op.call == "norm_equivalence_constants":
            with t.span("eigen.norm_equivalence_constants"):
                eigen.norm_equivalence_constants(msh, p)
            return
        # the eigen functions assemble their own forms
        if op.kind == "eig2":
            with t.span("eigen.eig_second"):
                eigen.eig_second(msh, p, op.args["k"])
        elif op.kind == "eig4":
            # time the inner system's factorization that eig_fourth performs
            with t.span("bench.factorize_inputs"):
                forms = assembly.assemble_basic(msh)
                a = assembly.assemble_coupled(forms, p.L, p.beta, p.gamma)
                cs = assembly.build_constraints(forms, p.L, p.beta, p.alpha)
            with t.span("linalg.factorize"):
                linalg.FactorizedConstrainedSolver(a, cs)
            with t.span("eigen.eig_fourth"):
                eigen.eig_fourth(msh, p, op.args["k"])
        elif op.kind == "constants":
            with t.span("eigen.poincare_constant"):
                eigen.poincare_constant(msh, p)
        else:
            forms = self._replay_basic(t, msh)
            f, g = self._replay_sources(t, op, msh)
            if op.kind == "solve2":
                self._replay_stage(t, forms, p.K, p.alpha, p.beta, p.gamma, f, g)
            else:
                w = self._replay_stage(t, forms, p.L, p.beta, p.alpha, p.gamma, f, g).x
                nb = forms.n_bulk
                self._replay_stage(t, forms, p.K, p.alpha, p.beta, p.gamma, w[:nb], w[nb:],
                                   project=False)

    def _replay_mesh(self, t, refine):
        from bse import mesh

        with t.span("mesh.generate_disk"):
            msh = mesh.generate_disk(N_BOUNDARY, refine)
        with t.span("mesh.validate"):
            mesh.Mesh(msh.vertices, msh.triangles, msh.surface_nodes)
        return msh

    def _replay_basic(self, t, msh):
        from bse import assembly

        with t.span("assembly.assemble_basic"):
            return assembly.assemble_basic(msh)

    def _replay_sources(self, t, op, msh):
        from bse import expr

        bulk, surf = op.sources
        with t.span("expr.parse"):
            f_ast, g_ast = expr.parse(bulk.text), expr.parse(surf.text)
        with t.span("expr.eval_on_points"):
            f = expr.eval_on_points(f_ast, msh.vertices)
            g = expr.eval_on_points(g_ast, msh.vertices[msh.surface_nodes])
        return f, g

    def _replay_system(self, t, forms, k_like, alpha_like, mean_like, gamma):
        from bse import assembly

        with t.span("assembly.assemble_coupled"):
            a = assembly.assemble_coupled(forms, k_like, alpha_like, gamma)
        t.count("assembly.nnz", a.data.size)
        with t.span("assembly.build_constraints"):
            cs = assembly.build_constraints(forms, k_like, alpha_like, mean_like)
        return a, cs

    def _replay_stage(self, t, forms, k_like, alpha_like, mean_like, gamma, f, g, project=True):
        from bse import assembly, linalg

        a, cs = self._replay_system(t, forms, k_like, alpha_like, mean_like, gamma)
        if project:
            with t.span("assembly.project_compatible"):
                f, g = assembly.project_compatible(forms, f, g, alpha_like)
        with t.span("assembly.assemble_load"):
            b = assembly.assemble_load(forms, f, g)
        with t.span("linalg.solve_constrained"):
            sol = linalg.solve_constrained(a, b, cs)
        # operation counts of the CG matvecs, computed from the reduced matrix
        with t.span("bench.matvec_nnz"):
            if cs.has_elimination:
                r_mat = cs.reduction_matrix()
                red = r_mat.T @ a.to_scipy() @ r_mat
                nnz, n = red.nnz, red.shape[0]
            else:
                nnz, n = a.data.size, a.n
        t.count("linalg.cg_iterations", sol.iterations)
        t.count("linalg.dense_fallbacks", int(sol.method != "cg"))
        t.count("linalg.matvec_flops", 2 * sol.iterations * nnz)
        # per product: value, int64 column index and gathered x per entry;
        # row pointer and result per row
        t.count("linalg.matvec_bytes", sol.iterations * (24 * nnz + 16 * n))
        return sol

    def _replay_convergence(self, op, p, t):
        from bse import expr, mesh, oracle, solver
        from bse.assembly import CoupledField

        with t.span("oracle.manufactured_second"):
            man = oracle.manufactured_second(p.K, p.alpha, p.beta)
        with t.span("expr.parse"):
            u_ast = expr.parse(man.u_expr)
        for level in range(op.refine + 1):
            msh = self._replay_mesh(t, level)
            forms = self._replay_basic(t, msh)
            f = np.full(msh.n_vertices, man.f_value())
            g = np.full(msh.n_surface, man.g_value())
            sol = self._replay_stage(t, forms, p.K, p.alpha, p.beta, p.gamma, f, g)
            with t.span("expr.eval_on_points"):
                u_exact = expr.eval_on_points(u_ast, msh.vertices)
            nb = forms.n_bulk
            diff = CoupledField(sol.x[:nb] - u_exact, sol.x[nb:] - man.v_value)
            with t.span("mesh.max_edge_length"):
                mesh.max_edge_length(msh)
            with t.span("solver.inner_h0"):
                solver.inner_h0(forms, diff, diff)
            with t.span("solver.norm_ka"):
                solver.norm_ka(forms, p, diff)


def kernel_probes(tracer, repeat=5):
    """Time the hot kernels in isolation on a refine-2 disk (numpy or numba,
    whichever bse selected)."""
    from bse import _kernels, assembly, mesh

    tracer.op = "kernels"
    with tracer.span("op.kernels"):
        msh = mesh.generate_disk(N_BOUNDARY, 2)
        a = assembly.assemble_coupled(assembly.assemble_basic(msh), 1.0, 1.0)
        x = np.linspace(0.0, 1.0, a.n)
        for _ in range(repeat):
            with tracer.span("kernels.tri_entries"):
                _kernels.tri_entries(msh.vertices, msh.triangles)
            with tracer.span("kernels.csr_matvec"):
                for _ in range(40):
                    _kernels.csr_matvec(a.indptr, a.indices, a.data, x)
            with tracer.span("kernels.bessel_j_raw"):
                for m in range(9):
                    for xv in np.linspace(0.1, 60.0, 40):
                        _kernels.bessel_j_raw(m, float(xv))
    tracer.op = None
