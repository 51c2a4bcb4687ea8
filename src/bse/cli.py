"""Batch front end: mesh generation, solves, eigenruns, oracle runs, and
convergence studies driven by a JSON config.

Heavy numerical imports happen inside the command handlers so that
``bse run`` can pin the BLAS thread pools before numpy loads: to
``--threads`` if given, else each pool the environment leaves unset to one.
Artifacts are CSV files with 17-significant-digit values and a
``summary.json`` run record; failures produce a mapped exit code (2
validation, 3 numerical), one log line and, for ``bse run``, a one-line
``error.json``.
"""

import argparse
import json
import logging
import os
import platform
import resource
import sys
import time

log = logging.getLogger("bse.cli")

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}.get(
        os.environ.get("BSE_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _write_csv(path, header, *columns):
    from .mesh import table

    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(table(*columns, sep=","))


def _fail(exc, outdir=None):
    """Report a failed command and return its exit code.

    A ``BseError`` keeps its own kind and exit code; any other exception is
    an ``internal-error`` (exit 3), its traceback logged at debug level.  The
    failure is logged in one line and, for a run with an output directory,
    recorded in ``error.json`` there.
    """
    kind = getattr(exc, "kind", None)
    message = str(exc)
    if kind is None:  # not a BseError
        log.debug("internal error", exc_info=True)
        kind, message = "internal-error", f"{type(exc).__name__}: {exc}"
    if outdir is not None:
        try:
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, "error.json"), "w", encoding="ascii") as fh:
                fh.write(json.dumps({"kind": kind, "message": message}) + "\n")
        except OSError:
            pass
    log.error("%s: %s", kind, message)
    return getattr(exc, "exit_code", 3)


def eoc(errors, hs):
    """Estimated orders of convergence from successive (error, h) pairs."""
    from .errors import InvalidArgumentError
    import math

    if len(errors) != len(hs) or len(errors) < 2:
        raise InvalidArgumentError("need equally many errors and mesh sizes, at least two")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise InvalidArgumentError("mesh sizes must be strictly decreasing")
    if any(e <= 0 for e in errors):
        raise InvalidArgumentError("errors must be strictly positive")
    return [math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i])
            for i in range(1, len(errors))]


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

TASKS = ("solve2", "solve4", "eig2", "eig4", "oracle", "convergence", "poincare")

# A fault of the run itself raises one of the built-in exception families
# (numpy's LinAlgError and SciPy's ArpackError among them) and becomes an
# internal-error.  An exception class of the calling program's own, such as
# a time budget raised from a signal handler, is not a fault of the run and
# propagates.
_INTERNAL_ERRORS = (ArithmeticError, AssertionError, AttributeError, ImportError,
                    LookupError, MemoryError, NameError, OSError, RuntimeError,
                    TypeError, ValueError, Warning)


def _load_config(path):
    from .errors import InvalidArgumentError, ParseError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config must be a JSON object")
    task = raw.get("task")
    if task not in TASKS:
        raise InvalidArgumentError(f"task must be one of {TASKS}, got {task!r}")
    return raw


def _section(cfg, name):
    """The config object ``cfg[name]`` ({} when absent)."""
    from .errors import InvalidArgumentError

    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise InvalidArgumentError(f"{name} must be a JSON object, got {sec!r}")
    return sec


def _value(sec, name, key, default, kind):
    """``sec[key]`` (``default`` when absent) as ``kind``: a JSON integer for
    int, a finite JSON number for float, a JSON string for str.  Anything
    else, a boolean included, is a validation error naming ``name.key``."""
    from .errors import InvalidArgumentError

    value = sec.get(key, default)
    if kind in (int, str) and type(value) is kind:
        return value
    # compared exactly: NaN, infinities and integers beyond the float range fail
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    expected = {int: "an integer", float: "a finite number", str: "a string"}[kind]
    raise InvalidArgumentError(f"{name}.{key} must be {expected}, got {value!r}")


def _build_mesh(geo):
    from . import mesh as meshmod
    from .errors import InvalidArgumentError

    gtype = geo.get("type", "disk")
    if gtype == "disk":
        return meshmod.generate_disk(_value(geo, "geometry", "n_boundary", 64, int),
                                     _value(geo, "geometry", "refine", 0, int))
    if gtype == "square":
        return meshmod.generate_square(_value(geo, "geometry", "n_per_side", 16, int))
    if gtype == "file":
        path = geo.get("path")
        if not isinstance(path, str):
            raise InvalidArgumentError(f"geometry.type 'file' requires a string geometry.path, "
                                       f"got {path!r}")
        try:
            return meshmod.read_mesh(path)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read mesh file: {exc}") from None
    raise InvalidArgumentError(f"unknown geometry type {gtype!r}")


def _build_params(raw):
    from .assembly import ProblemParams

    p = _section(raw, "params")
    return ProblemParams(**{key: _value(p, "params", key, 1.0, float)
                            for key in ("K", "L", "alpha", "beta", "gamma")})


def _nodal_sources(cfg, mesh):
    from . import expr
    from .errors import InvalidArgumentError

    sources = _section(cfg, "sources")
    if "f" not in sources or "g" not in sources:
        raise InvalidArgumentError("solve tasks need sources.f and sources.g expressions")
    f_ast, g_ast = (expr.parse(_value(sources, "sources", k, None, str)) for k in ("f", "g"))
    f = expr.eval_on_points(f_ast, mesh.vertices)
    g = expr.eval_on_points(g_ast, mesh.vertices[mesh.surface_nodes])
    strict = sources.get("strict_compat", True)
    if not isinstance(strict, bool):
        raise InvalidArgumentError(f"sources.strict_compat must be true or false, got {strict!r}")
    return f, g, strict


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------

def _task_solve(cfg, msh, params, outdir, fourth):
    import numpy as np

    from .solver import solve_fourth, solve_second

    f, g, strict = _nodal_sources(cfg, msh)
    t0 = time.perf_counter()
    solve = solve_fourth if fourth else solve_second
    report = solve(msh, params, f, g, strict=strict)
    elapsed = time.perf_counter() - t0

    u = report.field.u
    v = report.field.v
    t0 = time.perf_counter()
    _write_csv(os.path.join(outdir, "solution.csv"), ("node", "x", "y", "u"),
               np.arange(msh.n_vertices), *msh.vertices.T, u)
    _write_csv(os.path.join(outdir, "surface.csv"), ("s", "v"), msh.surface_arclength(), v)
    written = time.perf_counter() - t0
    summary = {
        "defect_compat_pre": report.defect_compat,
        "defect_compat_post": report.defect_compat_post,
        "defect_mean": report.defect_mean,
        "residual": report.residual,
        "backward_error": report.backward_error,
        "iterations": report.iterations,
        "method": report.method,
        "counts": report.counts,
        "norm_u_max": float(np.max(np.abs(u))),
        "norm_v_max": float(np.max(np.abs(v))),
        "seconds": elapsed,
        "write_seconds": written,
    }
    if report.intermediate is not None:
        summary["intermediate_norm_max"] = float(
            max(np.max(np.abs(report.intermediate.u)), np.max(np.abs(report.intermediate.v))))
    return summary


def _task_eig(cfg, msh, params, outdir, fourth):
    from .eigen import eig_fourth, eig_second

    k = _value(_section(cfg, "eig"), "eig", "k", 8, int)
    t0 = time.perf_counter()
    res = eig_fourth(msh, params, k) if fourth else eig_second(msh, params, k)
    elapsed = time.perf_counter() - t0
    _write_csv(os.path.join(outdir, "eigenvalues.csv"),
               ("index", "lambda", "residual", "multiplicity"),
               range(len(res.eigenvalues)), res.eigenvalues, res.residuals, res.multiplicities)
    written = time.perf_counter() - t0 - elapsed
    return {
        "k": k,
        "lambda_min": float(res.eigenvalues[0]),
        "lambda_max": float(res.eigenvalues[-1]),
        "max_residual": float(res.residuals.max()),
        "gram_defect": res.gram_defect,
        "method": res.method,
        "op_applications": res.op_applications,
        "counts": res.counts,
        "seconds": elapsed,
        "write_seconds": written,
    }


def _task_oracle(cfg, params, outdir):
    from .oracle import disk_eigs_second

    ocfg = _section(cfg, "oracle")
    m_max = _value(ocfg, "oracle", "m_max", 8, int)
    lam_max = _value(ocfg, "oracle", "lambda_max", 60.0, float)
    roots = disk_eigs_second(params.K, params.alpha, params.gamma, m_max, lam_max)
    _write_roots(os.path.join(outdir, "oracle_roots.csv"), roots)
    return {"n_roots": len(roots), "m_max": m_max, "lambda_max": lam_max}


def _write_roots(path, roots):
    _write_csv(path, ("m", "lambda", "multiplicity"),
               [r.m for r in roots], [r.lam for r in roots], [r.multiplicity for r in roots])


def _task_convergence(cfg, params, outdir):
    import numpy as np

    from . import expr
    from .assembly import CoupledField
    from .errors import InvalidArgumentError
    from .mesh import generate_disk, max_edge_length, table
    from .oracle import manufactured_second
    from .solver import inner_h0, solve_second

    geo = _section(cfg, "geometry")
    if geo.get("type", "disk") != "disk":
        raise InvalidArgumentError("convergence task runs on the disk geometry")
    n_boundary = _value(geo, "geometry", "n_boundary", 16, int)
    max_refine = _value(geo, "geometry", "refine", 3, int)
    if max_refine < 1:  # an order of convergence needs two levels
        raise InvalidArgumentError(f"geometry.refine must be >= 1 for the convergence task, got {max_refine}")
    manufactured = manufactured_second(params.K, params.alpha, params.beta)
    u_ast = expr.parse(manufactured.u_expr)

    levels = [generate_disk(n_boundary, max_refine)]  # the finest, then its parents
    while levels[-1].parent is not None:
        levels.append(levels[-1].parent)
    hs, e_l2, e_en = [], [], []
    timings = []
    for msh in reversed(levels):
        t0 = time.perf_counter()
        f = np.full(msh.n_vertices, manufactured.f_value())
        g = np.full(msh.n_surface, manufactured.g_value())
        report = solve_second(msh, params, f, g, strict=False)
        u_exact = expr.eval_on_points(u_ast, msh.vertices)
        v_exact = np.full(msh.n_surface, manufactured.v_value)
        diff = CoupledField(report.field.u - u_exact, report.field.v - v_exact)
        hs.append(max_edge_length(msh))
        e_l2.append(np.sqrt(max(inner_h0(report.forms, diff, diff), 0.0)))
        d = diff.to_vector()  # the energy norm of solver.norm_ka, on the solve's own matrix
        e_en.append(float(np.sqrt(max(float(d @ (report.energy @ d)), 0.0))))
        timings.append(time.perf_counter() - t0)

    eoc_l2 = eoc(e_l2, hs)
    eoc_en = eoc(e_en, hs)
    with open(os.path.join(outdir, "convergence.csv"), "w", encoding="ascii", newline="\n") as fh:
        # the first level has no EOC: its two cells stay blank
        fh.write("h,error_L2,error_energy,eoc_L2,eoc_energy\n"
                 "%.17g,%.17g,%.17g,,\n" % (hs[0], e_l2[0], e_en[0]))
        fh.writelines(table(hs[1:], e_l2[1:], e_en[1:], eoc_l2, eoc_en, sep=","))
    return {
        "levels": max_refine + 1,
        "eoc_L2": eoc_l2,
        "eoc_energy": eoc_en,
        "errors_L2": [float(e) for e in e_l2],
        "errors_energy": [float(e) for e in e_en],
        "seconds_per_level": timings,
    }


def _task_poincare(msh, params):
    from .eigen import poincare_constant

    t0 = time.perf_counter()
    c, res = poincare_constant(msh, params, return_result=True)
    return {"poincare_constant": c, "method": res.method, "op_applications": res.op_applications,
            "counts": res.counts, "seconds": time.perf_counter() - t0}


def run(config_path, outdir=None) -> int:
    """Execute one config; returns the process exit code.

    A ``BseError`` or any other fault of the run (``_INTERNAL_ERRORS``)
    is reported by ``_fail``.
    """
    from .errors import BseError, InvalidArgumentError

    out = outdir or "bse-out"
    try:
        cfg = _load_config(config_path)
        chosen = outdir or _section(cfg, "output").get("dir", "bse-out")
        if not isinstance(chosen, (str, os.PathLike)):
            raise InvalidArgumentError(f"output.dir must be a string, got {chosen!r}")
        out = chosen
        os.makedirs(out, exist_ok=True)
        task = cfg["task"]
        params = _build_params(cfg)
        summary = {
            "task": task,
            "params": {"K": params.K, "L": params.L, "alpha": params.alpha,
                       "beta": params.beta, "gamma": params.gamma},
        }
        if task in ("solve2", "solve4", "eig2", "eig4", "poincare"):
            msh = _build_mesh(_section(cfg, "geometry"))
            from .assembly import check_mean_pairing
            from .mesh import measures

            mm = measures(msh)
            summary["geometry"] = {"n_vertices": msh.n_vertices, "n_surface": msh.n_surface,
                                   "area": mm.area, "perimeter": mm.perimeter}
            # eig2 never builds the beta-mean constraint the other tasks check
            check_mean_pairing(params.alpha, params.beta, mm)
        if task == "solve2":
            summary.update(_task_solve(cfg, msh, params, out, fourth=False))
        elif task == "solve4":
            summary.update(_task_solve(cfg, msh, params, out, fourth=True))
        elif task == "eig2":
            summary.update(_task_eig(cfg, msh, params, out, fourth=False))
        elif task == "eig4":
            summary.update(_task_eig(cfg, msh, params, out, fourth=True))
        elif task == "oracle":
            summary.update(_task_oracle(cfg, params, out))
        elif task == "convergence":
            summary.update(_task_convergence(cfg, params, out))
        elif task == "poincare":
            summary.update(_task_poincare(msh, params))
        import numpy
        import scipy

        summary["versions"] = {"python": platform.python_version(),
                               "numpy": numpy.__version__, "scipy": scipy.__version__}
        blas = os.environ.get("OPENBLAS_NUM_THREADS", "")
        summary["blas_threads"] = int(blas) if blas.isdigit() else None
        # ru_maxrss is in KiB on Linux, in bytes on macOS
        summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / (1024 ** 2 if sys.platform == "darwin" else 1024))
        with open(os.path.join(out, "summary.json"), "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    except (BseError,) + _INTERNAL_ERRORS as exc:  # the run boundary: never a traceback
        return _fail(exc, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bse",
                                     description="coupled bulk-surface elliptic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--threads", type=int, default=None)

    p_mesh = sub.add_parser("mesh", help="generate a mesh file")
    p_mesh.add_argument("--geometry", choices=("disk", "square"), default="disk")
    p_mesh.add_argument("--n", type=int, required=True,
                        help="boundary segments (disk) or cells per side (square)")
    p_mesh.add_argument("--refine", type=int, default=0)
    p_mesh.add_argument("--out", required=True)

    p_oracle = sub.add_parser("oracle", help="disk dispersion roots to CSV")
    p_oracle.add_argument("--K", type=float, default=1.0)
    p_oracle.add_argument("--alpha", type=float, default=1.0)
    p_oracle.add_argument("--gamma", type=float, default=1.0)
    p_oracle.add_argument("--mmax", type=int, default=8)
    p_oracle.add_argument("--lmax", type=float, default=60.0)
    p_oracle.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":  # ARPACK ran 2-3x slower with two BLAS threads than with one
        if args.threads is not None and args.threads < 1:
            p_run.error(f"argument --threads: must be >= 1, got {args.threads}")
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads) if args.threads else os.environ.get(var, "1")
    _setup_logging()

    from .errors import BseError

    if args.command == "run":
        return run(args.config, outdir=args.out)
    try:
        if args.command == "mesh":
            from . import mesh as meshmod

            if args.geometry == "disk":
                msh = meshmod.generate_disk(args.n, args.refine)
            else:
                msh = meshmod.generate_square(args.n)
            meshmod.write_mesh(msh, args.out)
        else:
            from .oracle import disk_eigs_second

            _write_roots(args.out, disk_eigs_second(args.K, args.alpha, args.gamma,
                                                    args.mmax, args.lmax))
    except (BseError,) + _INTERNAL_ERRORS as exc:  # no run directory: no error.json
        return _fail(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
