"""Benchmark of the bse toolkit: whole `bse run` tasks, library solves, and a
traced per-module replay.

Run from the repository root:

    python3 bsebench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One process, one caller in a closed loop: each workload is a seeded list
of operations (see ops.py) run back to back, in whole passes, until
``--seconds`` have elapsed (at least one pass).  Within a pass, short ops
run again in later rounds and are timed by their median run (see
ops.REPEAT_S); a time metric sums its ops' times in a pass and takes the
median over passes.  ``--trace 0`` prints the end-to-end metrics (set-up time, wall time of
the op list, peak RSS); ``--trace 1`` runs one pass, prints the time of
each op kind, then replays every op through each module's public
functions with a span per call and prints per-layer metrics.  The last line of
standard output is the result JSON; the line before it records the
environment.  ``--out FILE`` appends both, with the per-op log, as one
JSON line to FILE (``compare.py`` reads such files).

bse is imported from ``src/`` next to this directory.  BLAS thread pools
are pinned before numpy loads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 1
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = ("import numpy, scipy.sparse, scipy.linalg, scipy.spatial\n"
              "import bse\n"
              "from bse import cli, mesh, expr, assembly, linalg, solver, eigen, oracle\n"
              "bse.kernel_backend()\n")

LAYER_TIMES = (
    "mesh.generate_disk", "mesh.validate", "mesh.write", "expr.eval_on_points",
    "assembly.assemble_basic", "assembly.assemble_coupled", "assembly.build_constraints",
    "assembly.assemble_load", "linalg.solve_constrained", "linalg.factorize",
    "solver.solve_second", "solver.solve_fourth", "solver.inner_dual",
    "eigen.eig_second", "eigen.eig_fourth", "eigen.poincare_constant",
    "eigen.norm_equivalence_constants", "oracle.disk_eigs_second",
    "kernels.tri_entries", "kernels.csr_matvec", "kernels.bessel_j_raw",
)
LAYER_COUNTS = {
    "assembly.nnz": "count", "linalg.cg_iterations": "count",
    "linalg.dense_fallbacks": "count", "linalg.timeouts": "count",
    "linalg.matvec_flops": "flop-computed", "linalg.matvec_bytes": "byte-computed",
    "oracle.n_roots": "count",
}


def pin_threads():
    """Pin the BLAS/OpenMP pools to BLAS_THREADS (at most nproc); numpy must
    not be imported yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread pools must be pinned before numpy is imported")
    n = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(n)
    return n


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(threads):
    import numpy
    import scipy

    import bse

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": bse.kernel_backend(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing bse, numpy and scipy."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def op_metrics(records):
    """Seconds charged to each op kind in one pass, and the values the gates
    measured (0 where the workload has no such op)."""
    import ops

    out = {f"{kind}_s": {"value": sum(r.seconds for r in records if r.kind == kind), "unit": "s"}
           for kind in ops.KINDS}
    for key, unit in (("eig2_oracle_relerr", "ratio"), ("mms_l2_err", "L2")):
        vals = [r.values[key] for r in records if key in r.values]
        out[key] = {"value": max(vals, default=0.0), "unit": unit}
    return out


def end_to_end(passes, setup_s):
    """Set-up time, the op list's wall time (median over passes) and peak RSS."""
    wall = statistics.median(sum(r.seconds for r in p) for p in passes)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(tracer, replays, records, workload):
    """Per-kind op times, self time per layer span, counts, cli self time and
    tracing overhead.

    cli.self_s: for each op run through ``bse run``/``bse mesh``, its untraced
    time minus the replay's layer spans (config parsing, CSV formatting and
    writing).  trace.overhead_s: what the spans add to the traced run, the
    number of spans times the cost of one empty span, timed directly rather
    than as the difference of two separate executions."""
    import ops
    import tracing

    self_t = tracer.self_times()
    metrics = op_metrics(records)
    metrics.update({f"{name}_s": {"value": self_t.get(name, 0.0), "unit": "s"}
                    for name in LAYER_TIMES})
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    cli_self = 0.0
    for op, rec, status in zip(workload.ops, records, replays):
        if op.via != "cli" or not rec.ok or status != "ok":
            continue
        layers = sum(s["end"] - s["start"] for s in tracer.op_spans(rec.index)
                     if s["name"] not in ops.EXTRA_SPANS)
        cli_self += rec.measured - layers
    metrics["cli.self_s"] = {"value": cli_self, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": len(tracer.spans) * tracing.span_cost(),
                                   "unit": "s"}
    failed = sum(not r.ok for r in records)
    metrics["fail_ratio"] = {"value": failed / len(records), "unit": "ratio"}
    return metrics


def summarize(records):
    """correct: no gate failed; failed: ops that timed out, raised or failed a gate."""
    return {"correct": not any(r.status == "gate" for r in records),
            "attempted": len(records),
            "failed": sum(not r.ok for r in records)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bse", "__init__.py")):
        print(f"bsebench: no bse sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    os.environ["BSE_LOG"] = "quiet"
    sys.path.insert(0, SRC)

    import bse
    import ops
    import tracing

    if not os.path.abspath(bse.__file__).startswith(SRC + os.sep):
        print(f"bsebench: imported bse from {bse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in ops.WORKLOADS:
        print(f"bsebench: workload must be one of {ops.WORKLOADS}", file=sys.stderr)
        return 2

    env = environment(threads)
    print(json.dumps({"env": env}, sort_keys=True), flush=True)
    workload = ops.build(args.workload, args.seed)
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s = measure_setup() if not args.trace else None
        import numpy as np

        warm = ops.Runner(workdir, ops.warmup_workload(np.random.default_rng(args.seed)))
        warm.new_pass()
        for rec in warm.run_pass(warm.workload.ops):
            if not rec.ok:
                print(f"bsebench: warm-up {rec.label} {rec.status}: {rec.detail}", file=sys.stderr)

        runner = ops.Runner(workdir, workload)
        tracer = tracing.Tracer() if args.trace else None
        passes, replays = [], []
        t_start = time.perf_counter()
        while True:
            runner.new_pass()
            records = runner.run_pass(workload.ops)
            for rec in records:
                print(f"  {rec.label:<48} {rec.status:<7} {rec.measured:9.3f} s x{rec.runs} "
                      f"{rec.detail[:120]}", file=sys.stderr, flush=True)
            if tracer is not None:
                replays = [runner.replay(op, i, tracer) for i, op in enumerate(workload.ops)]
            passes.append(records)
            if tracer is not None or time.perf_counter() - t_start >= args.seconds:
                break
        if tracer is not None:
            ops.kernel_probes(tracer)
            metrics = per_layer(tracer, replays, passes[0], workload)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        else:
            metrics = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_records = [r for p in passes for r in p]
    result = dict(summarize(all_records), metrics=metrics)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "passes": len(passes), "env": env, "result": result,
                  "ops": [vars(r) for r in all_records]}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
