"""Run every workload and print its end-to-end metrics, gates and failed ops.

    python3 bsebench/suite.py [--seeds 1 2 3] [--trace] [--out results.jsonl]

Each run is a separate ``run.py`` process with the ``run_seconds`` of
BENCHMARK.json; the records are appended to ``--out`` (default
``.bench_out/suite.jsonl``), which ``compare.py`` takes as input.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", action="store_true", help="also run one traced pass per workload")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "suite.jsonl"))
    args = parser.parse_args(argv)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    open(args.out, "w").close()

    workloads = [w["name"] for w in spec["workloads"]]
    runs = [(w, s, 0) for w in workloads for s in args.seeds]
    if args.trace:
        runs += [(w, args.seeds[0], 1) for w in workloads]
    for workload, seed, trace in runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(trace), "--out", args.out]
        print(f"# {workload} seed={seed} trace={trace}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"run failed with exit code {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
            return 1

    with open(args.out) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    ok = True
    for workload in workloads:
        recs = [r for r in records if r["workload"] == workload]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            sub = [r for r in recs if r["trace"] == trace]
            if not sub:
                continue
            print(f"\n{workload} ({section}, {len(sub)} run(s))")
            for meta in spec[section]:
                vals = [r["result"]["metrics"][meta["name"]]["value"] for r in sub]
                print(f"  {meta['name']:<38} {statistics.median(vals):>14.6g} {meta['unit']}")
        correct = all(r["result"]["correct"] for r in recs)
        failed = [op for r in recs for op in r["ops"] if op["status"] != "ok"]
        attempted = sum(r["result"]["attempted"] for r in recs)
        ok &= correct
        print(f"  gates {'passed' if correct else 'FAILED'}; {len(failed)}/{attempted} ops failed")
        for (status, label, detail), n in Counter(
                (op["status"], op["label"], op["detail"][:100]) for op in failed).items():
            print(f"    {n}x {status:<8} {label}: {detail}")
    print(f"\nrecords: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
