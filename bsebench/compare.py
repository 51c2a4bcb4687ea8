"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bsebench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records appended by ``run.py --out`` (one JSON object
per line, any number of runs and workloads).  Every (end-to-end metric,
workload) pair is reported as

  worse       AFTER's median is worse than BEFORE's by more than the bound;
  better      AFTER's median is better by more than BEFORE's own spread and
              nine in ten AFTER runs beat BEFORE's median (by more than the
              bound when a side has fewer than 3 runs);
  unchanged   neither, with both spreads within the bound;
  unresolved  a spread exceeds the bound and the runs of the two sides
              overlap, or a side has too few runs to tell.

The spread is the interquartile range over the median.  Per-layer metrics
from traced runs are listed with their ratio only, since they have no
bound.  Exits with status 1 when any pair is worse.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 3


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_pair(records):
    """{(workload, metric): [values]} plus {workload: (failed, attempted)}."""
    values = defaultdict(list)
    fails = defaultdict(lambda: [0, 0])
    for rec in records:
        res = rec["result"]
        for name, m in res["metrics"].items():
            values[(rec["workload"], name)].append(float(m["value"]))
        if not rec["trace"]:
            fails[rec["workload"]][0] += res["failed"]
            fails[rec["workload"]][1] += res["attempted"]
    return values, fails


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(before, after, bound, lower_better):
    """Classify AFTER against BEFORE for one metric on one workload."""
    mb, ma = statistics.median(before), statistics.median(after)
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (ma - mb) / abs(mb) if mb else sign * (ma - mb) * float("inf")
    sb, sa = spread(before), spread(after)

    def wins(x, y):  # x better than y
        return sign * (x - y) < 0

    if min(len(before), len(after)) < MIN_RUNS:
        if worse_by > bound:
            return "worse"
        if -worse_by > bound:
            return "better"
        return "unresolved"
    if max(sb, sa) > bound:
        if all(wins(a, b) for a in after for b in before):
            return "better"
        if all(wins(b, a) for a in after for b in before):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > sb and sum(wins(a, mb) for a in after) >= 0.9 * len(after):
        return "better"
    return "unchanged"


def compare(before_records, after_records, spec):
    """Rows (workload, metric, unit, before median, after median, change, verdict)."""
    vb, fb = by_pair(before_records)
    va, fa = by_pair(after_records)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    for (workload, name) in sorted(set(vb) & set(va)):
        meta = e2e.get(name) or layer.get(name)
        if meta is None:
            continue
        b, a = vb[(workload, name)], va[(workload, name)]
        mb, ma = statistics.median(b), statistics.median(a)
        change = (ma - mb) / abs(mb) if mb else float("nan")
        if name in e2e:
            v = verdict(b, a, meta["bound"], meta["better"] == "lower")
        else:
            v = "-"
        rows.append((workload, name, meta["unit"], mb, ma, change, v))
    return rows, fb, fa


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, fb, fa = compare(load_records(argv[0]), load_records(argv[1]), spec)
    print(f"{'workload':<10} {'metric':<36} {'unit':<14} {'before':>12} {'after':>12} "
          f"{'change':>8}  verdict")
    for workload, name, unit, mb, ma, change, v in rows:
        print(f"{workload:<10} {name:<36} {unit:<14} {mb:>12.5g} {ma:>12.5g} "
              f"{change:>+8.1%}  {v}")
    for workload in sorted(set(fb) | set(fa)):
        (f1, n1), (f2, n2) = fb.get(workload, (0, 0)), fa.get(workload, (0, 0))
        print(f"{workload:<10} failed ops: before {f1}/{n1}, after {f2}/{n2}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
