"""sha256 of every artifact of a fixed set of ``bse`` runs from one source tree.

    python tools/artifact_hashes.py TREE OUT.json

Runs ``bse run --threads 1`` with ``PYTHONPATH=TREE/src`` for each task of
TASKS on the n_boundary = 64 disk at refine 1-3, with K in {0, 1}, L in
{1, 2} and beta in {1, 0.5} (alpha 1.5, gamma 0.3), and at refine 4 with K
in {0, 1}, L = 1 and beta = 1; ``bse mesh`` for the disk at refine 0-5 and
the 100-cell square, and ``bse oracle`` once per K.  OUT.json maps each
artifact, ``<run>/<file>``, to its sha256; ``summary.json`` is hashed
without its timings and ``peak_rss_mb``.  The keys are sorted, one per
line, so the files of two trees compare by ``diff``.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

TASKS = ("solve2", "solve4", "eig2", "eig4", "poincare", "convergence")
REFINES, KS, LS, BETAS = (1, 2, 3), (0.0, 1.0), (1.0, 2.0), (1.0, 0.5)
CASES = (*itertools.product(TASKS, REFINES, KS, LS, BETAS),
         *itertools.product(TASKS, (4,), KS, (1.0,), (1.0,)))
MESHES = [(f"mesh-r{r}", ("--n", "64", "--refine", str(r))) for r in range(6)]
MESHES.append(("mesh-square100", ("--geometry", "square", "--n", "100")))
ALPHA, GAMMA = 1.5, 0.3
UNTIMED = ("seconds", "write_seconds", "seconds_per_level", "peak_rss_mb")


def _bse(tree, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-m", "bse.cli", *args], env=env, capture_output=True)


def _digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.json":
        summary = {k: v for k, v in json.loads(data).items() if k not in UNTIMED}
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def runs(tmp):
    """(name, bse arguments) of every run, writing under ``tmp``."""
    for task, refine, k, l, beta in CASES:
        name = f"{task}-r{refine}-K{k:g}-L{l:g}-b{beta:g}"
        cfg = {"task": task, "geometry": {"type": "disk", "n_boundary": 64, "refine": refine},
               "params": {"K": k, "L": l, "alpha": ALPHA, "beta": beta, "gamma": GAMMA},
               "sources": {"f": "cos(2*x) + y^2 - 0.3*x*y", "g": "0.5 + x",
                           "strict_compat": False},
               "eig": {"k": 8}, "output": {"dir": os.path.join(tmp, name)}}
        path = os.path.join(tmp, name + ".json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(cfg, fh)
        yield name, ("run", path, "--threads", "1")
    for name, args in MESHES:
        yield name, ("mesh", *args, "--out", os.path.join(tmp, name, "mesh.txt"))
    for k in KS:
        yield f"oracle-K{k:g}", ("oracle", "--K", str(k), "--alpha", str(ALPHA),
                                 "--gamma", str(GAMMA), "--out",
                                 os.path.join(tmp, f"oracle-K{k:g}", "roots.csv"))


def main(tree, out):
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs(tmp):
            os.makedirs(os.path.join(tmp, name), exist_ok=True)
            _bse(tree, *args)
            for file in sorted(os.listdir(os.path.join(tmp, name))):
                hashes[f"{name}/{file}"] = _digest(os.path.join(tmp, name, file))
    with open(out, "w", encoding="ascii") as fh:
        json.dump(hashes, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
