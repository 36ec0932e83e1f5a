"""Timing of the weyl route on one large graph.

    python3 tools/scaling.py
    python3 tools/scaling.py --base HEAD~1

Times ``compact_spectrum(mode="weyl")`` on the graph
``family_graph(random.Random(n), n)`` of perfbench/inputs.py (n = 200 by
default) up to z = Z_MAX = 100, with one BLAS thread, in a fresh process
per tree: this checkout's working tree and, with --base, the tree of that
revision, extracted with ``git archive`` into tools/.bench-work/base as
tools/bench_pair.py extracts it.  Both trees run the graph generator of
this checkout.

Writes BENCH_spectrum-<n>.json at the root of the checkout: per side the
revision and git tree (recorded as tools/bench_pair.py records them), the
number of eigenvalues counted with multiplicity, the wall time of the
call, and the energies at which the count was evaluated, in all and per
eigenvalue; with --base, whether the two sides list the same
multiplicities and the largest relative change of an eigenvalue between
them; and the environment.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "tools", ".bench-work")
OUT_DIR = ROOT
Z_MAX = 100.0
PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _bench_pair():
    path = os.path.join(ROOT, "tools", "bench_pair.py")
    spec = importlib.util.spec_from_file_location("bench_pair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(n: int) -> dict:
    """Time the weyl route of the qgs on sys.path on the n-vertex family
    graph to Z_MAX, counting the energies _eigen_counts evaluates; the
    spectrum as [z, multiplicity] pairs comes with it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import random

    import inputs
    from qgs import CouplingMatrix, compact_spectrum, parse_graph, spectra

    graph = parse_graph(json.dumps(inputs.family_graph(random.Random(n), n)))
    kappa = CouplingMatrix.from_graph(graph)
    evaluations = 0
    eigen_counts = spectra._eigen_counts

    def counting(graph, kappa, t):
        nonlocal evaluations
        evaluations += len(t)
        return eigen_counts(graph, kappa, t)

    spectra._eigen_counts = counting
    try:
        start = time.perf_counter()
        eigs = compact_spectrum(graph, kappa, Z_MAX, "weyl")
        wall = time.perf_counter() - start
    finally:
        spectra._eigen_counts = eigen_counts
    count = sum(e.multiplicity for e in eigs)
    return {"eigenvalues": count, "distinct": len(eigs), "wall_s": wall,
            "evaluations": evaluations,
            "evaluations_per_root": evaluations / max(count, 1),
            "spectrum": [[e.z, e.multiplicity] for e in eigs]}


def compare(base: list, change: list) -> dict:
    """Whether two spectra list the same multiplicities, and the largest
    relative change of an eigenvalue between them."""
    same = [m for _, m in base] == [m for _, m in change]
    worst = max((abs(a - b) / max(abs(a), abs(b))
                 for (a, _), (b, _) in zip(base, change) if a != b),
                default=0.0)
    return {"same_multiplicities": same,
            "max_rel_change": worst if same else None}


def run_side(tree: str, n: int) -> dict:
    """measure() in a fresh process that imports qgs from tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINS)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure",
         "--n", str(n)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--base", help="also time this revision")
    p.add_argument("--measure", action="store_true",
                   help=argparse.SUPPRESS)   # child: print one JSON line
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.n)))
        return 0

    bench_pair = _bench_pair()
    sides = {"change": {"rev": bench_pair.git("rev-parse", "HEAD"),
                        "tree": bench_pair.worktree_tree(ROOT),
                        **run_side(ROOT, args.n)}}
    if args.base:
        base_tree = os.path.join(WORK, "base")
        bench_pair.extract(args.base, base_tree)
        try:
            sides["base"] = {
                "rev": bench_pair.git("rev-parse", args.base),
                "tree": bench_pair.git("rev-parse", f"{args.base}^{{tree}}"),
                **run_side(base_tree, args.n)}
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        sides["compare"] = compare(sides["base"].pop("spectrum"),
                                   sides["change"]["spectrum"])
    del sides["change"]["spectrum"]
    report = {"graph": f"family_graph(random.Random({args.n}), {args.n})",
              "n": args.n, "z_max": Z_MAX,
              "environment": bench_pair.environment(),
              "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              **sides}
    out = os.path.join(OUT_DIR, f"BENCH_spectrum-{args.n}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for side in ("base", "change"):
        if side in sides:
            s = sides[side]
            print(f"{side:6s} {s['eigenvalues']} eigenvalues in "
                  f"{s['wall_s']:.2f} s, {s['evaluations_per_root']:.1f} "
                  f"evaluations per eigenvalue")
    if args.base:
        print(f"same multiplicities: {sides['compare']['same_multiplicities']}"
              f", max rel change {sides['compare']['max_rel_change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
