"""Timing of the weyl route, a coupling inversion or a scattering sweep on
one large graph.

    python3 tools/scaling.py
    python3 tools/scaling.py --base HEAD~1
    python3 tools/scaling.py --mode invert --n 400 --base HEAD~1
    python3 tools/scaling.py --mode smatrix --base HEAD~1

--mode spectrum (the default) times ``compact_spectrum(mode="weyl")`` on
the graph ``family_graph(random.Random(n), n)`` of perfbench/inputs.py
(n = 200 by default) up to z = Z_MAX = 100.  --mode invert times
``invert_couplings`` with the forward oracle, on the ladder that starts
at ``ladder_tau0``, on ``family_graph(random.Random(n), n, n_leads=1)``.
--mode smatrix times a ``sigma_sweep`` of S_POINTS energies evenly spaced
on S_RANGE on ``family_graph(random.Random(n), n, n_leads=leads)``, with
the graph's couplings, once for each lead count of SMATRIX_LEADS.  Each
runs with one BLAS thread, in a fresh process per tree: this
checkout's working tree and, with --base, the tree of that revision,
extracted with ``git archive`` into tools/.bench-work/base as
tools/bench_pair.py extracts it.  Both trees run the graph generator of
this checkout.

Writes BENCH_spectrum-<n>.json or BENCH_invert-<n>.json at the root of
the checkout: per side the revision and git tree (recorded as
tools/bench_pair.py records them) and the wall time of the call, and the
environment.  A spectrum record adds the number of eigenvalues counted
with multiplicity and the energies at which the count was evaluated, in
all and per eigenvalue; with --base, whether the two sides list the same
multiplicities and the largest relative change of an eigenvalue between
them.  An invert record adds the largest error of a recovered coupling;
with --base, the largest change of a recovered coupling between the
sides.  A smatrix record adds, per lead count, the time, the worst
unitarity defect and the skipped energies with their reasons; with
--base, whether the two sides skip the same energies and the largest
change of an entry between them.
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
S_RANGE, S_POINTS = (0.3, 30.0), 90
SMATRIX_LEADS = (2, 10)
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


def measure_invert(n: int) -> dict:
    """Time the forward-oracle inversion of the qgs on sys.path on the
    n-vertex, one-lead family graph; the recovered couplings in vertex
    order come with it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import random

    import inputs
    from qgs import (CouplingMatrix, forward_f1_oracle, invert_couplings,
                     ladder_tau0, parse_graph)

    graph = parse_graph(json.dumps(
        inputs.family_graph(random.Random(n), n, n_leads=1)))
    kappa = CouplingMatrix.from_graph(graph)
    start = time.perf_counter()
    recovered, _ = invert_couplings(graph, forward_f1_oracle(graph, kappa),
                                    tau0=ladder_tau0(graph))
    wall = time.perf_counter() - start
    couplings = [recovered[v] for v in graph.vertex_ids()]
    return {"wall_s": wall,
            "max_coupling_error": max(abs(a - b) for a, b in
                                      zip(couplings, kappa.diagonal)),
            "couplings": [[a.real, a.imag] for a in couplings]}


def compare_invert(base: list, change: list) -> dict:
    """The largest change of a recovered coupling between two sides."""
    return {"max_coupling_change": max(
        abs(complex(*a) - complex(*b)) for a, b in zip(base, change))}


def compare(base: list, change: list) -> dict:
    """Whether two spectra list the same multiplicities, and the largest
    relative change of an eigenvalue between them."""
    same = [m for _, m in base] == [m for _, m in change]
    worst = max((abs(a - b) / max(abs(a), abs(b))
                 for (a, _), (b, _) in zip(base, change) if a != b),
                default=0.0)
    return {"same_multiplicities": same,
            "max_rel_change": worst if same else None}


def measure_smatrix(n: int) -> dict:
    """Time a sweep of the qgs on sys.path on the n-vertex family graph
    with each lead count of SMATRIX_LEADS; per lead count, the entries of
    each answered energy as [s, re and im parts] come with it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import random

    import inputs
    import numpy as np
    from qgs import CouplingMatrix, parse_graph, sigma_sweep

    grid = np.linspace(*S_RANGE, S_POINTS).tolist()
    sweeps, matrices = {}, {}
    for leads in SMATRIX_LEADS:
        graph = parse_graph(json.dumps(
            inputs.family_graph(random.Random(n), n, n_leads=leads)))
        kappa = CouplingMatrix.from_graph(graph)
        start = time.perf_counter()
        answered, skipped = sigma_sweep(graph, kappa, grid)
        wall = time.perf_counter() - start
        sweeps[str(leads)] = {
            "wall_s": wall,
            "max_unitarity_defect": max(
                (m.unitarity_defect for m in answered), default=None),
            "skipped": [[s, type(e).__name__] for s, e in skipped]}
        matrices[str(leads)] = [[m.at_s, m.entries.ravel().view(float)
                                 .tolist()] for m in answered]
    return {"wall_s": sum(s["wall_s"] for s in sweeps.values()),
            "sweeps": sweeps, "matrices": matrices}


def compare_smatrix(base: dict, change: dict) -> dict:
    """Whether two sides answer the same energies, and the largest change
    of an entry's real or imaginary part between them."""
    same = {leads: [s for s, _ in base[leads]] == [s for s, _ in change[leads]]
            for leads in base}
    worst = max((abs(a - b) for leads in base
                 for (_, x), (_, y) in zip(base[leads], change[leads])
                 for a, b in zip(x, y)), default=0.0)
    return {"same_energies": all(same.values()),
            "max_entry_change": worst if all(same.values()) else None}


MODES = {"spectrum": (measure, "spectrum", compare),
         "invert": (measure_invert, "couplings", compare_invert),
         "smatrix": (measure_smatrix, "matrices", compare_smatrix)}


def run_side(tree: str, n: int, mode: str) -> dict:
    """The mode's measure in a fresh process that imports qgs from
    tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINS)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure",
         "--mode", mode, "--n", str(n)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _side_line(mode: str, side: str, s: dict) -> str:
    """One side's line of a report."""
    if mode == "spectrum":
        return (f"{side:6s} {s['eigenvalues']} eigenvalues in "
                f"{s['wall_s']:.2f} s, {s['evaluations_per_root']:.1f} "
                f"evaluations per eigenvalue")
    if mode == "invert":
        return (f"{side:6s} inverted in {s['wall_s']:.3f} s, max coupling "
                f"error {s['max_coupling_error']:.2g}")
    return f"{side:6s} " + "; ".join(
        f"{leads} leads swept in {w['wall_s']:.3f} s, worst unitarity "
        f"defect {w['max_unitarity_defect'] or 0.0:.2g}, "
        f"{len(w['skipped'])} skipped" for leads, w in s["sweeps"].items())


def _summary(mode: str, sides: dict) -> list[str]:
    """The lines printed for a report."""
    lines = [_side_line(mode, side, sides[side])
             for side in ("base", "change") if side in sides]
    if "compare" in sides:
        c = sides["compare"]
        lines.append(
            f"same multiplicities: {c['same_multiplicities']}, max rel "
            f"change {c['max_rel_change']}" if mode == "spectrum" else
            f"max coupling change {c['max_coupling_change']:.2g}"
            if mode == "invert" else
            f"same energies: {c['same_energies']}, max entry change "
            f"{c['max_entry_change']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--mode", choices=sorted(MODES), default="spectrum")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--base", help="also time this revision")
    p.add_argument("--measure", action="store_true",
                   help=argparse.SUPPRESS)   # child: print one JSON line
    args = p.parse_args(argv)
    measure_mode, answer, compare_mode = MODES[args.mode]
    if args.measure:
        print(json.dumps(measure_mode(args.n)))
        return 0

    bench_pair = _bench_pair()
    sides = {"change": {"rev": bench_pair.git("rev-parse", "HEAD"),
                        "tree": bench_pair.worktree_tree(ROOT),
                        **run_side(ROOT, args.n, args.mode)}}
    if args.base:
        base_tree = os.path.join(WORK, "base")
        bench_pair.extract(args.base, base_tree)
        try:
            sides["base"] = {
                "rev": bench_pair.git("rev-parse", args.base),
                "tree": bench_pair.git("rev-parse", f"{args.base}^{{tree}}"),
                **run_side(base_tree, args.n, args.mode)}
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        sides["compare"] = compare_mode(sides["base"].pop(answer),
                                        sides["change"][answer])
    del sides["change"][answer]
    graph = f"family_graph(random.Random({args.n}), {args.n}"
    if args.mode == "spectrum":
        report = {"graph": graph + ")", "z_max": Z_MAX}
    elif args.mode == "invert":
        report = {"graph": graph + ", n_leads=1)"}
    else:
        report = {"graph": graph + ", n_leads=leads)",
                  "leads": list(SMATRIX_LEADS), "s_range": list(S_RANGE),
                  "s_points": S_POINTS}
    report.update(n=args.n, environment=bench_pair.environment(),
                  finished=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()), **sides)
    out = os.path.join(OUT_DIR, f"BENCH_{args.mode}-{args.n}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\n".join(_summary(args.mode, sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
