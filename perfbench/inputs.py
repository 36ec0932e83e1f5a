"""Seeded inputs: the graph family, the fixed graphs and each workload's jobs.

A job is one ``qgs`` command line plus what its check needs (the graph, the
hidden couplings, the energy grid).  Everything is a pure function of the
seed, so one seed always gives the same files and the same jobs.
"""

from __future__ import annotations

import json
import math
import os
import random

from reference import response_block, safe_cutoff

HERE = os.path.dirname(os.path.abspath(__file__))
FIXED_DIR = os.path.join(HERE, "graphs")


def family_graph(rng: random.Random, n: int, n_leads: int = 2) -> dict:
    """Spanning tree plus extra edges up to about 1.5 n edges.

    About one extra edge in ten is a loop and one in ten is parallel to an
    existing edge; lengths are U[0.3, 1.7], couplings U[-2, 2].
    """
    ids = [f"v{i:03d}" for i in range(n)]
    vertices = [{"id": v, "coupling": [rng.uniform(-2.0, 2.0), 0.0]}
                for v in ids]
    edges = []
    for i in range(1, n):
        edges.append((ids[rng.randrange(i)], ids[i]))
    while len(edges) < round(1.5 * n):
        r = rng.random()
        if r < 0.1:
            v = rng.choice(ids)
            edges.append((v, v))
        elif r < 0.2:
            edges.append(rng.choice(edges[:n - 1]))
        else:
            u, v = rng.sample(ids, 2)
            edges.append((u, v))
    return {
        "vertices": vertices,
        "edges": [{"from": u, "to": v, "length": rng.uniform(0.3, 1.7)}
                  for u, v in edges],
        "leads": sorted(rng.sample(ids, min(n_leads, n))),
    }


def equilateral_graph(n: int) -> dict:
    """A cycle of n unit edges with one chord, leads on v000 and v001.

    Every edge has length 1, so s = (m pi)^2 is a pole of all of them at
    once: sweeps through those points must skip them with a reason.
    """
    ids = [f"v{i:03d}" for i in range(n)]
    edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)] + [(ids[0], ids[n // 2])]
    return {
        "vertices": [{"id": v, "coupling": [0.25 * ((i % 5) - 2), 0.0]}
                     for i, v in enumerate(ids)],
        "edges": [{"from": u, "to": v, "length": 1.0} for u, v in edges],
        "leads": [ids[0], ids[1]],
    }


def fixed_graph(name: str) -> dict:
    with open(os.path.join(FIXED_DIR, name + ".json")) as fh:
        return json.load(fh)


def coupling_list(graph: dict) -> list[float]:
    by_id = {v["id"]: v["coupling"][0] for v in graph["vertices"]}
    return [by_id[v] for v in sorted(by_id)]


def _fmt(x: float) -> str:
    return repr(float(x))


class Inputs:
    """Writes graph files under `workdir` and builds job lists from them."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.count = 0

    def save(self, graph: dict, tag: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}-{tag}.json")
        with open(path, "w") as fh:
            json.dump(graph, fh, indent=1)
        return path

    # -- spectrum ----------------------------------------------------------
    def spectrum_job(self, graph, tag, target, mode):
        path = self.save(graph, tag)
        zmax = safe_cutoff(graph, target)
        return {"kind": "spectrum", "tag": tag, "graph": graph,
                "zmax": zmax, "mode": mode,
                "argv": ["spectrum", "--graph", path, "--zmax", _fmt(zmax),
                         "--mode", mode]}

    # -- smatrix -----------------------------------------------------------
    def smatrix_job(self, graph, tag, grid, jobs=1):
        path = self.save(graph, tag)
        spec = ",".join(_fmt(s) for s in grid)
        return {"kind": "smatrix", "tag": tag, "graph": graph,
                "grid": [float(s) for s in grid],
                "argv": ["smatrix", "--graph", path, "--s=" + spec,
                         "--jobs", str(jobs)]}

    # -- invert ------------------------------------------------------------
    def invert_job(self, graph, tag):
        """Forward-oracle round trip; the topology file hides the couplings."""
        hidden = coupling_list(graph)
        topo = dict(graph, vertices=[{"id": v["id"]} for v in graph["vertices"]])
        path = self.save(topo, tag + "-topo")
        return {"kind": "invert", "tag": tag, "graph": graph,
                "hidden": hidden, "external_only": False,
                "argv": ["invert", "--graph-topology", path,
                         "--oracle", "forward", "--true-couplings="
                         + ",".join(_fmt(a) for a in hidden)]}

    def rtd_job(self, graph, tag):
        """Sampled response data on the CLI's default probe ladder
        z = -(32 * 2^j)^2, j = 0..6."""
        topo = dict(graph, vertices=[{"id": v["id"]} for v in graph["vertices"]])
        path = self.save(topo, tag + "-topo")
        n_ext = len(set(graph["leads"]))
        self.count += 1
        csv = os.path.join(self.workdir, f"{self.count:03d}-{tag}-rtd.csv")
        with open(csv, "w") as fh:
            fh.write("z" + "".join(f",re{k},im{k}" for k in range(n_ext * n_ext))
                     + "\n")
            for j in range(7):
                z = -(32.0 * 2.0 ** j) ** 2
                G = response_block(graph, z)
                fh.write(_fmt(z) + "".join(
                    f",{_fmt(v)},0.0" for v in G.ravel()) + "\n")
        return {"kind": "invert", "tag": tag, "graph": graph,
                "hidden": coupling_list(graph), "external_only": True,
                "argv": ["invert", "--graph-topology", path,
                         "--rtd-samples", csv]}

    # -- homog -------------------------------------------------------------
    def homog_job(self, tag, l1, l2, eps, taus, bands, jobs=1):
        return {"kind": "homog", "tag": tag,
                "argv": ["homog", "--l1", _fmt(l1), "--l2", _fmt(l2),
                         "--eps-list", ",".join(_fmt(e) for e in eps),
                         "--tau-grid=" + ",".join(_fmt(t) for t in taus),
                         "--bands", str(bands), "--jobs", str(jobs)]}


# --------------------------------------------------------------------------
# workloads: fixed size schedules, graphs and parameters drawn from the seed
# --------------------------------------------------------------------------

# Seed-drawn part of the ladder: (vertices, z cutoff, mode, count).  Small
# graphs up to z = 50 are where the tangent refiner and the two-route
# cross-check do their work.  A refinement costs 0.1-0.8 s against a
# typical job of 0.02-0.05 s, so the cutoffs keep refinements rare enough
# (a few per pass) that wall_s and job_s.p90 do not swing with the seed.
SPECTRUM_FAMILY = [
    (3, 50.0, "both", 6),
    (3, 20.0, "both", 10),
    (3, 50.0, "weyl", 12),
    (4, 50.0, "weyl", 8),
    (5, 20.0, "weyl", 24),
    (6, 10.0, "weyl", 6),
    (8, 10.0, "weyl", 6),
]
# Fixed rungs from 12 to 50 vertices: graphs/ladder-*.json, each the first
# draw of family_graph(random.Random(name), n).  One tangent refinement on
# a 20-vertex graph costs as much as the whole seed-drawn part, so these
# rungs do not vary with the seed.  Cutoffs fall with size because the
# negative-energy scan alone grows with the vertex count.
SPECTRUM_RUNGS = [
    ("ladder-n12", 5.0, "weyl"),
    ("ladder-n20a", 2.0, "weyl"),
    ("ladder-n20b", 2.0, "weyl"),
    ("ladder-n30", 1.0, "weyl"),
    ("ladder-n30m", 1.0, "matching"),   # matching determinant overflows
    ("ladder-n40", 1.0, "weyl"),
    ("ladder-n50", 0.5, "weyl"),
    # ROADMAP defect graphs: both routes miss eigenvalues below z = 100
    ("missed-03", 100.0, "weyl"),
    ("missed-06", 100.0, "weyl"),
    ("missed-13", 100.0, "weyl"),
    ("missed-21", 100.0, "weyl"),
    ("missed-28", 100.0, "weyl"),
    ("missed-39", 100.0, "weyl"),
    ("missed-06", 100.0, "both"),
    ("interval", 100.0, "both"),
]


def spectrum_ladder(inp: Inputs) -> list[dict]:
    jobs = []
    for n, zmax, mode, count in SPECTRUM_FAMILY:
        for _ in range(count):
            jobs.append(inp.spectrum_job(family_graph(inp.rng, n), f"n{n}",
                                         zmax, mode))
    for name, zmax, mode in SPECTRUM_RUNGS:
        jobs.append(inp.spectrum_job(fixed_graph(name), name, zmax, mode))
    return jobs


# (vertices, leads, grid points, --jobs, count).  The --jobs 2 rows repeat
# a serial row's shape, so their time per sweep shows what the pool costs.
# Sizes take 3, 27, 40, 73, 290 and 940 ms a sweep (2-CPU x86-64).  The
# counts put the median job mid-way through the 10-vertex block and the
# 90th percentile mid-way through the 50-vertex block (64 jobs with the
# two fixed ones), so neither sits on a boundary between sizes, where a
# small shift of load or seed moves it by the gap between them.
SMATRIX_SWEEP = [
    (5, 2, 100, 1, 22),
    (10, 3, 100, 1, 16),
    (20, 4, 100, 1, 10),
    (20, 4, 100, 2, 4),
    (50, 6, 100, 1, 4),
    (50, 6, 100, 2, 2),
    (100, 10, 80, 1, 2),
    (100, 2, 80, 1, 2),
]


def _energy_grid(rng, points):
    lo = rng.uniform(0.05, 1.0)
    step = rng.uniform(0.05, 0.5)
    return [lo + i * step for i in range(points)]


def smatrix_sweep(inp: Inputs) -> list[dict]:
    jobs = []
    for n, leads, points, par, count in SMATRIX_SWEEP:
        for _ in range(count):
            g = family_graph(inp.rng, n, n_leads=leads)
            tag = f"n{n}" if par == 1 else f"n{n}-jobs{par}"
            jobs.append(inp.smatrix_job(g, tag, _energy_grid(inp.rng, points),
                                        jobs=par))
    # every edge of length 1: s = (m pi)^2 is a pole and must be skipped
    poles = [(m * math.pi) ** 2 for m in (1, 2, 3)]
    grid = sorted(poles + [p + 0.37 for p in poles] + [0.5, 2.0])
    jobs.append(inp.smatrix_job(equilateral_graph(8), "equilateral", grid))
    jobs.append(inp.smatrix_job(fixed_graph("acceptance-scattering"),
                                "acceptance", [0.5 * j for j in range(1, 41)]))
    return jobs


# (vertices, count) for the forward-oracle round trip.  Sizes take 7, 18,
# 70, 550 and 3200 ms a job; with the acceptance graph and the six 2 ms
# --rtd-samples jobs, the counts put the median job mid-way through the
# 10-vertex block and the 90th percentile mid-way through the 20-vertex
# block (80 jobs).
INVERT_ROUNDTRIP = [(5, 5), (10, 56), (20, 8), (50, 3), (100, 1)]


def invert_roundtrip(inp: Inputs) -> list[dict]:
    jobs = []
    for n, count in INVERT_ROUNDTRIP:
        for _ in range(count):
            g = family_graph(inp.rng, n, n_leads=1)
            jobs.append(inp.invert_job(g, f"n{n}"))
    jobs.append(inp.invert_job(fixed_graph("acceptance-multigraph"),
                               "acceptance"))
    for _ in range(6):
        g = family_graph(inp.rng, 8, n_leads=2)
        jobs.append(inp.rtd_job(g, "rtd-n8"))
    return jobs


# (quasimomenta, bands, eps values, --jobs, count).  The shapes take 170,
# 270, 420, 520 and 1440 ms a study; with the small-tau study the counts
# put the median mid-way through the first block and the 90th percentile
# mid-way through the second (60 jobs).
HOMOG_STUDY = [
    (8, 2, 3, 1, 51),
    (8, 3, 4, 1, 4),
    (8, 8, 3, 1, 1),
    (16, 4, 3, 2, 2),
    (64, 2, 3, 2, 1),
]
EPS_LADDER = [0.02, 0.01, 0.005, 0.0025]


def homog_study(inp: Inputs) -> list[dict]:
    rng = inp.rng
    jobs = []
    for ntau, bands, n_eps, par, count in HOMOG_STUDY:
        for _ in range(count):
            l1 = rng.uniform(0.15, 0.35)
            l2 = rng.uniform(0.3, 0.55)
            taus = sorted(rng.uniform(-math.pi, math.pi) for _ in range(ntau))
            tag = f"t{ntau}b{bands}" + ("" if par == 1 else f"-jobs{par}")
            jobs.append(inp.homog_job(tag, l1, l2,
                                      EPS_LADDER[:n_eps], taus, bands,
                                      jobs=par))
    # known defect: the error does not converge at 0 < |tau| <= 1e-3
    jobs.append(inp.homog_job("small-tau", 0.25, 0.5, EPS_LADDER[:3],
                              [-1.0, 4e-4, 1.0], 2))
    return jobs


def warmup_job(inp: Inputs, kind: str) -> dict:
    """A tiny job of the workload's command, run during set-up."""
    if kind == "spectrum":
        return inp.spectrum_job(fixed_graph("interval"), "warmup", 10.0, "weyl")
    if kind == "smatrix":
        return inp.smatrix_job(fixed_graph("acceptance-scattering"), "warmup",
                               [0.5, 1.0, 1.5])
    if kind == "invert":
        return inp.invert_job(fixed_graph("acceptance-multigraph"), "warmup")
    return inp.homog_job("warmup", 0.25, 0.5, EPS_LADDER[:3], [0.0, 1.0], 2)


WORKLOADS = {
    "spectrum-ladder": spectrum_ladder,
    "smatrix-sweep": smatrix_sweep,
    "invert-roundtrip": invert_roundtrip,
    "homog-study": homog_study,
}
