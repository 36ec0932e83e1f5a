"""Deterministic random-graph generation for invariant suites.

Kept inside the package (not the test tree) because the command-line
``check`` subcommand runs the same invariants end users see; tests import
it too so both sides exercise identical graph distributions.
"""

from __future__ import annotations

import random

from .graphs import Edge, MetricGraph, Vertex


def make_random_graph(rng: random.Random, max_vertices: int = 5,
                      max_edges: int = 8, n_leads: int | None = None,
                      coupling_range: float = 2.0) -> MetricGraph:
    """A connected metric graph with random couplings, loops and parallels.

    A spanning tree guarantees connectivity; the remaining edge budget is
    spent on random pairs, loops included.  Couplings are uniform in
    [-coupling_range, coupling_range]; lengths in [0.3, 1.7].  With
    ``n_leads`` None, each vertex gets a lead with probability 0.4 (at
    least one).
    """
    n = rng.randint(2, max_vertices)
    ids = [f"V{i+1}" for i in range(n)]
    vertices = [Vertex(v, rng.uniform(-coupling_range, coupling_range))
                for v in ids]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(Edge(ids[j], ids[i], rng.uniform(0.3, 1.7)))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.choice(ids)
        v = rng.choice(ids)
        edges.append(Edge(u, v, rng.uniform(0.3, 1.7)))

    if n_leads is None:
        leads = [v for v in ids if rng.random() < 0.4]
        if not leads:
            leads = [rng.choice(ids)]
    else:
        leads = rng.sample(ids, n_leads)
    return MetricGraph(vertices, edges, leads)
