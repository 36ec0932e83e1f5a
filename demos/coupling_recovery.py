"""Recover every vertex coupling of a graph from boundary data at one lead.

Two passes over the same five-vertex graph:

  1. oracle mode — the forward response map is available as a callable,
     so edges along the spanning tree can be contracted one by one and
     all couplings fall out of the resulting path sums;
  2. sampled mode — only tabulated scattering data on a finite grid is
     available, which pins down the couplings at lead-bearing vertices
     (the interior stays out of reach without an oracle).
"""

import math
import warnings

import numpy as np

from qgs import (CouplingMatrix, Edge, MetricGraph, RtDSamples, Vertex,
                 extract_rtd, forward_f1_oracle, invert_couplings,
                 recover_external_couplings, robin_to_dirichlet, sigma_external)

TRUE = {"A": -1.3, "B": 0.8, "C": 1.7, "D": -0.6, "E": 0.05}


def build():
    return MetricGraph(
        [Vertex(v, a) for v, a in TRUE.items()],
        [Edge("A", "B", 1.0), Edge("B", "C", math.sqrt(2)),
         Edge("C", "D", math.sqrt(3)), Edge("D", "E", math.sqrt(5)),
         Edge("B", "E", math.sqrt(7))],
        leads=["A"])


def main():
    g = build()
    k = CouplingMatrix.from_graph(g)

    print("=== oracle mode: full recovery ===")
    recovered, sums = invert_couplings(g, forward_f1_oracle(g, k))
    print(f"  {'vertex':>6}  {'true':>8}  {'recovered':>22}  {'error':>9}")
    for vid in g.vertex_ids():
        r = recovered[vid]
        print(f"  {vid:>6}  {TRUE[vid]:>8.3f}  {r.real:>22.15f}"
              f"  {abs(r - TRUE[vid]):>9.2e}")
    print("  path sums seen along the tree:",
          ", ".join(f"{p.path.target}:{p.value.real:.6f}" for p in sums))

    print("\n=== sampled mode: lead vertices only ===")
    # tabulate the interior response on a log grid wide enough to cover
    # the probe ladder, as if it had been measured
    grid = np.array([-(0.5 * 2.0 ** j) ** 2 for j in range(22)][::-1])
    samples = RtDSamples(grid, robin_to_dirichlet(g, k, grid))
    topology = g.with_couplings([0.0] * g.n_vertices)  # couplings unknown
    got = recover_external_couplings(samples, topology)
    for vid, val in sorted(got.items()):
        print(f"  {vid}: recovered {val.real:+.9f}"
              f"   (true {TRUE[vid]:+.3f}, error {abs(val - TRUE[vid]):.2e})")

    print("\n=== and from scattering data instead of the response map ===")
    s_grid = [0.37 * j for j in range(1, 40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any dropped point would be a surprise
        extracted = extract_rtd(lambda s: sigma_external(g, k, s), g, s_grid)
    direct = robin_to_dirichlet(g, k, extracted.grid)
    print(f"  extracted response matches the direct one to"
          f" {float(np.abs(extracted.values - direct).max()):.2e}"
          f" on {len(extracted.grid)} grid points")


if __name__ == "__main__":
    main()
