"""Closed-graph spectra two ways: the eigenvalue count of the boundary
map finds the roots, and the edge-matching system confirms each one.

Walks through three small graphs — an interval, a 3-star, and a lopsided
triangle — and prints each counted eigenvalue with its multiplicity and
the margin of its matching-kernel check: the m-th smallest singular value
of the matching system relative to its scale, which must lie below 1e-8.
Also shows the two classic delta-coupling effects on the interval:
attractive endpoints pull a bound state below zero, and a huge repulsive
coupling pinches the spectrum onto the Dirichlet one from below.
"""

import math

from qgs import (CouplingMatrix, Edge, MetricGraph, Vertex,
                 compact_eigenvalues, compact_spectrum, kernel_margins)


def compare(name, graph, kappa, z_max):
    eigs = compact_spectrum(graph, kappa, z_max)
    margins = kernel_margins(graph, kappa, eigs)
    print(f"\n{name}")
    print(f"  {'#':>2}  {'eigenvalue':>18}  {'mult':>4}  {'kernel margin':>13}")
    for i, (e, margin) in enumerate(zip(eigs, margins)):
        print(f"  {i:>2}  {e.z:>18.12f}  {e.multiplicity:>4}  {margin:>13.2e}")


def main():
    interval = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])
    compare("Neumann interval (exact: (n*pi)^2)",
            interval, CouplingMatrix.zeros(interval), 400.0)

    star = MetricGraph(
        [Vertex("C", 0.5), Vertex("T1"), Vertex("T2"), Vertex("T3")],
        [Edge("C", "T1", 1.0), Edge("C", "T2", math.sqrt(2)),
         Edge("C", "T3", math.sqrt(3))])
    compare("3-star, coupling 0.5 at the centre",
            star, CouplingMatrix.from_graph(star), 25.0)

    triangle = MetricGraph(
        [Vertex("P", -0.3), Vertex("Q", 1.1), Vertex("R", 0.0)],
        [Edge("P", "Q", 0.8), Edge("Q", "R", 1.3), Edge("P", "R", 2.1)])
    compare("triangle with mixed couplings",
            triangle, CouplingMatrix.from_graph(triangle), 25.0)

    # attractive endpoints: one negative eigenvalue appears
    attracting = CouplingMatrix.from_values(interval, [-1.0, -1.0])
    lo = compact_eigenvalues(interval, attracting, 3)
    print("\ninterval with coupling -1 at both ends:")
    print("  lowest eigenvalues:", ", ".join(f"{z:.9f}" for z in lo))
    print("  (the first is a genuine bound state below zero)")

    # Dirichlet limit: large repulsive coupling approaches (n*pi)^2 from below
    print("\nDirichlet pinch at coupling +1e6 on both ends:")
    hard = CouplingMatrix.from_values(interval, [1e6, 1e6])
    for z, n in zip(compact_eigenvalues(interval, hard, 3), (1, 2, 3)):
        exact = (n * math.pi) ** 2
        print(f"  z = {z:.9f}  vs  (n*pi)^2 = {exact:.9f}"
              f"   gap = {exact - z:.3e} (always positive)")


if __name__ == "__main__":
    main()
