import importlib
import os
import sys

import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, MetricGraph, SingularMatrix, Vertex,
                 f1_contracted, f1_entry, sigma_full, weyl_compact)
from qgs.inverse import _path_edges, _probe_vertex

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def perfbench(name):
    """The benchmark module perfbench/<name>.py, imported the way the
    benchmark's own scripts import each other: by its plain name, with
    perfbench on sys.path, so that inputs finds reference.  Every call
    returns the same module object."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture
def interval():
    """Unit interval, free endpoints."""
    return MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])


@pytest.fixture
def star3():
    """3-star with a lead on the centre, legs rationally independent."""
    return MetricGraph(
        [Vertex("C"), Vertex("T1"), Vertex("T2"), Vertex("T3")],
        [Edge("C", "T1", 1.0), Edge("C", "T2", math_sqrt2()),
         Edge("C", "T3", math_sqrt3())],
        leads=["C"])


@pytest.fixture
def lead_interval():
    """Interval with a lead on one end — the smallest scattering graph."""
    return MetricGraph([Vertex("V1"), Vertex("V2")],
                       [Edge("V1", "V2", 1.0)], leads=["V1"])


@pytest.fixture
def loop_tadpole():
    """Loop plus a pendant edge carrying a lead."""
    return MetricGraph(
        [Vertex("P"), Vertex("Q")],
        [Edge("P", "P", 1.3), Edge("P", "Q", 0.7)],
        leads=["Q"])


def math_sqrt2():
    return 2.0 ** 0.5


def math_sqrt3():
    return 3.0 ** 0.5


def coupling(graph, *values):
    return CouplingMatrix.from_values(graph, list(values))


# --------------------------------------------------------------------------
# independent references that only the tests call
# --------------------------------------------------------------------------

def f1_via_determinants(graph, kappa, z, vertex=None) -> complex:
    """f1_entry's entry through the cofactor ratio — independent
    cross-check.

    The two determinants are taken as sign and log-modulus (slogdet), so
    the ratio holds where either determinant alone over- or underflows.
    """
    i = graph.vertex_index(_probe_vertex(graph, vertex))
    A = weyl_compact(graph, z) - kappa.as_array()
    keep = [j for j in range(A.shape[0]) if j != i]
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0:
        raise SingularMatrix(z, "M_compact - coupling")
    minor_sign, minor_logdet = np.linalg.slogdet(A[np.ix_(keep, keep)])
    return complex(minor_sign / sign * np.exp(minor_logdet - logdet))


def f1_shrunk(graph, kappa, path, z, delta: float) -> complex:
    """Response-map entry with every path edge shrunk by the factor delta.

    As delta -> 0 this converges (first order) to f1_contracted; the pair
    validates the contraction identity numerically.
    """
    g = graph.with_couplings(kappa.diagonal)
    shrink = set(_path_edges(g, path)[0])
    new_edges = []
    for e in g.edges:
        scale = delta if e.id in shrink else 1.0
        new_edges.append(Edge(e.u, e.v, e.length * scale))
    g2 = MetricGraph(list(g.vertices), new_edges, list(g.leads))
    return f1_entry(g2, CouplingMatrix.from_graph(g2), z,
                    vertex=path.vertices_on_path[0])


def contraction_validation(graph, kappa, path, z, deltas=(1e-2, 1e-3, 1e-4)):
    """(differences, fitted order) of |f1_shrunk(delta) - f1_contracted|.

    The fitted order is the least-squares slope of log|diff| against
    log(delta); first-order convergence gives a slope near 1.
    """
    target = f1_contracted(graph, kappa, path, z)
    diffs = [abs(f1_shrunk(graph, kappa, path, z, d) - target)
             for d in deltas]
    xs = np.log(np.asarray(deltas))
    ys = np.log(np.asarray(diffs))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return diffs, slope


def sigma_projected(graph, kappa, s) -> np.ndarray:
    """External scattering matrix by projection alone (no cross-check):
    the external block of sigma_full, in sorted external order."""
    ext = graph.external_indices()
    return sigma_full(graph, kappa, s)[np.ix_(ext, ext)]
