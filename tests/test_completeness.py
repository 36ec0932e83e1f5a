"""Completeness of the weyl route by the min-max principle, through no
M-matrix and no matching system.

The Rayleigh-Ritz values of the form sum_e int |u'|^2 + sum_v kappa_v
|u(v)|^2 on any space of continuous functions are upper bounds: the k-th
Ritz value is at least the k-th eigenvalue.  On continuous piecewise
linear functions with elements of length h they converge at O(h^2)
(Arioli & Benzi, IMA J. Numer. Anal. 38, 2018).  So a list that misses an
eigenvalue moves its later members up by one place, and above their
bounds once h is fine enough.
"""

import math
import os

import numpy as np
import pytest

from qgs import CouplingMatrix, compact_spectrum, load_graph

from conftest import PERFBENCH


def ritz_values(graph, kappa, h):
    """Ascending Rayleigh-Ritz values of the form on P1 finite elements,
    ceil(l / h) equal elements per edge, dense: K x = lambda M x through a
    Cholesky factor of the mass matrix M."""
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = graph.n_vertices
    a, b, lengths = [], [], []
    for e in graph.edges:
        m = math.ceil(e.length / h)
        nodes = [index[e.u], *range(n, n + m - 1), index[e.v]]
        n += m - 1
        a += nodes[:-1]
        b += nodes[1:]
        lengths += [e.length / m] * m
    a, b, le = np.array(a), np.array(b), np.array(lengths)
    K, M = np.zeros((n, n)), np.zeros((n, n))
    for rows, cols, stiff, mass in ((a, a, 1.0, 2.0), (b, b, 1.0, 2.0),
                                    (a, b, -1.0, 1.0), (b, a, -1.0, 1.0)):
        np.add.at(K, (rows, cols), stiff / le)
        np.add.at(M, (rows, cols), mass * le / 6.0)
    K[np.diag_indices(graph.n_vertices)] += np.real(kappa.diagonal)
    Linv = np.linalg.inv(np.linalg.cholesky(M))
    return np.linalg.eigvalsh(Linv @ K @ Linv.T)


# benchmark graphs and the top of the window each is listed in: the
# missed-* graphs, picked for their close pairs, and a 20-vertex ladder
WINDOWS = {**{f"missed-{i}": 100.0 for i in ("03", "06", "13", "21", "28",
                                              "39")},
           "ladder-n20a": 20.0}


@pytest.fixture(scope="module", params=sorted(WINDOWS))
def window(request):
    """A graph's weyl list up to the top of its window, multiplicity
    expanded, and as many Ritz values at h = 0.05 and at h = 0.025."""
    g = load_graph(os.path.join(PERFBENCH, "graphs", request.param + ".json"))
    kappa = CouplingMatrix.from_graph(g)
    weyl = np.array([e.z for e in compact_spectrum(g, kappa,
                                                   WINDOWS[request.param])
                     for _ in range(e.multiplicity)])
    bounds = {h: ritz_values(g, kappa, h)[:len(weyl)] for h in (0.05, 0.025)}
    return weyl, bounds


def _below(values, bounds):
    """values[k] <= bounds[k], with room for rounding in the dense solve."""
    return values <= bounds + 1e-9 * np.maximum(1.0, abs(values))


def test_weyl_list_lies_below_its_finite_element_bounds(window):
    """In its window each counted eigenvalue, the close pairs the missed-*
    graphs were picked for included, lies below its Ritz value at h = 0.05
    and at h = 0.025, and every gap shrinks about 4 times as h halves."""
    weyl, bounds = window
    assert len(weyl) > 10
    for h, ritz in bounds.items():
        assert _below(weyl, ritz).all(), h
    ratio = (bounds[0.05] - weyl) / (bounds[0.025] - weyl)
    assert ((3.5 < ratio) & (ratio < 4.5)).all()


def test_a_list_missing_a_close_pair_member_breaks_the_bound(window):
    """Without the smaller member of its closest pair, the list's later
    members lie above their Ritz values at h = 0.025."""
    weyl, bounds = window
    i = int(np.argmin(np.diff(weyl)))
    short = np.delete(weyl, i)
    assert not _below(short, bounds[0.025][:len(short)]).all()
