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


@pytest.fixture(scope="module")
def missed06():
    g = load_graph(os.path.join(PERFBENCH, "graphs", "missed-06.json"))
    kappa = CouplingMatrix.from_graph(g)
    weyl = np.array([e.z for e in compact_spectrum(g, kappa, 100.0)
                     for _ in range(e.multiplicity)])
    bounds = {h: ritz_values(g, kappa, h)[:len(weyl)] for h in (0.05, 0.025)}
    return weyl, bounds


def _below(values, bounds):
    """values[k] <= bounds[k], with room for rounding in the dense solve."""
    return values <= bounds + 1e-9 * np.maximum(1.0, abs(values))


def test_weyl_list_lies_below_its_finite_element_bounds(missed06):
    """missed-06 up to z = 100: each of the 22 counted eigenvalues, the
    close pairs at 26.45/26.99 and 77.61/77.79 included, lies below its
    Ritz value at h = 0.05 and at h = 0.025, and every gap shrinks about
    4 times as h halves."""
    weyl, bounds = missed06
    assert len(weyl) == 22
    for h, ritz in bounds.items():
        assert _below(weyl, ritz).all(), h
    ratio = (bounds[0.05] - weyl) / (bounds[0.025] - weyl)
    assert ((3.5 < ratio) & (ratio < 4.5)).all()


def test_a_list_missing_a_close_pair_member_breaks_the_bound(missed06):
    """Without 26.45, the smaller member of the pair at t = 5.143/5.195,
    the list's later members lie above their Ritz values at h = 0.025."""
    weyl, bounds = missed06
    i = int(np.argmin(abs(weyl - 5.143 ** 2)))
    assert weyl[i + 1] - weyl[i] < 0.6
    short = np.delete(weyl, i)
    assert not _below(short, bounds[0.025][:len(short)]).all()
