"""Weyl M-matrices of a metric graph and the Robin-to-Dirichlet map.

The compact M-matrix collects, per vertex pair, the Dirichlet-to-Neumann
response of the compact edges: diagonal entries sum -k*cot(k*l) over
incident non-loop edges plus 2*k*tan(k*l/2) per loop; adjacent off-diagonal
entries sum k/sin(k*l) over connecting edges (with multiplicity); entries
for non-adjacent vertex pairs vanish.  Attaching one outgoing lead per
external vertex adds i*sqrt(z) on the corresponding diagonal entries.

Matrix rows/columns follow the sorted-vertex-id order of graph-core;
external blocks follow the sorted external-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import PoleProximity, SingularMatrix
from .graphs import MetricGraph
from .kernels import (SERIES_CUTOFF, is_mp, kcot, kcsc, ktanhalf, mp_kcot,
                      mp_kcsc, mp_ktanhalf, sin_abs, sqrt_upper)

POLE_TOL = 1e-12
COND_LIMIT = 1e12


@dataclass(frozen=True)
class SpectralPoint:
    """Energy z together with its upper-branch square root (Im >= 0)."""

    z: complex
    sqrt_z: complex

    @classmethod
    def of(cls, z) -> "SpectralPoint":
        if isinstance(z, SpectralPoint):
            return z
        z = complex(z)
        return cls(z, sqrt_upper(z))


@dataclass(frozen=True)
class WeylMatrix:
    """M-matrix sample: entries at one spectral point, compact or full."""

    at: SpectralPoint
    entries: np.ndarray
    kind: str  # "compact" | "full"


@dataclass(frozen=True)
class CouplingMatrix:
    """Diagonal matrix of coupling constants in sorted-vertex order."""

    ids: tuple[str, ...]
    diagonal: tuple[complex, ...]

    @classmethod
    def zeros(cls, graph: MetricGraph) -> "CouplingMatrix":
        return cls(tuple(graph.vertex_ids()), (0.0 + 0.0j,) * graph.n_vertices)

    @classmethod
    def from_graph(cls, graph: MetricGraph) -> "CouplingMatrix":
        """Couplings stored on the graph's vertices, canonical order."""
        return cls(tuple(graph.vertex_ids()),
                   tuple(complex(a) for a in graph.couplings()))

    @classmethod
    def from_values(cls, graph: MetricGraph, values) -> "CouplingMatrix":
        vals = tuple(complex(a) for a in values)
        if len(vals) != graph.n_vertices:
            raise ValueError(
                f"expected {graph.n_vertices} couplings, got {len(vals)}")
        return cls(tuple(graph.vertex_ids()), vals)

    @classmethod
    def from_dict(cls, graph: MetricGraph, mapping) -> "CouplingMatrix":
        return cls.from_values(
            graph, [complex(mapping.get(v, 0.0)) for v in graph.vertex_ids()])

    def as_array(self) -> np.ndarray:
        return np.diag(np.asarray(self.diagonal, dtype=complex))

    @property
    def is_real(self) -> bool:
        return all(abs(a.imag) == 0.0 for a in self.diagonal)


def checked_solve(A, B, z, what):
    """Solve A X = B, refused with SingularMatrix(z, what) when cond(A)
    exceeds COND_LIMIT (z is the energy, for the message)."""
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularMatrix(z, what)
    return np.linalg.solve(A, B)


def _check_poles(graph, z):
    # z=0 is removable (series limits 1/l, 1/l, 0), not a pole: genuine
    # poles sit at sqrt(z)*l = n*pi with n >= 1, outside the series region
    for e in graph.edges:
        if (abs(z) * e.length * e.length >= SERIES_CUTOFF
                and sin_abs(z, e.length) < POLE_TOL):
            raise PoleProximity(z, e.id)


def compact_entries(graph: MetricGraph, z):
    """Compact M-matrix entries at z, with no pole check.

    The arithmetic follows z: a numpy complex matrix for a Python number,
    an mpmath matrix at the working precision for an mpmath number.
    """
    n = graph.n_vertices
    if is_mp(z):
        M = mp.zeros(n, n)
        cot, csc, tanhalf = mp_kcot, mp_kcsc, mp_ktanhalf
    else:
        M = np.zeros((n, n), dtype=complex)
        cot, csc, tanhalf = kcot, kcsc, ktanhalf
    idx = {vid: i for i, vid in enumerate(graph.vertex_ids())}
    for e in graph.edges:
        if e.is_loop:
            M[idx[e.u], idx[e.u]] += 2.0 * tanhalf(z, e.length)
        else:
            i, j = idx[e.u], idx[e.v]
            c = cot(z, e.length)
            s = csc(z, e.length)
            M[i, i] -= c
            M[j, j] -= c
            M[i, j] += s
            M[j, i] += s
    return M


def weyl_compact(graph: MetricGraph, z) -> WeylMatrix:
    """Compact M-matrix (leads ignored) at energy z.

    Raises PoleProximity when z sits within 1e-12 of a trigonometric pole
    |sin(sqrt(z) l_p)| of any edge; callers wanting a boundary value from
    the upper half-plane retry at z + 1e-8j.
    """
    sp = SpectralPoint.of(z)
    _check_poles(graph, sp.z)
    return WeylMatrix(at=sp, entries=compact_entries(graph, sp.z),
                      kind="compact")


def weyl_full(graph: MetricGraph, z) -> WeylMatrix:
    """Full M-matrix: compact part plus i*sqrt(z) on external diagonals."""
    base = weyl_compact(graph, z)
    M = base.entries.copy()
    for vid in graph.external_ids():
        i = graph.vertex_index(vid)
        M[i, i] += 1j * base.at.sqrt_z
    return WeylMatrix(at=base.at, entries=M, kind="full")


def external_projector(graph: MetricGraph) -> np.ndarray:
    """0/1 diagonal projector onto the external vertices (full-size)."""
    P = np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)
    for vid in graph.external_ids():
        i = graph.vertex_index(vid)
        P[i, i] = 1.0
    return P


def robin_to_dirichlet(graph: MetricGraph, kappa: CouplingMatrix, z) -> np.ndarray:
    """External block of (M_compact(z) - kappa)^{-1}.

    This is the Robin-to-Dirichlet map of the external vertex set: it sends
    the combination (Neumann data - kappa * Dirichlet data) to the Dirichlet
    data on the external vertices.  Symmetric for real kappa at real z.

    Raises SingularMatrix when cond(M_compact - kappa) exceeds 1e12, i.e.
    when z is (numerically) an eigenvalue of the compact-graph operator.
    """
    A = weyl_compact(graph, z).entries - kappa.as_array()
    ext = [graph.vertex_index(v) for v in graph.external_ids()]
    rhs = np.zeros((graph.n_vertices, len(ext)), dtype=complex)
    for col, i in enumerate(ext):
        rhs[i, col] = 1.0
    return checked_solve(A, rhs, z, "M_compact - kappa")[ext, :]
