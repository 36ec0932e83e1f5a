"""Coupling recovery from scattering data.

The chain implemented here:

1. ``extract_rtd`` — turn external scattering matrices back into the
   compact resolvent compression ("response map")

       G(s) = (1/(i sqrt s)) * (2*(I + Sigma_e * F2^-1)^-1 - I)

   where F2 = Pe (M*)^-1 M Pe depends on the metric topology only, never
   on the couplings.  Algebraically G(s) equals the external block of
   (M_compact(s) - K)^-1, which is what the later steps consume.

2. ``recover_path_sums`` — probe G deep on the negative energy axis.
   With z = -tau^2 the compact M-matrix turns diagonal up to terms that
   die like exp(-2 tau l_min), so

       -1/f1(-tau^2)  =  tau * deg(V1) + a(V1) + (exponentially small),

   with deg the lead-free vertex degree.  Contracting a spanning-tree
   path into the root merges vertices, so the same probe on the
   contracted graph returns the *sum* of couplings along the path; the
   known degree drift tau * (sum deg - 2*(edges contracted)) is removed
   and the remainder fitted against c0 + c1/tau + c2/tau^2 over a
   doubling ladder of tau values.

   Every probe is a call ``oracle(z, path)``, all energies of one path
   before the next; ``forward_f1_oracle`` builds such an oracle from known
   couplings and contracts each path once.

3. ``recover_couplings`` — the path sums over a prefix-closed family of
   tree paths form a triangular system: each vertex coupling is the sum
   for its path minus the sum for the parent's path.

``invert_couplings`` wires the three stages together.  For sampled data
(no forward oracle available) only root paths can be probed, which
limits recovery to couplings at the external vertices — see
``recover_external_couplings``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ExtrapolationDiverged, InconsistentPaths, ScanResolution,
                     SingularBracket, SingularMatrix, UnknownEdge)
from .graphs import (Edge, MetricGraph, SpanningTreePath, contract,
                     spanning_tree)
from .scattering import external_block, scattering_solves
from .weyl import COND_LIMIT, CouplingMatrix, checked_solve, weyl_compact

TAU0 = 32.0
LEVELS = 7
FIT_TOL = 1e-3


@dataclass(frozen=True)
class RtDSamples:
    """Response-map samples on a real energy grid.

    values[j] is the n_e x n_e matrix at grid[j] (sorted external vertex
    order).  For real couplings on a real grid the matrices are complex
    symmetric; on the negative axis they are real.
    """
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values,
                                                      dtype=complex))
        if self.values.shape[0] != self.grid.shape[0]:
            raise ValueError("one matrix per grid point required")


@dataclass(frozen=True)
class PathSumEstimate:
    """Fitted coupling sum along one spanning-tree path."""
    path: SpanningTreePath
    value: complex
    residual: float


# --------------------------------------------------------------------------
# stage 1: scattering -> response map
# --------------------------------------------------------------------------

def _topology_factor(graph: MetricGraph, s: float) -> np.ndarray:
    """F2 = Pe (M*)^-1 M Pe — coupling-free."""
    return scattering_solves(graph, None, s)[1][external_block(graph)]


def extract_rtd(sigma_e_oracle, graph_topology: MetricGraph,
                grid) -> RtDSamples:
    """Invert the scattering formula for the response map on a real grid.

    sigma_e_oracle(s) may return a plain matrix or anything with an
    ``entries`` attribute.  Grid points where the bracket
    I + Sigma_e F2^-1 is numerically singular are dropped with a
    SingularBracket warning rather than poisoning the data set.
    """
    kept, values = [], []
    ne = len(graph_topology.external_ids())
    eye = np.eye(ne)
    for s in grid:
        s = float(s)
        if s <= 0.0:
            raise ValueError(
                f"scattering data lives on the positive axis, got s={s:g}; "
                "negative-axis response values must be supplied directly "
                "(or interpolated from positive-axis extractions)")
        sig = sigma_e_oracle(s)
        sig = np.asarray(getattr(sig, "entries", sig), dtype=complex)
        try:
            F2 = _topology_factor(graph_topology, s)
        except SingularMatrix:
            warnings.warn(f"topology factor singular at s={s:g}; "
                          "point dropped", SingularBracket)
            continue
        if np.linalg.cond(F2) > COND_LIMIT:
            warnings.warn(f"topology factor ill-conditioned at s={s:g}; "
                          "point dropped", SingularBracket)
            continue
        product = sig @ np.linalg.inv(F2)
        bracket = eye + product
        # cond() alone misses the 1x1 case (cond of any scalar is 1), so
        # also compare the smallest singular value against the natural
        # scale of the two summands
        sv = np.linalg.svd(bracket, compute_uv=False)
        scale = 1.0 + np.linalg.norm(product)
        if sv[-1] < max(1e-10 * scale, sv[0] / COND_LIMIT):
            warnings.warn(f"singular bracket at s={s:g}; point dropped",
                          SingularBracket)
            continue
        G = (2.0 * np.linalg.inv(bracket) - eye) / (1j * math.sqrt(s))
        kept.append(s)
        values.append(G)
    return RtDSamples(np.array(kept), np.array(values))


# --------------------------------------------------------------------------
# stage 2: response-map probes
# --------------------------------------------------------------------------

def _probe_vertex(graph: MetricGraph, vertex: str | None) -> str:
    """`vertex`, or by default the natural probe point: the first external
    vertex, or the first vertex of a graph without leads."""
    if vertex is not None:
        return vertex
    ext = graph.external_ids()
    return ext[0] if ext else graph.vertex_ids()[0]


def f1_entry(graph: MetricGraph, kappa: CouplingMatrix, z,
             vertex: str | None = None) -> complex:
    """Diagonal response-map entry at one vertex (default: first external).

    This is the (v, v) entry of (M_compact(z) - K)^-1, the quantity whose
    negative-axis asymptotics drive the recovery chain.
    """
    i = graph.vertex_index(_probe_vertex(graph, vertex))
    A = weyl_compact(graph, z).entries - kappa.as_array()
    e = np.zeros(A.shape[0], dtype=complex)
    e[i] = 1.0
    return complex(checked_solve(A, e, z, "M_compact - coupling")[i])


def f1_via_determinants(graph: MetricGraph, kappa: CouplingMatrix, z,
                        vertex: str | None = None) -> complex:
    """Same entry through the cofactor ratio — independent cross-check."""
    i = graph.vertex_index(_probe_vertex(graph, vertex))
    A = weyl_compact(graph, z).entries - kappa.as_array()
    keep = [j for j in range(A.shape[0]) if j != i]
    minor = A[np.ix_(keep, keep)]
    det = np.linalg.det(A)
    if det == 0:
        raise SingularMatrix(z, "M_compact - coupling")
    return complex(np.linalg.det(minor) / det)


def _find_edge(graph: MetricGraph, u: str, v: str, length: float) -> str:
    for e in graph.edges:
        if {e.u, e.v} == {u, v} and abs(e.length - length) <= 1e-12 * max(
                1.0, length):
            return e.id
    raise UnknownEdge(f"no edge {u!r}-{v!r} of length {length!r}")


def _contract_along(graph: MetricGraph, kappa: CouplingMatrix,
                    path: SpanningTreePath):
    """Contract the path into its root; returns (graph', couplings',
    merged id).  A root path leaves graph and couplings as they are.

    Couplings ride on the vertices so that contraction adds them up, and
    are read back off the result.
    """
    if path.vertex_count == 1:
        return graph, kappa, path.root
    g = graph.with_couplings(kappa.diagonal)
    merged = path.vertices_on_path[0]
    for next_vertex, length in zip(path.vertices_on_path[1:],
                                   path.ordered_edge_lengths):
        eid = _find_edge(g, merged, next_vertex, length)
        old_ids = set(g.vertex_ids())
        g = contract(g, eid)
        new_ids = set(g.vertex_ids()) - old_ids
        assert len(new_ids) == 1
        merged = new_ids.pop()
    return g, CouplingMatrix.from_graph(g), merged


def f1_contracted(graph: MetricGraph, kappa: CouplingMatrix,
                  path: SpanningTreePath, z) -> complex:
    """Response-map entry after contracting a tree path into its root.

    Uses the contraction identity directly: merge the path vertices (their
    couplings add), drop the traversed edges, evaluate the diagonal entry
    at the merged vertex.  ``contraction_validation`` offers the slow
    shrinking-edge route for checking this identity.
    """
    g, k, merged = _contract_along(graph, kappa, path)
    return f1_entry(g, k, z, vertex=merged)


def f1_shrunk(graph: MetricGraph, kappa: CouplingMatrix,
              path: SpanningTreePath, z, delta: float) -> complex:
    """Response-map entry with every path edge shrunk by the factor delta.

    As delta -> 0 this converges (first order) to f1_contracted; the pair
    exists to validate the contraction identity numerically.
    """
    g = graph.with_couplings(kappa.diagonal)
    on_path = path.vertices_on_path
    shrink = {_find_edge(g, u, v, length) for u, v, length
              in zip(on_path, on_path[1:], path.ordered_edge_lengths)}
    new_edges = []
    for e in g.edges:
        scale = delta if e.id in shrink else 1.0
        new_edges.append(Edge(e.u, e.v, e.length * scale))
    g2 = MetricGraph(list(g.vertices), new_edges, list(g.leads))
    return f1_entry(g2, CouplingMatrix.from_graph(g2), z,
                    vertex=path.vertices_on_path[0])


def contraction_validation(graph: MetricGraph, kappa: CouplingMatrix,
                           path: SpanningTreePath, z,
                           deltas=(1e-2, 1e-3, 1e-4)):
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


def forward_f1_oracle(graph: MetricGraph, kappa: CouplingMatrix):
    """Oracle (z, path) -> f1_contracted(graph, kappa, path, z), with the
    couplings baked in.

    This is the oracle handed to the recovery pipeline in round-trip tests
    and by the command-line ``invert --oracle forward`` mode: the recovery
    code sees only its values, never the couplings.  The recovery probes
    one path at all its energies before the next, so the oracle contracts
    each path once and keeps only the current path's contracted graph.
    """
    contracted = functools.lru_cache(maxsize=1)(
        functools.partial(_contract_along, graph, kappa))

    def oracle(z, path: SpanningTreePath):
        g, k, merged = contracted(path)
        return f1_entry(g, k, z, vertex=merged)

    return oracle


def _ladder_fit(sample, tau0, levels, fit_tol, label):
    """(c0, residual) of the least-squares fit sample(tau) ~ c0 + c1/tau +
    c2/tau^2 over the ladder tau_j = tau0 * 2^j, j < levels.

    A residual above fit_tol * (1 + |c0|) raises ExtrapolationDiverged
    naming `label`, the path target or vertex.  tau0 must be finite and
    positive, and levels at least 4: with only three levels the three
    coefficients fit exactly, so the residual could never flag a
    divergence.
    """
    if not (math.isfinite(tau0) and tau0 > 0):
        raise ValueError(f"tau0 must be finite and positive, got {tau0!r}")
    if levels < 4:
        raise ValueError(f"the ladder fit needs levels >= 4, got {levels}")
    taus = np.array([tau0 * 2.0 ** j for j in range(levels)])
    design = np.column_stack([np.ones_like(taus), 1.0 / taus,
                              1.0 / taus ** 2]).astype(complex)
    samples = np.asarray([sample(tau) for tau in taus], dtype=complex)
    coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
    fit = design @ coef
    residual = float(np.max(np.abs(fit - samples)))
    threshold = fit_tol * (1.0 + abs(coef[0]))
    if residual > threshold:
        raise ExtrapolationDiverged(residual, threshold, path=label)
    return complex(coef[0]), residual


def recover_path_sums(graph_topology: MetricGraph, rtd_oracle, paths,
                      tau0: float = TAU0, levels: int = LEVELS,
                      fit_tol: float = FIT_TOL) -> list[PathSumEstimate]:
    """Fit the coupling sum along each path from deep negative-axis probes.

    For the path V1..Vl the probe value f = rtd_oracle(-tau^2, path), the
    response entry with the path contracted into V1, obeys

        -1/f = tau * D + (sum of couplings) + small,
        D = sum of lead-free degrees - 2*(l-1),

    so subtracting the degree drift and fitting c0 + c1/tau + c2/tau^2
    over tau_j = tau0 * 2^j leaves the sum in c0.  Each path is probed at
    all its energies before the next, so an oracle contracts it once.  A
    fit residual above fit_tol * (1 + |c0|) raises ExtrapolationDiverged —
    the signature of a wrong topology, a bad oracle, or tau0 too small for
    the edge lengths.
    """
    estimates = []
    for path in paths:
        D = sum(graph_topology.degree(v) for v in path.vertices_on_path)
        D -= 2 * (path.vertex_count - 1)
        value, residual = _ladder_fit(
            lambda tau: -1.0 / rtd_oracle(-(tau * tau), path) - tau * D,
            tau0, levels, fit_tol, path.target)
        if abs(value.imag) < 1e-12 * (1.0 + abs(value.real)):
            value = complex(value.real, 0.0)
        estimates.append(PathSumEstimate(path, value, residual))
    return estimates


# --------------------------------------------------------------------------
# stage 3: triangular solve
# --------------------------------------------------------------------------

def recover_couplings(estimates) -> dict[str, complex]:
    """Vertex couplings from a prefix-closed family of path-sum estimates.

    Each path contributes the coupling at its target vertex: its own sum
    minus the parent path's sum.  Raises InconsistentPaths when a parent
    estimate is missing or duplicate targets disagree.
    """
    by_count = sorted(estimates, key=lambda e: e.path.vertex_count)
    sums: dict[str, complex] = {}
    couplings: dict[str, complex] = {}
    for est in by_count:
        target = est.path.target
        if target in sums:
            if abs(sums[target] - est.value) > 1e-6 * (1 + abs(est.value)):
                raise InconsistentPaths(
                    f"conflicting path sums for vertex {target!r}: "
                    f"{sums[target]} vs {est.value}")
            continue
        if est.path.vertex_count == 1:
            couplings[target] = est.value
        else:
            parent = est.path.vertices_on_path[-2]
            if parent not in sums:
                raise InconsistentPaths(
                    f"path to {target!r} arrived before its ancestor "
                    f"{parent!r} was solved; paths must be prefix-closed")
            couplings[target] = est.value - sums[parent]
        sums[target] = est.value
    return couplings


def invert_couplings(graph_topology: MetricGraph, rtd_oracle,
                     root: str | None = None, tau0: float = TAU0,
                     levels: int = LEVELS, fit_tol: float = FIT_TOL):
    """Full recovery: spanning tree, path sums, triangular solve.

    Returns (couplings dict over all vertices, estimates).  The root
    defaults to the first external vertex (the natural probe point), or
    the first vertex if the graph has no leads.
    """
    paths = spanning_tree(graph_topology, _probe_vertex(graph_topology, root))
    estimates = recover_path_sums(graph_topology, rtd_oracle, paths,
                                  tau0=tau0, levels=levels, fit_tol=fit_tol)
    return recover_couplings(estimates), estimates


# --------------------------------------------------------------------------
# sampled-data mode (experimental)
# --------------------------------------------------------------------------

def barycentric(grid, values):
    """Berrut's rational interpolant through (grid, values) — pole-free on
    the real line for distinct sorted nodes.  Values may be scalars or
    arrays (interpolated entrywise)."""
    x = np.asarray(grid, dtype=float)
    y = np.asarray(values, dtype=complex)
    w = np.array([(-1.0) ** j for j in range(len(x))])

    def interp(z):
        dz = z - x
        hit = np.where(np.abs(dz) < 1e-14 * (1 + np.abs(x)))[0]
        if hit.size:
            v = y[hit[0]]
        else:
            c = w / dz
            v = np.tensordot(c, y, axes=(0, 0)) / np.sum(c)
        return complex(v) if y.ndim == 1 else v

    return interp


def recover_external_couplings(samples: RtDSamples,
                               graph_topology: MetricGraph,
                               tau0: float = TAU0, levels: int = LEVELS,
                               fit_tol: float = FIT_TOL) -> dict[str, complex]:
    """Couplings at the external vertices from response-map samples alone.

    Without a forward oracle no path can be contracted, so only root paths
    (one per external vertex, via the diagonal entries) are available;
    internal couplings are out of reach from sampled data.  The samples
    must cover the probe ladder z = -(tau0 * 2^j)^2 — values in between
    are rationally interpolated, so a log-spaced grid enclosing the ladder
    works, and exact ladder nodes work best.
    """
    z_lo = -(max(tau0 * 2.0 ** j for j in range(levels)) ** 2)
    if samples.grid.min() > z_lo:
        warnings.warn(
            f"sample grid reaches only z={samples.grid.min():g}, ladder "
            f"needs z={z_lo:g}; extrapolating", ScanResolution)
    couplings = {}
    for j, vid in enumerate(graph_topology.external_ids()):
        interp = barycentric(samples.grid, samples.values[:, j, j])
        D = graph_topology.degree(vid)
        couplings[vid], _ = _ladder_fit(
            lambda tau: -1.0 / interp(-(tau * tau)) - tau * D,
            tau0, levels, fit_tol, vid)
    return couplings
