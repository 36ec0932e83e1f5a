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
   doubling ladder of tau values: the one ladder fit, for both modes.
   The neglected terms decay like exp(-tau l_min), so ``ladder_tau0``
   scales the ladder's start to the shortest edge; it is the default
   start of ``recover_path_sums`` and ``invert_couplings``.
   ``recover_external_couplings`` keeps TAU0, the ladder that sample
   files are written on.  A ladder so deep that one ulp of the drift
   exceeds the fit's tolerance keeps no digit of the sum and is refused.

   The oracle is called once per ladder, as ``oracle(z, paths)`` with the
   1-D array z of the ladder energies and the list of paths, and returns
   the (len(paths), len(z)) array of their values.  ``forward_f1_oracle``
   builds such an oracle from known couplings without contracting
   anything: gluing a path's vertices is a finite-rank change of
   A = M_compact(z) - K, and Krein's formula for it is, on a finite
   matrix, a Schur complement.  Per energy A is assembled and gated once,
   G = A^-1, and each path's entry is 1/s with
   s = b - u.w + w_S^T G_SS^-1 w_S, w = G u (see ``_glued_schur``), at
   O(n^2) per path.  A and G come from ``weyl.resolvents``, which raises
   the first pole or gate refusal in energy order; the oracle raises
   SingularMatrix for an s the contracted graph's gate would refuse.  ``f1_contracted``
   keeps the contraction itself, as the independent cross-check.  The
   references that only the tests call live in tests/conftest.py: the
   cofactor ratio of ``f1_entry`` and the shrinking-edge limit that
   ``f1_contracted`` approaches.

3. ``recover_couplings`` — the path sums over a prefix-closed family of
   tree paths form a triangular system: each vertex coupling is the sum
   for its path minus the sum for the parent's path.

``invert_couplings`` wires the three stages together.  For sampled data
(no forward oracle available) only root paths can be probed, which
limits recovery to couplings at the external vertices:
``recover_external_couplings`` hands the interpolated diagonal entries
to ``recover_path_sums`` as its oracle, one root path per vertex.  A
sample grid that does not reach the ladder's deepest energy is refused
with ValueError: the interpolants would extrapolate there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ExtrapolationDiverged, InconsistentPaths,
                     SingularBracket, SingularMatrix, UnknownEdge)
from .graphs import MetricGraph, SpanningTreePath, contract, spanning_tree
from .kernels import edge_kernels
from .scattering import external_factors
from .weyl import (COND_LIMIT, CouplingMatrix, _inverse, gated_inverses,
                   resolvents)

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
    """F2 = Pe (M*)^-1 M Pe, which does not depend on the couplings, so it
    is read off the factors of the coupling-free graph."""
    return external_factors(graph, CouplingMatrix.zeros(graph), s)[1]


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
        except SingularMatrix as exc:   # the gate of M* in the factor
            error = exc
        else:
            (F2_inverse,), (error,) = gated_inverses(F2[None], [s],
                                                     "topology factor")
        if error is not None:
            warnings.warn(f"topology factor singular at s={s:g}; "
                          "point dropped", SingularBracket)
            continue
        product = sig @ F2_inverse
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
             vertex: str | None = None):
    """Diagonal response-map entry at one vertex (default: first external),
    at one energy z or at each of a 1-D array of energies.

    This is the (v, v) entry of (M_compact(z) - K)^-1, the quantity whose
    negative-axis asymptotics drive the recovery chain, read from the
    gated inverses of weyl.resolvents, which also raises its pole or
    gate refusals.  At an external vertex it is robin_to_dirichlet's
    entry, bit for bit.

    Returns a complex number for a scalar z, a complex array for an array.
    """
    i = graph.vertex_index(_probe_vertex(graph, vertex))
    z = np.asarray(z)
    f = np.empty(z.size, dtype=complex)
    for at, _, _, G in resolvents(graph, kappa, z.reshape(-1)):
        f[at] = G[:, i, i]
    return complex(f[0]) if z.ndim == 0 else f


def _edges_between(graph: MetricGraph):
    """{frozenset of the two ends: the edges between them, in edge order}."""
    between = {}
    for e in graph.edges:
        between.setdefault(frozenset((e.u, e.v)), []).append(e)
    return between


def _path_edges(graph: MetricGraph, path: SpanningTreePath, between=None):
    """(edge ids, merged id) of the path's edges, as contracting them into
    the root one at a time picks and names them.  Each step takes the first
    edge, in the edge order of the graph contracted so far, of the step's
    length between the merged vertex and the next path vertex.  between is
    _edges_between(graph), built here when not given."""
    if between is None:
        between = _edges_between(graph)
    merged, glued, ids = path.root, {path.root}, []

    def key(e):     # the edge's place in the graph contracted so far
        return (merged if e.u in glued else e.u,
                merged if e.v in glued else e.v, e.length)

    for vertex, length in zip(path.vertices_on_path[1:],
                              path.ordered_edge_lengths):
        found = [e for w in glued for e in between.get(
                     frozenset((w, vertex)), ())
                 if abs(e.length - length) <= 1e-12 * max(1.0, length)]
        if not found:
            raise UnknownEdge(
                f"no edge {merged!r}-{vertex!r} of length {length!r}")
        edge = min(found, key=key)
        u, v, _ = key(edge)
        ids.append(edge.id)
        merged = f"({u}|{v})"
        glued.add(vertex)
    return ids, merged


def _contract_along(graph: MetricGraph, path: SpanningTreePath):
    """Contract the path into its root, with one contract call; returns
    (graph', couplings', merged id).  A root path leaves the graph as it
    is.

    Couplings ride on the vertices of `graph` so that contraction adds
    them up, and are read back off the result.
    """
    if path.vertex_count == 1:
        return graph, CouplingMatrix.from_graph(graph), path.root
    ids, merged = _path_edges(graph, path)
    g = contract(graph, ids)
    return g, CouplingMatrix.from_graph(g), merged


def f1_contracted(graph: MetricGraph, kappa: CouplingMatrix,
                  path: SpanningTreePath, z) -> complex:
    """Response-map entry after contracting a tree path into its root.

    Uses the contraction identity directly: merge the path vertices (their
    couplings add), drop the traversed edges, evaluate the diagonal entry
    at the merged vertex with f1_entry.  It builds the contracted graph,
    so it checks the glued Schur complements of forward_f1_oracle, which
    never does.
    """
    g, k, merged = _contract_along(graph.with_couplings(kappa.diagonal),
                                   path)
    return f1_entry(g, k, z, vertex=merged)


def _glued_paths(graph: MetricGraph, paths):
    """What gluing each path into one vertex needs, for len(paths) = P.

    Returns (glued, contracted, lengths, groups).  Column p of glued (n, P)
    is 1 on the vertices of path p.  The U edges that contracting some
    path drops have the given lengths, and column p of contracted (U, P)
    is 1 on those of path p.  groups lists, per number c of path vertices,
    the (P_c, c) vertex indices of those paths and their (P_c,) columns.
    """
    between = _edges_between(graph)
    position = {e.id: p for p, e in enumerate(graph.edges)}
    glued = np.zeros((graph.n_vertices, len(paths)))
    contracted = np.zeros((graph.n_edges, len(paths)))
    by_count = {}
    for p, path in enumerate(paths):
        vertices = [graph.vertex_index(v) for v in path.vertices_on_path]
        glued[vertices, p] = 1.0
        if len(vertices) > 1:
            ids = _path_edges(graph, path, between)[0]
            contracted[[position[i] for i in ids], p] = 1.0
        by_count.setdefault(len(vertices), []).append((vertices, p))
    used = np.flatnonzero(contracted.any(axis=1))
    lengths = np.array([graph.edges[p].length for p in used])
    groups = [(np.array([v for v, _ in members]),
               np.array([p for _, p in members]))
              for members in by_count.values()]
    return glued, contracted[used], lengths, groups


def _glued_schur(A, G, energies, glued, contracted, lengths, groups):
    """(s, b): s = 1/f1 of each path glued into one vertex, b its diagonal
    entry of the glued matrix, at each energy of a gated run, (N, P) each.

    For the path's vertex set S, b sums A over S x S less 2(kcsc - kcot) of
    each contracted edge, which leaves every other edge between path
    vertices as the loop term 2 ktanhalf.  u is the sum of the columns of
    S with its entries on S set to zero, w = G u, and the Schur complement
    of the glued matrix is s = b - u.w + w_S^T G_SS^-1 w_S, since
    A_RR^-1 = G_RR - G_RS G_SS^-1 G_SR for R outside S and G is symmetric.
    An exactly singular G_SS makes s NaN.
    """
    sums = A @ glued                                  # (N, n, P)
    b = (sums * glued).sum(axis=1)
    if lengths.size:
        terms = edge_kernels(energies[:, None], lengths)
        if not np.iscomplexobj(A):
            terms = terms.real
        b = b - 2.0 * (terms[1] - terms[0]) @ contracted
    u = sums * (1.0 - glued)
    w = G @ u
    s = b - (u * w).sum(axis=1)
    for vertices, cols in groups:
        G_SS = G[:, vertices[:, :, None], vertices[:, None, :]]
        w_S = w[:, vertices, cols[:, None]]           # (N, P_c, c)
        s[:, cols] += (w_S[..., None, :] @ _inverse(G_SS)
                       @ w_S[..., None])[..., 0, 0]
    return s, b


def forward_f1_oracle(graph: MetricGraph, kappa: CouplingMatrix):
    """Oracle (z, paths) -> f1_contracted(graph, kappa, path, z) for each
    path, with the couplings baked in, as a (len(paths), len(z)) array.

    This is the oracle handed to the recovery pipeline in round-trip tests
    and by the command-line ``invert --oracle forward`` mode: the recovery
    code sees only its values, never the couplings.  It builds no
    contracted graph.  Gluing a path's vertices S into one vertex m is a
    finite-rank change of A = M_compact(z) - K, so by Krein's formula
    (on a finite matrix, a Schur complement) the entry at m is 1/s with

        s = b - u.w + w_S^T G_SS^-1 w_S,  G = A^-1,  w = G u,

    where b is the glued block's sum over S x S less the contracted edges
    and u the sum of the columns of S off S (_glued_schur).  A and G come
    from weyl.resolvents, one stack at a time with all paths, so each
    energy's A is assembled and gated once, for every path, and a stack's
    (N, n, P) arrays stay within BLOCK_BYTES for P <= n paths; its pole
    and gate refusals are raised as for f1_entry.  A path whose s is not
    finite or has |s| <= |b| / COND_LIMIT raises SingularMatrix too: since
    cond of the glued matrix is at least |b|/|s|, the gate of the
    contracted graph would refuse it as well.
    """
    def oracle(z, paths):
        paths = list(paths)
        glued, contracted, lengths, groups = _glued_paths(graph, paths)
        z = np.asarray(z).reshape(-1)
        f = np.empty((len(paths), len(z)), dtype=complex)
        for at, energies, A, G in resolvents(graph, kappa, z):
            s, b = _glued_schur(A, G, energies, glued, contracted, lengths,
                                groups)
            refused = ~np.isfinite(s) | (abs(s) <= abs(b) / COND_LIMIT)
            if refused.any():
                raise SingularMatrix(
                    energies.tolist()[refused.any(axis=1).argmax()],
                    "glued M_compact - coupling")
            f[:, at] = (1.0 / s).T
        return f

    return oracle


def ladder_tau0(graph: MetricGraph) -> float:
    """The probe ladder's start scaled to the graph: max(TAU0, TAU0/l_min).

    The probes carry terms of order exp(-tau * l_min), which the fit's
    model c0 + c1/tau + c2/tau^2 cannot absorb; starting at tau0 * l_min
    >= TAU0 keeps them below exp(-TAU0) on graphs with short edges.
    """
    return max([TAU0] + [TAU0 / e.length for e in graph.edges])


def _ladder(tau0, levels, fit_tol):
    """The ladder tau_j = tau0 * 2^j, j < levels, as a 1-D array.

    tau0 must be finite and positive, and levels at least 4: with only
    three levels the three coefficients of the fit fit exactly, so its
    residual could never flag a divergence.  A fit_tol below 0, which
    every residual exceeds, or NaN, which none can, is refused, and so is
    a ladder whose deepest energy -(tau0 * 2^(levels - 1))^2 overflows,
    or whose 1/tau0^2, the largest entry of the fit's design matrix, does.
    """
    if not fit_tol >= 0.0:
        raise ValueError(f"fit_tol must be a number >= 0, got {fit_tol!r}")
    if not (math.isfinite(tau0) and tau0 > 0):
        raise ValueError(f"tau0 must be finite and positive, got {tau0!r}")
    if levels < 4:
        raise ValueError(f"the ladder fit needs levels >= 4, got {levels}")
    try:
        math.ldexp(tau0, levels - 1) ** 2
        (1.0 / tau0) ** 2
    except OverflowError:
        raise ValueError(
            f"the deepest ladder energy -(tau0 * 2^(levels - 1))^2 or "
            f"1/tau0^2 overflows at tau0 = {tau0!r}, levels = {levels}"
        ) from None
    return np.array([math.ldexp(tau0, j) for j in range(levels)])


def recover_path_sums(graph_topology: MetricGraph, rtd_oracle, paths,
                      tau0: float | None = None, levels: int = LEVELS,
                      fit_tol: float = FIT_TOL) -> list[PathSumEstimate]:
    """Fit the coupling sum along each path from deep negative-axis probes.

    For the path V1..Vl the probe value f = rtd_oracle(-tau^2, path), the
    response entry with the path contracted into V1, obeys

        -1/f = tau * D + (sum of couplings) + small,
        D = sum of lead-free degrees - 2*(l-1),

    so subtracting the degree drift and fitting c0 + c1/tau + c2/tau^2
    over tau_j = tau0 * 2^j leaves the sum in c0.  tau0 defaults to
    ladder_tau0(graph_topology).  The oracle is called once, as
    rtd_oracle(z, paths) with the 1-D array z of the ladder energies and
    the list of paths, and returns the (len(paths), len(z)) array of
    their values.  The samples -1/f - tau * D are one numpy array, fitted
    by one least-squares solve with a column per path.  A fit residual
    above fit_tol * (1 + |c0|), or not a number, raises
    ExtrapolationDiverged naming the path's target — the signature of a
    wrong topology, a bad oracle (a zero or non-finite value, say), or
    tau0 too small for the edge lengths.  So does one ulp of the deepest
    drift tau * D above that bound: that sample keeps no digit of the
    sum, and the error reports the ulp.
    """
    if tau0 is None:
        tau0 = ladder_tau0(graph_topology)
    taus = _ladder(tau0, levels, fit_tol)
    paths = list(paths)
    values = np.asarray(rtd_oracle(-(taus * taus), paths))
    if values.shape != (len(paths), len(taus)):
        raise ValueError(f"the oracle returned shape {values.shape} for "
                         f"{len(paths)} paths at {len(taus)} energies")
    drift = [sum(graph_topology.degree(v) for v in path.vertices_on_path)
             - 2 * (path.vertex_count - 1) for path in paths]
    with np.errstate(all="ignore"):     # a zero or non-finite sample
        samples = (-1.0 / values - np.multiply.outer(drift, taus)).T
    design = np.column_stack([np.ones_like(taus), 1.0 / taus,
                              1.0 / taus ** 2]).astype(complex)
    # the solver scales all columns by the largest entry: a non-finite
    # column is fitted as zeros, and its residual stays non-finite
    finite = np.isfinite(samples).all(axis=0)
    coefs, *_ = np.linalg.lstsq(design, np.where(finite, samples, 0.0),
                                rcond=None)
    residuals = np.max(np.abs(design @ coefs - samples), axis=0)
    estimates = []
    for path, D, coef, residual in zip(paths, drift, coefs.T,
                                       residuals.tolist()):
        threshold = fit_tol * (1.0 + abs(coef[0]))
        lost = math.ulp(float(taus[-1]) * D)
        if not residual <= threshold or lost > threshold:
            raise ExtrapolationDiverged(max(residual, lost), threshold,
                                        path=path.target)
        value = complex(coef[0])
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
                     root: str | None = None, tau0: float | None = None,
                     levels: int = LEVELS, fit_tol: float = FIT_TOL):
    """Full recovery: spanning tree, path sums, triangular solve.

    Returns (couplings dict over all vertices, estimates).  The root
    defaults to the first external vertex (the natural probe point), or
    the first vertex if the graph has no leads; tau0 defaults to
    ladder_tau0(graph_topology).
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
    works, and exact ladder nodes work best.  A grid that does not reach
    the deepest ladder energy raises ValueError.  The interpolants are
    recover_path_sums' oracle.
    """
    taus = _ladder(tau0, levels, fit_tol)
    z_lo = -(taus[-1] ** 2)
    if not samples.grid.min() <= z_lo:
        raise ValueError(f"sample grid reaches only z={samples.grid.min():g}; "
                         f"the probe ladder needs z={z_lo:g}")
    ext = graph_topology.external_ids()
    entries = {vid: barycentric(samples.grid, samples.values[:, j, j])
               for j, vid in enumerate(ext)}

    def oracle(z, paths):
        return [[entries[p.root](x) for x in z.tolist()] for p in paths]

    paths = [SpanningTreePath(vid, vid, (), 1, (vid,)) for vid in ext]
    return {est.path.target: est.value
            for est in recover_path_sums(graph_topology, oracle, paths,
                                         tau0, levels, fit_tol)}
