"""Scattering matrices of graphs with leads.

Two independent constructions live here:

* ``sigma_full`` / ``sigma_external`` — the M-matrix route.  The full
  vertex-space matrix is the exact product

      Sigma(s) = (M - K)^-1 (M* - K) (M*)^-1 M

  (K the coupling matrix, star the conjugate transpose; the order of the
  factors matters and is kept verbatim).  Its external compression can be
  computed two ways: project the full product, or multiply the two
  external factors

      F1 = Pe (M - K)^-1 (M* - K) Pe,     F2 = Pe (M*)^-1 M Pe,

  which agree identically in exact arithmetic.  ``sigma_external``
  evaluates both and refuses to return silently if they drift apart —
  that only happens when an inversion is badly conditioned.  Note F2
  does not depend on the couplings at all.  Every form is built from
  ``scattering_solves``, which assembles M and solves each factor once
  per energy.

* ``lead_matching_oracle`` — plane-wave matching from scratch.  For a unit
  incoming wave e^{-ikx} on one lead, solve the (2n + n_leads) linear
  system of vertex conditions for the edge coefficients and outgoing
  amplitudes.  This never touches the M-matrix, so it cross-checks the
  algebra above.  (The two objects are unitarily related but not equal;
  tests record their relation rather than asserting it.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorisationMismatch, NumericalError
from .graphs import MetricGraph
from .kernels import entire_cs
from .weyl import CouplingMatrix, checked_solve, weyl_full

FACTOR_TOL = 1e-10


@dataclass(frozen=True)
class ScatteringMatrix:
    """External scattering matrix at a single energy s > 0."""
    at_s: float
    entries: np.ndarray          # n_e x n_e, ordered by sorted external ids
    form: str                    # "full-factorised" | "projected"

    @property
    def unitarity_defect(self) -> float:
        n = self.entries.shape[0]
        return float(np.linalg.norm(
            self.entries.conj().T @ self.entries - np.eye(n)))


def external_block(graph: MetricGraph):
    """Index of the external-by-external block of a vertex-space matrix,
    in sorted external order."""
    order = graph.vertex_ids()
    ext = [order.index(v) for v in graph.external_ids()]
    return np.ix_(ext, ext)


def scattering_solves(graph: MetricGraph, kappa: CouplingMatrix | None,
                      s: float):
    """The two factors of the full product at energy s, each solved once.

    Returns (left, right) = ((M - K)^-1 (M* - K), (M*)^-1 M) with M the
    full M-matrix, assembled once; each solve is gated by cond <=
    COND_LIMIT.  With kappa None only the coupling-free right factor is
    solved and left is None.
    """
    M = weyl_full(graph, s).entries
    Ms = M.conj().T
    left = None
    if kappa is not None:
        K = kappa.as_array()
        left = checked_solve(M - K, Ms - K, s, "M - coupling")
    return left, checked_solve(Ms, M, s, "M*")


def sigma_full(graph: MetricGraph, kappa: CouplingMatrix, s: float) -> np.ndarray:
    """Full vertex-space scattering product at energy s (n x n)."""
    left, right = scattering_solves(graph, kappa, s)
    return left @ right


def external_factors(graph: MetricGraph, kappa: CouplingMatrix, s: float):
    """(F1, F2) external blocks whose product is the external scattering
    matrix.  F2 is coupling-independent."""
    ext = external_block(graph)
    left, right = scattering_solves(graph, kappa, s)
    return left[ext], right[ext]


def sigma_external(graph: MetricGraph, kappa: CouplingMatrix, s: float,
                   check_tol: float = FACTOR_TOL) -> ScatteringMatrix:
    """External scattering matrix, computed by both routes and cross-checked.

    Raises FactorisationMismatch when projection and factorisation disagree
    beyond check_tol — a conditioning failure, not a formula discrepancy.
    """
    ext = external_block(graph)
    left, right = scattering_solves(graph, kappa, s)
    projected = (left @ right)[ext]
    factorised = left[ext] @ right[ext]
    defect = float(np.linalg.norm(projected - factorised))
    if defect > check_tol * max(1.0, float(np.linalg.norm(factorised))):
        raise FactorisationMismatch(s, defect, check_tol)
    return ScatteringMatrix(float(s), factorised, "full-factorised")


def sigma_projected(graph: MetricGraph, kappa: CouplingMatrix,
                    s: float) -> ScatteringMatrix:
    """External scattering matrix by projection alone (no cross-check)."""
    entries = sigma_full(graph, kappa, s)[external_block(graph)]
    return ScatteringMatrix(float(s), entries, "projected")


# --------------------------------------------------------------------------
# plane-wave matching oracle
# --------------------------------------------------------------------------

def lead_matching_oracle(graph: MetricGraph, kappa: CouplingMatrix,
                         s: float) -> np.ndarray:
    """Reflection/transmission matrix by direct plane-wave matching.

    Column j holds the outgoing amplitudes produced by a unit incoming
    wave on lead j; rows and columns follow sorted external vertex order.
    A lone vertex with coupling a reflects with (a + ik)/(ik - a).
    """
    if s <= 0:
        raise ValueError("lead matching needs s > 0")
    k = math.sqrt(s)
    leads = graph.external_ids()
    if not leads:
        return np.zeros((0, 0), dtype=complex)
    n = graph.n_edges
    dim = 2 * n + len(leads)
    ecol = {e.id: 2 * i for i, e in enumerate(graph.edges)}
    lcol = {v: 2 * n + i for i, v in enumerate(leads)}
    lead_j = {v: j for j, v in enumerate(leads)}

    # end datum: (value coeffs, deriv coeffs, value consts, deriv consts)
    # coeffs are {column: coefficient}; consts are per-incoming-lead rows.
    def compact_ends(e):
        C, S = entire_cs(s, e.length)
        u = ({ecol[e.id]: 1.0}, {ecol[e.id] + 1: 1.0})
        v = ({ecol[e.id]: C, ecol[e.id] + 1: S},
             {ecol[e.id]: s * S, ecol[e.id] + 1: -C})
        return u, v

    ends_at = {vid: [] for vid in graph.vertex_ids()}
    for e in graph.edges:
        u_end, v_end = compact_ends(e)
        ends_at[e.u].append((u_end[0], u_end[1], None))
        ends_at[e.v].append((v_end[0], v_end[1], None))
    for v in leads:
        # outgoing T e^{ikx}: value T, inward derivative ik T; incoming
        # e^{-ikx} adds value 1 and inward derivative -ik on its own lead.
        ends_at[v].append(({lcol[v]: 1.0}, {lcol[v]: 1j * k}, v))

    A = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, len(leads)), dtype=complex)
    scale = 1.0 / max(1.0, k)
    r = 0
    for v in graph.vertices:
        ends = ends_at[v.id]
        if not ends:
            continue
        first = ends[0]

        def add(row, coeffs, sign):
            for col, c in coeffs.items():
                A[row, col] += sign * c

        def add_const(row, lead_vid, amount):
            if lead_vid is not None:
                B[row, lead_j[lead_vid]] -= amount  # move to RHS

        for other in ends[1:]:
            add(r, first[0], 1.0)
            add_const(r, first[2], 1.0)
            add(r, other[0], -1.0)
            add_const(r, other[2], -1.0)
            r += 1
        a = complex(kappa.diagonal[graph.vertex_index(v.id)])
        for end in ends:
            add(r, {c: cf * scale for c, cf in end[1].items()}, 1.0)
            add_const(r, end[2], -1j * k * scale)
        add(r, {c: -a * cf * scale for c, cf in first[0].items()}, 1.0)
        add_const(r, first[2], -a * scale)
        r += 1

    return checked_solve(A, B, s, "lead matching system")[2 * n:, :]


def sigma_sweep(graph: MetricGraph, kappa: CouplingMatrix, s_values):
    """sigma_external over a grid; singular energies are skipped.

    Returns (matrices, skipped) where skipped is a list of
    (s, reason) pairs for points where an inversion was singular or the
    two routes disagreed.
    """
    matrices, skipped = [], []
    for s in s_values:
        try:
            matrices.append(sigma_external(graph, kappa, s))
        except NumericalError as exc:
            skipped.append((float(s), str(exc)))
    return matrices, skipped
