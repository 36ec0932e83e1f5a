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

* ``lead_matching_oracle`` — plane-wave matching.  For a unit incoming
  wave e^{-ikx} on one lead, solve the (2n + n_leads) linear system of
  vertex conditions for the edge coefficients and outgoing amplitudes.
  The system is the vertex-matching assembly of the spectra, with one
  lead end per lead (``spectra.matching_matrix``); it is built from the
  entire edge kernels and never touches the M-matrix, so it cross-checks
  the algebra above.  (The two objects are unitarily related but not equal;
  tests record their relation rather than asserting it.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorisationMismatch, NumericalError
from .graphs import MetricGraph
from .spectra import matching_matrix
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
    leads = graph.external_ids()
    if not leads:
        return np.zeros((0, 0), dtype=complex)
    A = matching_matrix(graph, kappa, s, leads)
    # columns: edge pairs, then (T, I) per lead; the unit incoming
    # amplitudes move to the right-hand side
    lead0 = 2 * graph.n_edges
    unknown = list(range(lead0)) + list(range(lead0, A.shape[1], 2))
    B = -A[:, lead0 + 1::2]
    return checked_solve(A[:, unknown], B, s,
                         "lead matching system")[lead0:, :]


def sigma_sweep(graph: MetricGraph, kappa: CouplingMatrix, s_values,
                check_tol: float = FACTOR_TOL):
    """sigma_external (with check_tol) over a grid; singular energies are
    skipped.

    Returns (matrices, skipped) in grid order, where skipped holds one
    (float(s), exception) pair per point where an inversion was singular
    or the two routes disagreed: the NumericalError instance, so callers
    can report its type or its message.
    """
    matrices, skipped = [], []
    for s in s_values:
        try:
            matrices.append(sigma_external(graph, kappa, s, check_tol))
        except NumericalError as exc:
            skipped.append((float(s), exc))
    return matrices, skipped
