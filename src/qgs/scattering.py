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
  does not depend on the couplings at all, though every solve takes them.
  Every form is built from ``scattering_solves``, which assembles the
  M-matrices of a block of energies in one stacked call and returns only
  the rows of the left factor and the columns of the right one that a
  form reads (the external ones, or every one for ``sigma_full``).  Per
  energy that costs the two inverses of the condition gate
  (``weyl.gated_inverses``), on the transpose of M - K and on M*, and no
  further solve; an energy's error is the first of the assembly's pole
  verdict and the two gates' refusals.  The columns come
  from the gate's own inverse of M*, since

      (M*)^-1 M = I + (M*)^-1 (M - M*),

  with M - M* = 2i Im M exact (at real s, 2i sqrt(s) on the lead
  diagonals and 0 elsewhere: a finite-rank change, as in Krein's
  resolvent formula).  The rows are the wanted rows of (M - K)^-1, times
  M* - K, read as the wanted columns of the gate's inverse of the
  transpose of M - K.  numpy inverts by LAPACK's gesv with the identity
  for right-hand side, so those columns are, bit for bit, the backward
  stable solves with the transpose and the wanted columns of the
  identity.  (Rows read off an inverse of M - K itself are not backward
  stable: near a resonance of a 10-vertex graph, at cond 4.3e4, they
  made the projected-vs-factorised defect 2.6e-9, against 8.4e-13 from
  the solve.)  A single energy is a block of one, and ``sigma_sweep``
  cuts its grid into blocks of at most ``weyl.BLOCK_BYTES`` of
  M-matrices and one dense coupling matrix.  The projected form is
  checked as the external rows of the left factor times the external
  columns of the right one, without the n x n product.  The unitarity
  defect ||S*S - I|| is computed once per block, on the block's stack of
  S, and stored on each ScatteringMatrix.  Energies s <= 0 are refused
  with ValueError: no wave propagates on a lead there.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorisationMismatch, NumericalError
from .graphs import MetricGraph
from .spectra import matching_matrix
from .weyl import CouplingMatrix, gated_inverses, stack_size, weyl_stack

FACTOR_TOL = 1e-10


@dataclass(frozen=True)
class ScatteringMatrix:
    """External scattering matrix at a single energy s > 0, with its
    unitarity_defect ||S*S - I|| (Frobenius), computed for its block."""
    at_s: float
    entries: np.ndarray          # n_e x n_e, ordered by sorted external ids
    form: str                    # "full-factorised"
    unitarity_defect: float


def _unitarity_defects(S):
    """||S*S - I|| of each matrix of a stack S, bit for bit np.linalg.norm's:
    (1 x k)(k x 1) products sum the squares with the dot kernel norm uses."""
    m = S.shape[-1]
    x = (S.conj().swapaxes(1, 2) @ S - np.eye(m)).reshape(len(S), 1, m * m)
    squares = x.real @ x.real.swapaxes(1, 2) + x.imag @ x.imag.swapaxes(1, 2)
    return np.sqrt(squares[:, 0, 0])


def scattering_solves(graph: MetricGraph, kappa: CouplingMatrix, s_values,
                      idx):
    """The idx rows of the left factor and the idx columns of the right one
    at each energy of a block.

    Returns (rows, cols, errors): stacks of [(M - K)^-1 (M* - K)][idx, :]
    and [(M*)^-1 M][:, idx], one per energy, with M the full M-matrix and
    idx a list of vertex indices.  The block's M-matrices are one stacked
    assembly, and the condition gate (cond <= COND_LIMIT) runs on the
    transpose of M - K and on M*.  The columns come from the gate's own
    inverse of M*: (M*)^-1 M = I + (M*)^-1 (M - M*), where
    M - M* = 2i Im M is exact.  The rows are Y^T (M* - K), with Y the idx
    columns of the gate's inverse of (M - K)^T; numpy computes an inverse
    as the solve with the identity, so Y is, bit for bit, the thin solve
    (M - K)^-T E with E the idx columns of the identity.  errors[i] is
    None, or the first NumericalError that refused energy i (a pole of M,
    then M - K, then M*), whose rows and columns are then NaN.  The
    columns do not depend on kappa, so a caller that wants only them
    passes CouplingMatrix.zeros.  Raises ValueError for an energy s <= 0.
    """
    return _solves(graph, kappa.as_array(), s_values, idx)


def _solves(graph, K, s_values, idx):
    """scattering_solves with K the dense coupling matrix, built once."""
    for s in s_values:
        if not s > 0:
            raise ValueError(f"scattering needs s > 0, got s={s:g}")
    M, poles = weyl_stack(graph, np.asarray(s_values, dtype=float), full=True)
    Ms = M.conj().swapaxes(1, 2)
    E = np.eye(graph.n_vertices)[:, idx]
    inverse, refused = gated_inverses((M - K).swapaxes(1, 2), s_values,
                                      "M - coupling")
    rows = inverse[:, :, idx].swapaxes(1, 2) @ (Ms - K)
    G, refused_star = gated_inverses(Ms, s_values, "M*")
    cols = E + G @ (M[:, :, idx] - Ms[:, :, idx])
    errors = [pole or r or r_star
              for pole, r, r_star in zip(poles, refused, refused_star)]
    failed = [exc is not None for exc in errors]
    rows[failed] = np.nan
    cols[failed] = np.nan
    return rows, cols, errors


def sigma_full(graph: MetricGraph, kappa: CouplingMatrix, s: float) -> np.ndarray:
    """Full vertex-space scattering product at energy s (n x n)."""
    rows, cols, (error,) = scattering_solves(graph, kappa, [s],
                                             list(range(graph.n_vertices)))
    if error is not None:
        raise error
    return rows[0] @ cols[0]


def external_factors(graph: MetricGraph, kappa: CouplingMatrix, s: float):
    """(F1, F2) external blocks whose product is the external scattering
    matrix.  F2 is coupling-independent."""
    ext = graph.external_indices()
    rows, cols, (error,) = scattering_solves(graph, kappa, [s], ext)
    if error is not None:
        raise error
    return rows[0][:, ext], cols[0][ext, :]


def _sigma_block(graph, K, s_values, check_tol):
    """sigma_external at each energy of one block, K the dense coupling
    matrix: per energy, the ScatteringMatrix or the error refusing it."""
    ext = graph.external_indices()
    rows, cols, errors = _solves(graph, K, s_values, ext)
    factorised = rows[:, :, ext] @ cols[:, ext, :]
    # the external block of the full product, without forming the product
    projected = rows @ cols
    defects = np.linalg.norm(projected - factorised, axis=(1, 2))
    scales = np.maximum(1.0, np.linalg.norm(factorised, axis=(1, 2)))
    results = []
    for s, error, entries, defect, scale, unitarity in zip(
            s_values, errors, factorised, defects, scales,
            _unitarity_defects(factorised).tolist()):
        if error is None and defect > check_tol * scale:
            error = FactorisationMismatch(s, float(defect), check_tol)
        results.append(error or ScatteringMatrix(
            float(s), entries, "full-factorised", unitarity))
    return results


def sigma_external(graph: MetricGraph, kappa: CouplingMatrix, s: float,
                   check_tol: float = FACTOR_TOL) -> ScatteringMatrix:
    """External scattering matrix, computed by both routes and cross-checked.

    Raises FactorisationMismatch when projection and factorisation disagree
    beyond check_tol — a conditioning failure, not a formula discrepancy.
    The defect is the Frobenius norm of the difference, np.linalg.norm
    over axes (-2, -1).  A NaN check_tol, which no defect can exceed, and
    an energy s <= 0 raise ValueError.
    """
    matrices, skipped = sigma_sweep(graph, kappa, [s], check_tol)
    if skipped:
        raise skipped[0][1]
    return matrices[0]


# --------------------------------------------------------------------------
# plane-wave matching oracle
# --------------------------------------------------------------------------

def lead_matching_oracle(graph: MetricGraph, kappa: CouplingMatrix,
                         s: float) -> np.ndarray:
    """Reflection/transmission matrix by direct plane-wave matching.

    Column j holds the outgoing amplitudes produced by a unit incoming
    wave on lead j; rows and columns follow sorted external vertex order.
    A lone vertex with coupling a reflects with (a + ik)/(ik - a).  The
    amplitudes are the lead rows of the condition gate's own inverse of
    the system times the incoming waves' columns: one factorisation.
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
    A = A[:, unknown]
    (G,), (error,) = gated_inverses(A[None], [s], "lead matching system")
    if error is not None:
        raise error
    return G[lead0:] @ B


def sigma_sweep(graph: MetricGraph, kappa: CouplingMatrix, s_values,
                check_tol: float = FACTOR_TOL):
    """sigma_external (with check_tol) over a grid; singular energies are
    skipped.

    Returns (matrices, skipped) in grid order, where skipped holds one
    (float(s), exception) pair per point where an inversion was singular
    or the two routes disagreed: the NumericalError instance, so callers
    can report its type or its message.  The grid is solved in blocks of
    at most weyl.BLOCK_BYTES of M-matrices; each point's results are those
    of sigma_external at that point alone, bit for bit.  A NaN check_tol or
    an energy s <= 0 raises ValueError.
    """
    if math.isnan(check_tol):
        raise ValueError("check_tol must be a number, got nan")
    s_values = list(s_values)
    size = stack_size(graph.n_vertices)
    K = kappa.as_array()
    matrices, skipped = [], []
    for start in range(0, len(s_values), size):
        block = s_values[start:start + size]
        for s, result in zip(block, _sigma_block(graph, K, block,
                                                 check_tol)):
            if isinstance(result, NumericalError):
                skipped.append((float(s), result))
            else:
                matrices.append(result)
    return matrices, skipped
