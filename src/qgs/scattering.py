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
  form reads (the external ones, or every one for ``sigma_full``).  The
  columns are

      (M*)^-1 M = I + (M*)^-1 (M - M*),

  with M - M* = 2i Im M exact (at real s, 2i sqrt(s) on the lead
  diagonals and 0 elsewhere), and the rows are Y^T (M* - K), Y the wanted
  columns of (M - K)^-T: the internal columns of the external rows vanish
  in exact arithmetic, so the projected-vs-factorised defect is the
  residual of Y.  An energy's error is the first of the assembly's pole
  verdict and the refusals of M - K and M*.  Y and (M*)^-1 come one of
  two ways.

  The Krein route.  At real s the leads are a rank-n_e change of the
  compact problem (Krein's resolvent formula): M - K = B1 + i sqrt(s) P_e
  and M* = B0 - i sqrt(s) P_e, with B1 = M_compact - K and B0 = M_compact
  real at real couplings.  One real inversion of the stack of B1 and B0
  (of B0 alone when K = 0) and n_e x n_e complex solves give the lead
  columns of both inverses (``weyl.krein_columns``), where the direct
  route pays two complex n x n inverses.  An energy stays on it only
  where an upper bound on the 1-norm condition of M - K and of M* passes
  the gate's own bracket (accept-only: the gate would accept it too) and
  B1 and B0 are within the accuracy limit ``weyl.KREIN_COND_LIMIT``.
  It runs for the external rows and columns at real couplings on graphs
  of at least KREIN_MIN_VERTICES vertices, where it pays: on a
  100-energy block it took 1.44, 1.05, 1.00, 0.93 and 0.82 times the
  direct route's time at 5, 10, 12, 16 and 20 vertices.  The same size
  rule holds at K = 0, where one real inverse serves both matrices: a
  90-energy sweep took the same time on either route at 2 to 8 vertices
  and 0.7 times the direct time at 10 to 15, and a single energy about
  60 us more on this route at 2 to 15.

  The direct route, for every other energy, every refusal among them:
  the two inverses of the condition gate (``weyl.gated_inverses``), on
  the transpose of M - K and on M*.  numpy inverts by LAPACK's gesv with
  the identity for right-hand side, so the wanted columns are, bit for
  bit, the backward stable solves with the wanted columns of the
  identity.  (Rows read off an inverse of M - K itself are not backward
  stable: near a resonance of a 10-vertex graph, at cond 4.3e4, they
  made the projected-vs-factorised defect 2.6e-9, against 8.4e-13 from
  the solve.)

  A single energy is a block of one, and ``sigma_sweep`` cuts its grid
  into blocks of at most ``weyl.BLOCK_BYTES`` of M-matrices and one dense
  coupling matrix; the route is chosen energy by energy, so a block does
  not change an energy's answer.  The projected form is checked as the
  external rows of the left factor times the external columns of the
  right one, without the n x n product.  The unitarity defect ||S*S - I||
  is computed once per block, on the block's stack of S, and stored on
  each ScatteringMatrix.  Energies s <= 0 are refused with ValueError: no
  wave propagates on a lead there.

* ``lead_matching_oracle`` — plane-wave matching.  For a unit incoming
  wave e^{-ikx} on one lead, solve the (2n + n_leads) linear system of
  vertex conditions for the edge coefficients and outgoing amplitudes.
  The system is the vertex-matching assembly of the spectra, with one
  lead end per lead (``spectra.matching_matrix``); it is built from the
  entire edge kernels and never touches the M-matrix, so it cross-checks
  the algebra above.  The two are not equal: Sigma scatters relative to
  the coupling-free graph, Sigma_ext(s) = R(K) R(0)*, with R(K) the
  oracle's matrix at couplings K, and factor by factor F1 = -R(K) and
  F2 = -R(0)* (the Cayley transforms of Kostrykin & Schrader, J. Phys. A
  32, 1999); the tests assert it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorisationMismatch, NumericalError
from .graphs import MetricGraph
from .spectra import matching_matrix
from .weyl import (CouplingMatrix, _inverse, gated_inverses, krein_columns,
                   stack_size, weyl_stack)

FACTOR_TOL = 1e-10
KREIN_MIN_VERTICES = 16   # smallest graph on which the Krein route pays


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


def _direct_solves(M, K, s_values, idx):
    """(rows, cols, errors): scattering_solves' rows and columns at the
    energies s_values of a stack M of full M-matrices, from the gate's
    inverses of (M - K)^T and of M*; errors[i] is the refusal of M - K,
    then of M*, or None, and a refused energy's rows and columns are NaN."""
    Ms = M.conj().swapaxes(1, 2)
    inverse, refused = gated_inverses((M - K).swapaxes(1, 2), s_values,
                                      "M - coupling")
    rows = inverse[:, :, idx].swapaxes(1, 2) @ (Ms - K)
    G, refused_star = gated_inverses(Ms, s_values, "M*")
    cols = np.eye(M.shape[-1])[:, idx] + G @ (M[:, :, idx] - Ms[:, :, idx])
    errors = [r or r_star for r, r_star in zip(refused, refused_star)]
    failed = [exc is not None for exc in errors]
    rows[failed] = np.nan
    cols[failed] = np.nan
    return rows, cols, errors


def _krein_solves(M, r, K, s, ext):
    """(rows, cols, accepted): scattering_solves' external rows and columns
    on the Krein route at the energies s of M[r], a stack of full
    M-matrices at no pole, with K real.  weyl_stack assembles the compact
    part from real kernels at s > 0 and adds i sqrt(s) on the lead
    diagonals, so M.real is M_compact.

    B1 = M_compact - K and B0 = M_compact are inverted in one real stack
    (B0 alone when K = 0, since then B1 = B0), and weyl.krein_columns gives
    Y, the ext columns of (M - K)^-1 = (M - K)^-T (M - K is symmetric),
    and Z, those of (M*)^-1.  accepted marks the energies where
    krein_columns accepts both matrices; the rest are not to be read.
    """
    n = M.shape[-1]
    B = np.empty((2 if K.any() else 1, len(r), n, n))   # B1, B0
    B[-1] = M.real[r]
    if len(B) == 2:
        np.subtract(B[1], K.real, out=B[0])
    R = _inverse(B.reshape(-1, n, n)).reshape(B.shape)
    ik = np.multiply.outer([1j, -1j], np.sqrt(s))
    (Y, Z), accepted = krein_columns(B, R, ik, ext)
    ik = ik[0, :, None, None]
    # Y^T (M* - K) = Y^T B1 - i sqrt(s) Y^T P_e, with B1^T Y taken in real
    # arithmetic on Y's real and imaginary parts side by side
    rows = (B[0].swapaxes(1, 2) @ Y.view(float)).view(complex).swapaxes(1, 2)
    rows[:, :, ext] -= ik * Y[:, ext, :].swapaxes(1, 2)
    # (M*)^-1 M = I + (M*)^-1 (M - M*), and M - M* = 2i sqrt(s) P_e
    cols = 2.0 * ik * Z
    cols[:, ext, range(len(ext))] += 1.0
    return rows, cols, accepted.all(axis=0)


def scattering_solves(graph: MetricGraph, K, s_values, idx):
    """The idx rows of the left factor and the idx columns of the right one
    at each energy of a block, K the dense coupling matrix.

    Returns (rows, cols, errors): stacks of [(M - K)^-1 (M* - K)][idx, :]
    and [(M*)^-1 M][:, idx], one per energy, with M the full M-matrix and
    idx a list of vertex indices, from one stacked assembly.  The rows are
    Y^T (M* - K), Y the idx columns of (M - K)^-T, and the columns
    I + (M*)^-1 (M - M*).  errors[i] is None, or the first NumericalError
    that refused energy i (a pole of M, then M - K, then M*), whose rows
    and columns are then NaN.  The columns do not depend on K, so a caller
    that wants only them may pass zeros.  Raises ValueError for an energy
    s <= 0.

    An energy that is not a pole takes the Krein route (_krein_solves)
    when idx is the external set, K is real, the graph has at least
    KREIN_MIN_VERTICES vertices, and weyl.krein_columns accepts both
    matrices.  Every other energy, and so every refusal, takes the direct
    route: the gate's inverses of (M - K)^T and of M*.
    """
    for s in s_values:
        if not s > 0:
            raise ValueError(f"scattering needs s > 0, got s={s:g}")
    s_array = np.asarray(s_values, dtype=float)
    M, errors = weyl_stack(graph, s_array, full=True)
    n, N, ext = graph.n_vertices, len(M), graph.external_indices()
    krein = np.array([error is None for error in errors], dtype=bool)
    krein &= (list(idx) == ext and not K.imag.any()
              and n >= KREIN_MIN_VERTICES)
    r = np.flatnonzero(krein)
    if r.size:
        rows_r, cols_r, accepted = _krein_solves(M, r, K, s_array[r], ext)
        krein[r] = accepted
    c = [i for i in np.flatnonzero(~krein).tolist() if errors[i] is None]
    if len(c) == N:
        # every energy direct, as on every graph below KREIN_MIN_VERTICES:
        # the merge below cost about 60 us a sweep, 3-5 % of the time of
        # smatrix-sweep's sweeps below 16 vertices, where its job_s.p50 sits
        return _direct_solves(M, K, s_values, idx)
    rows = np.full((N, len(idx), n), np.nan, dtype=complex)
    cols = np.full((N, n, len(idx)), np.nan, dtype=complex)
    if r.size:
        rows[r[accepted]] = rows_r[accepted]
        cols[r[accepted]] = cols_r[accepted]
    if c:
        rows[c], cols[c], refused = _direct_solves(
            M[c], K, [s_values[i] for i in c], idx)
        for i, error in zip(c, refused):
            errors[i] = error
    return rows, cols, errors


def sigma_full(graph: MetricGraph, kappa: CouplingMatrix, s: float) -> np.ndarray:
    """Full vertex-space scattering product at energy s (n x n)."""
    rows, cols, (error,) = scattering_solves(
        graph, kappa.as_array(), [s], list(range(graph.n_vertices)))
    if error is not None:
        raise error
    return rows[0] @ cols[0]


def external_factors(graph: MetricGraph, kappa: CouplingMatrix, s: float):
    """(F1, F2) external blocks whose product is the external scattering
    matrix.  F2 is coupling-independent."""
    ext = graph.external_indices()
    rows, cols, (error,) = scattering_solves(graph, kappa.as_array(), [s],
                                             ext)
    if error is not None:
        raise error
    return rows[0][:, ext], cols[0][ext, :]


def _sigma_block(graph, K, s_values, check_tol):
    """sigma_external at each energy of one block, K the dense coupling
    matrix: per energy, the ScatteringMatrix or the error refusing it."""
    ext = graph.external_indices()
    rows, cols, errors = scattering_solves(graph, K, s_values, ext)
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
