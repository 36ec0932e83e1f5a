"""Weyl M-matrices of a metric graph and the Robin-to-Dirichlet map.

The compact M-matrix collects, per vertex pair, the Dirichlet-to-Neumann
response of the compact edges: diagonal entries sum -k*cot(k*l) over
incident non-loop edges plus 2*k*tan(k*l/2) per loop; adjacent off-diagonal
entries sum k/sin(k*l) over connecting edges (with multiplicity); entries
for non-adjacent vertex pairs vanish.  Attaching one outgoing lead per
external vertex adds i*sqrt(z) on the corresponding diagonal entries.

Matrix rows/columns follow the sorted-vertex-id order of graph-core;
external blocks follow the sorted external-id order.

The float assembly, weyl_stack, works on stacks: given N energies it
returns an (N, n, n) stack, with the kernels evaluated once on an (N, E)
array of energies by edge lengths and their values scattered into the
entries by index arrays built on the graph's first assembly.  The pole
test reads the same arrays, and its verdict comes with the stack: one
PoleProximity or None per energy, with the identity in place of a matrix
at a pole, so that a stack's gates never see an infinite entry.  Each
entry sums its edges' terms in edge order, so a matrix does not depend
on the stack it is assembled in; a single energy is a stack of one:
weyl_compact and weyl_full return the n x n matrix of such a stack, or
raise its PoleProximity.  Stacks of many energies are cut to BLOCK_BYTES
of matrices by their callers.

One condition gate, gated_inverses, guards every inverse and solve of
an M-matrix system, of the scattering topology factor and of the lead
matching system: a stack of matrices, one energy each, goes in; their
inverses, np.linalg.inv's bit for bit, and one SingularMatrix or None
per energy (cond > COND_LIMIT) come out.  A single matrix is a stack of
one.  resolvents assembles and gates M_compact - K in stacks of
stack_size(n), a real run in real arithmetic, for every reader of its
inverse: robin_to_dirichlet, and inverse's f1_entry and forward oracle.

At real z the leads are a rank-n_e change of the compact problem
(Krein's resolvent formula): A = B +- i sqrt(z) P_e with B real.
krein_columns takes B's real inverse R to the lead columns of A^-1 by
n_e x n_e complex solves, for the scattering sweep.  It passes a matrix
only where two tests hold, and its caller runs the gate on the others:
an upper bound on the 1-norm condition of A, built from R, that
gated_inverses' own bracket accepts (accept-only: it never passes a
matrix the gate would refuse), and the accuracy limit KREIN_COND_LIMIT
on B's 1-norm condition, since R carries B's rounding into the answer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .errors import PoleProximity, SingularMatrix
from .graphs import MetricGraph
from .kernels import (SERIES_CUTOFF, edge_kernels, is_mp, mp_edge_kernels,
                      sqrt_upper)

POLE_TOL = 1e-12
COND_LIMIT = 1e12
GATE_SLACK = 4.0   # rounding margin of the 1-norm bracket in gated_inverses
KREIN_COND_LIMIT = math.sqrt(COND_LIMIT)   # accuracy limit of krein_columns
BLOCK_BYTES = 256 * 1024   # complex M-matrices held in one stack


def stack_size(n_vertices: int) -> int:
    """Energies per stack: as many n x n complex matrices as fit in
    BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // max(1, 16 * n_vertices ** 2))


@dataclass(frozen=True)
class CouplingMatrix:
    """Diagonal matrix of coupling constants in sorted-vertex order."""

    ids: tuple[str, ...]
    diagonal: tuple[complex, ...]

    def __post_init__(self):
        for vid, a in zip(self.ids, self.diagonal):
            if not cmath.isfinite(a):
                raise ValueError(f"coupling at vertex {vid!r} must be "
                                 f"finite, got {a!r}")

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

    def as_array(self) -> np.ndarray:
        return np.diag(np.asarray(self.diagonal, dtype=complex))

    @property
    def is_real(self) -> bool:
        return all(abs(a.imag) == 0.0 for a in self.diagonal)


def _norm1(A):
    """Max column sum of each matrix of a stack (the 1-norm)."""
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _inverse(A):
    """np.linalg.inv(A), for one matrix or each of a stack, with NaN in
    place of the inverse of an exactly singular matrix."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.full_like(A, np.nan)
        return np.stack([_inverse(a) for a in A])


def gated_inverses(A, z, what):
    """(inverse, errors): np.linalg.inv of each matrix of a stack A
    (N x n x n), with one energy per matrix in z, and the condition gate's
    verdict on each.  errors[i] is SingularMatrix(z[i], what) when
    np.linalg.cond(A[i]) > COND_LIMIT, and inverse[i] is then NaN;
    otherwise errors[i] is None and inverse[i] is np.linalg.inv's, bit for
    bit.  A single matrix is a stack of one.  numpy's inverse is LAPACK's
    gesv with the identity for right-hand side, so a column of it is
    np.linalg.solve's with that column of the identity, bit for bit.

    kappa_1 = ||A||_1 ||A^-1||_1 brackets the 2-norm condition number:
    kappa_1/n <= cond(A) <= n kappa_1 (Golub & Van Loan, Matrix
    Computations, 2.3).  A matrix whose bracket lies below or above
    COND_LIMIT with a factor GATE_SLACK to spare, for the rounding of the
    computed inverse, is decided by it; only the rest, exactly singular
    ones included, go to the SVD of np.linalg.cond, so every decision is
    the SVD's.  (Higham's 1-norm estimator, ACM TOMS 14, 1988, would need
    the LU factors, which numpy does not expose.)
    """
    n = A.shape[-1]
    inverse = _inverse(A)
    with np.errstate(all="ignore"):
        kappa1 = _norm1(A) * _norm1(inverse)
    refused = kappa1 > GATE_SLACK * n * COND_LIMIT
    band = ~refused & ~(GATE_SLACK * n * kappa1 < COND_LIMIT)
    if band.any():
        refused[band] = np.linalg.cond(A[band]) > COND_LIMIT
    inverse[refused] = np.nan
    return inverse, [SingularMatrix(zi, what) if r else None
                     for zi, r in zip(z, refused)]


def krein_columns(B, R, ik, ext):
    """(Y, accepted): the ext columns of the inverse of each matrix of
    A = B + ik P_e, from R = B^-1, with B real, ik = +-i sqrt(s) one per
    matrix, and P_e the 0/1 projector onto the ext indices.  B and R are
    stacks (..., n, n) and ik an array (...), broadcast together.

    A is a rank-len(ext) change of B (Krein's resolvent formula), so
    A^-1 = R - ik Y R[ext, :] with Y = R[:, ext] (I + ik R[ext, ext])^-1:
    one small complex inverse per matrix.  accepted marks the matrices
    that pass two tests; only their Y are meant to be read:

    * the accept-only bound: ||A||_1 <= ||B||_1 + |ik| and ||A^-1||_1 <=
      ||R||_1 + |ik| ||Y||_1 ||R[ext, :]||_1 bound kappa_1(A) from above,
      and GATE_SLACK n bound < COND_LIMIT passes A by gated_inverses' own
      bracket, so no A is passed here that gated_inverses would refuse;
    * the accuracy limit kappa_1(B) <= KREIN_COND_LIMIT = sqrt(COND_LIMIT):
      R carries B's rounding, about eps kappa(B), into Y, and no gate
      sees B.  The limit lets B's rounding cost at most half the digits
      the gate lets a direct solve lose.  Measured on family graphs of 50
      to 200 vertices at 90 energies each, the sweep's S moved from the
      direct route's by at most 0.023 eps kappa_1(B); on a 10-vertex
      graph where M_compact had 2-norm condition 2.7e6, the route without
      the limit answered with a unitarity defect of 2.9e-11, against
      1.5e-12 by the direct route.

    A NaN in R (B exactly singular) or in the small inverse fails both.
    """
    n = B.shape[-1]
    k = np.abs(ik)
    with np.errstate(all="ignore"):
        Re = R[..., ext]
        Y = Re @ _inverse(np.eye(len(ext))
                          + ik[..., None, None] * Re[..., ext, :])
        norm_B, norm_R = _norm1(B), _norm1(R)
        bound = (norm_B + k) * (norm_R
                                + k * _norm1(Y) * _norm1(R[..., ext, :]))
        accepted = ((GATE_SLACK * n * bound < COND_LIMIT)
                    & (norm_B * norm_R <= KREIN_COND_LIMIT))
    return Y, accepted


class _Plan(NamedTuple):
    """Where the compact M-matrix entries of a graph come from.

    edge_kernels gives cot, csc and tanhalf of every edge at N energies as
    a (3, N, E) array of terms.  Slot s of a matrix takes the term of
    kernel[s] (0, 1, 2 for cot, csc, tanhalf) and edge[s], times scale[s],
    into its flat entry index[s].  The slots list each edge's entries in
    edge order: a non-loop edge's -cot on both diagonal entries and its csc
    on both off-diagonal ones, a loop's 2 tanhalf on its vertex's diagonal.
    """

    n: int
    lengths: np.ndarray          # every edge, in edge order
    kernel: np.ndarray
    edge: np.ndarray
    scale: np.ndarray
    index: np.ndarray


def _plan(graph: MetricGraph) -> _Plan:
    """The graph's assembly plan, built on its first assembly and kept on
    it (a MetricGraph is immutable, so the plan stays valid)."""
    return graph._cached("_weyl_plan", lambda: _build_plan(graph))


def _build_plan(graph: MetricGraph) -> _Plan:
    n = graph.n_vertices
    slots = []      # (kernel, edge, scale, flat entry)
    for p, e in enumerate(graph.edges):
        i, j = graph.vertex_index(e.u), graph.vertex_index(e.v)
        if e.is_loop:
            slots.append((2, p, 2.0, i * n + i))
        else:
            slots += [(0, p, -1.0, i * n + i), (0, p, -1.0, j * n + j),
                      (1, p, 1.0, i * n + j), (1, p, 1.0, j * n + i)]
    kernel, edge, scale, index = np.array(slots).reshape(-1, 4).T
    return _Plan(n, np.array([e.length for e in graph.edges]),
                 kernel.astype(np.intp), edge.astype(np.intp), scale,
                 index.astype(np.intp))


def _assemble(graph, z, full):
    """(M, terms) at the N energies of the 1-D complex array z: the
    (N, n, n) M-matrices (compact, plus i*sqrt(z) on the external
    diagonals when full) and the (3, N, E) kernel terms they are summed
    from, real and imaginary parts apart, each entry over its slots in
    edge order."""
    plan = _plan(graph)
    N, size = len(z), plan.n * plan.n
    zc = z[:, None]
    with np.errstate(all="ignore"):     # the kernels blow up at a pole
        terms = edge_kernels(zc, plan.lengths)
    slots = (terms[plan.kernel, :, plan.edge].T * plan.scale).ravel()
    flat = plan.index if N == 1 else \
        np.add.outer(np.arange(N) * size, plan.index).ravel()
    M = np.zeros(N * size, dtype=complex)
    M.real = np.bincount(flat, slots.real, minlength=M.size)
    if slots.imag.any():
        M.imag = np.bincount(flat, slots.imag, minlength=M.size)
    M = M.reshape(N, plan.n, plan.n)
    if full:
        ext = graph.external_indices()
        M[:, ext, ext] += 1j * sqrt_upper(zc)
    return M, terms


def weyl_stack(graph: MetricGraph, z, full: bool = False):
    """(M, errors): M-matrices at the N energies of the 1-D array z, and
    the pole test's verdict on each.

    M is the (N, n, n) stack of compact M-matrices, with i*sqrt(z) added
    on the external diagonals when full.  Every kernel is evaluated once
    on the (N, E) array of energies by edge lengths, and each entry sums
    its edges' terms in edge order, so a matrix does not depend on the
    stack it sits in.  errors[i] is PoleProximity for the first edge, in
    edge order, with |sin(sqrt(z_i) l)| = sqrt|z_i| / |kcsc(z_i, l)| below
    POLE_TOL, and M[i] is then the identity, a finite placeholder whose
    gate verdicts the pole outranks; otherwise errors[i] is None.  z = 0
    is removable (series limits 1/l, 1/l, 0), not a pole: genuine poles
    sit at sqrt(z)*l = n*pi with n >= 1, outside the series region.
    """
    z = np.asarray(z, dtype=complex)
    M, terms = _assemble(graph, z, full)
    errors = [None] * len(z)
    if not ((z.real > 0.0) | (z.imag != 0.0)).any():
        return M, errors    # on z <= 0, |sin(sqrt(z) l)| = sinh(|sqrt(z)| l)
    lengths = _plan(graph).lengths
    az = abs(z)[:, None]
    with np.errstate(all="ignore"):
        hit = ((az * lengths * lengths >= SERIES_CUTOFF)
               & (np.sqrt(az) < POLE_TOL * abs(terms[1])))
    for i in np.flatnonzero(hit.any(axis=1)).tolist():
        M[i] = np.eye(M.shape[-1])
        errors[i] = PoleProximity(complex(z[i]),
                                  graph.edges[hit[i].argmax()].id)
    return M, errors


def compact_entries(graph: MetricGraph, z):
    """Compact M-matrix entries at z, with no pole check.

    The arithmetic follows z.  A Python or numpy number gives one numpy
    complex matrix and a 1-D array of N energies an (N, n, n) stack, both
    assembled as by weyl_stack; an mpmath number gives an mpmath matrix at
    the working precision.
    """
    if not is_mp(z):
        z = np.asarray(z, dtype=complex)
        M, _ = _assemble(graph, z.reshape(-1), full=False)
        return M if z.ndim else M[0]
    n = graph.n_vertices
    M = mp.zeros(n, n)
    idx = {vid: i for i, vid in enumerate(graph.vertex_ids())}
    for e in graph.edges:
        c, s, t = mp_edge_kernels(z, e.length)
        if e.is_loop:
            M[idx[e.u], idx[e.u]] += 2.0 * t
        else:
            i, j = idx[e.u], idx[e.v]
            M[i, i] -= c
            M[j, j] -= c
            M[i, j] += s
            M[j, i] += s
    return M


def weyl_compact(graph: MetricGraph, z) -> np.ndarray:
    """Compact M-matrix (leads ignored) at energy z, the n x n matrix of a
    one-energy weyl_stack.

    Raises PoleProximity when z sits within 1e-12 of a trigonometric pole
    |sin(sqrt(z) l_p)| of any edge; callers wanting a boundary value from
    the upper half-plane retry at z + 1e-8j.
    """
    (M,), (error,) = weyl_stack(graph, [z])
    if error is not None:
        raise error
    return M


def weyl_full(graph: MetricGraph, z) -> np.ndarray:
    """Full M-matrix: compact part plus i*sqrt(z) on external diagonals.
    Raises PoleProximity as weyl_compact does."""
    (M,), (error,) = weyl_stack(graph, [z], full=True)
    if error is not None:
        raise error
    return M


def external_projector(graph: MetricGraph) -> np.ndarray:
    """0/1 diagonal projector onto the external vertices (full-size)."""
    P = np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)
    for i in graph.external_indices():
        P[i, i] = 1.0
    return P


def resolvents(graph: MetricGraph, kappa: CouplingMatrix, z):
    """(at, energies, A, G) for each run of the 1-D energy array z, in
    order: A = M_compact - K at the energies z[at] and G its gated inverse.

    The energies are assembled by weyl_stack and gated by gated_inverses
    in stacks of stack_size(n).  A run is a stretch of real matrices (every
    real energy, of either sign, with real couplings), inverted in real
    arithmetic, or of complex ones, so each inverse is the one its energy
    gives alone, bit for bit.  A stack with an energy that lies within
    POLE_TOL of a pole or whose matrix the gate refuses raises the first
    such PoleProximity or SingularMatrix, in the order given (a pole
    before a refusal at the same energy), after the stacks before it are
    yielded.
    """
    K = kappa.as_array()
    size = stack_size(graph.n_vertices)
    for start in range(0, len(z), size):
        block = z[start:start + size]
        M, errors = weyl_stack(graph, block)
        A = M - K
        real = ~A.imag.any(axis=(1, 2))
        cuts = [0, *(np.flatnonzero(np.diff(real)) + 1).tolist(), len(block)]
        runs = []
        for a, b in zip(cuts, cuts[1:]):
            run = A[a:b].real if real[a] else A[a:b]
            energies = block[a:b]
            G, refused = gated_inverses(run, energies.tolist(),
                                        "M_compact - coupling")
            errors[a:b] = [e or r for e, r in zip(errors[a:b], refused)]
            runs.append((slice(start + a, start + b), energies, run, G))
        error = next((e for e in errors if e is not None), None)
        if error is not None:
            raise error
        yield from runs


def robin_to_dirichlet(graph: MetricGraph, kappa: CouplingMatrix, z):
    """External block of (M_compact(z) - kappa)^{-1}: a complex n_e x n_e
    matrix at one energy z, an (N, n_e, n_e) stack at a 1-D array of them.

    This is the Robin-to-Dirichlet map of the external vertex set: it sends
    the combination (Neumann data - kappa * Dirichlet data) to the Dirichlet
    data on the external vertices.  Symmetric for real kappa at real z.
    The blocks are read off resolvents, so their entries are f1_entry's,
    bit for bit, and its pole and gate refusals are raised (SingularMatrix
    where z is numerically an eigenvalue of the compact graph).
    """
    ext = graph.external_indices()
    z = np.asarray(z)
    R = np.empty((z.size, len(ext), len(ext)), dtype=complex)
    for at, _, _, G in resolvents(graph, kappa, z.reshape(-1)):
        R[at] = G[:, ext][:, :, ext]
    return R[0] if z.ndim == 0 else R
