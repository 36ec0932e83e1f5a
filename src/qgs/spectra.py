"""Compact-graph spectra via two independent routes.

``weyl`` mode counts eigenvalues.  M(z) is a matrix Herglotz function, so
away from its poles z = (n pi / l_p)^2 the number of eigenvalues below z is

    N(z) = sum_p #{n >= 1 : (n pi / l_p)^2 < z} + #{eig(M(z) - kappa) > 0}

(Friedlander, ARMA 116, 1991; Berkolaiko & Kuchment, Introduction to
Quantum Graphs, 2013); a jump's size is its multiplicity.  The route
works in t = sign(z) sqrt|z|, in two phases.  Isolate: bisection on N
until a bracket holds a single jump of 1 and, within the snap's reach,
neither 0 nor a pole.  Refine: between poles the eigenvalues of M(z) -
kappa increase with z, so such a jump is where one of them, continuous
there, crosses zero; safeguarded Illinois steps on that eigenvalue close
the bracket to 32 ulps, never in more rounds than bisection.  Every live
bracket, halving or refining, evaluates one point per round, with one
stacked M-matrix assembly and one stacked eigvalsh per BLOCK_BYTES of
matrices.  No scan grid, so no pair of eigenvalues is too close to see.
N(-T^2) = 0 makes -T^2 an exact lower window.  Jumps of 2 or more are
bisected to adjacent doubles.  Near 0 or a pole the float count is off
(by about 3e-8 in z on a pole), so a bracket within the snap's reach of
such a point stops there, with its whole jump, when the kernel test finds
an eigenvalue at it; a bracket past t(z_max), as wide as that reach,
keeps a root on a pole at z_max.

``matching`` mode is the independent check.  It lists the count's roots
and confirms each one, z <= 0 included, on the (2n)x(2n) linear system
in per-edge coefficients from vertex continuity and the delta conditions
(the secular system in Berkolaiko & Kuchment's book): at a root of
multiplicity m the system must have exactly m singular values below
KERNEL_REL relative to max(sigma_max, 1), or the route raises
UnconfirmedRoot.  The system is built from edge solutions that are entire
in z, or decay away from the edge's ends, and never touches the M-matrix
or its poles -- which is what keeps the check independent.  It confirms
roots; it does not find them, so completeness rests on the count.

``compact_eigenvalues`` wants the first `count` eigenvalues: it doubles
z_max from a Weyl-law guess until N(z_max) >= count and lists the
spectrum below z_max once.  A list shorter than N(z_max) raises
ScanFailure.

Multiplicity: z is an eigenvalue where the matching matrix, pole-free
and bounded, loses rank, by its multiplicity.  One kernel test reads it:
the matrix's singular values below KERNEL_REL relative to
max(sigma_max, 1).  kernel_margins confirms the count's roots with it,
and multiplicity_at, which counts them, gates the weyl route's snap onto
0 and the poles.  mpmath remains only in three 60-digit reference
determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import ScanFailure, UnconfirmedRoot
from .graphs import MetricGraph
from .kernels import (entire_cs, is_mp, mp_entire_cs, mp_sqrt_upper,
                      sqrt_upper)
from .weyl import CouplingMatrix, compact_entries, stack_size

MERGE_TOL = 1e-8          # roots closer than this (in z) are one eigenvalue
KERNEL_REL = 1e-8         # singular-value cutoff for multiplicity
SNAP_REL = 1e-7           # counted roots this close (in t) snap to 0 or a pole
REFINE_ULPS = 32          # width (in ulps of t) at which refinement stops
DECAY_FROM = 1.0          # Im(sqrt z) * l from which edges decay


@dataclass(frozen=True)
class Eigenvalue:
    z: float
    multiplicity: int


# --------------------------------------------------------------------------
# the eigenvalue count
# --------------------------------------------------------------------------

def _weyl_matrix_raw(graph, kappa, z):
    """M_compact(z) - kappa without pole guards (the count handles poles
    itself), in the arithmetic of z: one matrix, or a stack for a 1-D
    array of energies."""
    M = compact_entries(graph, z)
    if not is_mp(z):
        return M - np.diag(kappa.diagonal)
    # elementwise mpmath matrix arithmetic would cost n^2 operations
    for i, a in enumerate(kappa.diagonal):
        M[i, i] -= a
    return M


def _eigen_counts(graph, kappa, t):
    """(counts, eigenvalues) at each z = t|t| of the sequence t: N(z) as
    an int array, the Dirichlet term plus the number of positive
    eigenvalues of M(z) - kappa, and those eigenvalues in ascending order,
    one row per energy.  One assembly and one stacked eigvalsh per stack
    of at most BLOCK_BYTES of matrices."""
    t = np.asarray(t, dtype=float)
    # the Dirichlet term: ceil(t l / pi) - 1 eigenvalues below t > 0 per
    # edge; the maximum clears the negative values of t <= 0
    lengths = np.array([e.length for e in graph.edges])
    dirichlet = np.ceil(np.multiply.outer(t, lengths) / math.pi) - 1.0
    counts = np.maximum(dirichlet, 0.0).sum(axis=-1).astype(int)
    eigenvalues = np.empty((len(t), graph.n_vertices))
    size = stack_size(graph.n_vertices)
    for start in range(0, len(t), size):
        block = t[start:start + size]
        with np.errstate(all="ignore"):
            A = _weyl_matrix_raw(graph, kappa, block * abs(block)).real
        eigenvalues[start:start + size] = np.linalg.eigvalsh(A)
    counts += np.sum(eigenvalues > 0.0, axis=1)
    return counts, eigenvalues


def _special_point(lengths, a, b):
    """(p, near, within) for the bracket (a, b] and the array of edge
    lengths: p is the nearest of 0 and the poles n pi / l to it (the first
    in edge order on a tie), by one formula, so that a pole is the same
    float in every bracket that finds it, and 0 is +0.0, so that a root
    there prints as 0; near says whether p lies within the snap's reach,
    SNAP_REL * max(|t|, 1 / l_min), of the bracket, and within whether the
    whole bracket does."""
    t = 0.5 * (a + b)
    poles = np.round(max(0.0, t) * lengths / math.pi) * math.pi / lengths
    p = float(poles[np.argmin(np.abs(t - poles))])
    reach = SNAP_REL * max(-a, b, 1.0 / lengths.min())
    return p, a - reach <= p <= b + reach, b - reach <= p <= a + reach


def _isolated(near, a, b, na, nb, ea, eb):
    """The _Crossing of a bracket (a, b] with counts na, nb and eigenvalue
    rows ea, eb at its ends, or None while it must still be halved: when
    its jump is not exactly 1, when 0 or a pole is near it (_special_point),
    or when the crossing eigenvalue is not negative at a and positive at
    b."""
    if nb - na != 1 or near:
        return None
    j = eb.size - int(np.sum(eb > 0.0))
    if not ea[j] < 0.0 < eb[j]:
        return None
    return _Crossing(a, b, na, nb, ea, eb, j)


def _illinois_point(a, b, fa, fb):
    """The zero of the chord through (a, fa) and (b, fb)."""
    return (a * fb - b * fa) / (fb - fa)


class _Crossing:
    """An isolated jump of the count: on (a, b] eigenvalue j of
    M(t|t|) - kappa, continuous and increasing there, crosses zero, and
    the count steps from na to nb where it does.

    Refined by safeguarded Illinois steps (Dowell & Jarratt, BIT 11,
    1971): the chord's zero, with the value at an end halved whenever the
    other end moves twice in a row.  A point closer than tol to the last
    one moves tol past it, so that a converged side closes the bracket in
    one step.  As in ITP (Oliveira & Takahashi, ACM TOMS 47, 2021), the
    point is then moved towards the midpoint just far enough that every
    step keeps the bracket on a schedule that reaches width 2 * tol within
    the rounds bisection takes to reach adjacent doubles: steps that fail
    to halve the bracket use up the slack, after which the points are
    midpoints.  tol is REFINE_ULPS / 2 ulps of the larger end."""

    def __init__(self, a, b, na, nb, ea, eb, j):
        self.a, self.b, self.na, self.nb = a, b, na, nb
        self.ea, self.eb, self.j = ea, eb, j
        self.fa, self.fb = float(ea[j]), float(eb[j])
        self.moved = 0              # the end the last step moved, -1 or 1
        ulp = math.ulp(max(-a, b))
        self.tol = 0.5 * REFINE_ULPS * ulp
        # one round fewer than bisection takes to adjacent doubles, so that
        # rounding in the schedule cannot cost more than bisection
        self.rounds = math.ceil(math.log2((b - a) / ulp)) - 1

    def point(self):
        """The next point to evaluate, or None once the bracket is at most
        2 * tol wide."""
        a, b = self.a, self.b
        half = 0.5 * (a + b)
        if b - a <= 2.0 * self.tol or not a < half < b:
            return None
        x = _illinois_point(a, b, self.fa, self.fb)
        if self.moved:
            last = b if self.moved == 1 else a
            if abs(x - last) < self.tol:
                x = last - self.moved * self.tol
        radius = self.tol * 2.0 ** self.rounds - 0.5 * (b - a)
        if not abs(x - half) <= radius:
            x = half - math.copysign(max(radius, 0.0), half - x)
        return x if a < x < b else half

    def update(self, x, nx, ex):
        """Move the end whose count x has; False when nx is neither."""
        self.rounds -= 1
        if nx == self.nb:
            if self.moved == 1:
                self.fa *= 0.5
            self.b, self.eb, self.fb, self.moved = x, ex, float(ex[self.j]), 1
        elif nx == self.na:
            if self.moved == -1:
                self.fb *= 0.5
            self.a, self.ea, self.fa, self.moved = x, ex, float(ex[self.j]), -1
        else:
            return False
        return True


def _count_jumps(graph, kappa, ends):
    """(t, jump) for every jump of the count on the brackets between
    consecutive ends, in ascending t.

    Isolate: each bracket whose end counts differ is halved until it stops
    or _isolated accepts it.  A bracket that lies wholly within the snap's
    reach of its special point p (_special_point) stops at p with its
    whole jump when the kernel test finds an eigenvalue at p^2, asked once
    per p; a bracket whose midpoint is no longer a double strictly inside
    it stops there, which ends a jump of 2 or more, or a root the kernel
    test does not find at p, at adjacent doubles.  Refine: an accepted
    bracket, one jump of 1 clear of 0 and of the poles, is a _Crossing,
    refined on its crossing eigenvalue to REFINE_ULPS ulps and reported at
    the final midpoint.  Every round evaluates one point per live bracket,
    halving or refining, in one _eigen_counts call, whose eigenvalue rows
    give each new crossing its values at both ends at no cost.  A refining
    step whose count is neither end's (float noise) hands both halves back
    to halving."""
    lengths = np.array([e.length for e in graph.edges])
    counts, eigs = _eigen_counts(graph, kappa, ends)
    counts = counts.tolist()
    brackets = list(zip(ends, ends[1:], counts, counts[1:], eigs, eigs[1:]))
    crossings, jumps, on_point = [], [], {}
    while True:
        halving = []
        for a, b, na, nb, ea, eb in brackets:
            if na == nb:
                continue
            p, near, within = _special_point(lengths, a, b)
            if within:
                if p not in on_point:
                    on_point[p] = multiplicity_at(graph, kappa, p * p) >= 1
                if on_point[p]:
                    jumps.append((p, nb - na))
                    continue
            crossing = _isolated(near, a, b, na, nb, ea, eb)
            if crossing is not None:
                crossings.append(crossing)
                continue
            m = 0.5 * (a + b)
            if a < m < b:
                halving.append((a, m, b, na, nb, ea, eb))
            else:
                jumps.append((m, nb - na))
        steps = []
        for c in crossings:
            x = c.point()
            if x is None:
                jumps.append((0.5 * (c.a + c.b), 1))
            else:
                steps.append((c, x))
        if not halving and not steps:
            return sorted(jumps)
        counts, eigs = _eigen_counts(
            graph, kappa, [h[1] for h in halving] + [x for _, x in steps])
        counts = counts.tolist()
        brackets, crossings = [], []
        for (a, m, b, na, nb, ea, eb), nm, em in zip(halving, counts, eigs):
            brackets += [(a, m, na, nm, ea, em), (m, b, nm, nb, em, eb)]
        k = len(halving)
        for (c, x), nx, ex in zip(steps, counts[k:], eigs[k:]):
            if c.update(x, nx, ex):
                crossings.append(c)
            else:
                brackets += [(c.a, x, c.na, nx, c.ea, ex),
                             (x, c.b, nx, c.nb, ex, c.eb)]


def _mp_weyl_secular(graph, kappa, k, dps):
    """Reference: det(M(k^2) - kappa) * prod sin(k l) in dps-digit mpmath."""
    with mp.workdps(dps):
        d = mp.det(_weyl_matrix_raw(graph, kappa, mp.mpf(k) ** 2))
        for e in graph.edges:
            d *= mp.sin(mp.mpf(k) * e.length)
        return float(mp.re(d))


def _mp_weyl_det_negative(graph, kappa, q):
    """Reference: det(M(-q^2) - kappa) in 60-digit mpmath."""
    with mp.workdps(60):
        return mp.det(_weyl_matrix_raw(graph, kappa, -mp.mpf(q) ** 2))


# --------------------------------------------------------------------------
# vertex-matching oracle
# --------------------------------------------------------------------------

def _edge_end_data(z, lengths):
    """Value and inward-derivative coefficients of each edge's basis pair at
    its two ends: one (u_end, v_end) per length, each ((cA_val, cB_val),
    (cA_der, cB_der)).

    While b = Im(sqrt(z)) * l < DECAY_FROM the pair is the entire C(z;x),
    S(z;x).  Beyond it C and S grow like e^b and their combinations cancel,
    so the edge takes the two solutions that decay away from its ends,
    e^{ikx} and e^{ik(l-x)}, which are bounded by 1.  The change of basis
    is invertible (for real z < 0 its determinant 2 q e^{-ql} is
    positive), so it moves no zero and keeps the kernel's dimension.  The
    arithmetic follows z: a float z takes both bases of every edge from one
    call each of the array kernels and np.exp, an mpmath z goes edge by
    edge.
    """
    if is_mp(z):
        k = mp_sqrt_upper(z)
        edges = [(*mp_entire_cs(z, l), mp.exp(1j * k * l), k.imag * l)
                 for l in lengths]
    else:
        k = sqrt_upper(z)
        lengths = np.array(lengths)
        with np.errstate(all="ignore"):     # C and S overflow where b is large
            C, S = entire_cs(z, lengths)
        E = np.exp(1j * k * lengths)        # |E| = e^{-b}
        edges = zip(C.tolist(), S.tolist(), E.tolist(),
                    (k.imag * lengths).tolist())
        k = complex(k)
    ik = 1j * k
    return [(((1.0, 0.0), (0.0, 1.0)), ((C, S), (z * S, -C)))
            if b < DECAY_FROM else
            (((1.0, E), (ik, -ik * E)), ((E, 1.0), (-ik * E, ik)))
            for C, S, E, b in edges]


def matching_matrix(graph: MetricGraph, kappa: CouplingMatrix, z,
                    leads=()):
    """Vertex-matching system in per-edge coefficients (A_p, B_p).

    Edge p hosts u_p(x) = A_p C(z;x) + B_p S(z;x) on [0, l_p] with x=0 at
    its 'from' end, or A_p e^{ikx} + B_p e^{ik(l_p - x)} where the edge
    is long against Im k (see _edge_end_data).  Rows: per vertex, (number
    of ends - 1) continuity equations plus one delta condition  sum of
    inward derivatives = coupling * value.  Derivative rows are scaled by
    1/max(1, |k|) to keep the system well-conditioned at large z (a
    positive continuous factor, so zeros and sign changes are unaffected).
    The arithmetic follows z: a numpy complex matrix for a Python number,
    with every edge's entries from one call of the array kernels, an
    mpmath matrix for an mpmath number.

    Without leads the system is square, (2n)x(2n).  Each vertex id in
    `leads` adds one lead end to that vertex: one more row and, after the
    edge columns, two columns per lead in the given order, the outgoing
    amplitude T and the incoming amplitude I.  Lead ends need a float z.
    """
    n, m = graph.n_edges, len(leads)
    if is_mp(z):
        A = mp.zeros(2 * n + m, 2 * (n + m))
        scale = 1.0 / max(1.0, mp.sqrt(abs(z)))
    else:
        z = complex(z)
        A = np.zeros((2 * n + m, 2 * (n + m)), dtype=complex)
        scale = 1.0 / max(1.0, math.sqrt(abs(z)))
    # per vertex: (first column, ((cA_val, cB_val), (cA_der, cB_der))) per
    # end; an end's coefficients act on its column and the next one
    incident = {v.id: [] for v in graph.vertices}
    ends = _edge_end_data(z, [e.length for e in graph.edges])
    for i, (e, (u_end, v_end)) in enumerate(zip(graph.edges, ends)):
        incident[e.u].append((2 * i, u_end))
        incident[e.v].append((2 * i, v_end))
    if leads:
        ik = 1j * sqrt_upper(z)
    for j, vid in enumerate(leads):
        # outgoing T e^{ikx}: value T, inward derivative ik T; incoming
        # I e^{-ikx}: value I, inward derivative -ik I.
        incident[vid].append((2 * (n + j), ((1.0, 1.0), (ik, -ik))))

    r = 0
    for i, v in enumerate(graph.vertices):
        ends_here = incident[v.id]
        if not ends_here:
            continue
        c0, ((cA0, cB0), _) = ends_here[0]
        for c, ((cA, cB), _) in ends_here[1:]:
            A[r, c0] += cA0
            A[r, c0 + 1] += cB0
            A[r, c] -= cA
            A[r, c + 1] -= cB
            r += 1
        for c, (_, (dA, dB)) in ends_here:
            A[r, c] += dA * scale
            A[r, c + 1] += dB * scale
        a = complex(kappa.diagonal[i])
        A[r, c0] -= a * cA0 * scale
        A[r, c0 + 1] -= a * cB0 * scale
        r += 1
    return A


def _mp_matching_det(graph, kappa, z, dps):
    """Reference: the matching determinant at z in dps-digit mpmath."""
    with mp.workdps(dps):
        return mp.re(mp.det(matching_matrix(graph, kappa, mp.mpf(z))))


# --------------------------------------------------------------------------
# kernel tests: multiplicities and the matching route's check
# --------------------------------------------------------------------------

def _kernel_values(graph, kappa, z):
    """Ascending singular values of the matching matrix at z over
    max(sigma_max, 1): the kernel test.  Each row of the matrix holds a
    term of size about 1, so the floor at 1 lets a matrix whose every
    entry cancels -- a tunnelling pair split below double precision --
    read as rank-deficient."""
    A = matching_matrix(graph, kappa, z)
    # real at a real z, where a real SVD takes 60 % of a complex one
    sv = np.linalg.svd(A if A.imag.any() else A.real, compute_uv=False)
    return sv[::-1] / sv.max(initial=1.0)


def multiplicity_at(graph: MetricGraph, kappa: CouplingMatrix, z) -> int:
    """Numerical kernel dimension at z: the number of the kernel test's
    relative singular values below KERNEL_REL."""
    return int(np.sum(_kernel_values(graph, kappa, z) < KERNEL_REL))


def kernel_margins(graph: MetricGraph, kappa: CouplingMatrix,
                   eigenvalues) -> list[float]:
    """The matching route's check of counted roots: at each root (z, m) of
    `eigenvalues` the matching matrix must have exactly m singular values
    below KERNEL_REL relative to max(sigma_max, 1) (_kernel_values), at
    every z, z <= 0 included.

    Returns each root's m-th smallest relative singular value, the margin
    of its check; raises UnconfirmedRoot at a root whose nullity is not m.
    """
    margins = []
    for e in eigenvalues:
        rel = _kernel_values(graph, kappa, e.z)
        nullity = int(np.sum(rel < KERNEL_REL))
        if nullity != e.multiplicity:
            raise UnconfirmedRoot(e.z, e.multiplicity, nullity)
        margins.append(float(rel[nullity - 1]))
    return margins


# --------------------------------------------------------------------------
# spectrum assembly
# --------------------------------------------------------------------------

def _clusters(found):
    """(z, weight) pairs, sorted and grouped into runs whose neighbours lie
    within MERGE_TOL of each other."""
    clusters = []
    for z, w in sorted(found):
        if clusters and z - clusters[-1][-1][0] <= MERGE_TOL:
            clusters[-1].append((z, w))
        else:
            clusters.append([(z, w)])
    return clusters


def _counted_spectrum(graph, kappa, T, z_max):
    """The weyl route: the jumps of the count on (-T, t(z_max + MERGE_TOL)]
    and on one bracket past it, as wide as the snap's reach there, so that
    a root on a pole at z_max, whose float jump can land past the window,
    still stops at its pole; added up per cluster."""
    w = z_max + MERGE_TOL
    t_hi = math.copysign(math.sqrt(abs(w)), w)
    reach = SNAP_REL * max(abs(t_hi), 1.0 / min(e.length for e in graph.edges))
    found = [(t * abs(t), jump) for t, jump in
             _count_jumps(graph, kappa, [-T, t_hi, t_hi + reach])]
    eigenvalues = []
    for cluster in _clusters(found):
        mult = sum(jump for _, jump in cluster)
        if mult > 0:
            eigenvalues.append(Eigenvalue(cluster[len(cluster) // 2][0], mult))
    return eigenvalues


def compact_spectrum(graph: MetricGraph, kappa: CouplingMatrix, z_max,
                     mode: str = "weyl") -> list[Eigenvalue]:
    """Eigenvalues of the compact graph in (-inf, z_max], sorted ascending,
    as the jumps of the eigenvalue count, multiplicity the jump; roots
    within 1e-8 are merged.  Mode "matching" lists the same roots after
    kernel_margins has confirmed every one, and raises UnconfirmedRoot
    where it does not.  Leads are ignored.
    """
    if mode not in ("weyl", "matching"):
        raise ValueError(f"unknown mode {mode!r}")
    if not math.isfinite(z_max):
        raise ValueError(f"z_max must be finite, got {z_max!r}")
    if not kappa.is_real:
        raise ValueError("real spectrum scan requires real couplings")
    if graph.n_edges == 0:
        return []

    T = 1.0  # the exact window: no eigenvalue below -T^2
    while _eigen_counts(graph, kappa, [-T])[0][0] > 0:
        T *= 2.0
    eigenvalues = [e for e in _counted_spectrum(graph, kappa, T, z_max)
                   if e.z <= z_max + MERGE_TOL]
    if mode == "matching":
        kernel_margins(graph, kappa, eigenvalues)
    return eigenvalues


def compact_eigenvalues(graph: MetricGraph, kappa: CouplingMatrix, count: int,
                        mode: str = "weyl") -> list[float]:
    """First `count` eigenvalues (multiplicity expanded).

    The window z_max starts from a Weyl-law guess and doubles until the
    count N(z_max) is at least `count`; the route then lists the spectrum
    below z_max once.  Raises ScanFailure when it lists fewer than
    N(z_max) eigenvalues.
    """
    total = graph.total_length()
    # Weyl-type counting: about total_length/pi eigenvalues per unit of k
    k_guess = (count + 2) * math.pi / total + 2.0 / min(e.length for e in graph.edges)
    z_max = k_guess * k_guess
    n = _eigen_counts(graph, kappa, [math.sqrt(z_max)])[0][0]
    while n < count:
        z_max *= 2.0
        n = _eigen_counts(graph, kappa, [math.sqrt(z_max)])[0][0]
    eigs = compact_spectrum(graph, kappa, z_max, mode)
    values = [e.z for e in eigs for _ in range(e.multiplicity)]
    if len(values) < n:
        raise ScanFailure(f"the {mode} route listed {len(values)} of the "
                          f"{n} eigenvalues below z={z_max:g}", z_max)
    return values[:count]
