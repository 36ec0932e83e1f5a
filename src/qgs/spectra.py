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
N(-T^2) = 0 makes -T^2 an exact lower window.  Jumps of 2 or more and
roots at z = 0 or on a pole are bisected to adjacent doubles.  Near 0 or
a pole the float count is off (by about 3e-8 in z on a pole), so a root
there moves onto that point.

``matching`` mode is the independent oracle: it builds the (2n)x(2n) linear
system in per-edge coefficients u_p = A_p*C(z;x) + B_p*S(z;x) from vertex
continuity and the delta conditions, and scans its determinant in sqrt|z|
for sign changes (for z < 0 in the count's window).  The basis kernels
C, S are entire in z, so this determinant needs no pole handling at all --
which is what makes the two modes genuinely independent checks.

``compact_eigenvalues`` wants the first `count` eigenvalues: it doubles
z_max from a Weyl-law guess until N(z_max) >= count and lists the
spectrum below z_max once.  A route that lists fewer than N(z_max) -- a
matching scan that missed a member of a close pair -- raises ScanFailure,
so every list it returns is complete.

The kernel test: z is an eigenvalue where a pole-free, bounded matrix
loses rank, by its multiplicity -- M(z) - kappa for z < 0, the matching
matrix for z >= 0.  Multiplicity counts its relative singular values below
1e-8; it gives the matching route its multiplicities, tangent roots (by a
golden section on the smallest) and z = 0, and gates the weyl route's
snap.  mpmath remains only in three 60-digit reference determinants.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import ScanFailure, ScanResolution
from .graphs import MetricGraph
from .kernels import entire_cs, is_mp, mp_entire_cs, sqrt_upper
from .rootscan import scan_roots
from .weyl import CouplingMatrix, compact_entries, stack_size

MERGE_TOL = 1e-8          # roots closer than this (in z) are one eigenvalue
KERNEL_REL = 1e-8         # singular-value cutoff for multiplicity
SNAP_REL = 1e-7           # counted roots this close (in t) snap to 0 or a pole
REFINE_ULPS = 32          # width (in ulps of t) at which refinement stops


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


def _dirichlet_counts(lengths, t):
    """The Dirichlet term of N at each t of the array t: ceil(t l / pi) - 1
    eigenvalues below t > 0 per edge; the maximum clears the negative
    values of t <= 0."""
    dirichlet = np.ceil(np.multiply.outer(t, lengths) / math.pi) - 1.0
    return np.maximum(dirichlet, 0.0).sum(axis=-1).astype(int)


def _eigen_counts(graph, kappa, t):
    """(counts, eigenvalues) at each z = t|t| of the sequence t: N(z) as
    an int array, the Dirichlet term plus the number of positive
    eigenvalues of M(z) - kappa, and those eigenvalues in ascending order,
    one row per energy.  One assembly and one stacked eigvalsh per stack
    of at most BLOCK_BYTES of matrices."""
    t = np.asarray(t, dtype=float)
    counts = _dirichlet_counts(np.array([e.length for e in graph.edges]), t)
    eigenvalues = np.empty((len(t), graph.n_vertices))
    size = stack_size(graph.n_vertices)
    for start in range(0, len(t), size):
        block = t[start:start + size]
        with np.errstate(all="ignore"):
            A = _weyl_matrix_raw(graph, kappa, block * abs(block)).real
        eigenvalues[start:start + size] = np.linalg.eigvalsh(A)
    counts += np.sum(eigenvalues > 0.0, axis=1)
    return counts, eigenvalues


def _isolated(lengths, a, b, na, nb, ea, eb):
    """The _Crossing of a bracket (a, b] with counts na, nb and eigenvalue
    rows ea, eb at its ends, or None while it must still be halved: when
    its jump is not exactly 1, when 0 or a pole n pi / l lies in it or
    within the reach of _counted_spectrum's snap (SNAP_REL * max(|t|,
    1 / l_min)) of it, or when the crossing eigenvalue is not negative at
    a and positive at b."""
    if nb - na != 1:
        return None
    reach = SNAP_REL * max(-a, b, 1.0 / lengths.min())
    lo, hi = a - reach, b + reach
    if not (0.0 < lo or hi < 0.0):
        return None
    if lo > 0.0:
        d_lo, d_hi = _dirichlet_counts(lengths, np.array([lo, hi])).tolist()
        if d_lo != d_hi:
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


def _count_jumps(graph, kappa, lo, hi):
    """(t, jump) for every jump of the count on (lo, hi], in ascending t.

    Isolate: each bracket whose end counts differ is halved until
    _isolated accepts it or its midpoint is no longer a double strictly
    inside it; the latter ends a jump of 2 or more, and a root at 0 or on
    a pole, at adjacent doubles.  Refine: an accepted bracket, one jump of
    1 clear of 0 and of the poles, is a _Crossing, refined on its crossing
    eigenvalue to REFINE_ULPS ulps and reported at the final midpoint.
    Every round evaluates one point per live bracket, halving or
    refining, in one _eigen_counts call, whose eigenvalue rows give each
    new crossing its values at both ends at no cost.  A refining step
    whose count is neither end's (float noise) hands both halves back to
    halving."""
    lengths = np.array([e.length for e in graph.edges])
    counts, eigs = _eigen_counts(graph, kappa, [lo, hi])
    na, nb = counts.tolist()
    brackets = [(lo, hi, na, nb, eigs[0], eigs[1])]
    crossings, jumps = [], []
    while True:
        halving = []
        for a, b, na, nb, ea, eb in brackets:
            if na == nb:
                continue
            crossing = _isolated(lengths, a, b, na, nb, ea, eb)
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

def _edge_end_data(z, l):
    """Column-scaled end data for one edge: value/derivative coefficients.

    Returns (u_end, v_end) where each end is ((cA_val, cB_val),
    (cA_der, cB_der)).  When Im(sqrt(z)) * l is large (deeply negative z),
    cosh-type growth would overflow a float determinant, so both columns
    of the edge are divided by exp(Im(sqrt(z)) * l) — a positive factor that
    moves no zeros and flips no signs.  An mpmath z cannot overflow and is
    never scaled.
    """
    if is_mp(z):
        C, S = mp_entire_cs(z, l)
        return ((1.0, 0.0), (0.0, 1.0)), ((C, S), (z * S, -C))
    k = sqrt_upper(z)
    b = abs(k.imag) * l
    if b < 40.0:
        C, S = entire_cs(z, l)
        return ((1.0, 0.0), (0.0, 1.0)), ((C, S), (z * S, -C))
    # scaled branch: divide the column by sigma = e^{b};  e^{-ikl} dominates
    ph = cmath.exp(1j * k.real * l)
    small = cmath.exp(2j * k * l)          # |.| = e^{-2b}, underflows safely
    Cs = 0.5 * (small / ph + 1.0 / ph)     # cos(kl)/sigma
    Ss = (small / ph - 1.0 / ph) / (2j * k)  # sin(kl)/(k sigma)
    us = math.exp(-b) if b < 700.0 else 0.0  # 1/sigma for the u-end rows
    return ((us, 0.0), (0.0, us)), ((Cs, Ss), (z * Ss, -Cs))


def matching_matrix(graph: MetricGraph, kappa: CouplingMatrix, z,
                    leads=()):
    """Vertex-matching system in per-edge coefficients (A_p, B_p).

    Edge p hosts u_p(x) = A_p C(z;x) + B_p S(z;x) on [0, l_p] with x=0 at
    its 'from' end.  Rows: per vertex, (number of ends - 1) continuity
    equations plus one delta condition  sum of inward derivatives =
    coupling * value.  Derivative rows are scaled by 1/max(1, |k|) to keep
    the determinant well-conditioned at large z (a positive continuous
    factor, so zeros and sign changes are unaffected), and edge columns
    carry the scaling of _edge_end_data.  The arithmetic follows z: a numpy
    complex matrix for a Python number, an mpmath matrix for an mpmath
    number.

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
    for i, e in enumerate(graph.edges):
        u_end, v_end = _edge_end_data(z, e.length)
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


def matching_det(graph: MetricGraph, kappa: CouplingMatrix, sign=1.0):
    """Matching determinant as a callable of x > 0 at z = sign * x^2:
    x = sqrt(z) for positive energies (sign 1), x = sqrt(-z) for negative
    ones (sign -1)."""
    def f(x):
        with np.errstate(all="ignore"):
            A = matching_matrix(graph, kappa, sign * x * x)
            return np.linalg.det(A).real

    return f


def _mp_matching_det(graph, kappa, z, dps):
    """Reference: the matching determinant at z in dps-digit mpmath."""
    with mp.workdps(dps):
        return mp.re(mp.det(matching_matrix(graph, kappa, mp.mpf(z))))


# --------------------------------------------------------------------------
# kernel test: multiplicities and tangent roots
# --------------------------------------------------------------------------

def _kernel_values(graph, kappa, z):
    """Descending singular values of the kernel-test matrix at real z over
    its scale: M(z) - kappa over ||M(z)|| + ||kappa|| (max row sums) for
    z < 0, the matching matrix over its largest singular value for z >= 0."""
    if z < 0:
        M = compact_entries(graph, z)
        sv = np.linalg.svd(M - np.diag(kappa.diagonal), compute_uv=False)
        return sv / (np.linalg.norm(M, np.inf) + max(map(abs, kappa.diagonal)))
    sv = np.linalg.svd(matching_matrix(graph, kappa, z), compute_uv=False)
    return sv / sv[0] if sv.size else sv


def multiplicity_at(graph: MetricGraph, kappa: CouplingMatrix, z) -> int:
    """Numerical kernel dimension at real z: the singular values of
    M(z) - kappa (z < 0) or of the matching matrix (z >= 0) below
    KERNEL_REL relative to the matrix's scale."""
    return int(np.sum(_kernel_values(graph, kappa, z) < KERNEL_REL))


def _tangent_refiner(graph, kappa, sign):
    """refine_tangent(a, b) for a scan in x = sqrt(|z|), z = sign * x^2:
    golden section on the smallest value of _kernel_values until no double
    is left between its points, accepted as a root only below KERNEL_REL,
    so a near-closed gap stays rejected."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def smallest(x):
        return _kernel_values(graph, kappa, sign * x * x)[-1]

    def refine(a, b):
        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = smallest(x1), smallest(x2)
        while a < x1 < x2 < b:
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = smallest(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = smallest(x2)
        x, fx = (x1, f1) if f1 < f2 else (x2, f2)
        return x if fx < KERNEL_REL else None

    return refine


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
    """The weyl route: the jumps of the count on (-T, t(z_max + MERGE_TOL)],
    each moved onto the nearest of 0 and the poles n pi / l_p when the
    kernel test finds an eigenvalue there and it lies within SNAP_REL *
    max(|t|, 1 / l_min) (a root at 0 ends ~sqrt(eps) / l_min away, one on a
    pole ~1e-8 t), then added up per cluster."""
    w = z_max + MERGE_TOL
    t_hi = math.copysign(math.sqrt(abs(w)), w)
    lengths = [e.length for e in graph.edges]
    found = []
    for t, jump in _count_jumps(graph, kappa, -T, t_hi):
        p = min((max(0, round(t * l / math.pi)) * math.pi / l
                 for l in lengths), key=lambda p: abs(t - p))
        if abs(t - p) <= SNAP_REL * max(abs(t), 1.0 / min(lengths)) and \
                multiplicity_at(graph, kappa, p * p) >= 1:
            t = p
        found.append((t * abs(t), jump))
    eigenvalues = []
    for cluster in _clusters(found):
        mult = sum(jump for _, jump in cluster)
        if mult > 0:
            eigenvalues.append(Eigenvalue(cluster[len(cluster) // 2][0], mult))
    return eigenvalues


def _matching_spectrum(graph, kappa, T, z_max):
    """The matching route: sign changes and tangent roots of the matching
    determinant in sqrt|z| on (0, T] (z < 0) and (0, sqrt(z_max)], with
    multiplicities from the kernel test; z = 0 from the kernel test alone."""
    dk = math.pi / (8.0 * graph.total_length())
    halves = ((-1.0, T), (1.0, math.sqrt(max(z_max, 0.0))))
    found = []  # (raw z value, 1)
    for sign, x_hi in halves:
        refine = _tangent_refiner(graph, kappa, sign)
        for root in scan_roots(matching_det(graph, kappa, sign),
                               min(1e-6, dk / 100), x_hi, dk,
                               refine_tangent=refine):
            found.append((sign * root.x * root.x, 1))

    zero_mult = multiplicity_at(graph, kappa, 0.0)
    eigenvalues = [Eigenvalue(0.0, zero_mult)] if zero_mult else []
    for cluster in _clusters(found):
        zc = sum(z for z, _ in cluster) / len(cluster)
        if abs(zc) <= MERGE_TOL and zero_mult:
            continue  # already counted by the kernel test
        mult = max(len(cluster), multiplicity_at(graph, kappa, zc))
        eigenvalues.append(Eigenvalue(zc, mult))
    return eigenvalues


def compact_spectrum(graph: MetricGraph, kappa: CouplingMatrix, z_max,
                     mode: str = "weyl") -> list[Eigenvalue]:
    """Eigenvalues of the compact graph in (-inf, z_max], sorted ascending.

    mode "weyl": jumps of the eigenvalue count, multiplicity the jump;
    mode "matching": zeros of the vertex-matching determinant, tangent
    roots and multiplicities from the kernel test of _kernel_values.
    In both modes nearby roots are merged within 1e-8.  Leads are ignored.
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
    if mode == "weyl":
        eigenvalues = _counted_spectrum(graph, kappa, T, z_max)
    else:
        eigenvalues = _matching_spectrum(graph, kappa, T, z_max)
    eigenvalues.sort(key=lambda e: e.z)
    return [e for e in eigenvalues if e.z <= z_max + MERGE_TOL]


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
    # the count proves the list complete, so a coarse scan step is no news
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScanResolution)
        eigs = compact_spectrum(graph, kappa, z_max, mode)
    values = [e.z for e in eigs for _ in range(e.multiplicity)]
    if len(values) < n:
        raise ScanFailure(f"the {mode} route listed {len(values)} of the "
                          f"{n} eigenvalues below z={z_max:g}", z_max)
    return values[:count]
