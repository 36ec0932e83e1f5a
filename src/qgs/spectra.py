"""Compact-graph spectra via two independent routes.

``weyl`` mode scans the cleared secular function

    d(z) = det(M_compact(z) - kappa) * prod_p sin(sqrt(z) l_p)

whose zeros on the real axis are exactly the eigenvalues: the sine product
cancels the trigonometric poles of the M-matrix entries, so sign scanning
cannot misfire at a pole.  Near pole-coincident roots (e.g. the Neumann
points k = n*pi/l, where det blows up while the product vanishes) the float
evaluation of the product loses sign accuracy at distance ~sqrt(eps) from
the root, so evaluation switches to arbitrary precision there.

``matching`` mode is the independent oracle: it builds the (2n)x(2n) linear
system in per-edge coefficients u_p = A_p*C(z;x) + B_p*S(z;x) from vertex
continuity and the delta conditions, and scans its determinant.  The basis
kernels C, S are entire in z, so this determinant needs no pole handling
at all — which is what makes the two modes genuinely independent checks.

For z < 0 the sine product has no zeros, so no clearing is needed and the
raw determinant is scanned in kappa = sqrt(-z).  z = 0 is decided
analytically (kernel test), since k = 0 is a spurious zero of d of order
n_edges.

Both modes share one float kernel test: z is an eigenvalue where a
pole-free, bounded matrix loses rank, by its multiplicity -- M(z) - kappa
for z < 0, the matching matrix for z >= 0.  Multiplicity counts its
relative singular values below 1e-8; tangent (double) roots are located
by a golden section on the smallest.  mpmath remains only in the weyl
route's evaluation near a pole and in two 60-digit reference determinants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .graphs import MetricGraph
from .kernels import entire_cs, is_mp, mp_entire_cs, sqrt_upper
from .rootscan import grow_window, scan_roots
from .weyl import CouplingMatrix, compact_entries

MERGE_TOL = 1e-8          # roots closer than this (in z) are one eigenvalue
KERNEL_REL = 1e-8         # singular-value cutoff for multiplicity
MP_SIN_SWITCH = 1e-4      # switch d(z) evaluation to mpmath below this
ZERO_MEMBER_REL = 1e-10   # relative sigma_min threshold for z=0 membership


@dataclass(frozen=True)
class Eigenvalue:
    z: float
    multiplicity: int


def _require_real(kappa: CouplingMatrix):
    if not kappa.is_real:
        raise ValueError("real spectrum scan requires real couplings")


# --------------------------------------------------------------------------
# secular functions
# --------------------------------------------------------------------------

def _weyl_matrix_raw(graph, kappa, z):
    """M_compact(z) - kappa without pole guards (scan code handles poles
    itself), in the arithmetic of z."""
    M = compact_entries(graph, z)
    if not is_mp(z):
        return M - np.diag(kappa.diagonal)
    # elementwise mpmath matrix arithmetic would cost n^2 operations
    for i, a in enumerate(kappa.diagonal):
        M[i, i] -= a
    return M


def _mp_weyl_secular(graph, kappa, k, dps):
    """d(k^2) in mpmath: det(M - kappa) * prod sin(k l)."""
    with mp.workdps(dps):
        d = mp.det(_weyl_matrix_raw(graph, kappa, mp.mpf(k) ** 2))
        for e in graph.edges:
            d *= mp.sin(mp.mpf(k) * e.length)
        return float(mp.re(d))


def _mp_weyl_det_negative(graph, kappa, q):
    """det(M(-q^2) - kappa) in 60-digit mpmath."""
    with mp.workdps(60):
        return mp.det(_weyl_matrix_raw(graph, kappa, -mp.mpf(q) ** 2))


def weyl_secular(graph: MetricGraph, kappa: CouplingMatrix):
    """Cleared secular function as a callable of k = sqrt(z) > 0.

    Switches to arbitrary precision when k sits within ~1e-4 of a pole of
    the M-matrix (in |sin(k l)|), where the float product loses the sign.
    """
    lengths = [e.length for e in graph.edges]

    def f(k):
        min_sin = min((abs(math.sin(k * l)) for l in lengths), default=1.0)
        if min_sin < MP_SIN_SWITCH:
            dps = 40 + min(80, int(2 * max(0.0, -math.log10(min_sin + 1e-300))))
            return _mp_weyl_secular(graph, kappa, k, dps)
        z = k * k
        with np.errstate(all="ignore"):
            A = _weyl_matrix_raw(graph, kappa, z)
            d = np.linalg.det(A).real
        for l in lengths:
            d *= math.sin(k * l)
        return d

    return f


def weyl_secular_negative(graph: MetricGraph, kappa: CouplingMatrix):
    """det(M(-kappa^2) - kappa_matrix) as a callable of kappa > 0 (z < 0).

    No clearing: sin(sqrt(z) l) has no zeros on the negative half-axis.
    """
    def f(q):
        with np.errstate(all="ignore"):
            A = _weyl_matrix_raw(graph, kappa, -q * q)
            return np.linalg.det(A).real

    return f


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
    for v in graph.vertices:
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
        a = complex(kappa.diagonal[graph.vertex_index(v.id)])
        A[r, c0] -= a * cA0 * scale
        A[r, c0 + 1] -= a * cB0 * scale
        r += 1
    return A


def matching_det(graph: MetricGraph, kappa: CouplingMatrix):
    """Matching determinant as a callable of k (z = k^2, sign(k^2)=sign arg).

    Called with k > 0 for positive energies; use matching_det_negative for
    z < 0.
    """
    def f(k):
        with np.errstate(all="ignore"):
            A = matching_matrix(graph, kappa, k * k)
            return np.linalg.det(A).real

    return f


def matching_det_negative(graph: MetricGraph, kappa: CouplingMatrix):
    def f(q):
        with np.errstate(all="ignore"):
            A = matching_matrix(graph, kappa, -q * q)
            return np.linalg.det(A).real

    return f


def _mp_matching_det(graph, kappa, z, dps):
    """Matching determinant at z in dps-digit mpmath."""
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

def _negative_window(graph, kappa):
    """Upper bound on kappa = sqrt(-z) for the negative spectrum.

    Only the attractive part of the couplings can push eigenvalues below
    zero (the quadratic form is a sum of |u'|^2 integrals plus coupling
    terms), and the form bound z >= -2*S^2 - 2*S/l_min with
    S = sum of max(0, -a_m) gives kappa <= sqrt(2)*S + sqrt(2*S/l_min).
    The window is clamped so that cosh(kappa*l) stays representable; a
    graph would need couplings of order -300/l to hit the clamp.
    """
    S = float(sum(max(0.0, -complex(a).real) for a in kappa.diagonal))
    if S == 0.0:
        return 0.0
    l_min = min(e.length for e in graph.edges)
    l_max = max(e.length for e in graph.edges)
    window = 1.0 + math.sqrt(2.0) * S + math.sqrt(2.0 * S / l_min)
    return min(window, 600.0 / l_max)


def _zero_multiplicity(graph, kappa, mode):
    """Multiplicity of z = 0 as an eigenvalue; 0 when it is none."""
    if mode == "weyl":
        A = _weyl_matrix_raw(graph, kappa, 0.0)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] >= ZERO_MEMBER_REL * max(1.0, sv[0]):
            return 0
        return max(1, multiplicity_at(graph, kappa, 0.0))
    return multiplicity_at(graph, kappa, 0.0)


def compact_spectrum(graph: MetricGraph, kappa: CouplingMatrix, z_max,
                     mode: str = "weyl") -> list[Eigenvalue]:
    """Eigenvalues of the compact graph in (-inf, z_max], sorted ascending.

    mode "weyl": zeros of the cleared M-matrix secular determinant;
    mode "matching": zeros of the vertex-matching determinant.
    In both modes tangent roots and multiplicities come from the kernel
    test of _kernel_values, and nearby roots are merged within 1e-8.  Leads
    are ignored.
    """
    if mode not in ("weyl", "matching"):
        raise ValueError(f"unknown mode {mode!r}")
    if not math.isfinite(z_max):
        raise ValueError(f"z_max must be finite, got {z_max!r}")
    _require_real(kappa)
    if graph.n_edges == 0:
        return []

    total = graph.total_length()
    dk = math.pi / (8.0 * total)
    secular = {"weyl": (weyl_secular_negative, weyl_secular),
               "matching": (matching_det_negative, matching_det)}[mode]
    halves = ((-1.0, _negative_window(graph, kappa), secular[0]),
              (1.0, math.sqrt(max(z_max, 0.0)), secular[1]))

    # each half-axis is scanned in x = sqrt(|z|), z = sign * x^2
    found = []  # raw z values
    for sign, x_hi, make_f in halves:
        refine = _tangent_refiner(graph, kappa, sign)
        for root in scan_roots(make_f(graph, kappa), min(1e-6, dk / 100),
                               x_hi, dk, refine_tangent=refine):
            found.append(sign * root.x * root.x)

    # z = 0 membership, decided analytically
    zero_mult = _zero_multiplicity(graph, kappa, mode)

    # merge clusters and attach multiplicities
    found.sort()
    clusters = []
    for z in found:
        if clusters and z - clusters[-1][-1] <= MERGE_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])

    eigenvalues = []
    if zero_mult:
        eigenvalues.append(Eigenvalue(0.0, zero_mult))
    for cluster in clusters:
        zc = sum(cluster) / len(cluster)
        if abs(zc) <= MERGE_TOL and zero_mult:
            continue  # already counted analytically
        mult = max(len(cluster), multiplicity_at(graph, kappa, zc))
        eigenvalues.append(Eigenvalue(zc, mult))
    eigenvalues.sort(key=lambda e: e.z)
    return [e for e in eigenvalues if e.z <= z_max + MERGE_TOL]


def compact_eigenvalues(graph: MetricGraph, kappa: CouplingMatrix, count: int,
                        mode: str = "weyl") -> list[float]:
    """First `count` eigenvalues (multiplicity expanded), growing the window
    until enough are found."""
    total = graph.total_length()
    # Weyl-type counting: about total_length/pi eigenvalues per unit of k
    k_guess = (count + 2) * math.pi / total + 2.0 / min(e.length for e in graph.edges)

    def collect(z_max):
        eigs = compact_spectrum(graph, kappa, z_max, mode)
        return [e.z for e in eigs for _ in range(e.multiplicity)]

    return grow_window(collect, k_guess * k_guess, count, 2.0, 20,
                       "eigenvalues")
