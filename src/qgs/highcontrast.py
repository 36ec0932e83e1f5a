"""Periodic high-contrast three-layer media and their homogenised limits.

One unit cell of length 1 carries three layers: a stiff outer pair with
coefficient a/eps^2 and widths l1, l3 around a soft middle layer with
coefficient 1 and width l2.  ``eps_spectra`` computes the Bloch fiber
eigenvalues of -(c u')' = z u at quasimomentum tau from the discriminant
of the monodromy matrix, D(z) = 2 cos(tau), for every (eps, tau) of a
study at once; ``eps_spectrum`` is its one-(eps, tau) case.

As eps -> 0 the fiber spectra converge (second order in eps) to those of
a quasimomentum-dependent two-point model on the soft layer alone, whose
dispersion relation is scalar:

    f(q) = cos q - (b q / 2) sin q = cos tau,      q = l2 k,  z = k^2,

with b = (l1 + l3)/l2 the stiff-to-soft width ratio.  A companion model,
conventionally parametrised by the shifted quasimomentum tau' = tau + pi,
has dispersion  (b q / 2) sin q - cos q = cos tau'; the two describe the
same band structure (cos flips sign under the shift) but are computed by
independent code paths so they can be cross-checked band by band.

Fiber eigenvalue n is the only root in band n (Floquet theory: Eastham
1973; Reed & Simon IV, XIII.16), so each is one bisection to full double
precision on a bracket known in advance: no grid scan, no derivative.
All three models bisect in one lockstep per band: every (eps, tau)
bracket of a study, or every tau of a limit model's table, is halved
together, twice per round on one array evaluation (``_bisect``).  Each
root is bit for bit the one that a bisection of its bracket alone would
find.
A closed gap's edge is listed once per band: the free medium (a=1,
eps=1) at tau=0 lists (2 pi n)^2 twice for n >= 1, the two Bloch waves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .kernels import entire_cs, entire_cs_real

SUM_TOL = 1e-12


@dataclass(frozen=True)
class HighContrastCell:
    """Three-layer unit cell: widths l1, l2, l3 (summing to 1), stiff
    coefficient a/eps^2 on the outer layers.  ``epsilon`` may stay None
    for objects that only feed the homogenised models."""
    l1: float
    l2: float
    l3: float
    a: float = 1.0
    epsilon: float | None = None

    def __post_init__(self):
        for name in ("l1", "l2", "l3", "a", "epsilon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.l1, self.l2, self.l3) <= 0:
            raise ValueError("layer widths must be positive")
        if abs(self.l1 + self.l2 + self.l3 - 1.0) > SUM_TOL:
            raise ValueError(
                f"layer widths must sum to 1, got {self.l1 + self.l2 + self.l3!r}")
        if self.a <= 0:
            raise ValueError("contrast coefficient a must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epsilon is not None:
            try:
                stiff = self.stiff
            except (OverflowError, ZeroDivisionError):  # eps^2 out of range
                stiff = math.nan
            # the Pruefer angle takes sqrt(1/stiff): that must be finite too
            if not sys.float_info.min <= stiff <= sys.float_info.max:
                raise ValueError(
                    "stiff coefficient a/eps^2 must be finite and positive, "
                    "with a finite reciprocal, got "
                    f"a={self.a!r}, epsilon={self.epsilon!r}")

    @property
    def stiff(self) -> float:
        """a/eps^2, the coefficient of the outer layers."""
        if self.epsilon is None:
            raise ValueError("cell carries no epsilon; use with_epsilon")
        return self.a / self.epsilon ** 2

    @property
    def stiff_width(self) -> float:
        return self.l1 + self.l3

    @property
    def width_ratio(self) -> float:
        """b = (l1 + l3)/l2, the only shape parameter of the limit models."""
        return (self.l1 + self.l3) / self.l2

    def with_epsilon(self, epsilon: float) -> "HighContrastCell":
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True)
class Quasimomentum:
    """Quasimomentum normalised into [-pi, pi); values inside stay exact."""
    tau: float

    def __post_init__(self):
        if -math.pi <= self.tau < math.pi:
            return
        t = math.fmod(self.tau + math.pi, 2.0 * math.pi)
        if t < 0:
            t += 2.0 * math.pi
        object.__setattr__(self, "tau", t - math.pi)

    def shifted(self) -> "Quasimomentum":
        """The companion parametrisation tau' = tau + pi (wrapped back)."""
        return Quasimomentum(self.tau + math.pi)


def _tau_value(tau) -> float:
    return tau.tau if isinstance(tau, Quasimomentum) else float(tau)


# --------------------------------------------------------------------------
# transfer matrices
# --------------------------------------------------------------------------

def transfer_matrix(coef, length, z) -> np.ndarray:
    """Monodromy of -(c u')' = z u across one homogeneous layer.

    Acts on the state (u, c u'); entries are entire in z:
        [[cos(kL),        sin(kL)/(k c)],
         [-k c sin(kL),   cos(kL)      ]],   k = sqrt(z / c),
    with determinant identically 1 and the z=0 limit [[1, L/c], [0, 1]].
    coef, length and z may be arrays that broadcast together; the matrix
    takes two new last axes.  A real z gives a real matrix.  The kernels
    are chosen element by element, so that a matrix does not depend on the
    stack it sits in: the real ones (entire_cs_real) wherever z/coef is
    real and >= 0, the complex ones elsewhere, whose real parts are taken
    for a real z.
    """
    z = np.asarray(z)
    w = z / coef
    if w.dtype.kind == "c" or not (real := w >= 0.0).any():
        C, S = entire_cs(w, length)
    elif real.all():
        C, S = entire_cs_real(w, length)
    else:   # a mixed stack: both sets, and each element takes its own
        (C, S), (Cc, Sc) = (entire_cs_real(np.where(real, w, 0.0), length),
                            entire_cs(w, length))
        C, S = np.where(real, C, Cc.real), np.where(real, S, Sc.real)
    if z.dtype.kind != "c":
        C, S = C.real, S.real
    T = np.empty(C.shape + (2, 2), C.dtype)
    T[..., 0, 0] = T[..., 1, 1] = C
    T[..., 0, 1] = S / coef
    T[..., 1, 0] = 0.0 - z * S      # +0.0, not -0.0, at z = 0
    return T


def _monodromy(cell: HighContrastCell, stiff, z) -> np.ndarray:
    """Cell monodromies T3 T2 T1, one (2, 2) matrix per item, at energies
    z of media with stiff coefficients `stiff` (arrays of one shape)."""
    coefs = np.stack((stiff, np.ones_like(stiff), stiff), -1)
    T = transfer_matrix(coefs, np.array((cell.l1, cell.l2, cell.l3)),
                        z[..., None])
    return T[..., 2, :, :] @ T[..., 1, :, :] @ T[..., 0, :, :]


def cell_discriminant(cell: HighContrastCell, z) -> complex:
    """Trace of the three-layer monodromy at spectral parameter z."""
    M = _monodromy(cell, np.array(cell.stiff), np.array(z))
    return complex(M[0, 0] + M[1, 1])


# --------------------------------------------------------------------------
# fiber spectra
# --------------------------------------------------------------------------

def _check_bands(count: int) -> None:
    if count < 1:
        raise ValueError(f"bands must be at least 1, got {count}")


def _folded(tau) -> float:
    """t = |tau| in [0, pi], with tau wrapped through Quasimomentum."""
    t = _tau_value(tau)
    if not math.isfinite(t):  # a nan target would pass every band as a hit
        raise ValueError(f"tau must be finite, got {t!r}")
    return abs(Quasimomentum(t).tau)


def _bisect(below, lo, hi) -> np.ndarray:
    """Per bracket i, the last double of [lo[i], hi[i]] at which `below`
    holds, for predicates false at hi (not evaluated) that change once; lo[i]
    itself when it fails there, an exact hit at the left end.

    below(index, x) evaluates the brackets `index` at the points x.  All
    live brackets are halved in lockstep, twice per round: one call of
    `below` takes each bracket's midpoint and the midpoints of both its
    halves, and the second halving uses the one in the half that the first
    keeps.  Each bracket sees the midpoints 0.5 (lo + hi) and the stop (no
    double strictly between lo and hi) of a bisection of its own, so its
    root does not depend on the brackets beside it.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(np.broadcast_to(hi, lo.shape), dtype=float)
    live = np.arange(lo.size)
    if live.size:
        live = live[below(live, lo)]
    while True:
        l, h = lo[live], hi[live]
        m = 0.5 * (l + h)
        inside = (l < m) & (m < h)
        live, l, h, m = live[inside], l[inside], h[inside], m[inside]
        if not live.size:
            return lo
        m_low, m_high = 0.5 * (l + m), 0.5 * (m + h)
        up, up_low, up_high = below(
            np.tile(live, 3), np.concatenate((m, m_low, m_high))).reshape(3, -1)
        l, h = np.where(up, m, l), np.where(up, h, m)
        m, up = np.where(up, m_high, m_low), np.where(up, up_high, up_low)
        inside = (l < m) & (m < h)
        lo[live] = np.where(inside & up, m, l)
        hi[live] = np.where(inside & ~up, m, h)
        live = live[inside]


def _rotation(cell: HighContrastCell, stiff, kappa, band: int):
    """(phi(kappa) - (band - 1) pi, 4 - D^2) per item, for media with stiff
    coefficients `stiff`: the cell's rotation function phi rises from 0 to
    pi across the band, D = 2 cos(phi), and is flat in the gaps, where
    4 - D^2 < 0.  phi = pi n_D + (a, or pi - a for odd n_D): n_D =
    ceil(theta/pi) - 1 counts Dirichlet eigenvalues below kappa^2 by the
    Pruefer angle of u(0) = 0, which gains kappa L / sqrt(c) in a layer and
    at an interface maps psi = theta mod pi to atan2(sqrt(c_new/c_old)
    sin psi, cos psi); a = atan2(sqrt(4 - D^2), D), with 4 - D^2 formed from
    the monodromy entries so that it stays exact where a gap closes."""
    root = np.sqrt(stiff)
    theta = kappa * cell.l1 / root      # the first layer starts at angle 0
    for ratio, gain in ((np.sqrt(1.0 / stiff), kappa * cell.l2),
                        (root, kappa * cell.l3 / root)):
        turns, psi = np.divmod(theta, math.pi)
        theta = (turns * math.pi
                 + np.arctan2(ratio * np.sin(psi), np.cos(psi)) + gain)
    n_dirichlet = np.ceil(theta / math.pi) - 1.0
    M = _monodromy(cell, stiff, kappa * kappa)
    m11, m12, m21, m22 = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    delta = -np.square(m11 - m22) - 4.0 * m12 * m21
    a = np.arctan2(np.sqrt(np.where(0.0 > delta, 0.0, delta)), m11 + m22)
    return (math.pi * (n_dirichlet - band + 1)
            + np.where(n_dirichlet % 2 == 0, a, math.pi - a)), delta


def eps_spectra(cell: HighContrastCell, eps_values, taus,
                count: int = 8) -> list:
    """First `count` Bloch eigenvalues of the three-layer medium at every
    eps of eps_values and tau of taus: spectra[i][j] is the list at
    eps_values[i] and taus[j].  ``cell.epsilon`` is not used.

    Eigenvalue n solves phi = (n - 1) pi + (t, or pi - t for even n),
    t = |tau| folded into [0, pi], bisected in kappa = sqrt(z) from the
    previous root to n pi / l2, where phi >= n pi: by min-max the n-th
    Dirichlet eigenvalue is at most (n pi / l2)^2.  At a band edge (t = 0
    or pi) the root is the end of phi's flat stretch inside the band; z = 0
    at tau = 0 is an exact hit at band 1's left end, where D(0) = 2.  Each
    band is one lockstep bisection of every (eps, tau) bracket.
    """
    stiff = [cell.with_epsilon(e).stiff for e in eps_values]
    _check_bands(count)
    t = [_folded(tau) for tau in taus]
    shape = (len(stiff), len(t))
    stiff, t = np.repeat(stiff, len(t)), np.tile(t, len(stiff))
    kappa, roots = np.zeros(stiff.size), []
    for n in range(1, count + 1):
        s = t if n % 2 else math.pi - t

        def below(i, k):  # an open gap at rho = 0 lies under the band
            rho, delta = _rotation(cell, stiff[i], k, n)
            return (rho < s[i]) | ((rho <= 0.0) & (delta < 0.0))

        kappa = _bisect(below, kappa, n * math.pi / cell.l2)
        roots.append(kappa * kappa)
    return np.reshape(np.transpose(roots), shape + (count,)).tolist()


def eps_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """First `count` Bloch eigenvalues of the three-layer medium at tau:
    ``eps_spectra`` at the cell's own epsilon."""
    return eps_spectra(cell, [cell.epsilon], [tau], count)[0][0]


def _limit_spectra(cell: HighContrastCell, params, count: int,
                   excess) -> list:
    """Band roots z = (q / l2)^2 of a limit model, one list per entry of
    params: band n is where excess(p, odd, q), >= 0 at q = (n - 1) pi and
    <= 0 at q = n pi, changes sign, p the entry and odd whether n is odd.
    Every (entry, band) bracket is bisected in one lockstep."""
    _check_bands(count)
    p = np.repeat(params, count)
    n = np.tile(np.arange(1.0, count + 1), len(params))
    odd = n % 2 == 1
    q = _bisect(lambda i, q: excess(p[i], odd[i], q) > 0.0,
                (n - 1.0) * math.pi, n * math.pi)
    return [[(x / cell.l2) ** 2 for x in row]
            for row in q.reshape(-1, count).tolist()]


def hom_tau_spectra(cell: HighContrastCell, taus, count: int = 8) -> list:
    """First `count` eigenvalues of the homogenised fiber model at each
    tau of taus.

    Dispersion: f(q) = cos q - (b q / 2) sin q = cos tau, q = l2 k >= 0;
    f = (-1)^m at q = m pi, so band n is the sign change of
    (-1)^(n-1) (f - cos tau) on [(n - 1) pi, n pi].  The A-free branch
    (q a multiple of pi) satisfies the same relation.  Independent of a
    and epsilon.
    """
    b = cell.width_ratio

    def excess(t, odd, q):
        # f - cos t, cos q - cos t as a product: exact at small q and t
        d = (2.0 * np.sin(0.5 * (t + q)) * np.sin(0.5 * (t - q))
             - 0.5 * b * q * np.sin(q))
        return np.where(odd, d, -d)

    return _limit_spectra(cell, [_folded(t) for t in taus], count, excess)


def hom_tau_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """``hom_tau_spectra`` at one tau."""
    return hom_tau_spectra(cell, [tau], count)[0]


def hom_dprime_spectra(cell: HighContrastCell, taus_prime,
                       count: int = 8) -> list:
    """The companion homogenised model in the shifted parametrisation, at
    each tau' of taus_prime.

    Dispersion: g(q) = (b q / 2) sin q - cos q = cos tau', so band n is the
    sign change of (-1)^n (g - cos tau') on [(n - 1) pi, n pi].  Band by
    band this reproduces hom_tau_spectra at tau = tau' - pi; the
    dispersion is evaluated separately so the two routes check each other.
    """
    b = cell.width_ratio

    def excess(target, odd, q):
        g = 0.5 * b * q * np.sin(q) - np.cos(q)
        return np.where(odd, target - g, g - target)

    return _limit_spectra(cell, [math.cos(_folded(t)) for t in taus_prime],
                          count, excess)


def hom_dprime_spectrum(cell: HighContrastCell, tau_prime,
                        count: int = 8) -> list[float]:
    """``hom_dprime_spectra`` at one tau'."""
    return hom_dprime_spectra(cell, [tau_prime], count)[0]


# --------------------------------------------------------------------------
# convergence bookkeeping
# --------------------------------------------------------------------------

EXACT_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceRow:
    """Per-(tau, band) record of |eps-model minus limit-model| errors."""
    tau: float
    band: int               # 1-based
    limit: float
    errors: tuple           # (eps, error) pairs, eps descending
    order: float | None     # fitted slope of log(err) vs log(eps); None if exact
    exact: bool             # every error below the resolution floor


@dataclass(frozen=True)
class DispersionTable:
    """Eigenvalues per model over a tau grid, plus study metadata."""
    taus: tuple
    bands: int
    eigenvalues: dict       # model name -> {tau index -> list of z}
    metadata: dict

    def rows(self):
        """(model, tau, band, eigenvalue) in deterministic order."""
        for model in sorted(self.eigenvalues):
            per_tau = self.eigenvalues[model]
            for i, tau in enumerate(self.taus):
                for band, z in enumerate(per_tau[i], start=1):
                    yield model, tau, band, z


def build_dispersion_table(cell: HighContrastCell, taus, bands: int,
                           models=("eps", "hom")) -> DispersionTable:
    _check_bands(bands)
    taus = tuple(float(_tau_value(t)) for t in taus)
    table: dict = {}
    for model in models:
        if model == "eps":
            table[model] = eps_spectra(cell, [cell.epsilon], taus, bands)[0]
        elif model == "hom":
            table[model] = hom_tau_spectra(cell, taus, bands)
        elif model == "hom-shifted":
            table[model] = hom_dprime_spectra(
                cell, [Quasimomentum(t).shifted() for t in taus], bands)
        else:
            raise ValueError(f"unknown model {model!r}")
    meta = {"l1": cell.l1, "l2": cell.l2, "l3": cell.l3, "a": cell.a,
            "epsilon": cell.epsilon, "bands": bands}
    return DispersionTable(taus, bands, table, meta)


def convergence_fit(eps_list, taus, limits, spectra) -> list[ConvergenceRow]:
    """Fit the eps -> 0 convergence order per band from computed spectra.

    limits[j] is the homogenised spectrum at taus[j] and spectra[i][j] the
    fiber spectrum of the eps_list[i] medium there.  Needs at least three
    distinct eps values, in any order.  Bands where the two models agree
    below the resolution floor at every eps (the z = 0 row at tau = 0) are
    flagged exact instead of fitted.
    """
    by_eps = dict(zip((float(e) for e in eps_list), spectra))
    eps_list = sorted(by_eps, reverse=True)
    if len(spectra) < 3:
        raise ValueError("need at least three eps values")
    if len(eps_list) < len(spectra):
        raise ValueError("eps values must be distinct")
    rows = []
    for j, t in enumerate(taus):
        limit = limits[j]
        per_eps = [[abs(s - l) for s, l in zip(by_eps[e][j], limit)]
                   for e in eps_list]
        for band in range(len(limit)):
            errs = tuple((e, per_eps[i][band])
                         for i, e in enumerate(eps_list))
            if all(err < EXACT_FLOOR for _, err in errs):
                rows.append(ConvergenceRow(t, band + 1, limit[band], errs,
                                           None, True))
                continue
            xs = np.log([e for e, _ in errs])
            ys = np.log([max(err, 1e-300) for _, err in errs])
            order = float(np.polyfit(xs, ys, 1)[0])
            rows.append(ConvergenceRow(t, band + 1, limit[band], errs,
                                       order, False))
    return rows


def convergence_study(cell: HighContrastCell, eps_list, tau_list,
                      bands: int) -> list[ConvergenceRow]:
    """Both models' spectra over eps_list x tau_list, then
    ``convergence_fit`` on them."""
    eps_list = [float(e) for e in eps_list]
    limits = build_dispersion_table(cell, tau_list, bands, ("hom",))
    spectra = eps_spectra(cell, eps_list, limits.taus, bands)
    return convergence_fit(eps_list, limits.taus,
                           limits.eigenvalues["hom"], spectra)
