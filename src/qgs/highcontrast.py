"""Periodic high-contrast three-layer media and their homogenised limits.

One unit cell of length 1 carries three layers: a stiff outer pair with
coefficient a/eps^2 and widths l1, l3 around a soft middle layer with
coefficient 1 and width l2.  ``eps_spectrum`` computes the Bloch fiber
eigenvalues of -(c u')' = z u at quasimomentum tau from the discriminant
of the monodromy matrix, D(z) = 2 cos(tau).

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
precision on a bracket known in advance: no grid scan, no derivative.  A
closed gap's edge is listed once per band: the free medium (a=1, eps=1)
at tau=0 lists (2 pi n)^2 twice for n >= 1, the two Bloch waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import entire_cs

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

def transfer_matrix(coef: float, length: float, z) -> np.ndarray:
    """Monodromy of -(c u')' = z u across one homogeneous layer.

    Acts on the state (u, c u'); entries are entire in z:
        [[cos(kL),        sin(kL)/(k c)],
         [-k c sin(kL),   cos(kL)      ]],   k = sqrt(z / c),
    with determinant identically 1 and the z=0 limit [[1, L/c], [0, 1]].
    """
    C, S = entire_cs(complex(z) / coef, length)
    return np.array([[C, S / coef], [-complex(z) * S, C]])


def _layers(cell: HighContrastCell):
    """(coefficient, width) of the three layers, left to right."""
    if cell.epsilon is None:
        raise ValueError("cell carries no epsilon; use with_epsilon")
    stiff = cell.a / cell.epsilon ** 2
    return ((stiff, cell.l1), (1.0, cell.l2), (stiff, cell.l3))


def _monodromy(layers, z) -> np.ndarray:
    T1, T2, T3 = (transfer_matrix(c, width, z) for c, width in layers)
    return T3 @ T2 @ T1


def cell_discriminant(cell: HighContrastCell, z) -> complex:
    """Trace of the three-layer monodromy at spectral parameter z."""
    return complex(np.trace(_monodromy(_layers(cell), z)))


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


def _bisect(below, lo: float, hi: float) -> float:
    """Last double of [lo, hi] at which `below` holds, for a predicate
    false at hi (not evaluated) that changes once; lo itself when it fails
    there, an exact hit at the left end."""
    if not below(lo):
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


def _rotation(cell: HighContrastCell, kappa: float, band: int):
    """(phi(kappa) - (band - 1) pi, 4 - D^2): the cell's rotation function
    phi rises from 0 to pi across the band, D = 2 cos(phi), and is flat in
    the gaps, where 4 - D^2 < 0.  phi = pi n_D + (a, or pi - a for odd n_D):
    n_D = ceil(theta/pi) - 1 counts Dirichlet eigenvalues below kappa^2 by
    the Pruefer angle of u(0) = 0, which gains kappa L / sqrt(c) in a layer
    and at an interface maps psi = theta mod pi to atan2(sqrt(c_new/c_old)
    sin psi, cos psi); a = atan2(sqrt(4 - D^2), D), with 4 - D^2 formed from
    the monodromy entries so that it stays exact where a gap closes."""
    layers = _layers(cell)
    theta, coef = 0.0, layers[0][0]
    for c, width in layers:
        turns, psi = divmod(theta, math.pi)
        theta = (turns * math.pi
                 + math.atan2(math.sqrt(c / coef) * math.sin(psi), math.cos(psi))
                 + kappa * width / math.sqrt(c))
        coef = c
    n_dirichlet = math.ceil(theta / math.pi) - 1
    (m11, m12), (m21, m22) = _monodromy(layers, kappa * kappa).real
    delta = -(m11 - m22) ** 2 - 4.0 * m12 * m21
    a = math.atan2(math.sqrt(max(delta, 0.0)), m11 + m22)
    return (math.pi * (n_dirichlet - band + 1)
            + (a if n_dirichlet % 2 == 0 else math.pi - a)), delta


def eps_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """First `count` Bloch eigenvalues of the three-layer medium at tau.

    Eigenvalue n solves phi = (n - 1) pi + (t, or pi - t for even n),
    t = |tau| folded into [0, pi], bisected in kappa = sqrt(z) from the
    previous root to n pi / l2, where phi >= n pi: by min-max the n-th
    Dirichlet eigenvalue is at most (n pi / l2)^2.  At a band edge (t = 0
    or pi) the root is the end of phi's flat stretch inside the band; z = 0
    at tau = 0 is an exact hit at band 1's left end, where D(0) = 2."""
    _check_bands(count)
    t = _folded(tau)
    out, kappa = [], 0.0
    for n in range(1, count + 1):
        s = t if n % 2 else math.pi - t

        def below(k):  # an open gap at rho = 0 lies under the band
            rho, delta = _rotation(cell, k, n)
            return rho < s or (rho <= 0.0 and delta < 0.0)

        kappa = _bisect(below, kappa, n * math.pi / cell.l2)
        out.append(kappa * kappa)
    return out


def _limit_spectrum(excess, count: int, l2: float) -> list[float]:
    """Band roots z = (q / l2)^2 of a limit model: band n is where excess(q,
    n), >= 0 at q = (n - 1) pi and <= 0 at q = n pi, changes sign."""
    _check_bands(count)
    return [(_bisect(lambda q: excess(q, n) > 0.0, (n - 1) * math.pi,
                     n * math.pi) / l2) ** 2 for n in range(1, count + 1)]


def hom_tau_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """First `count` eigenvalues of the homogenised fiber model at tau.

    Dispersion: f(q) = cos q - (b q / 2) sin q = cos tau, q = l2 k >= 0;
    f = (-1)^m at q = m pi, so band n is the sign change of
    (-1)^(n-1) (f - cos tau) on [(n - 1) pi, n pi].  The A-free branch
    (q a multiple of pi) satisfies the same relation.  Independent of a
    and epsilon.
    """
    b = cell.width_ratio
    t = _folded(tau)

    def excess(q, n):
        # f - cos t, cos q - cos t as a product: exact at small q and t
        d = (2.0 * math.sin(0.5 * (t + q)) * math.sin(0.5 * (t - q))
             - 0.5 * b * q * math.sin(q))
        return d if n % 2 else -d

    return _limit_spectrum(excess, count, cell.l2)


def hom_dprime_spectrum(cell: HighContrastCell, tau_prime,
                        count: int = 8) -> list[float]:
    """The companion homogenised model in the shifted parametrisation.

    Dispersion: g(q) = (b q / 2) sin q - cos q = cos tau', so band n is the
    sign change of (-1)^n (g - cos tau') on [(n - 1) pi, n pi].  Band by
    band this reproduces hom_tau_spectrum at tau = tau' - pi; the
    dispersion is evaluated separately so the two routes check each other.
    """
    b = cell.width_ratio
    target = math.cos(_folded(tau_prime))

    def excess(q, n):
        g = 0.5 * b * q * math.sin(q) - math.cos(q)
        return (target - g) if n % 2 else (g - target)

    return _limit_spectrum(excess, count, cell.l2)


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
            table[model] = [eps_spectrum(cell, t, bands) for t in taus]
        elif model == "hom":
            table[model] = [hom_tau_spectrum(cell, t, bands) for t in taus]
        elif model == "hom-shifted":
            table[model] = [
                hom_dprime_spectrum(cell, Quasimomentum(t).shifted(), bands)
                for t in taus]
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
    spectra = [build_dispersion_table(cell.with_epsilon(e), tau_list, bands,
                                      ("eps",)).eigenvalues["eps"]
               for e in eps_list]
    return convergence_fit(eps_list, limits.taus,
                           limits.eigenvalues["hom"], spectra)
