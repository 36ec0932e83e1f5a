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

Everything here returns eigenvalues only — no eigenfunctions — with
double (tangent) dispersion roots repeated, so that e.g. the free medium
(a=1, eps=1) at tau=0 lists (2 pi n)^2 twice for n >= 1, matching the
two Bloch waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import SERIES_CUTOFF, entire_cs
from .rootscan import grow_window, scan_roots

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
    """Quasimomentum normalised into [-pi, pi)."""
    tau: float

    def __post_init__(self):
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


def _transfer_dz(coef: float, length: float, z) -> np.ndarray:
    """Entrywise d/dz of transfer_matrix — entire as well.

    Uses dC/dw = -(L/2) S and dS/dw = (L C - S)/(2w) with w = z/c; the
    second expression is evaluated by series near w = 0 where the
    subtraction cancels.
    """
    w = complex(z) / coef
    L = length
    C, S = entire_cs(w, L)
    u = w * L * L
    if abs(u) < SERIES_CUTOFF:
        Sdot = -L ** 3 / 6.0 + u * L ** 3 / 60.0 - u * u * L ** 3 / 1680.0
    else:
        Sdot = (L * C - S) / (2.0 * w)
    Cdot = -(L / 2.0) * S
    # d/dz = (1/c) d/dw ; the lower-left entry is -z S, differentiate as a
    # product.
    return np.array([
        [Cdot / coef, Sdot / (coef * coef)],
        [-S - complex(z) * Sdot / coef, Cdot / coef],
    ])


def cell_discriminant(cell: HighContrastCell, z) -> complex:
    """Trace of the three-layer monodromy at spectral parameter z."""
    if cell.epsilon is None:
        raise ValueError("cell carries no epsilon; use with_epsilon")
    stiff = cell.a / cell.epsilon ** 2
    T1 = transfer_matrix(stiff, cell.l1, z)
    T2 = transfer_matrix(1.0, cell.l2, z)
    T3 = transfer_matrix(stiff, cell.l3, z)
    return complex(np.trace(T3 @ T2 @ T1))


def _cell_discriminant_dz(cell: HighContrastCell, z) -> complex:
    stiff = cell.a / cell.epsilon ** 2
    layers = ((stiff, cell.l1), (1.0, cell.l2), (stiff, cell.l3))
    Ts = [transfer_matrix(c, L, z) for c, L in layers]
    Ds = [_transfer_dz(c, L, z) for c, L in layers]
    total = (Ds[2] @ Ts[1] @ Ts[0] + Ts[2] @ Ds[1] @ Ts[0]
             + Ts[2] @ Ts[1] @ Ds[0])
    return complex(np.trace(total))


# --------------------------------------------------------------------------
# fiber spectra
# --------------------------------------------------------------------------

def _collect(roots, count, to_z):
    out = []
    for r in roots:
        copies = 2 if r.kind == "tangent" else 1
        out.extend([to_z(r.x)] * copies)
        if len(out) >= count:
            break
    return out[:count]


def _fiber_spectrum(f, df, step, hi, count, to_z, zero, what):
    """First `count` energies to_z(x) at the roots x > 0 of the dispersion
    f, with z = 0 listed first when `zero`.  The scan window [step/1000, hi]
    grows by 1.6 until it holds enough roots."""
    head = [0.0] if zero else []

    def collect(x_hi):
        roots = scan_roots(f, step * 1e-3, x_hi, step, df=df)
        return head + _collect(roots, count, to_z)

    return grow_window(collect, hi, count, 1.6, 24, what)


def eps_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """First `count` Bloch eigenvalues of the three-layer medium at tau.

    Solves D(z) = 2 cos(tau) by scanning kappa = sqrt(z); z = 0 belongs to
    the fiber exactly when tau = 0 (the monodromy at z = 0 is unipotent,
    so D(0) = 2).  Tangent roots (closed gaps — e.g. the free medium) are
    refined through the analytic derivative of D and listed twice.
    """
    if cell.epsilon is None:
        raise ValueError("cell carries no epsilon; use with_epsilon")
    t = _tau_value(tau)
    target = 2.0 * math.cos(t)

    def f(kap):
        return cell_discriminant(cell, kap * kap).real - target

    def df(kap):
        return (_cell_discriminant_dz(cell, kap * kap) * 2.0 * kap).real

    optical = cell.l2 + cell.stiff_width * cell.epsilon / math.sqrt(cell.a)
    return _fiber_spectrum(f, df, math.pi / (8.0 * optical),
                           (count + 2) * math.pi / optical, count,
                           lambda k: k * k, t == 0.0, "fiber eigenvalues")


def hom_tau_spectrum(cell: HighContrastCell, tau, count: int = 8) -> list[float]:
    """First `count` eigenvalues of the homogenised fiber model at tau.

    Dispersion: cos q - (b q / 2) sin q = cos tau on q = l2 k > 0, plus
    z = 0 exactly at tau = 0.  The A-free branch (pure sine solutions,
    q a multiple of pi) satisfies the same scalar relation, so a single
    scan covers everything.  Independent of a and epsilon.
    """
    t = _tau_value(tau)
    b = cell.width_ratio
    target = math.cos(t)

    def f(q):
        return math.cos(q) - 0.5 * b * q * math.sin(q) - target

    def df(q):
        return -math.sin(q) - 0.5 * b * (math.sin(q) + q * math.cos(q))

    return _fiber_spectrum(f, df, math.pi / (8.0 * (1.0 + b)),
                           (count + 2) * math.pi + 1.0, count,
                           lambda q: (q / cell.l2) ** 2, t == 0.0,
                           "homogenised eigenvalues")


def hom_dprime_spectrum(cell: HighContrastCell, tau_prime,
                        count: int = 8) -> list[float]:
    """The companion homogenised model in the shifted parametrisation.

    Dispersion: (b q / 2) sin q - cos q = cos tau', with z = 0 in the
    fiber exactly when cos tau' = -1.  Band by band this reproduces
    hom_tau_spectrum at tau = tau' - pi; the code path is deliberately
    separate so the two can be compared as independent routes.
    """
    t = _tau_value(tau_prime)
    b = cell.width_ratio
    target = math.cos(t)

    def f(q):
        return 0.5 * b * q * math.sin(q) - math.cos(q) - target

    def df(q):
        return 0.5 * b * (math.sin(q) + q * math.cos(q)) + math.sin(q)

    return _fiber_spectrum(f, df, math.pi / (8.0 * (1.0 + b)),
                           (count + 2) * math.pi + 1.0, count,
                           lambda q: (q / cell.l2) ** 2, math.cos(t) == -1.0,
                           "homogenised eigenvalues")


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
