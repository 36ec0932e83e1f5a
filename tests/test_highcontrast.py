"""Periodic three-layer chain: fiber spectra and the homogenised limit."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (HighContrastCell, Quasimomentum, cell_discriminant,
                 convergence_study, eps_spectra, eps_spectrum,
                 hom_dprime_spectra, hom_dprime_spectrum, hom_tau_spectra,
                 hom_tau_spectrum, highcontrast, transfer_matrix)
from qgs.highcontrast import _bisect, _rotation, convergence_fit
from qgs.kernels import SERIES_CUTOFF, entire_cs, entire_cs_real, mp_entire_cs

CELL = HighContrastCell(0.25, 0.5, 0.25)

# frozen: first positive fiber eigenvalue of the contrast cell
# (0.25, 0.5, 0.25), a=1, eps=0.1 at tau=0, refined independently in
# 50-digit arithmetic from the monodromy trace
EPS01_TAU0_BAND2 = 65.55802210475415

# frozen: homogenised limit at tau=0, second band — 16 x^2 with x the
# first positive root of tan x = -x (b = 1)
HOM_TAU0_BAND2 = 65.85373385111233


def test_cell_geometry_checks():
    with pytest.raises(ValueError):
        HighContrastCell(0.3, 0.3, 0.3)
    with pytest.raises(ValueError):
        HighContrastCell(0.5, -0.1, 0.6)
    with pytest.raises(ValueError):
        HighContrastCell(0.25, 0.5, 0.25, a=0.0)
    with pytest.raises(ValueError):
        HighContrastCell(0.25, 0.5, 0.25, epsilon=-1.0)


@pytest.mark.parametrize("a, eps", [(1.0, 1e-200), (1.0, 1e-160),
                                    (1e308, 0.01), (1.0, 1e200),
                                    (5e-324, 2.0), (1e-310, 1.0)])
def test_stiff_coefficient_out_of_range_is_refused(a, eps):
    """a/eps^2 that overflows, divides by an eps^2 of 0, or is so small
    that its reciprocal overflows would leave nan and inf in the rotation
    function and the transfer matrices."""
    with pytest.raises(ValueError, match="stiff coefficient"):
        HighContrastCell(0.25, 0.5, 0.25, a=a, epsilon=eps)


def test_cell_derived_quantities():
    cell = HighContrastCell(0.3, 0.45, 0.25, a=2.0)
    assert cell.l1 + cell.l3 == pytest.approx(0.55)
    assert cell.width_ratio == pytest.approx(0.55 / 0.45)
    assert cell.epsilon is None
    assert cell.with_epsilon(0.1).epsilon == 0.1


def test_quasimomentum_wraps():
    assert Quasimomentum(0.0).tau == 0.0
    assert Quasimomentum(2 * math.pi).tau == pytest.approx(0.0)
    assert Quasimomentum(math.pi).tau == pytest.approx(-math.pi)
    assert Quasimomentum(-3.5 * math.pi).tau == pytest.approx(0.5 * math.pi)


def test_quasimomentum_shift():
    t = Quasimomentum(0.3)
    assert t.shifted().tau == pytest.approx(0.3 + math.pi - 2 * math.pi)


# --------------------------------------------------------------------------
# transfer matrices
# --------------------------------------------------------------------------

@given(st.floats(min_value=-200.0, max_value=400.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_transfer_is_unimodular(z, length, coef):
    T = transfer_matrix(coef, length, z)
    det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    assert abs(det - 1.0) < 1e-9 * (1 + np.abs(T).max() ** 2)


def test_transfer_composes():
    z = 7.0
    T_whole = transfer_matrix(1.0, 0.9, z)
    T_split = transfer_matrix(1.0, 0.5, z) @ transfer_matrix(1.0, 0.4, z)
    assert np.allclose(T_whole, T_split, atol=1e-12)


def test_transfer_free_entries():
    z, l = 4.0, 0.7
    k = math.sqrt(z)
    T = transfer_matrix(1.0, l, z)
    assert T[0, 0] == pytest.approx(math.cos(k * l))
    assert T[0, 1] == pytest.approx(math.sin(k * l) / k)
    assert T[1, 0] == pytest.approx(-k * math.sin(k * l))


def test_transfer_zero_energy_is_shear():
    T = transfer_matrix(2.0, 0.3, 0.0)
    assert np.allclose(T, [[1.0, 0.15], [0.0, 1.0]], atol=1e-14)


def test_discriminant_needs_epsilon():
    with pytest.raises(ValueError):
        cell_discriminant(CELL, 1.0)
    with pytest.raises(ValueError):
        eps_spectrum(CELL, 0.0, 2)


def test_free_medium_discriminant():
    cell = CELL.with_epsilon(1.0)
    for z in (0.5, 3.0, 40.0):
        assert cell_discriminant(cell, z) == pytest.approx(
            2.0 * math.cos(math.sqrt(z)), rel=1e-12)


# --------------------------------------------------------------------------
# fiber spectra
# --------------------------------------------------------------------------

def test_free_medium_fiber_spectrum():
    cell = CELL.with_epsilon(1.0)
    tau = 1.1
    spec = eps_spectrum(cell, tau, 5)
    exact = sorted((tau + 2 * math.pi * n) ** 2 for n in range(-2, 3))[:5]
    for a, b in zip(spec, exact):
        assert a == pytest.approx(b, abs=1e-9)


def test_free_medium_tangent_doubles():
    """At tau=0 the interior bands touch: (2 pi n)^2 twice each."""
    cell = CELL.with_epsilon(1.0)
    spec = eps_spectrum(cell, 0.0, 5)
    assert spec[0] == 0.0
    assert spec[1] == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    assert spec[2] == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    assert spec[3] == pytest.approx((4 * math.pi) ** 2, rel=1e-12)
    assert spec[4] == pytest.approx((4 * math.pi) ** 2, rel=1e-12)


def test_frozen_contrast_regression():
    cell = CELL.with_epsilon(0.1)
    spec = eps_spectrum(cell, 0.0, 2)
    assert spec[0] == 0.0
    assert spec[1] == pytest.approx(EPS01_TAU0_BAND2, abs=1e-9)


def test_zero_membership_follows_tau():
    cell = CELL.with_epsilon(0.3)
    assert eps_spectrum(cell, 0.0, 1)[0] == 0.0
    assert eps_spectrum(cell, 0.7, 1)[0] > 0.0


def test_spectra_are_periodic_in_tau():
    cell = CELL.with_epsilon(0.05)
    for tau in (0.3, -2.0, 3.0):
        for spectrum, c in ((eps_spectrum, cell), (hom_tau_spectrum, CELL)):
            a = spectrum(c, tau, 4)
            b = spectrum(c, tau + 2 * math.pi, 4)
            assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("spectrum", [eps_spectrum, hom_tau_spectrum,
                                      hom_dprime_spectrum])
@pytest.mark.parametrize("count", [0, -1])
def test_band_count_below_one_is_refused(spectrum, count):
    with pytest.raises(ValueError, match="bands must be at least 1"):
        spectrum(CELL.with_epsilon(0.1), 0.5, count)
    with pytest.raises(ValueError, match="bands must be at least 1"):
        convergence_study(CELL, [0.2, 0.1, 0.05], [0.5], count)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_tau_is_refused(tau):
    for spectrum, cell in ((eps_spectrum, CELL.with_epsilon(0.1)),
                           (hom_tau_spectrum, CELL), (hom_dprime_spectrum, CELL)):
        with pytest.raises(ValueError, match="tau must be finite"):
            spectrum(cell, tau, 2)


def test_eps_spectra_rows_are_the_single_spectra():
    eps, taus = [0.3, 0.05], [0.0, 2.0, -0.4]
    spectra = eps_spectra(CELL, eps, taus, 3)
    assert spectra == [[eps_spectrum(CELL.with_epsilon(e), t, 3) for t in taus]
                       for e in eps]


def test_spectrum_accepts_quasimomentum_object():
    cell = CELL.with_epsilon(0.3)
    a = eps_spectrum(cell, Quasimomentum(0.7), 3)
    b = eps_spectrum(cell, 0.7, 3)
    assert a == b


# --------------------------------------------------------------------------
# 40-digit references on the pinned cell
# --------------------------------------------------------------------------

# rough locations of bands 1 and 2 at tau = 0 and 1.5, for eps = 0.02 and
# 0.005 and the limit alike; the references are refined from these alone
SEEDS = {0.0: (0.0, 65.8), 1.5: (4.26, 54.0)}


def _mp_discriminant(cell, z):
    stiff = mp.mpf(cell.a) / mp.mpf(cell.epsilon) ** 2
    M = mp.eye(2)
    for coef, width in ((stiff, cell.l1), (mp.mpf(1), cell.l2),
                        (stiff, cell.l3)):
        C, S = mp_entire_cs(z / coef, mp.mpf(width))
        M = mp.matrix([[C, S / coef], [-z * S, C]]) * M
    return (M[0, 0] + M[1, 1]).real


def _mp_eps_root(cell, tau, seed):
    target = 2 * mp.cos(mp.mpf(tau))
    k = mp.findroot(lambda k: _mp_discriminant(cell, k * k) - target,
                    mp.sqrt(seed))
    return k * k


def _mp_hom_root(cell, tau, seed):
    b, l2 = mp.mpf(cell.width_ratio), mp.mpf(cell.l2)
    q = mp.findroot(lambda q: mp.cos(q) - b * q / 2 * mp.sin(q)
                    - mp.cos(mp.mpf(tau)), l2 * mp.sqrt(seed))
    return (q / l2) ** 2


def _check_against(got, tau, reference):
    seeds = SEEDS[tau]
    assert len(got) == 2
    assert got[0] == 0.0 if tau == 0.0 else got[0] > 0.0
    with mp.workdps(40):
        for z, seed in zip(got, seeds):
            if seed:
                ref = reference(mp.mpf(seed))
                assert abs(z - ref) <= 1e-14 * ref, (z, ref)


@pytest.mark.parametrize("tau", [0.0, 1.5])
@pytest.mark.parametrize("eps", [0.02, 0.005])
def test_eps_spectrum_matches_40_digit_roots(eps, tau):
    cell = CELL.with_epsilon(eps)
    _check_against(eps_spectrum(cell, tau, 2), tau,
                   lambda seed: _mp_eps_root(cell, tau, seed))


@pytest.mark.parametrize("tau", [0.0, 1.5])
def test_limit_spectra_match_40_digit_roots(tau):
    reference = lambda seed: _mp_hom_root(CELL, tau, seed)  # noqa: E731
    _check_against(hom_tau_spectrum(CELL, tau, 2), tau, reference)
    _check_against(hom_dprime_spectrum(CELL, Quasimomentum(tau).shifted(), 2),
                   tau, reference)


# --------------------------------------------------------------------------
# limit models
# --------------------------------------------------------------------------

def test_hom_anchor():
    spec = hom_tau_spectrum(CELL, 0.0, 2)
    assert spec[0] == 0.0
    assert spec[1] == pytest.approx(HOM_TAU0_BAND2, abs=1e-6)


def test_hom_anchor_solves_dispersion():
    # the anchor satisfies cos q = (b q / 2) sin q + cos(0) - 1 ... i.e.
    # with b=1, tau=0: cos q - (q/2) sin q = 1 at q = l2 sqrt(z)
    q = CELL.l2 * math.sqrt(HOM_TAU0_BAND2)
    residual = math.cos(q) - (CELL.width_ratio * q / 2) * math.sin(q) - 1.0
    assert abs(residual) < 1e-7


def test_hom_zero_only_at_tau_zero():
    assert hom_tau_spectrum(CELL, 0.0, 1)[0] == 0.0
    assert hom_tau_spectrum(CELL, 0.5, 1)[0] > 0.0


def test_shifted_model_matches_per_tau():
    """Same band functions through the companion parametrisation."""
    cell = HighContrastCell(0.3, 0.45, 0.25)
    for t in (0.0, 0.9, -1.7, math.pi / 2):
        a = hom_tau_spectrum(cell, t, 4)
        b = hom_dprime_spectrum(cell, Quasimomentum(t).shifted(), 4)
        assert len(a) == len(b) == 4
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-8)


def test_hom_spectra_increase_with_band():
    spec = hom_tau_spectrum(CELL, 1.3, 6)
    assert all(a < b or a == pytest.approx(b, abs=1e-10)
               for a, b in zip(spec, spec[1:]))


# --------------------------------------------------------------------------
# convergence to the limit
# --------------------------------------------------------------------------

def test_norm_resolvent_rate():
    rows = convergence_study(CELL, [0.2, 0.1, 0.05], [0.0, math.pi / 2], 2)
    fitted = [r for r in rows if not r.exact]
    assert fitted
    for r in fitted:
        assert 1.8 <= r.order <= 2.3
        errs = [e for _, e in r.errors]
        assert errs[0] > errs[1] > errs[2]


def test_small_tau_orders():
    """At 0 < tau <= 1e-3 the acoustic band is tiny; it must still be
    band 1 of both models, so each band converges at second order."""
    rows = convergence_study(CELL, [0.02, 0.01, 0.005], [4e-4], 2)
    assert [r.band for r in rows] == [1, 2]
    for r in rows:
        assert 1.8 <= r.order <= 2.3
    assert eps_spectrum(CELL.with_epsilon(0.02), 4e-4, 1)[0] == \
        pytest.approx(3.2e-7, rel=0.01)


def test_convergence_flags_exact_band():
    # tau=0, band 1: both models are pinned at zero, error identically 0
    rows = convergence_study(CELL, [0.2, 0.1, 0.05], [0.0], 2)
    first = [r for r in rows if r.band == 1][0]
    assert first.exact and first.order is None
    assert first.limit == 0.0


def test_convergence_fit_is_one_polyfit_equal_to_per_row_fits(monkeypatch):
    """One np.polyfit for the whole study; each order is bit for bit the
    per-row fit of log(error) against log(eps), and the exact row (tau = 0,
    band 1) has none."""
    eps, taus = [0.05, 0.2, 0.025, 0.1], [0.0, 0.7, -2.1, math.pi / 2]
    limits = hom_tau_spectra(CELL, taus, 4)
    spectra = eps_spectra(CELL, eps, taus, 4)
    calls = []
    polyfit = np.polyfit

    def counted(*args):
        calls.append(1)
        return polyfit(*args)

    monkeypatch.setattr(np, "polyfit", counted)
    rows = convergence_fit(eps, taus, limits, spectra)
    monkeypatch.undo()
    assert len(calls) == 1
    assert [(r.tau, r.band) for r in rows] == [(t, b) for t in taus
                                               for b in range(1, 5)]
    by_eps = dict(zip(eps, spectra))
    for r in rows:
        j = taus.index(r.tau)
        want = [(e, abs(by_eps[e][j][r.band - 1] - limits[j][r.band - 1]))
                for e in sorted(eps, reverse=True)]
        assert r.errors == tuple(want) and r.limit == limits[j][r.band - 1]
        if (r.tau, r.band) == (0.0, 1):
            assert r.exact and r.order is None
            continue
        assert not r.exact
        xs = np.log([e for e, _ in want])
        ys = np.log([max(x, 1e-300) for _, x in want])
        ref = float(np.polyfit(xs, ys, 1)[0])
        assert _bits([r.order]) == _bits([ref])


def test_convergence_study_on_no_tau_is_empty():
    assert convergence_study(CELL, [0.2, 0.1, 0.05], [], 2) == []


def test_convergence_requires_three_epsilons():
    with pytest.raises(ValueError):
        convergence_study(CELL, [0.2, 0.1], [0.0], 2)


def test_halving_epsilon_quarters_error():
    rows = convergence_study(CELL, [0.2, 0.1, 0.05], [math.pi / 2], 1)
    (row,) = [r for r in rows if not r.exact]
    e = dict(row.errors)
    assert e[0.1] / e[0.2] == pytest.approx(0.25, abs=0.01)
    assert e[0.05] / e[0.1] == pytest.approx(0.25, abs=0.01)


# --------------------------------------------------------------------------
# lockstep bisection against the scalar bisection, bit for bit
# --------------------------------------------------------------------------

# The per-bracket bisection that the lockstep replaced, kept as the
# reference: one kappa at a time, on transfer matrices written from their
# definitions, cos(k L) and sin(k L)/k with k = sqrt(z / c), in Python's
# float arithmetic, multiplied as real (2, 2) matrices.

def _ref_transfer(coef, length, z):
    k = math.sqrt(z / coef)
    C = math.cos(k * length)
    S = math.sin(k * length) / k if k else length
    return np.array([[C, S / coef], [-z * S, C]])


def _ref_layers(cell):
    stiff = cell.a / cell.epsilon ** 2
    return ((stiff, cell.l1), (1.0, cell.l2), (stiff, cell.l3))


def _ref_monodromy(layers, z):
    T1, T2, T3 = (_ref_transfer(c, width, z) for c, width in layers)
    return T3 @ T2 @ T1


def _ref_bisect(below, lo, hi):
    if not below(lo):
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


def _ref_rotation(cell, kappa, band):
    layers = _ref_layers(cell)
    theta, coef = 0.0, layers[0][0]
    for c, width in layers:
        turns, psi = divmod(theta, math.pi)
        theta = (turns * math.pi
                 + math.atan2(math.sqrt(c / coef) * math.sin(psi), math.cos(psi))
                 + kappa * width / math.sqrt(c))
        coef = c
    n_dirichlet = math.ceil(theta / math.pi) - 1
    (m11, m12), (m21, m22) = _ref_monodromy(layers, kappa * kappa).real
    delta = -(m11 - m22) ** 2 - 4.0 * m12 * m21
    a = math.atan2(math.sqrt(max(delta, 0.0)), m11 + m22)
    return (math.pi * (n_dirichlet - band + 1)
            + (a if n_dirichlet % 2 == 0 else math.pi - a)), delta


def _ref_eps_spectrum(cell, tau, count):
    t = abs(Quasimomentum(tau).tau)
    out = []
    for n in range(1, count + 1):
        s = t if n % 2 else math.pi - t

        def below(k):
            rho, delta = _ref_rotation(cell, k, n)
            return rho < s or (rho <= 0.0 and delta < 0.0)

        out.append(_ref_bisect(below, 0.0, n * math.pi / cell.l2) ** 2)
    return out


def _ref_limit_spectrum(excess, count, l2):
    return [(_ref_bisect(lambda q: excess(q, n) > 0.0, (n - 1) * math.pi,
                         n * math.pi) / l2) ** 2 for n in range(1, count + 1)]


def _ref_hom_tau(cell, tau, count):
    b, t = cell.width_ratio, abs(Quasimomentum(tau).tau)

    def excess(q, n):
        d = (2.0 * math.sin(0.5 * (t + q)) * math.sin(0.5 * (t - q))
             - 0.5 * b * q * math.sin(q))
        return d if n % 2 else -d

    return _ref_limit_spectrum(excess, count, cell.l2)


def _ref_hom_dprime(cell, tau_prime, count):
    b = cell.width_ratio
    target = math.cos(abs(Quasimomentum(tau_prime).tau))

    def excess(q, n):
        g = 0.5 * b * q * math.sin(q) - math.cos(q)
        return (target - g) if n % 2 else (g - target)

    return _ref_limit_spectrum(excess, count, cell.l2)


def _bits(values):
    """The IEEE bit patterns, so that -0.0 and 0.0 differ too, of both
    parts of complex values."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        values = np.stack((values.real, values.imag))
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# band edges, the small-tau corner where band 1 is tiny, and a uniform grid
LOCKSTEP_TAUS = ([0.0, math.pi, -math.pi, 1e-4, -3e-4, 1e-3]
                 + list(np.linspace(-3.0, 3.0, 5)))


# The lockstep roots and the rotation function compute with the kernels in
# numpy's arithmetic, the references from the definitions in Python's, so
# they agree to rounding.  The worst differences on the points of the
# tests below: 4.2e-16 of a root, relative to max(1, z), 1.8e-15 of the
# rotation function rho, absolute, and 2.2e-15 of 4 - D^2, relative to
# max(1, |4 - D^2|).
ROOT_TOL = 1e-15
RHO_TOL = 4e-15
DELTA_TOL = 1e-14


def _assert_near(got, want, tol, scale=True):
    got, want = np.asarray(got), np.asarray(want)
    bound = tol * np.maximum(1.0, abs(want)) if scale else tol
    assert (abs(got - want) <= bound).all(), abs(got - want).max()


def _check_eps_lockstep(cell, eps, taus, count):
    """Every (eps, tau) root of one lockstep is bit for bit the root of
    eps_spectra at that (eps, tau) alone, and within ROOT_TOL of its own
    scalar bisection."""
    got = eps_spectra(cell, eps, taus, count)
    for e, per_tau in zip(eps, got):
        for tau, spectrum in zip(taus, per_tau):
            alone = eps_spectra(cell, [e], [tau], count)[0][0]
            assert _bits(spectrum) == _bits(alone), (e, tau)
            ref = _ref_eps_spectrum(cell.with_epsilon(e), tau, count)
            _assert_near(spectrum, ref, ROOT_TOL)
    return got


@pytest.mark.parametrize("a", [0.4, 1.0, 2.5])
def test_eps_lockstep_matches_scalar_bisection(a):
    """a = 1, eps = 1 is the free medium with closed gaps."""
    _check_eps_lockstep(HighContrastCell(0.3, 0.45, 0.25, a=a),
                        [1.0, 0.2, 0.02, 0.0025], LOCKSTEP_TAUS, 4)


def test_eps_lockstep_matches_scalar_bisection_to_eight_bands():
    got = _check_eps_lockstep(HighContrastCell(0.25, 0.5, 0.25), [1.0, 0.05],
                              [0.0, 1e-4, 1.1, -math.pi], 8)
    # the exact hit at band 1's left end, and the free medium's doubled
    # closed-gap edge (2 pi)^2
    assert _bits(got[0][0][:1]) == _bits(got[1][0][:1]) == _bits([0.0])
    assert got[0][0][1] == got[0][0][2]


# A cell and an item at which the rotation predicate of band 2 reads true,
# false, true, false on the four doubles from kappa = 7.93123898785971: a
# bisection from band 1's root ends on the second true one, z =
# 62.904551882545945, the bisection of band 2's own bracket on the first.
WITNESS_CELL = HighContrastCell(0.16122465950414808, 0.51750253879416,
                                1.0 - 0.16122465950414808 - 0.51750253879416)
WITNESS = (0.01, 0.02965957159205379, 2)


def _band_predicate(cell, eps, tau, n):
    """eps_spectra's predicate for band n at one (eps, tau)."""
    stiff = np.array([cell.with_epsilon(eps).stiff])
    t = abs(Quasimomentum(tau).tau)
    s = t if n % 2 else math.pi - t

    def below(i, k):
        rho, delta = _rotation(cell, stiff[i], k, n)
        return (rho < s) | ((rho <= 0.0) & (delta < 0.0))

    return below


def _own_bracket_root(cell, eps, tau, n):
    """Band n's root from _bisect on its one bracket [0, n pi / l2]."""
    kappa = _bisect(_band_predicate(cell, eps, tau, n), [0.0],
                    n * math.pi / cell.l2)[0]
    return kappa * kappa


def test_witness_predicate_changes_three_times():
    below = _band_predicate(WITNESS_CELL, *WITNESS)
    kappa = [7.93123898785971]
    for _ in range(3):
        kappa.append(math.nextafter(kappa[-1], math.inf))
    got = [bool(below(np.array([0]), np.array([k]))[0]) for k in kappa]
    assert got == [True, False, True, False]


@pytest.mark.parametrize("cell, eps, taus, count", [
    (WITNESS_CELL, [WITNESS[0]], [WITNESS[1]], 2),
    (HighContrastCell(0.3, 0.45, 0.25, a=2.5), [1.0, 0.02],
     [0.0, 1e-4, 1.1, -math.pi], 4),
    (HighContrastCell(0.25, 0.5, 0.25), [0.05], [0.0, -0.7], 8)])
def test_eps_root_depends_on_its_own_bracket_only(cell, eps, taus, count):
    """Each band's root is, bit for bit, _bisect on that band's bracket
    alone, whatever the bands below it give."""
    got = eps_spectra(cell, eps, taus, count)
    for e, per_tau in zip(eps, got):
        for tau, spectrum in zip(taus, per_tau):
            assert _bits(spectrum) == _bits(
                [_own_bracket_root(cell, e, tau, n)
                 for n in range(1, count + 1)]), (e, tau)
    if cell is WITNESS_CELL:
        z = got[0][0][WITNESS[2] - 1]
        assert z != 62.904551882545945
        assert z == pytest.approx(62.904551882545945, rel=1e-15)


def test_eps_spectra_bisect_once_for_all_bands(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _bisect(*args)

    monkeypatch.setattr(highcontrast, "_bisect", counted)
    spectra = eps_spectra(CELL, [0.2, 0.05], [0.0, 1.1, -2.0], 8)
    assert len(calls) == 1
    assert np.shape(spectra) == (2, 3, 8)


@pytest.mark.parametrize("a", [0.4, 1.0, 2.5])
def test_rotation_matches_scalar_rotation(a):
    """The rotation function and 4 - D^2 of each item, at kappa = 0 and
    across bands: bit for bit its value alone, and within RHO_TOL and
    DELTA_TOL of the scalar code."""
    cell = HighContrastCell(0.3, 0.45, 0.25, a=a)
    kappa = np.concatenate([[0.0, 1e-9], np.random.default_rng(3).uniform(
        0.0, 25.0, 150)])
    for eps in (1.0, 0.2, 0.02, 0.0025):
        stiff = np.full(kappa.size, cell.with_epsilon(eps).stiff)
        for band in (1, 3):
            rho, delta = _rotation(cell, stiff, kappa, band)
            for i in range(kappa.size):
                one = _rotation(cell, stiff[i:i + 1], kappa[i:i + 1], band)
                assert _bits(one) == _bits((rho[i:i + 1], delta[i:i + 1]))
            ref = [_ref_rotation(cell.with_epsilon(eps), k, band)
                   for k in kappa.tolist()]
            _assert_near(rho, [r for r, _ in ref], RHO_TOL, scale=False)
            _assert_near(delta, [d for _, d in ref], DELTA_TOL)


@pytest.mark.parametrize("count", [1, 3, 8])
def test_limit_lockstep_matches_scalar_bisection(count):
    cell = HighContrastCell(0.3, 0.45, 0.25)
    shifted = [Quasimomentum(t).shifted() for t in LOCKSTEP_TAUS]
    for got, ref in ((hom_tau_spectra(cell, LOCKSTEP_TAUS, count),
                      [_ref_hom_tau(cell, t, count) for t in LOCKSTEP_TAUS]),
                     (hom_dprime_spectra(cell, shifted, count),
                      [_ref_hom_dprime(cell, t.tau, count) for t in shifted])):
        assert [_bits(row) for row in got] == [_bits(row) for row in ref]


def test_bisect_brackets_finish_in_their_own_rounds():
    """A bracket with no double inside stops at once, an exact hit at the
    left end is never halved, and a narrow bracket finishes before a wide
    one, without changing the roots of the others.  A predicate that
    holds at hi, against the contract, still ends below hi."""
    lo = np.array([0.0, 0.0, 1.0, 0.5, 0.0, 0.0])
    hi = np.array([1.0, 2.0 ** -40, math.nextafter(1.0, 2.0), 2.0, 3.0, 1.0])
    roots = np.array([1 / 3, 2.0 ** -41 / 3, 1.5, 0.25, math.e, 5.0])
    live_sizes = []

    def below(i, x):
        live_sizes.append(len(i))
        return x < roots[i]

    got = _bisect(below, lo, hi)
    ref = [_ref_bisect(lambda x, r=r: x < r, float(l), float(h))
           for l, h, r in zip(lo, hi, roots)]
    assert _bits(got) == _bits(ref)
    assert got[3] == 0.5                        # below fails at lo: a hit
    assert got[5] == math.nextafter(1.0, 0.0)
    # all six at lo, then three points for each bracket but the hit and
    # the one with no double inside; the rest finish apart
    assert live_sizes[:2] == [6, 3 * 4]
    assert len(set(live_sizes[1:])) > 1
    assert _bits(_bisect(below, np.empty(0), 1.0)) == []
    assert live_sizes.count(0) == 0             # no round on no brackets


def _both_regimes(seed=7):
    """Real z >= 0 through both regimes, z = 0 and 1e-300 included, in
    random order."""
    rng = np.random.default_rng(seed)
    z = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 3e-4, 200),
                        10.0 ** rng.uniform(-12.0, 4.0, 400)])
    rng.shuffle(z)
    return z


def _mp_entire_cs(z, x):
    """C = cos(k x) and S = sin(k x)/k, k = sqrt(z), from their
    definitions in 40-digit mpmath, with S = x at z = 0."""
    with mp.workdps(40):
        k, x = mp.sqrt(mp.mpf(z)), mp.mpf(x)
        return (float(mp.re(mp.cos(k * x))),
                float(x if z == 0 else mp.re(mp.sin(k * x) / k)))


# the worst error of the array pairs against _mp_entire_cs on the points
# below, relative to max(1, |value|), is 6.6e-15, in real and in complex
# arithmetic alike
ENTIRE_CS_TOL = 1e-14


def test_entire_cs_arrays_match_their_definitions():
    """Real z >= 0 through both regimes in one array, z = 0 included: the
    complex and the real array instances lie within ENTIRE_CS_TOL of the
    definitions (the complex one's imaginary parts read +0.0), and z = 0
    gives (1, x) exactly."""
    z = _both_regimes()
    for instance in (entire_cs, entire_cs_real):
        for x in (0.25, 0.45, 1.3):
            got = instance(z, x)
            want = np.array([_mp_entire_cs(v, x) for v in z.tolist()]).T
            for g, w in zip(got, want):
                assert _bits(g.imag) == _bits(np.zeros(z.size))
                _assert_near(g.real, w, ENTIRE_CS_TOL)
        C, S = instance(np.array([0.0]), 0.7)
        assert (C[0], S[0]) == (1.0, 0.7)


def _check_stack_independence(instance, z):
    """An element's value is the same alone, in a stack of 7 and in one
    of 1000, whether its stack sits in one regime or mixes the two."""
    x = np.linspace(0.05, 1.3, z.size)
    C, S = instance(z, x)
    small = np.abs(z * x * x) < SERIES_CUTOFF
    stacks = [np.arange(7 * i, 7 * i + 7) for i in range(140)]
    stacks += [np.flatnonzero(small)[:7], np.flatnonzero(~small)[:7]]
    assert any(small[i].any() and not small[i].all() for i in stacks)
    for i in stacks + [np.array([j]) for j in range(z.size)]:
        Ci, Si = instance(z[i], x[i])
        assert _bits(Ci) == _bits(C[i]) and _bits(Si) == _bits(S[i])


def test_entire_cs_real_does_not_depend_on_the_stack():
    _check_stack_independence(
        entire_cs_real,
        np.concatenate([_both_regimes(11), _both_regimes(12)])[:1000])


@pytest.mark.parametrize("z_imag", [0.0, 0.5])
def test_entire_cs_does_not_depend_on_the_stack(z_imag):
    """The same on both sides of 0, on the real axis and off it."""
    z = np.concatenate([_both_regimes(11), -_both_regimes(12)])[:1000]
    _check_stack_independence(entire_cs, z + 1j * z_imag * abs(z))


@pytest.mark.parametrize("z", [-3.0, -250.0, 2.0 + 0.5j, -40.0 - 3.0j,
                               1e-6j])
def test_transfer_matrix_off_the_real_arithmetic(z):
    """Complex z and real z < 0 keep the complex kernels: the matrix is the
    closed form in q = sqrt(-z / c), with cosh(q L) and sinh(q L), and a
    real z gives a real matrix."""
    coef, length = 2.5, 0.7
    q = cmath.sqrt(-z / coef)
    ch, sh = cmath.cosh(q * length), cmath.sinh(q * length)
    want = np.array([[ch, sh / (q * coef)], [q * coef * sh, ch]])
    T = transfer_matrix(coef, length, z)
    assert T.dtype == (float if isinstance(z, float) else complex)
    assert np.allclose(T, want, rtol=1e-13, atol=1e-13)


def test_transfer_matrix_of_a_mixed_stack_is_elementwise():
    """A stack of 602 energies z >= 0 through both regimes and two below 0
    takes the real kernels at z >= 0 and the complex ones below, element
    by element: each matrix is, bit for bit, that of its energy alone."""
    z = np.append(_both_regimes(3), [-2.0, -1e-7])
    coef = np.array([1.0, 400.0, 1.0])
    length = np.array([0.25, 0.5, 0.25])
    T = transfer_matrix(coef, length, z[:, None])
    assert T.dtype == float
    for zi, Ti in zip(z.tolist(), T):
        assert _bits(Ti) == _bits(transfer_matrix(coef, length, zi))
        assert _bits(Ti[0]) == _bits(transfer_matrix(coef[0], length[0], zi))
