"""Periodic three-layer chain: fiber spectra and the homogenised limit."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (HighContrastCell, Quasimomentum, build_dispersion_table,
                 cell_discriminant, convergence_study, eps_spectrum,
                 hom_dprime_spectrum, hom_tau_spectrum, transfer_matrix)
from qgs.kernels import mp_entire_cs

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


def test_cell_derived_quantities():
    cell = HighContrastCell(0.3, 0.45, 0.25, a=2.0)
    assert cell.stiff_width == pytest.approx(0.55)
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
        build_dispersion_table(CELL, [0.5], count, ("hom",))


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_tau_is_refused(tau):
    for spectrum, cell in ((eps_spectrum, CELL.with_epsilon(0.1)),
                           (hom_tau_spectrum, CELL), (hom_dprime_spectrum, CELL)):
        with pytest.raises(ValueError, match="tau must be finite"):
            spectrum(cell, tau, 2)


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
# dispersion tables
# --------------------------------------------------------------------------

def test_dispersion_table_contents():
    taus = [0.0, 1.0]
    table = build_dispersion_table(CELL.with_epsilon(0.1), taus, 2)
    rows = list(table.rows())
    models = {m for m, _, _, _ in rows}
    assert models == {"eps", "hom"}
    assert len(rows) == 2 * 2 * 2
    eps_rows = [(t, b, z) for m, t, b, z in rows if m == "eps"]
    hom_rows = [(t, b, z) for m, t, b, z in rows if m == "hom"]
    for (te, be, ze), (th, bh, zh) in zip(eps_rows, hom_rows):
        assert te == th and be == bh
        assert ze == pytest.approx(zh, abs=1.0)  # eps=0.1 is already close


def test_dispersion_table_shifted_model():
    table = build_dispersion_table(CELL, [0.4], 2,
                                   models=("hom", "hom-shifted"))
    rows = list(table.rows())
    by_model = {}
    for m, t, b, z in rows:
        by_model.setdefault(m, []).append(z)
    assert by_model["hom"] == pytest.approx(by_model["hom-shifted"], abs=1e-8)


def test_dispersion_table_needs_epsilon_for_eps_model():
    with pytest.raises(ValueError):
        build_dispersion_table(CELL, [0.0], 2, models=("eps",))
