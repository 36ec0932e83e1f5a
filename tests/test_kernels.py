"""Removable-singularity kernels: series windows, mp twins, entire pair."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgs.kernels import (SERIES_CUTOFF, edge_kernels, entire_cs, kcot, kcsc,
                         ktanhalf, mp_entire_cs, mp_kcot, mp_kcsc, mp_ktanhalf,
                         mp_sqrt_upper, sqrt_upper)


def approx12(x):
    return pytest.approx(x, rel=1e-12, abs=1e-12)


lengths = st.floats(min_value=0.05, max_value=10.0)
positive_z = st.floats(min_value=0.01, max_value=400.0)


def test_sqrt_upper_branch():
    assert sqrt_upper(4.0) == 2.0
    assert sqrt_upper(-4.0) == 2.0j
    w = sqrt_upper(3.0 + 4.0j)
    assert w.imag > 0 and abs(w * w - (3.0 + 4.0j)) < 1e-14


def test_kcot_matches_direct():
    z, l = 7.3, 1.1
    k = math.sqrt(z)
    assert kcot(z, l) == approx12(k / math.tan(k * l))


def test_kcsc_matches_direct():
    z, l = 7.3, 1.1
    k = math.sqrt(z)
    assert kcsc(z, l) == approx12(k / math.sin(k * l))


def test_ktanhalf_matches_direct():
    z, l = 7.3, 1.1
    k = math.sqrt(z)
    assert ktanhalf(z, l) == approx12(k * math.tan(k * l / 2.0))


def test_negative_axis_is_hyperbolic():
    q, l = 3.0, 0.8
    assert kcot(-q * q, l) == approx12(q / math.tanh(q * l))
    assert kcsc(-q * q, l) == approx12(q / math.sinh(q * l))
    assert ktanhalf(-q * q, l) == approx12(-q * math.tanh(q * l / 2.0))


def test_series_window_is_seamless():
    """Both sides of the small-|z| switch match the high-precision twin."""
    l = 1.0
    with mp.workdps(50):
        for fn, twin in ((kcot, mp_kcot), (kcsc, mp_kcsc),
                         (ktanhalf, mp_ktanhalf)):
            for z in (SERIES_CUTOFF * 0.999, SERIES_CUTOFF * 1.001,
                      -SERIES_CUTOFF * 0.999, -SERIES_CUTOFF * 1.001):
                v = fn(z, l)
                ref = complex(twin(z, l))
                assert abs(v - ref) < 1e-13 * (1 + abs(ref))


def test_limits_at_zero():
    # z -> 0: k cot(kl) -> 1/l, k csc(kl) -> 1/l, k tan(kl/2) -> 0
    assert kcot(0.0, 2.0) == approx12(0.5)
    assert kcsc(0.0, 2.0) == approx12(0.5)
    assert abs(ktanhalf(0.0, 2.0)) < 1e-30


@given(positive_z, lengths)
@settings(max_examples=80, deadline=None)
def test_mp_twins_agree(z, l):
    # stay away from the trigonometric poles, where float cancellation is
    # the kernel's own problem and mp agreement degrades like 1/distance
    assume(abs(math.sin(math.sqrt(z) * l)) > 1e-2)
    assume(abs(math.cos(math.sqrt(z) * l / 2.0)) > 1e-2)
    with mp.workdps(40):
        for fn, twin in ((kcot, mp_kcot), (kcsc, mp_kcsc),
                         (ktanhalf, mp_ktanhalf)):
            v = fn(z, l)
            assert abs(v - complex(twin(z, l))) < 1e-9 * (1 + abs(v))


def test_mp_sqrt_upper_branch():
    with mp.workdps(30):
        assert mp.im(mp_sqrt_upper(mp.mpf(-9))) > 0
        assert abs(mp_sqrt_upper(mp.mpf(9)) - 3) < 1e-25


@given(st.floats(min_value=-50.0, max_value=400.0),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_entire_pair_pythagoras(z, x):
    """C^2 + z S^2 = 1, scaled by the size of the terms involved."""
    C, S = entire_cs(z, x)
    scale = abs(C) ** 2 + abs(z) * abs(S) ** 2 + 1.0
    assert abs(C * C + z * S * S - 1.0) < 1e-12 * scale


def test_entire_pair_values():
    C, S = entire_cs(4.0, 1.0)
    assert C == approx12(math.cos(2.0))
    assert S == approx12(math.sin(2.0) / 2.0)
    # negative axis: cosh / sinh
    C, S = entire_cs(-4.0, 1.0)
    assert C == approx12(math.cosh(2.0))
    assert S == approx12(math.sinh(2.0) / 2.0)
    # at the origin the pair degenerates to (1, x)
    C, S = entire_cs(0.0, 0.7)
    assert C == approx12(1.0)
    assert S == approx12(0.7)


def test_entire_pair_mp_twin():
    with mp.workdps(40):
        for z in (1e-6, -1e-6, 5.0, -120.0):
            C, S = entire_cs(z, 1.3)
            Cm, Sm = mp_entire_cs(mp.mpf(z), mp.mpf("1.3"))
            assert abs(C - complex(Cm)) < 1e-12 * (1 + abs(C))
            assert abs(S - complex(Sm)) < 1e-12 * (1 + abs(S))


def test_kernels_accept_complex():
    z = 2.0 + 1.5j
    k = cmath.sqrt(z)
    assert abs(kcot(z, 0.9) - k * cmath.cos(k * 0.9) / cmath.sin(k * 0.9)) \
        < 1e-12


def _mp_edge_kernels(z, l):
    """kcot, kcsc, ktanhalf of a real energy from their definitions, in
    40-digit mpmath: k cot kl, k csc kl and k tan(kl/2) with k = sqrt(z),
    Im k >= 0, and their limits 1/l, 1/l and 0 at z = 0."""
    with mp.workdps(40):
        k, l = mp.sqrt(mp.mpf(z)), mp.mpf(l)
        if z == 0:
            return [float(1 / l), float(1 / l), 0.0]
        return [float(mp.re(v)) for v in
                (k * mp.cot(k * l), k * mp.csc(k * l), k * mp.tan(k * l / 2))]


# the worst error of the array kernels against _mp_edge_kernels on the
# points below, relative to max(1, |value|), is 5.3e-14, at z = 123.4,
# l = 1.7, where sin(kl) = 0.03; kernels that round as Python's complex
# numbers do show the same 5.3e-14 there
EDGE_KERNELS_TOL = 1e-13


def test_array_kernels_of_real_energies_match_their_definitions():
    """For real energies in every regime -- series, z = 0, both forms in
    one array, the exponential form, underflowing q -- the array kernels
    are real and within EDGE_KERNELS_TOL of the definitions."""
    z = np.array([0.0, 3e-6, -2e-5, 4e-4, -3e-3, 0.7, 2.7, 11.9, 123.4,
                  -3.1, -40.0, -1e6, -1e12])
    l = np.array([0.05, 0.4, 1.0, 1.3, 1.7])
    got = edge_kernels(z[:, None], l)
    assert not got.imag.any()
    for i, zi in enumerate(z.tolist()):
        for j, lj in enumerate(l.tolist()):
            want = np.array(_mp_edge_kernels(zi, lj))
            err = abs(got[:, i, j].real - want) / np.maximum(1.0, abs(want))
            assert err.max() <= EDGE_KERNELS_TOL, (zi, lj)


def _bits(values):
    """The IEEE bit patterns of real and imaginary parts, so that -0.0
    and 0.0 differ too."""
    values = np.asarray(values, dtype=complex)
    return np.stack((values.real, values.imag)).view(np.int64).tolist()


@pytest.mark.parametrize("z_imag", [0.0, 0.5])
def test_edge_kernels_do_not_depend_on_the_stack(z_imag):
    """An element's kernels are the same in a stack of 1, of 7 and of 1000
    that mixes the regimes, on the real axis and off it: for energies
    paired with lengths, and for a column of energies against a row of
    lengths, as the assemblies call them."""
    rng = np.random.default_rng(5)
    z = np.concatenate([[0.0, 1e-300, -1e-300],
                        rng.uniform(-3e-4, 3e-4, 297),
                        10.0 ** rng.uniform(-12.0, 6.0, 350),
                        -10.0 ** rng.uniform(-12.0, 12.0, 350)])
    rng.shuffle(z)
    z = z + 1j * z_imag * abs(z)
    l = rng.uniform(0.05, 2.0, z.size)
    row = np.array([0.01, 0.3, 1.0, 1.7, 2.0])
    paired, crossed = edge_kernels(z, l), edge_kernels(z[:, None], row)
    stacks = [np.arange(i, i + 7) for i in range(0, z.size - 6, 7)]
    for at in stacks + [np.array([i]) for i in range(z.size)]:
        assert _bits(edge_kernels(z[at], l[at])) == _bits(paired[:, at])
        assert _bits(edge_kernels(z[at, None], row)) == _bits(crossed[:, at])
