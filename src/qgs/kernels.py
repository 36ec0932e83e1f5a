"""Trigonometric kernels for edge contributions, stable in every regime.

All kernels are functions of the energy z (not of k directly), with the
square-root branch fixed by Im sqrt(z) >= 0.  Three evaluation regimes:

* |z l^2| small -> small-argument series (this also makes z=0 exact: the
  limits k*cot(k l) -> 1/l, k/sin(k l) -> 1/l, k*tan(k l/2) -> 0 come out of
  the leading series terms with no special-casing);
* everything else -> exponential form in q = exp(2i*k*l).  Since Im(k) >= 0
  we have |q| <= 1, so nothing overflows even for z = -tau^2 with huge tau
  (q underflows to 0 and the kernels land exactly on their hyperbolic
  asymptotes tau, 0, -tau);
* exactly-real z -> the same formulas, with the ~1e-16 imaginary dust
  zeroed, so real-symmetric invariants hold exactly.

Each kernel has one source, ``_kernels``, instantiated for four
arithmetics:

* numpy complex arrays: ``edge_kernels`` (kcot, kcsc and ktanhalf of an
  edge at once), ``kcot``, ``kcsc``, ``ktanhalf``, ``sqrt_upper_array``
  and ``entire_cs_array`` work elementwise on energies and lengths that
  broadcast, e.g. an (N, 1) column of energies against the (E,) edge
  lengths of a graph.  Where an array mixes the two regimes both forms
  are evaluated and each element takes its own, so an element's value
  does not depend on the array it sits in.  Quotients and products round
  as Python's complex numbers do, so for a real energy every value is bit
  for bit the scalar one.  Scalar
  arguments give numpy scalars.  The M-matrix assembly of ``weyl`` calls
  ``edge_kernels`` once per stack of energies, and the layer transfer
  matrices of ``highcontrast`` call ``entire_cs_array`` once per stack of
  (energy, layer) pairs with a complex or negative energy among them.
* numpy float arrays: ``entire_cs_real``, the same pair for real z >= 0,
  where k = sqrt(z) is real and so are cos(k x) and sin(k x)/k.  It
  takes real square roots, cosines, sines, products and quotients, which
  round as the complex ones do on a zero imaginary part, so its values
  are bit for bit the real parts of ``entire_cs_array``'s.  The layer
  transfer matrices call it for every stack of energies z >= 0, which is
  every stack of the fiber bisections.
* Python complex scalars: ``sqrt_upper`` and ``entire_cs``, for the
  vertex-matching systems, which take one energy at a time and where
  numpy's per-call cost would dominate.
* mpmath at the working precision (``mp_edge_kernels``, ``mp_kcot``, ...).
  The mpmath versions keep every digit (no dust is zeroed); the 60-digit
  reference determinants of ``spectra`` use them.  The matrix assemblies
  pick the arithmetic from the type of z, see ``is_mp``.
"""

import cmath
import operator

import mpmath as mp
import numpy as np

# switch to series below this bound on |z| * l^2; next omitted series term
# is ~1e-20 there, and the exponential form is still well-conditioned above
SERIES_CUTOFF = 1e-4


def is_mp(x) -> bool:
    """True for an mpmath number: assemblies given one work in mpmath."""
    return isinstance(x, (mp.mpf, mp.mpc))


# -- the three arithmetics: regime switch, selection, products and quotients -

def _scalar_regime(series, exact, z, u, l):
    return (series if abs(u) < SERIES_CUTOFF else exact)(z, u, l)


def _scalar_where(cond, a, b):
    return a if cond else b


def _realify(z, value):
    # kernels of real z are mathematically real; drop rounding dust
    if isinstance(z, complex) and z.imag != 0.0:
        return value
    return complex(value.real, 0.0)


def _array_regime(series, exact, z, u, l):
    small = abs(u) < SERIES_CUTOFF
    n_small = np.count_nonzero(small)
    if n_small == small.size:
        return series(z, u, l)
    if n_small == 0:
        return exact(z, u, l)
    with np.errstate(all="ignore"):     # the exact form is 0/0 at z = 0
        return np.where(small, series(z, u, l), exact(z, u, l))


def _array_realify(z, value):
    value = np.asarray(value)
    return np.where(z.imag == 0.0, value.real, value)


def _as_complex_array(z):
    return np.asarray(z, dtype=complex)


def _array_sqrt(z):
    return np.sqrt(_as_complex_array(z))


def _as_float_array(z):
    return np.asarray(z, dtype=float)


# numpy's complex loops round differently from Python's complex numbers: a
# quotient multiplies by the reciprocal of the divisor, and a product may
# fuse a multiply-add.  The array arithmetic divides, and multiplies two
# general complex factors, as Python does, so that the array kernels of
# a real energy agree bit for bit with the scalar ones.  (A product with a
# purely real or purely imaginary factor rounds alike either way.)

def _array_divide(a, b):
    """a / b elementwise as Python's complex division computes it: Smith's
    method with true divisions, and both parts divided by a real b (which
    broadcasts to the shape of a)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b)
    if b.dtype.kind != "c" or not b.imag.any():
        # both parts at once: a as (..., 2) floats over b as (..., 1)
        parts = a[..., None].view(float) / b.real[..., None]
        return parts.view(complex)[..., 0]
    out = np.empty_like(a)
    # Smith's two branches as one: (x, y) is (Re b, Im b) where |Re b| >=
    # |Im b| and (Im b, Re b) elsewhere, (s, t) likewise for a
    big = abs(b.real) >= abs(b.imag)
    x, y = np.where(big, b.real, b.imag), np.where(big, b.imag, b.real)
    s, t = np.where(big, a.real, a.imag), np.where(big, a.imag, a.real)
    ratio = y / x
    denom = x + y * ratio
    np.divide(s + t * ratio, denom, out=out.real)
    w = s * ratio
    np.divide(np.where(big, t - w, w - t), denom, out=out.imag)
    return out


def _array_quotients(numerators, denominators):
    return _array_divide(np.array(numerators), np.array(denominators))


def _scalar_quotients(numerators, denominators):
    return [a / b for a, b in zip(numerators, denominators)]


def _array_multiply(a, b):
    """a * b elementwise for arrays of one shape, without a fused
    multiply-add, as Python's complex product computes it."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _kernels(cast, sqrt, exp, cos, sin, where, regime, realify, mul, div,
             quotients):
    """The kernel family in one arithmetic.

    cast converts the energy into the arithmetic, sqrt/exp/cos/sin are its
    complex elementary functions, where(cond, a, b) selects, mul and div
    are its product of two general complex numbers and its quotient, and
    quotients(numerators, denominators) divides pairwise.  regime(series,
    exact, z, u, l) evaluates series(z, u, l) where |u| < SERIES_CUTOFF
    and exact(z, u, l) elsewhere (u = z l^2), both a sequence of values.
    realify(z, value) post-processes every returned value; edge_kernels
    hands it its three values at once, which the array arithmetic stacks
    along a new first axis, and entire_cs its two values one at a time.
    edge_kernels serves the complex array and mpmath arithmetics,
    entire_cs all four.
    """

    def sqrt_upper(z):
        """Square root with Im >= 0: branch cut along [0, +inf).

        Continuous on the complement of the cut; on (0, inf) takes the
        boundary value from the upper half-plane (the positive root); on
        (-inf, 0) gives i*sqrt(|z|).
        """
        w = sqrt(z)
        return where(w.imag < 0, -w, w)

    def edge_series(z, u, l):
        return (div(1.0 - div(u, 3.0) - div(u * u, 45.0)
                    - div(2.0 * u**3, 945.0), l),
                div(1.0 + div(u, 6.0) + div(7.0 * u * u, 360.0)
                    + div(31.0 * u**3, 15120.0), l),
                div(div(u, 2.0) + div(u * u, 24.0) + div(u**3, 240.0), l))

    def edge_exact(z, u, l):
        k = sqrt_upper(z)
        ik, ik2 = 1j * k, 2j * k
        q = exp(ik2 * l)
        p = exp(ik * l)
        return quotients((ik * (q + 1.0), ik2 * p, -1j * k * (p - 1.0)),
                         (q - 1.0, mul(p, p) - 1.0, p + 1.0))

    def edge_kernels(z, l):
        """(kcot, kcsc, ktanhalf) of an edge of length l at once, from one
        square root and the exponentials of i sqrt(z) l and 2i sqrt(z) l."""
        z = cast(z)
        return realify(z, regime(edge_series, edge_exact, z, z * l * l, l))

    def kcot(z, l):
        """sqrt(z) * cot(sqrt(z) * l)."""
        return edge_kernels(z, l)[0]

    def kcsc(z, l):
        """sqrt(z) / sin(sqrt(z) * l)."""
        return edge_kernels(z, l)[1]

    def ktanhalf(z, l):
        """sqrt(z) * tan(sqrt(z) * l / 2) — the loop kernel."""
        return edge_kernels(z, l)[2]

    def cs_series(z, v, x):
        v2 = mul(v, v)
        v3 = mul(v, v2)     # Python's complex v**3
        return (1.0 - div(v, 2.0) + div(v2, 24.0) - div(v3, 720.0),
                x * (1.0 - div(v, 6.0) + div(v2, 120.0) - div(v3, 5040.0)))

    def cs_exact(z, v, x):
        k = sqrt(z)     # either root: C and S are even in k
        return cos(k * x), div(sin(k * x), k)

    def entire_cs(z, x):
        """The entire basis pair (C, S): C = cos(k x), S = sin(k x)/k, k=sqrt(z).

        Both are entire functions of z (even in k, no branch), satisfying
        C' = -z*S and S' = C in x, with C(0)=1, S(0)=0, S'(0)=1.  Used by
        the vertex-matching systems and the layer transfer matrices.
        """
        z = cast(z)
        C, S = regime(cs_series, cs_exact, z, z * x * x, x)
        return realify(z, C), realify(z, S)

    return sqrt_upper, edge_kernels, kcot, kcsc, ktanhalf, entire_cs


(sqrt_upper_array, edge_kernels, kcot, kcsc, ktanhalf,
 entire_cs_array) = _kernels(
    _as_complex_array, _array_sqrt, np.exp, np.cos, np.sin, np.where,
    _array_regime, _array_realify, _array_multiply, _array_divide,
    _array_quotients)
# real arrays, for energies z >= 0: only entire_cs, whose k is real there,
# so the edge kernels (complex at every z) and their quotients are left out
_, _, _, _, _, entire_cs_real = _kernels(
    _as_float_array, np.sqrt, np.exp, np.cos, np.sin, np.where,
    _array_regime, lambda z, value: value, np.multiply, np.divide, None)
sqrt_upper, _, _, _, _, entire_cs = _kernels(
    complex, cmath.sqrt, cmath.exp, cmath.cos, cmath.sin, _scalar_where,
    _scalar_regime, _realify, operator.mul, operator.truediv,
    _scalar_quotients)
(mp_sqrt_upper, mp_edge_kernels, mp_kcot, mp_kcsc, mp_ktanhalf,
 mp_entire_cs) = _kernels(mp.mpc, mp.sqrt, mp.exp, mp.cos, mp.sin,
                          _scalar_where, _scalar_regime,
                          lambda z, values: values, operator.mul,
                          operator.truediv, _scalar_quotients)
