"""Scalar trigonometric kernels for edge contributions, stable in every regime.

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

Each kernel has one source, ``_kernels``, instantiated for two arithmetic
types: complex floats (``kcot``, ``kcsc``, ...) and mpmath arbitrary
precision at the working precision (``mp_kcot``, ``mp_kcsc``, ...).  The
mpmath versions keep every digit (no dust is zeroed); the 60-digit
reference determinants of ``spectra`` use them.  The matrix assemblies
pick the arithmetic from the type of z, see ``is_mp``.
"""

import cmath

import mpmath as mp

# switch to series below this bound on |z| * l^2; next omitted series term
# is ~1e-20 there, and the exponential form is still well-conditioned above
SERIES_CUTOFF = 1e-4


def is_mp(x) -> bool:
    """True for an mpmath number: assemblies given one work in mpmath."""
    return isinstance(x, (mp.mpf, mp.mpc))


def _realify(z, value):
    # kernels of real z are mathematically real; drop rounding dust
    if isinstance(z, complex) and z.imag != 0.0:
        return value
    return complex(value.real, 0.0)


def _kernels(cast, sqrt, exp, cos, sin, realify):
    """The kernel family in one arithmetic.

    cast converts the energy into the arithmetic, sqrt/exp/cos/sin are its
    complex elementary functions, realify(z, value) post-processes every
    returned value.
    """

    def sqrt_upper(z):
        """Square root with Im >= 0: branch cut along [0, +inf).

        Continuous on the complement of the cut; on (0, inf) takes the
        boundary value from the upper half-plane (the positive root); on
        (-inf, 0) gives i*sqrt(|z|).
        """
        w = sqrt(z)
        if w.imag < 0:
            w = -w
        return w

    def kcot(z, l):
        """sqrt(z) * cot(sqrt(z) * l)."""
        z = cast(z)
        u = z * l * l
        if abs(u) < SERIES_CUTOFF:
            return realify(z, (1.0 - u / 3.0 - u * u / 45.0
                               - 2.0 * u**3 / 945.0) / l)
        k = sqrt_upper(z)
        q = exp(2j * k * l)
        return realify(z, 1j * k * (q + 1.0) / (q - 1.0))

    def kcsc(z, l):
        """sqrt(z) / sin(sqrt(z) * l)."""
        z = cast(z)
        u = z * l * l
        if abs(u) < SERIES_CUTOFF:
            return realify(z, (1.0 + u / 6.0 + 7.0 * u * u / 360.0
                               + 31.0 * u**3 / 15120.0) / l)
        k = sqrt_upper(z)
        p = exp(1j * k * l)
        return realify(z, 2j * k * p / (p * p - 1.0))

    def ktanhalf(z, l):
        """sqrt(z) * tan(sqrt(z) * l / 2) — the loop kernel."""
        z = cast(z)
        u = z * l * l
        if abs(u) < SERIES_CUTOFF:
            return realify(z, (u / 2.0 + u * u / 24.0 + u**3 / 240.0) / l)
        k = sqrt_upper(z)
        p = exp(1j * k * l)
        return realify(z, -1j * k * (p - 1.0) / (p + 1.0))

    def entire_cs(z, x):
        """The entire basis pair (C, S): C = cos(k x), S = sin(k x)/k, k=sqrt(z).

        Both are entire functions of z (even in k, no branch), satisfying
        C' = -z*S and S' = C in x, with C(0)=1, S(0)=0, S'(0)=1.  Used by
        the vertex-matching systems and the layer transfer matrices.
        """
        z = cast(z)
        v = z * x * x
        if abs(v) < SERIES_CUTOFF:
            C = 1.0 - v / 2.0 + v * v / 24.0 - v**3 / 720.0
            S = x * (1.0 - v / 6.0 + v * v / 120.0 - v**3 / 5040.0)
            return realify(z, C), realify(z, S)
        k = sqrt_upper(z)
        C = cos(k * x)
        S = sin(k * x) / k
        return realify(z, C), realify(z, S)

    return sqrt_upper, kcot, kcsc, ktanhalf, entire_cs


sqrt_upper, kcot, kcsc, ktanhalf, entire_cs = _kernels(
    complex, cmath.sqrt, cmath.exp, cmath.cos, cmath.sin, _realify)
mp_sqrt_upper, mp_kcot, mp_kcsc, mp_ktanhalf, mp_entire_cs = _kernels(
    mp.mpc, mp.sqrt, mp.exp, mp.cos, mp.sin, lambda z, value: value)


def sin_abs(z, l):
    """|sin(sqrt(z) * l)|, clamped against overflow (pole detector).

    Only smallness matters to callers; once Im(k*l) > 40 the true value
    exceeds 1e17 and is returned as such without evaluating exp.
    """
    w = sqrt_upper(complex(z)) * l
    if w.imag > 40.0:
        return 1e17
    return abs(cmath.sin(w))
