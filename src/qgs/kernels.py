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

Each kernel has one source, ``_kernels``, instantiated for three
arithmetics:

* numpy complex arrays: ``edge_kernels`` (kcot, kcsc and ktanhalf of an
  edge at once), ``kcot``, ``kcsc``, ``ktanhalf``, ``sqrt_upper``
  and ``entire_cs`` work elementwise on energies and lengths that
  broadcast, e.g. an (N, 1) column of energies against the (E,) edge
  lengths of a graph.  They compute in numpy's own arithmetic, element by
  element: where an array mixes the two regimes both forms are evaluated
  and each element takes its own, so an element's value does not depend on
  the array it sits in.  Scalar arguments give numpy scalars, through
  numpy's scalar arithmetic, whose complex product need not round as the
  array loops' does: a stack of one is a one-element array.  The M-matrix
  assembly of ``weyl`` calls ``edge_kernels`` once per stack of energies,
  the vertex-matching system of ``spectra`` calls ``entire_cs`` once per
  energy for all its edges, and the layer transfer matrices of
  ``highcontrast`` call ``entire_cs`` for the (energy, layer) pairs with
  a complex or negative energy.
* numpy float arrays: ``entire_cs_real``, the same pair for real z >= 0,
  where k = sqrt(z) is real and so are cos(k x) and sin(k x)/k, in real
  arithmetic and by the same per-element rule.  Its values agree with the
  real parts of ``entire_cs``'s to rounding, not bit for bit, so
  the layer transfer matrices choose between the two element by element:
  the real pair wherever z >= 0, which is every energy of the fiber
  bisections.
* mpmath at the working precision (``mp_edge_kernels``, ``mp_kcot``, ...).
  The mpmath versions keep every digit (no dust is zeroed); the 60-digit
  reference determinants of ``spectra`` use them.  The matrix assemblies
  pick the arithmetic from the type of z, see ``is_mp``.
"""

import mpmath as mp
import numpy as np

# switch to series below this bound on |z| * l^2; next omitted series term
# is ~1e-20 there, and the exponential form is still well-conditioned above
SERIES_CUTOFF = 1e-4


def is_mp(x) -> bool:
    """True for an mpmath number: assemblies given one work in mpmath."""
    return isinstance(x, (mp.mpf, mp.mpc))


# -- the arithmetics: regime switch, selection and quotients ----------------

def _scalar_regime(series, exact, z, u, l):
    return (series if abs(u) < SERIES_CUTOFF else exact)(z, u, l)


def _scalar_where(cond, a, b):
    return a if cond else b


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


def _array_quotients(numerators, denominators):
    return np.divide(np.array(numerators), np.array(denominators))


def _scalar_quotients(numerators, denominators):
    return [a / b for a, b in zip(numerators, denominators)]


def _kernels(cast, sqrt, exp, cos, sin, where, regime, realify, quotients):
    """The kernel family in one arithmetic.

    cast converts the energy into the arithmetic, sqrt/exp/cos/sin are its
    complex elementary functions, where(cond, a, b) selects, and
    quotients(numerators, denominators) divides pairwise; products and
    quotients otherwise are the arithmetic's own * and /.  regime(series,
    exact, z, u, l) evaluates series(z, u, l) where |u| < SERIES_CUTOFF
    and exact(z, u, l) elsewhere (u = z l^2), both a sequence of values.
    realify(z, value) post-processes every returned value; edge_kernels
    hands it its three values at once, which the array arithmetic stacks
    along a new first axis, and entire_cs its two values one at a time.
    edge_kernels serves the complex array and mpmath arithmetics,
    entire_cs all three.  The array arithmetics choose every form element
    by element, so that an element's value does not depend on the stack
    it sits in.
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
        return ((1.0 - u / 3.0 - u * u / 45.0 - 2.0 * u**3 / 945.0) / l,
                (1.0 + u / 6.0 + 7.0 * u * u / 360.0
                 + 31.0 * u**3 / 15120.0) / l,
                (u / 2.0 + u * u / 24.0 + u**3 / 240.0) / l)

    def edge_exact(z, u, l):
        k = sqrt_upper(z)
        ik, ik2 = 1j * k, 2j * k
        q = exp(ik2 * l)
        p = exp(ik * l)
        return quotients((ik * (q + 1.0), ik2 * p, -1j * k * (p - 1.0)),
                         (q - 1.0, p * p - 1.0, p + 1.0))

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
        v2, v3 = v * v, v**3
        return (1.0 - v / 2.0 + v2 / 24.0 - v3 / 720.0,
                x * (1.0 - v / 6.0 + v2 / 120.0 - v3 / 5040.0))

    def cs_exact(z, v, x):
        k = sqrt(z)     # either root: C and S are even in k
        return cos(k * x), sin(k * x) / k

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


sqrt_upper, edge_kernels, kcot, kcsc, ktanhalf, entire_cs = _kernels(
    _as_complex_array, _array_sqrt, np.exp, np.cos, np.sin, np.where,
    _array_regime, _array_realify, _array_quotients)
# real arrays, for energies z >= 0: only entire_cs, whose k is real there,
# so the edge kernels (complex at every z) and their quotients are left out
_, _, _, _, _, entire_cs_real = _kernels(
    _as_float_array, np.sqrt, np.exp, np.cos, np.sin, np.where,
    _array_regime, lambda z, value: value, None)
(mp_sqrt_upper, mp_edge_kernels, mp_kcot, mp_kcsc, mp_ktanhalf,
 mp_entire_cs) = _kernels(mp.mpc, mp.sqrt, mp.exp, mp.cos, mp.sin,
                          _scalar_where, _scalar_regime,
                          lambda z, values: values, _scalar_quotients)
