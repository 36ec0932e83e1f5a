"""Grid scan + bisection root finder for real secular functions.

Nothing in the package scans any more: the matching route confirms the
eigenvalue count's roots, and the fiber spectra of ``highcontrast``
bisect band by band.  The module stays only because the benchmark's layer
tracer (perfbench/layers.py) looks up ``scan_roots`` when it installs.
Two root flavours:

* crossings  — sign changes, refined by plain bisection;
* tangencies — double roots touching zero without a sign change, seen as a
  deep local minimum of |f| and refined by a ``refine_tangent(a, b)``
  callback.

Evaluations returning NaN or inf (e.g. an overflowing determinant) are
retried at a slightly shifted abscissa; when every retry fails too, the
scan raises ScanFailure.  A scan has a fixed window: the eigenvalue count
of ``spectra`` chooses it.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import ScanFailure, ScanResolution

TANGENT_DETECT = 0.3   # dip ratio that triggers tangency refinement
XTOL = 1e-12           # bisection bracket width at which a root is done


@dataclass(frozen=True)
class Root:
    x: float
    kind: str  # "crossing" | "tangent"


def _safe_eval(f, x, dx):
    v = f(x)
    if v == v and not math.isinf(v):  # not NaN / inf
        return x, v
    for shift in (0.31, -0.27, 0.13):
        xs = x + shift * dx
        v = f(xs)
        if v == v and not math.isinf(v):
            return xs, v
    raise ScanFailure(f"secular function undefined near x={x}", x)


def bisect(f, a, b, fa, fb):
    """Bisect the sign change of f between f(a) = fa != 0 and f(b) = fb
    down to a bracket narrower than XTOL, or to adjacent doubles where
    their spacing is wider than XTOL."""
    if fb == 0.0:
        return b
    while True:
        m = 0.5 * (a + b)
        if b - a < XTOL or not a < m < b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm


def scan_roots(f, lo, hi, step, refine_tangent=None, df=None):
    """Find roots of f on [lo, hi] sampling every `step`.

    Returns a sorted list of Root.  `refine_tangent(a, b) -> x or None`
    enables tangent-root detection; without it, only sign changes are
    reported.  `df` is ignored: the layer tracer of perfbench/layers.py
    wraps this function and always passes `df=`, so the keyword stays
    until that wrapper changes.

    Emits a ScanResolution warning when two roots land within one step of
    each other — the scan step may then be too coarse to separate roots.
    """
    if hi <= lo:
        return []
    n = max(2, int(math.ceil((hi - lo) / step)) + 1)
    xs, vs = [], []
    for i in range(n + 1):
        x = min(lo + i * step, hi)
        x, v = _safe_eval(f, x, step)
        xs.append(x)
        vs.append(v)
        if x >= hi:
            break

    roots = []
    crossing_cells = set()
    for i in range(len(xs) - 1):
        a, b, fa, fb = xs[i], xs[i + 1], vs[i], vs[i + 1]
        if fa == 0.0:
            roots.append(Root(a, "crossing"))
            crossing_cells.add(i)
        elif (fa > 0) != (fb > 0):
            roots.append(Root(bisect(f, a, b, fa, fb), "crossing"))
            crossing_cells.add(i)
    if vs and vs[-1] == 0.0:
        roots.append(Root(xs[-1], "crossing"))

    if refine_tangent is not None:
        for i in range(1, len(xs) - 1):
            if i in crossing_cells or (i - 1) in crossing_cells:
                continue  # already explained by a crossing
            fa, fm, fb = abs(vs[i - 1]), abs(vs[i]), abs(vs[i + 1])
            if not (fm <= fa and fm <= fb):
                continue
            if fm > TANGENT_DETECT * max(fa, fb):
                continue
            x = refine_tangent(xs[i - 1], xs[i + 1])
            if x is not None:
                roots.append(Root(x, "tangent"))

    roots.sort(key=lambda r: r.x)
    deduped = []
    for r in roots:
        if deduped and r.x - deduped[-1].x <= 10 * XTOL:
            continue  # same root found from both sides of a grid node
        deduped.append(r)
    for r1, r2 in zip(deduped, deduped[1:]):
        if r2.x - r1.x < step:
            warnings.warn(
                f"roots at {r1.x:.12g} and {r2.x:.12g} closer than one scan "
                f"step ({step:.3g})", ScanResolution)
            break
    return deduped
