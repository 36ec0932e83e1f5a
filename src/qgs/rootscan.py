"""Grid scan + bisection root finder for real secular functions.

Only the matching route scans now (its vertex-matching determinant; the
fiber spectra of ``highcontrast`` bisect band by band).  Two root flavours:

* crossings  — sign changes, refined by plain bisection;
* tangencies — double roots touching zero without a sign change, seen as a
  deep local minimum of |f|, refined by a ``refine_tangent(a, b)`` callback
  (the matching route's golden section on its kernel test) or by bisecting
  an analytic derivative ``df``, and accepted only if the refined minimum
  is consistent with an actual zero.

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
TANGENT_ACCEPT = 1e-6  # |f(min)| relative to neighbours for acceptance


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


def bisect(f, a, b, fa=None, fb=None, xtol=1e-12, maxiter=200):
    """Plain bisection; assumes a sign change on [a, b]."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError("no sign change on bracket")
    for _ in range(maxiter):
        m = 0.5 * (a + b)
        if b - a < xtol:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def _refine_tangent_df(f, df, a, b, xtol):
    """Locate the |f| minimum by bisecting the analytic derivative."""
    da, db = df(a), df(b)
    if da == 0.0:
        return a
    if db == 0.0:
        return b
    if (da > 0) == (db > 0):
        return None  # no stationary point bracketed; not a tangency
    return bisect(df, a, b, da, db, xtol=xtol)


def scan_roots(f, lo, hi, step, df=None, refine_tangent=None,
               xtol=1e-12, tangent_accept=TANGENT_ACCEPT):
    """Find roots of f on [lo, hi] sampling every `step`.

    Returns a sorted list of Root.  `df` (analytic derivative) or
    `refine_tangent(a, b) -> x or None` enable tangent-root detection;
    without either, only sign changes are reported.

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
            roots.append(Root(bisect(f, a, b, fa, fb, xtol=xtol), "crossing"))
            crossing_cells.add(i)
    if vs and vs[-1] == 0.0:
        roots.append(Root(xs[-1], "crossing"))

    if df is not None or refine_tangent is not None:
        for i in range(1, len(xs) - 1):
            if i in crossing_cells or (i - 1) in crossing_cells:
                continue  # already explained by a crossing
            fa, fm, fb = abs(vs[i - 1]), abs(vs[i]), abs(vs[i + 1])
            if not (fm <= fa and fm <= fb):
                continue
            if fm > TANGENT_DETECT * max(fa, fb):
                continue
            a, b = xs[i - 1], xs[i + 1]
            if refine_tangent is not None:
                x = refine_tangent(a, b)
            else:
                x = _refine_tangent_df(f, df, a, b, xtol)
                if x is not None:
                    # accept only if the minimum is a zero, not a near-miss
                    _, residual = _safe_eval(f, x, step)
                    if abs(residual) > tangent_accept * max(fa, fb):
                        x = None
            if x is not None:
                roots.append(Root(x, "tangent"))

    roots.sort(key=lambda r: r.x)
    deduped = []
    for r in roots:
        if deduped and r.x - deduped[-1].x <= 10 * xtol:
            continue  # same root found from both sides of a grid node
        deduped.append(r)
    for r1, r2 in zip(deduped, deduped[1:]):
        if r2.x - r1.x < step:
            warnings.warn(
                f"roots at {r1.x:.12g} and {r2.x:.12g} closer than one scan "
                f"step ({step:.3g})", ScanResolution)
            break
    return deduped
