"""The grid scan and bisection of qgs.rootscan, which the matching route
no longer uses, on functions whose roots are known exactly."""

from qgs.rootscan import Root, bisect, scan_roots


def _counted(f):
    """f, and the list of abscissae it was evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)
    return g, seen


def test_nan_grid_point_is_retried_at_a_shifted_abscissa():
    """A NaN at one node is evaluated again 0.31 steps to its right, and
    the scan goes on from there: the root beyond it is still found."""
    f, seen = _counted(lambda x: float("nan") if x == 0.5 else x - 0.6)
    roots = scan_roots(f, 0.0, 1.0, 0.25)
    assert 0.5 + 0.31 * 0.25 in seen
    assert len(roots) == 1 and roots[0].kind == "crossing"
    assert abs(roots[0].x - 0.6) < 1e-12


def test_exact_zero_on_an_interior_node_is_reported_once():
    """The cell left of the node returns it as its right end (f(b) = 0),
    the cell right of it as its left end; both are the same root."""
    assert scan_roots(lambda x: x - 0.5, 0.0, 1.0, 0.25) == [
        Root(0.5, "crossing")]


def test_exact_zero_on_the_last_node_is_reported_once():
    assert scan_roots(lambda x: x - 1.0, 0.0, 1.0, 0.25) == [
        Root(1.0, "crossing")]


def test_bisection_stops_at_adjacent_doubles():
    """Near x = 1e4 one ulp (2^-39) is wider than the 1e-12 tolerance, so
    the bracket ends as two adjacent doubles: from a width of 2^-3 that is
    36 halvings, and the root is the double that the bracket's midpoint
    rounds to.  The root of x - 1e4 - 1/3 is no double, so no midpoint
    stops the bisection early."""
    third = 1.0 / 3.0
    f, seen = _counted(lambda x: (x - 10000.0) - third)
    a, b = 10000.25, 10000.375
    x = bisect(f, a, b, f(a), f(b))
    assert x == 10000.333333333332
    assert len(seen) - 2 <= 40
