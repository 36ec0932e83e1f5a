"""Compact spectra along two independent routes."""

import json
import math
import os
import random

import mpmath as mp
import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, Eigenvalue, MetricGraph,
                 NumericalError, ScanFailure, UnconfirmedRoot, Vertex,
                 compact_eigenvalues, compact_spectrum, kernel_margins,
                 load_graph, matching_matrix, multiplicity_at)
from qgs import parse_graph, spectra, weyl
from qgs.kernels import entire_cs
from qgs.rootscan import scan_roots
from qgs.spectra import (_count_jumps, _mp_matching_det,
                         _mp_weyl_det_negative, _mp_weyl_secular,
                         _weyl_matrix_raw)
from qgs.testing import make_random_graph

from conftest import PERFBENCH, perfbench


def zeros(graph):
    return CouplingMatrix.zeros(graph)


def flatten(eigs):
    return [e.z for e in eigs for _ in range(e.multiplicity)]


@pytest.mark.parametrize("mode", ["weyl", "matching"])
def test_neumann_interval(interval, mode):
    eig = compact_spectrum(interval, zeros(interval), 100.0, mode)
    exact = [0.0] + [(n * math.pi) ** 2 for n in (1, 2, 3)]
    got = flatten(eig)
    assert len(got) == 4
    for a, b in zip(got, exact):
        assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("mode", ["weyl", "matching"])
def test_dirichlet_limit(interval, mode):
    """Huge positive couplings converge to the Dirichlet spectrum from below."""
    k = CouplingMatrix.from_values(interval, [1e6, 1e6])
    got = flatten(compact_spectrum(interval, k, 100.0, mode))
    exact = [(n * math.pi) ** 2 for n in (1, 2, 3)]
    assert len(got) == 3
    for a, b in zip(got, exact):
        assert a < b
        assert abs(a - b) / b < 1e-5


def test_modes_agree_on_irrational_star(star3):
    k = CouplingMatrix.from_values(star3, [0.4, 0.0, -0.3, 0.9])
    w = flatten(compact_spectrum(star3, k, 40.0, "weyl"))
    m = flatten(compact_spectrum(star3, k, 40.0, "matching"))
    assert len(w) == len(m)
    for a, b in zip(w, m):
        assert a == pytest.approx(b, abs=1e-8)


def test_equilateral_star_degeneracies():
    """Equal legs force eigenvalue pairs; both routes must resolve them."""
    g = MetricGraph(
        [Vertex("C"), Vertex("T1"), Vertex("T2"), Vertex("T3")],
        [Edge("C", "T1", 1.0), Edge("C", "T2", 1.0), Edge("C", "T3", 1.0)])
    for mode in ("weyl", "matching"):
        eig = compact_spectrum(g, zeros(g), 26.0, mode)
        table = [(e.z, e.multiplicity) for e in eig]
        expected = [
            (0.0, 1),
            ((math.pi / 2) ** 2, 2),
            (math.pi ** 2, 1),
            ((3 * math.pi / 2) ** 2, 2),
        ]
        assert len(table) == len(expected)
        for (z, m), (ze, me) in zip(table, expected):
            assert z == pytest.approx(ze, abs=1e-7)
            assert m == me


@pytest.mark.parametrize("mode", ["weyl", "matching"])
def test_cycle_pole_coincident_doubles(mode):
    """Two parallel unit edges: eigenvalues (n pi)^2 sit exactly on the
    trigonometric poles of the boundary map, with multiplicity two.  The
    float count splits each into two roots about 3.5e-8 apart, so the weyl
    route must move both onto the pole."""
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 1.0)])
    eig = compact_spectrum(g, zeros(g), 50.0, mode)
    table = [(e.z, e.multiplicity) for e in eig]
    assert table[0] == (0.0, 1)
    for n, (z, m) in enumerate(table[1:], start=1):
        assert z == pytest.approx((n * math.pi) ** 2, rel=1e-9)
        assert m == 2


def test_cycle_weyl_route_survives_poles():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 1.0)])
    w = flatten(compact_spectrum(g, zeros(g), 50.0, "weyl"))
    m = flatten(compact_spectrum(g, zeros(g), 50.0, "matching"))
    assert len(w) == len(m)
    for a, b in zip(w, m):
        assert a == pytest.approx(b, abs=1e-7)


# --------------------------------------------------------------------------
# negative spectrum
# --------------------------------------------------------------------------

def test_attractive_interval_bound_state(interval):
    """Unit interval, coupling -1 at both ends: one negative eigenvalue
    solving q tanh(q/2) = 1, then the odd state tan(k/2) = k."""
    k = CouplingMatrix.from_values(interval, [-1.0, -1.0])
    eig = flatten(compact_spectrum(interval, k, 10.0))
    assert eig[0] == pytest.approx(-2.382097877890841, abs=1e-9)
    assert eig[1] == pytest.approx(5.434131505846817, abs=1e-9)


@pytest.mark.parametrize("mode", ["weyl", "matching"])
def test_deep_well(interval, mode):
    """Strongly attractive ends: ground state at -a^2 up to e^{-a}.  The
    even and odd states split by ~e^{-a}, far below double precision, so
    -a^2 is a double eigenvalue."""
    k = CouplingMatrix.from_values(interval, [-40.0, -40.0])
    eigs = compact_spectrum(interval, k, 1.0, mode)
    neg = [z for z in flatten(eigs) if z < 0]
    assert neg
    assert neg[0] == pytest.approx(-1600.0, rel=1e-10)
    assert eigs[0].multiplicity == 2


def test_deep_well_kernel_is_empty_away_from_the_root(interval):
    """The kernel test, on the matching matrix at every z, sees no
    eigenvalue at -1500, and two at the double root -1600: the nullity
    that kernel_margins finds there, at -1600 and at the counted root."""
    k = CouplingMatrix.from_values(interval, [-40.0, -40.0])
    assert multiplicity_at(interval, k, -1500.0) == 0
    assert multiplicity_at(interval, k, -1600.0) == 2
    (root, *_) = compact_spectrum(interval, k, 1.0)
    for z in (-1600.0, root.z):
        assert multiplicity_at(interval, k, z) == root.multiplicity
        with pytest.raises(UnconfirmedRoot) as info:
            kernel_margins(interval, k, [Eigenvalue(z, 1)])
        assert info.value.nullity == 2
        assert kernel_margins(interval, k, [Eigenvalue(z, 2)])[0] < \
            spectra.KERNEL_REL


def test_positive_couplings_have_no_negative_spectrum(star3):
    k = CouplingMatrix.from_values(star3, [2.0, 1.0, 3.0, 0.5])
    eig = flatten(compact_spectrum(star3, k, 5.0))
    assert all(z >= 0 for z in eig)


def test_zero_membership(interval):
    # Neumann: constant function, z=0 present; any coupling kills it
    assert flatten(compact_spectrum(interval, zeros(interval), 1.0))[0] == 0.0
    k = CouplingMatrix.from_values(interval, [0.3, 0.0])
    eig = flatten(compact_spectrum(interval, k, 1.0))
    assert all(z != 0.0 for z in eig)


@pytest.mark.parametrize("mode", ["weyl", "matching"])
def test_fan_bound_state(mode):
    """24 parallel unit edges, coupling -20 at one end: the ground state
    is the same on every edge, so z = -q^2 with 24 q tanh q = 20, and the
    matching kernel confirms it on the 48 x 48 system."""
    g = MetricGraph([Vertex("A", -20.0), Vertex("B")],
                    [Edge("A", "B", 1.0) for _ in range(24)])
    with mp.workdps(30):
        q = mp.findroot(lambda q: 24 * q * mp.tanh(q) - 20, 1.0)
    eigs = compact_spectrum(g, CouplingMatrix.from_graph(g), 1.0, mode)
    assert [e.multiplicity for e in eigs] == [1]
    assert eigs[0].z == pytest.approx(float(-q * q), rel=1e-11)


MISSED = [(f"missed-{i}", 100.0) for i in ("03", "06", "13", "21", "28", "39")]


def _fixed(name, z_max):
    """A perfbench graph with its couplings, and the reference eigenvalues
    below z_max."""
    path = os.path.join(PERFBENCH, "graphs", name + ".json")
    with open(path) as fh:
        # perfbench/reference.py: an eigenvalue count in plain numpy that
        # imports nothing from qgs
        ref = perfbench("reference").eigenvalues(json.load(fh), z_max)
    g = load_graph(path)
    return g, CouplingMatrix.from_graph(g), ref


@pytest.mark.parametrize("name,z_max", MISSED + [("ladder-n50", 2.0)])
def test_weyl_route_lists_every_reference_eigenvalue(name, z_max):
    """The count sees the close pairs a scan misses, with multiplicity."""
    g, kappa, ref = _fixed(name, z_max)
    got = flatten(compact_spectrum(g, kappa, z_max, "weyl"))
    assert len(got) == len(ref)
    for z, want in zip(got, ref):
        assert z == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name,z_max", MISSED + [("ladder-n30m", 1.0)])
def test_matching_values_are_reference_eigenvalues(name, z_max):
    """The matching route confirms every counted root, the members of
    close pairs and, on ladder-n30m (45 edges), the negative ones
    included: its list is the reference list."""
    g, kappa, ref = _fixed(name, z_max)
    got = flatten(compact_spectrum(g, kappa, z_max, "matching"))
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_matching_route_confirms_all_22_values():
    """On missed-06 the first 22 eigenvalues need a window past the close
    pairs at 26.45/26.99 and 77.61/77.79, which a scan in sqrt|z| stepped
    too coarsely to see.  The matching route confirms all 22 counted
    values, each with its margin below KERNEL_REL."""
    g, kappa, ref = _fixed("missed-06", 100.0)
    assert len(ref) >= 22
    got = compact_eigenvalues(g, kappa, 22, "matching")
    assert got == compact_eigenvalues(g, kappa, 22, "weyl")
    assert got == pytest.approx(ref[:22], rel=1e-9, abs=1e-9)
    eigs = compact_spectrum(g, kappa, got[-1], "weyl")
    assert sum(e.multiplicity for e in eigs) == 22
    assert max(kernel_margins(g, kappa, eigs)) < spectra.KERNEL_REL


# --------------------------------------------------------------------------
# the lockstep count
# --------------------------------------------------------------------------

def _one_count(graph, kappa, t):
    """N(t|t|) for one energy, as a 2-D eigvalsh and a per-edge Dirichlet
    sum."""
    with np.errstate(all="ignore"):
        A = _weyl_matrix_raw(graph, kappa, t * abs(t)).real
    n = int(np.sum(np.linalg.eigvalsh(A) > 0.0))
    if t > 0.0:
        n += sum(math.ceil(t * e.length / math.pi) - 1 for e in graph.edges)
    return n


def _depth_first_jumps(graph, kappa, lo, hi):
    """The jumps of the count, found depth first, one count at a time, by
    bisection to adjacent doubles; and the rounds a lockstep bisection
    takes, the count at hi included."""
    jumps, rounds = [], 1
    stack = [(lo, hi, 0, _one_count(graph, kappa, hi), 1)]
    while stack:
        a, b, na, nb, depth = stack.pop()
        if na == nb:
            continue
        m = 0.5 * (a + b)
        if not a < m < b:
            jumps.append((m, nb - na))
            continue
        nm = _one_count(graph, kappa, m)
        rounds = max(rounds, depth + 1)
        stack += [(a, m, na, nm, depth + 1), (m, b, nm, nb, depth + 1)]
    return sorted(jumps), rounds


def _count_window(graph, kappa):
    """-T of compact_spectrum's exact window: no eigenvalue below -T^2."""
    T = 1.0
    while _one_count(graph, kappa, -T) > 0:
        T *= 2.0
    return -T


def _family(n, seed):
    inputs = perfbench("inputs")
    g = parse_graph(json.dumps(inputs.family_graph(random.Random(seed), n)))
    return g, CouplingMatrix.from_graph(g)


def _equilateral_star():
    """Three unit legs, coupling 0.5 at the centre: every (m + 1/2)^2 pi^2
    is a double eigenvalue off the poles (m pi)^2."""
    g = MetricGraph([Vertex("C", 0.5), Vertex("T1"), Vertex("T2"),
                     Vertex("T3")],
                    [Edge("C", "T1", 1.0), Edge("C", "T2", 1.0),
                     Edge("C", "T3", 1.0)])
    return g, CouplingMatrix.from_graph(g)


def _two_parallel_edges():
    """Eigenvalues (n pi)^2 of multiplicity 2, on the poles."""
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 1.0)])
    return g, zeros(g)


def _neumann_star():
    """Zero couplings: z = 0 is an eigenvalue."""
    g = MetricGraph([Vertex("C"), Vertex("T1"), Vertex("T2")],
                    [Edge("C", "T1", 1.0), Edge("C", "T2", math.sqrt(2))])
    return g, zeros(g)


SPECIAL = {"jump-of-2": _equilateral_star, "on-a-pole": _two_parallel_edges,
           "at-zero": _neumann_star}
COUNT_CASES = [(name, 10.0) for name, _ in MISSED] + [
    ("family-20", 3.0), ("family-50", 1.5), ("family-100", 0.6),
    ("jump-of-2", 5.0), ("on-a-pole", 7.0), ("at-zero", 4.0)]


def _count_case(name):
    if name in SPECIAL:
        return SPECIAL[name]()
    if name.startswith("family-"):
        n = int(name.split("-")[1])
        return _family(n, seed=n)
    g = load_graph(os.path.join(PERFBENCH, "graphs", name + ".json"))
    return g, CouplingMatrix.from_graph(g)


def _special_points(graph, t_hi):
    """0 and the poles n pi / l up to t_hi, the same floats as the count's."""
    return {0.0} | {n * math.pi / e.length for e in graph.edges
                    for n in range(1, int(t_hi * e.length / math.pi) + 1)}


def _assert_same_jumps(graph, kappa, got, want, points=frozenset()):
    """got has want's multiplicities in the same order, each root within
    1e-12 relative of want's, and the count steps up across each root.  A
    root of got in points (0 and the poles) stands for the jumps of want
    within the snap's reach of it: it is that point exactly, with their
    summed multiplicity, and the count steps up across that reach."""
    floor = 1.0 / min(e.length for e in graph.edges)

    def reach(t):
        return spectra.SNAP_REL * max(abs(t), floor)

    stops = [t for t, _ in got if t in points]
    merged = []
    for t_want, jump in want:
        stop = [p for p in stops if abs(t_want - p) <= reach(p)]
        if stop and merged and merged[-1][0] == stop[0]:
            merged[-1] = (stop[0], merged[-1][1] + jump)
        else:
            merged.append((stop[0] if stop else t_want, jump))
    assert [jump for _, jump in got] == [jump for _, jump in merged]
    for (t, _), (t_want, _) in zip(got, merged):
        if t in points:
            assert t == t_want
            step = reach(t)
        else:
            assert abs(t - t_want) <= 1e-12 * abs(t_want)
            step = 1e-12 * abs(t)
        assert _one_count(graph, kappa, t - step) < \
            _one_count(graph, kappa, t + step)


@pytest.mark.parametrize("name,t_hi", COUNT_CASES)
def test_lockstep_count_finds_the_depth_first_jumps(name, t_hi):
    """Isolating each jump by halving and refining it on its crossing
    eigenvalue finds the jumps that bisection to adjacent doubles does,
    one bracket at a time: the same multiplicities, in the same order, at
    the same roots to 1e-12.  Jumps of 2 away from 0 and the poles are
    bisected, so they are where bisection puts them.  Roots at z = 0 and
    on a pole stop there: exactly at 0 or n pi / l, with the summed
    multiplicity of bisection's jumps within the snap's reach."""
    g, kappa = _count_case(name)
    lo = _count_window(g, kappa)
    want, _ = _depth_first_jumps(g, kappa, lo, t_hi)
    assert len(want) > 3
    got = _count_jumps(g, kappa, [lo, t_hi])
    _assert_same_jumps(g, kappa, got, want, _special_points(g, t_hi))
    if name in SPECIAL:
        special = {"jump-of-2": [t for t, jump in want if jump == 2],
                   "on-a-pole": [math.pi, 2.0 * math.pi],
                   "at-zero": [0.0]}[name]
        assert special
        assert set(special) <= {t for t, _ in got}


@pytest.mark.parametrize("name,z_max", MISSED + [("unit-interval", 10.0)])
def test_count_stops_at_special_points_in_few_rounds(name, z_max, interval,
                                                     monkeypatch):
    """A bracket at z = 0 or on a pole stops at that point once it lies
    within the snap's reach, instead of halving on to adjacent doubles:
    each compact_spectrum call below takes at most 30 counts (56 or 57 on
    the missed-* graphs, and 83 on the unit interval, when such roots were
    bisected to adjacent doubles)."""
    g, kappa = (interval, zeros(interval)) if name == "unit-interval" \
        else _count_case(name)
    rounds = []
    eigen_counts = spectra._eigen_counts

    def counting(graph, kappa, t):
        rounds.append(len(t))
        return eigen_counts(graph, kappa, t)

    monkeypatch.setattr(spectra, "_eigen_counts", counting)
    assert compact_spectrum(g, kappa, z_max, "weyl")
    assert len(rounds) <= 30


def test_stalled_refinement_ends_within_bisection_rounds(monkeypatch):
    """Steps that never come near the root leave the refinement on
    bisection's schedule: the same jumps, in no more rounds than lockstep
    bisection to adjacent doubles takes."""
    g, kappa = _count_case("missed-06")
    lo = _count_window(g, kappa)
    want, bisection_rounds = _depth_first_jumps(g, kappa, lo, 10.0)
    rounds = []
    eigen_counts = spectra._eigen_counts

    def counting(graph, kappa, t):
        rounds.append(len(t))
        return eigen_counts(graph, kappa, t)

    monkeypatch.setattr(spectra, "_eigen_counts", counting)
    _count_jumps(g, kappa, [lo, 10.0])
    refined_rounds = len(rounds)
    rounds.clear()
    monkeypatch.setattr(spectra, "_illinois_point",
                        lambda a, b, fa, fb: a + 1e-6 * (b - a))
    got = _count_jumps(g, kappa, [lo, 10.0])
    _assert_same_jumps(g, kappa, got, want)
    assert refined_rounds < len(rounds) <= bisection_rounds


def test_count_noise_while_refining_neither_loses_nor_adds(monkeypatch):
    """A refining step whose count is neither end's hands its halves back
    to halving: one count above both ends' changes no eigenvalue and no
    multiplicity."""
    g, kappa = _count_case("missed-13")
    want = compact_spectrum(g, kappa, 30.0, "weyl")
    split = spectra._Bracket.split
    calls = []

    def noisy(self, x, nx, ex):
        if self.j is None:
            return split(self, x, nx, ex)
        calls.append(x)
        return split(self, x, self.nb + 1 if len(calls) == 5 else nx, ex)

    monkeypatch.setattr(spectra._Bracket, "split", noisy)
    got = compact_spectrum(g, kappa, 30.0, "weyl")
    assert len(calls) > 5
    assert [e.multiplicity for e in got] == [e.multiplicity for e in want]
    for e, w in zip(got, want):
        assert e.z == pytest.approx(w.z, rel=1e-12, abs=1e-12)


def test_refinement_counts_few_energies_per_root(monkeypatch):
    """ladder-n50 up to z = 20: 91 eigenvalues at fewer than 20 counted
    energies each, in at most 32 lockstep rounds (bisection to adjacent
    doubles takes about 48 and 60)."""
    g, kappa = _count_case("ladder-n50")
    energies = []
    eigen_counts = spectra._eigen_counts

    def counting(graph, kappa, t):
        energies.append(len(t))
        return eigen_counts(graph, kappa, t)

    monkeypatch.setattr(spectra, "_eigen_counts", counting)
    eigs = compact_spectrum(g, kappa, 20.0, "weyl")
    roots = sum(e.multiplicity for e in eigs)
    assert roots == 91
    assert sum(energies) <= 20 * roots
    assert len(energies) <= 32


def test_count_stacks_stay_within_the_block_budget(monkeypatch):
    """A round with more brackets than BLOCK_BYTES holds matrices for is
    counted in several stacks, none larger than the budget, with the same
    jumps."""
    g, kappa = _count_case("family-20")
    lo = _count_window(g, kappa)
    want = _count_jumps(g, kappa, [lo, 3.0])
    sizes, rounds = [], []
    eigen_counts = spectra._eigen_counts

    def assembling(graph, kappa, z):
        sizes.append(np.size(z))
        return _weyl_matrix_raw(graph, kappa, z)

    def counting(graph, kappa, t):
        rounds.append(len(t))
        return eigen_counts(graph, kappa, t)

    monkeypatch.setattr(weyl, "BLOCK_BYTES", 3 * 16 * g.n_vertices ** 2)
    monkeypatch.setattr(spectra, "_weyl_matrix_raw", assembling)
    monkeypatch.setattr(spectra, "_eigen_counts", counting)
    assert _count_jumps(g, kappa, [lo, 3.0]) == want
    assert max(sizes) == 3
    assert max(rounds) > 3
    assert len(sizes) > len(rounds)


# --------------------------------------------------------------------------
# matching-system internals
# --------------------------------------------------------------------------

def test_matching_matrix_shape(star3):
    A = matching_matrix(star3, zeros(star3), 3.0)
    n = star3.n_edges
    assert A.shape == (2 * n, 2 * n)


@pytest.mark.parametrize("z", [7.3, -400.0])
def test_matching_matrix_takes_every_edge_from_one_kernel_call(z,
                                                               monkeypatch):
    """A float matching system evaluates the entire pair of all its edges
    in one call of the array kernel, also where some edges take the
    decaying basis (at z = -400 the edges longer than 0.05 do)."""
    g = MetricGraph([Vertex(f"V{i:02d}") for i in range(12)],
                    [Edge(f"V{i:02d}", f"V{(i + 1) % 12:02d}", 0.02 + 0.1 * i)
                     for i in range(12)])
    want = matching_matrix(g, zeros(g), z)
    shapes = []

    def counted(z, x):
        shapes.append(np.shape(x))
        return entire_cs(z, x)

    monkeypatch.setattr(spectra, "entire_cs", counted)
    assert np.array_equal(matching_matrix(g, zeros(g), z), want)
    assert shapes == [(12,)]


def test_matching_det_vanishes_at_eigenvalue(interval):
    def det(z):
        return np.linalg.det(matching_matrix(interval, zeros(interval), z))
    assert abs(det(math.pi ** 2)) < 1e-8 * abs(det((math.pi + 0.3) ** 2))


def test_multiplicity_at_double():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 1.0)])
    assert multiplicity_at(g, zeros(g), math.pi ** 2) == 2
    assert multiplicity_at(g, zeros(g), 2.0) == 0


def test_matching_kernel_sees_deep_wells_in_the_decaying_basis(interval):
    """Coupling -40 at one end: one bound state near -1600, which the
    matching kernel confirms as simple.  In the basis C, S its system
    subtracts terms of size cosh(40) and cannot tell a root from its
    neighbours; in the decaying basis it has nullity 1 there and 0 at
    -1500.  With -40 at both ends the even and odd states split by
    about 1e-14, below double precision at z = -1600, and the kernel
    reads 2, as the count does."""
    one = CouplingMatrix.from_values(interval, [-40.0, 0.0])
    eigs = compact_spectrum(interval, one, 1.0, "matching")
    assert [e.multiplicity for e in eigs] == [1]
    assert eigs[0].z == pytest.approx(-1600.0, rel=1e-12)
    assert kernel_margins(interval, one, eigs)[0] < 1e-14
    with pytest.raises(UnconfirmedRoot):
        kernel_margins(interval, one, [Eigenvalue(-1500.0, 1)])
    both = CouplingMatrix.from_values(interval, [-40.0, -40.0])
    eigs = compact_spectrum(interval, both, 1.0, "matching")
    assert [e.multiplicity for e in eigs] == [2]


def test_unconfirmed_root_names_the_root_and_the_nullity():
    """A root listed with the wrong multiplicity, or where there is none,
    is refused with z, the listed multiplicity and the nullity found."""
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 1.0)])
    for z, m, nullity in ((math.pi ** 2, 1, 2), (2.0, 1, 0)):
        with pytest.raises(UnconfirmedRoot) as info:
            kernel_margins(g, zeros(g), [Eigenvalue(z, m)])
        err = info.value
        assert isinstance(err, NumericalError)
        assert (err.z, err.multiplicity, err.nullity) == (z, m, nullity)
        assert f"z={z!r}" in str(err) and f"nullity {nullity}" in str(err)


def test_eigenvalue_record():
    e = Eigenvalue(z=1.5, multiplicity=2)
    assert e.z == 1.5 and e.multiplicity == 2


# --------------------------------------------------------------------------
# guards
# --------------------------------------------------------------------------

def test_unknown_mode_rejected(interval):
    with pytest.raises(ValueError):
        compact_spectrum(interval, zeros(interval), 10.0, "secular")


def test_complex_coupling_rejected(interval):
    k = CouplingMatrix.from_values(interval, [1j, 0.0])
    with pytest.raises(ValueError):
        compact_spectrum(interval, k, 10.0)


def test_compact_eigenvalues_collects_requested_count(loop_tadpole):
    k = CouplingMatrix.from_values(loop_tadpole, [0.5, -0.5])
    eig = compact_eigenvalues(loop_tadpole, k, 8)
    assert len(eig) == 8
    assert eig == sorted(eig)
    # and they really are matching-system kernel points
    for z in eig:
        if z > 1e-8:
            assert multiplicity_at(loop_tadpole, k, z) >= 1


def test_compact_eigenvalues_shortfall_is_a_scan_failure(loop_tadpole,
                                                         monkeypatch):
    """A route that lists fewer eigenvalues than the count N(z_max) raises
    ScanFailure, a NumericalError (so the CLI exits 3), with both numbers
    and the window in its message."""
    k = CouplingMatrix.from_values(loop_tadpole, [0.5, -0.5])
    full = spectra.compact_spectrum
    monkeypatch.setattr(spectra, "compact_spectrum",
                        lambda *args: full(*args)[1:])
    with pytest.raises(ScanFailure) as info:
        compact_eigenvalues(loop_tadpole, k, 8)
    z_max = info.value.x
    n = spectra._eigen_counts(loop_tadpole, k, [math.sqrt(z_max)])[0][0]
    listed = flatten(full(loop_tadpole, k, z_max)[1:])
    assert isinstance(info.value, NumericalError)
    assert n >= 8 and len(listed) < n
    assert str(info.value) == (f"the weyl route listed {len(listed)} of the "
                               f"{n} eigenvalues below z={z_max:g}")


def test_leads_do_not_change_compact_spectrum(star3):
    bare = MetricGraph(list(star3.vertices), list(star3.edges))
    k_star = CouplingMatrix.from_values(star3, [0.2, 0.0, 0.0, 0.0])
    k_bare = CouplingMatrix.from_values(bare, [0.2, 0.0, 0.0, 0.0])
    a = flatten(compact_spectrum(star3, k_star, 30.0))
    b = flatten(compact_spectrum(bare, k_bare, 30.0))
    assert a == b


# --------------------------------------------------------------------------
# one assembly, two arithmetic types
# --------------------------------------------------------------------------

def _random_cases(count=8, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        g = make_random_graph(rng, max_vertices=6, max_edges=9)
        yield g, CouplingMatrix.from_graph(g)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _weyl_det(g, kappa, z):
    """det(M(z) - kappa) in floats, times prod sin(sqrt(z) l) for z > 0."""
    d = np.linalg.det(_weyl_matrix_raw(g, kappa, z)).real
    if z > 0:
        for e in g.edges:
            d *= math.sin(math.sqrt(z) * e.length)
    return d


def _matching_det(g, kappa, z):
    return np.linalg.det(matching_matrix(g, kappa, z)).real


def test_float_and_mp_secular_functions_agree():
    """The float count, the float matching determinant and their 60-digit
    references share one M-matrix and one matching assembly, with the
    same edge bases; away from poles they agree to 1e-8."""
    for g, kappa in _random_cases():
        for k in (0.37, 1.3, 2.9, 4.1):
            if min(abs(math.sin(k * e.length)) for e in g.edges) < 1e-3:
                continue  # too near a pole for the float M-matrix
            assert _rel(_weyl_det(g, kappa, k * k),
                        _mp_weyl_secular(g, kappa, k, 60)) < 1e-8
            assert _rel(_matching_det(g, kappa, k * k),
                        float(_mp_matching_det(g, kappa, k * k, 60))) < 1e-8
        for q in (0.4, 1.7, 3.3):
            exact = float(mp.re(_mp_weyl_det_negative(g, kappa, q)))
            assert _rel(_weyl_det(g, kappa, -q * q), exact) < 1e-8
            assert _rel(_matching_det(g, kappa, -q * q),
                        float(_mp_matching_det(g, kappa, -q * q, 60))) < 1e-8


def test_scan_failure_is_a_numerical_error():
    with pytest.raises(ScanFailure) as info:
        scan_roots(lambda x: float("nan"), 0.0, 1.0, 0.1)
    assert isinstance(info.value, NumericalError)
    assert info.value.x == 0.0

