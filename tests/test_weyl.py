"""Boundary data maps on the energy axis."""

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (CouplingMatrix, Edge, MetricGraph, PoleProximity,
                 SingularMatrix, Vertex, external_projector,
                 robin_to_dirichlet, weyl_compact, weyl_full)
from qgs.kernels import mp_edge_kernels
from qgs.testing import make_random_graph
from qgs.weyl import COND_LIMIT, compact_entries, gated_inverses, weyl_stack

graphs = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: make_random_graph(random.Random(seed)))


def test_interval_entries(interval):
    # single edge of length 1 at z = 1 (k = 1)
    M = weyl_compact(interval, 1.0)
    assert M[0, 0] == pytest.approx(-1.0 / math.tan(1.0))
    assert M[1, 1] == pytest.approx(-1.0 / math.tan(1.0))
    assert M[0, 1] == pytest.approx(1.0 / math.sin(1.0))
    assert M[1, 0] == M[0, 1]


def test_loop_adds_tangent_term(loop_tadpole):
    z = 2.0
    k = math.sqrt(z)
    M = weyl_compact(loop_tadpole, z)
    i = loop_tadpole.vertex_index("P")
    expected = 2.0 * k * math.tan(k * 1.3 / 2.0) - k / math.tan(k * 0.7)
    assert M[i, i] == pytest.approx(expected)


def test_parallel_edges_accumulate():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 0.5)])
    z = 3.0
    k = math.sqrt(z)
    M = weyl_compact(g, z)
    assert M[0, 1] == pytest.approx(k / math.sin(k) + k / math.sin(k * 0.5))
    assert M[0, 0] == pytest.approx(-k / math.tan(k) - k / math.tan(k * 0.5))


def test_full_adds_external_halfline(lead_interval):
    s = 4.0
    Mc = weyl_compact(lead_interval, s)
    Mf = weyl_full(lead_interval, s)
    diff = Mf - Mc
    assert diff[0, 0] == pytest.approx(2.0j)  # i * sqrt(4) on the lead vertex
    assert abs(diff[1, 1]) == 0.0


def test_external_projector(lead_interval):
    P = external_projector(lead_interval)
    assert P.shape == (2, 2)
    assert P[0, 0] == 1.0 and P[1, 1] == 0.0
    assert np.all(P == P @ P)


def test_pole_raises(interval):
    with pytest.raises(PoleProximity):
        weyl_compact(interval, math.pi ** 2)


def test_pole_has_context(interval):
    try:
        weyl_compact(interval, math.pi ** 2)
    except PoleProximity as exc:
        assert exc.edge == "e1"
        assert exc.z == pytest.approx(math.pi ** 2)


def test_zero_energy_is_removable(interval):
    # z=0 is not a pole: entries go to the +-1/l limits
    M = weyl_compact(interval, 0.0)
    assert M[0, 0] == pytest.approx(-1.0)
    assert M[0, 1] == pytest.approx(1.0)


@given(graphs)
@settings(max_examples=50, deadline=None)
def test_symmetry_and_conjugation(g):
    z = 2.7 + 1.1j
    M = weyl_full(g, z)
    assert np.linalg.norm(M - M.T) < 1e-10 * (1 + np.linalg.norm(M))
    Mbar = weyl_full(g, z.conjugate())
    assert np.linalg.norm(Mbar - M.conj()) < 1e-10 * (1 + np.linalg.norm(M))


@given(graphs, st.floats(min_value=0.1, max_value=30.0),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_herglotz_upper_halfplane(g, re_z, im_z):
    """Im M(z) is positive semidefinite for Im z > 0."""
    M = weyl_full(g, complex(re_z, im_z))
    im_part = (M - M.conj().T) / 2j
    eigs = np.linalg.eigvalsh(im_part)
    assert eigs.min() > -1e-9 * max(1.0, eigs.max())


@given(graphs, st.floats(min_value=0.3, max_value=80.0))
@settings(max_examples=50, deadline=None)
def test_jump_across_positive_axis(g, s):
    """M(s) - M(s)^* = 2i sqrt(s) P_e on the positive axis."""
    try:
        M = weyl_full(g, s)
    except PoleProximity:
        return
    jump = M - M.conj().T
    target = 2j * math.sqrt(s) * external_projector(g)
    assert np.linalg.norm(jump - target) < 1e-11 * (1 + np.linalg.norm(M))


def test_negative_axis_is_real(lead_interval):
    # below the spectrum even the full matrix is real: the half-line
    # contribution i*sqrt(z) = -tau is real there
    M = weyl_full(lead_interval, -9.0)
    assert np.linalg.norm(M.imag) == 0.0
    assert M[0, 0] == pytest.approx(-3.0 - 3.0 / math.tanh(3.0))


# --------------------------------------------------------------------------
# coupling containers
# --------------------------------------------------------------------------

def test_coupling_from_values_order(star3):
    k = CouplingMatrix.from_values(star3, [1.0, 2.0, 3.0, 4.0])
    # canonical order sorts vertex ids
    assert star3.vertex_ids() == ["C", "T1", "T2", "T3"]
    assert k.diagonal[0] == 1.0
    assert np.all(np.diag(k.as_array()) == k.diagonal)


def test_coupling_from_dict(star3):
    k = CouplingMatrix.from_dict(star3, {"T2": -1.5})
    i = star3.vertex_index("T2")
    assert k.diagonal[i] == -1.5
    assert sum(abs(c) for c in k.diagonal) == 1.5


def test_coupling_from_graph_reads_vertex_data():
    g = MetricGraph([Vertex("A", 0.7), Vertex("B", -0.1 + 0.2j)],
                    [Edge("A", "B", 1.0)])
    k = CouplingMatrix.from_graph(g)
    assert k.diagonal[0] == 0.7
    assert not k.is_real
    assert CouplingMatrix.zeros(g).is_real


def test_coupling_wrong_count(star3):
    with pytest.raises(ValueError):
        CouplingMatrix.from_values(star3, [1.0, 2.0])


# --------------------------------------------------------------------------
# Robin-to-Dirichlet block
# --------------------------------------------------------------------------

def test_rtd_block_is_schur_inverse(lead_interval):
    z = -4.0
    k = CouplingMatrix.from_values(lead_interval, [0.5, -0.3])
    R = robin_to_dirichlet(lead_interval, k, z)
    A = weyl_compact(lead_interval, z) - k.as_array()
    full_inv = np.linalg.inv(A)
    assert R.shape == (1, 1)
    assert R[0, 0] == pytest.approx(full_inv[0, 0], rel=1e-12)


def test_rtd_symmetric_for_real_couplings():
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge("A", "B", 1.0), Edge("B", "C", 1.3), Edge("A", "C", 0.6)],
        leads=["A", "C"])
    k = CouplingMatrix.from_values(g, [0.2, -0.8, 1.1])
    R = robin_to_dirichlet(g, k, -2.5)
    assert np.linalg.norm(R - R.T) < 1e-12


def test_rtd_singular_at_eigenvalue(interval):
    # z=0 is a Neumann eigenvalue: M(0) - 0 is singular
    with pytest.raises(SingularMatrix):
        robin_to_dirichlet(interval, CouplingMatrix.zeros(interval), 0.0)


# --------------------------------------------------------------------------
# the condition gate, gated_inverses
# --------------------------------------------------------------------------

def _with_cond(rng, n, kappa):
    """Complex n x n matrix with singular values spread geometrically from
    1 down to 1/kappa (so cond = kappa for n > 1)."""
    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q
    sv = np.geomspace(1.0, 1.0 / kappa, n)
    return unitary() @ np.diag(sv) @ unitary().conj().T


def _norm_aligned(rng, n, kappa, quiet):
    """Singular values 1, kappa^-1/2 (n - 2 times) and 1/kappa, with
    singular vectors chosen so that the 1-norm condition number is close
    to cond/(n - 1) (quiet) or to (n - 1) cond: either end of the bracket
    the gate relies on."""
    def basis(first, last):
        q, _ = np.linalg.qr(np.column_stack(
            [first, last, rng.standard_normal((n, n - 2))]))
        return np.column_stack([q[:, 0], q[:, 2:], q[:, 1]])
    point, flat = np.eye(n)[0], np.r_[0.0, np.ones(n - 1)]
    U, V = (basis(point, flat), basis(flat, point)) if quiet else \
        (basis(flat, point), basis(point, flat))
    sv = np.r_[1.0, np.full(n - 2, kappa ** -0.5), 1.0 / kappa]
    return U @ np.diag(sv) @ V.T


def _gate_cases():
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 10, 100):
        for kappa in (1.0, 1e3, 4e11, 9e11, 1.1e12, 2.5e12, 1e14):
            cases.append(_with_cond(rng, n, kappa))
            if n > 2:
                cases += [_norm_aligned(rng, n, kappa, quiet)
                          for quiet in (True, False)]
        singular = _with_cond(rng, n, 10.0)
        singular[:, 0] = 0.0
        cases.append(singular)
    return cases


def test_gate_decides_as_the_svd_condition_number():
    """One matrix at a time (a stack of one) and as stacks of equal size,
    the gate refuses exactly the matrices with np.linalg.cond(A) >
    COND_LIMIT, and what it inverts is np.linalg.inv's answer, bit for
    bit."""
    cases = _gate_cases()
    for A in cases:
        (X,), (error,) = gated_inverses(A[None], [1.5], "probe")
        if np.linalg.cond(A) > COND_LIMIT:
            assert str(error) == "probe numerically singular at z=1.5"
            assert np.isnan(X).all()
        else:
            assert error is None
            assert np.array_equal(X, np.linalg.inv(A))
    for n in (1, 2, 10, 100):
        stack = np.array([A for A in cases if A.shape[0] == n])
        inverse, errors = gated_inverses(stack, list(range(len(stack))),
                                         "probe")
        want = [np.linalg.cond(A) > COND_LIMIT for A in stack]
        assert [e is not None for e in errors] == want
        for i, (A, refused) in enumerate(zip(stack, want)):
            if refused:
                assert isinstance(errors[i], SingularMatrix)
                assert errors[i].z == i
                assert np.isnan(inverse[i]).all()
            else:
                assert np.array_equal(inverse[i], np.linalg.inv(A))
    assert any(np.linalg.cond(A) > COND_LIMIT for A in cases)


def test_gate_needs_no_svd_clear_of_the_limit(monkeypatch):
    """Matrices far from COND_LIMIT on either side are decided by the
    1-norm bracket alone."""
    rng = np.random.default_rng(8)
    fine = np.array([_with_cond(rng, 10, 1e3) for _ in range(3)])
    bad = np.array([_with_cond(rng, 10, 1e16) for _ in range(2)])

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    _, errors = gated_inverses(np.concatenate([fine, bad]), [1.0] * 5,
                               "probe")
    assert [e is None for e in errors] == [True, True, True, False, False]


def test_gated_inverses_of_a_stack_do_not_depend_on_its_refusals():
    """The inverses of the matrices a stack's gate passes are
    np.linalg.inv's of each, bit for bit, whether or not the stack holds
    refused matrices, an exactly singular one included; each refused
    matrix names its own energy."""
    cases = _gate_cases()
    for n in (1, 2, 10, 100):
        stack = np.array([A for A in cases if A.shape[0] == n])
        refused = [np.linalg.cond(A) > COND_LIMIT for A in stack]
        assert any(refused)
        energies = [0.5 * i for i in range(len(stack))]
        inverse, errors = gated_inverses(stack, energies, "probe")
        assert [e.z for e in errors if e is not None] == [
            z for z, r in zip(energies, refused) if r]
        fine = stack[[not r for r in refused]]
        alone, errors = gated_inverses(fine, energies[:len(fine)], "probe")
        assert errors == [None] * len(fine)
        assert np.array_equal(alone, inverse[[not r for r in refused]])
        for A, X in zip(fine, alone):
            assert np.array_equal(X, np.linalg.inv(A))
    rng = np.random.default_rng(4)
    stack = np.array([_with_cond(rng, 5, 10.0) for _ in range(3)])
    singular = stack.copy()
    singular[1] = 0.0
    inverse, errors = gated_inverses(singular, [1, 2, 3], "probe")
    assert [e is not None for e in errors] == [False, True, False]
    assert str(errors[1]) == "probe numerically singular at z=2"
    assert np.array_equal(inverse[::2], np.linalg.inv(stack[::2]))


def test_gated_inverses_refuse_matrix_by_matrix():
    """gated_inverses refuses matrix by matrix, one error per refused
    matrix and NaN in its place; the other inverses are
    np.linalg.inv's, and each of their columns is np.linalg.solve's with
    that column of the identity, bit for bit."""
    rng = np.random.default_rng(9)
    stack = np.array([_with_cond(rng, 6, 10.0) for _ in range(4)]) + 0.5j
    stack[2] = 0.0
    inverse, errors = gated_inverses(stack, [0.5, 1.0, 1.5, 2.0], "M*")
    assert [e is None for e in errors] == [True, True, False, True]
    assert str(errors[2]) == "M* numerically singular at z=1.5"
    assert np.isnan(inverse[2]).all()
    E = np.eye(6)[:, [4, 1]]
    for i in (0, 1, 3):
        assert np.array_equal(inverse[i], np.linalg.inv(stack[i]))
        assert np.array_equal(inverse[i][:, [4, 1]],
                              np.linalg.solve(stack[i], E))


# --------------------------------------------------------------------------
# the stacked float assembly
# --------------------------------------------------------------------------

def _loops_and_parallels():
    """Two loops, a pair of parallel edges and a short pendant edge, so
    one energy can put different edges in different kernel regimes."""
    return MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C"), Vertex("D")],
        [Edge("A", "B", 1.0), Edge("A", "B", 0.5), Edge("B", "C", 0.7),
         Edge("C", "C", 1.3), Edge("A", "A", 0.4), Edge("C", "D", 0.05)],
        leads=["A", "D"])


def _assembly_graphs():
    rng = random.Random(21)
    return [_loops_and_parallels()] + [
        make_random_graph(rng, max_vertices=6, max_edges=10)
        for _ in range(3)]


# one list per kernel regime; none of them within 1e-2 of a pole in
# sqrt(z) l for the graphs above
REGIMES = {
    "series": [3e-5, -2e-5, 1e-5 + 2e-5j],
    "zero": [0.0],
    "mixed": [2e-4, -3e-3, 0.03],
    "exponential": [2.7, 11.9, -3.1, -40.0],
    "underflow": [-1e6, -1e12],
    "complex": [2.0 + 1.0j, -5.0 + 0.3j, 40.0 - 2.0j, 0.5j],
}


def test_stack_equals_stacks_of_one_bit_for_bit():
    """An energy's matrix does not depend on the stack it is assembled in,
    whatever the mix of regimes in the stack; the sweeps rely on this."""
    z = np.array([z for zs in REGIMES.values() for z in zs], dtype=complex)
    for g in _assembly_graphs():
        stack = compact_entries(g, z)
        assert stack.shape == (len(z), g.n_vertices, g.n_vertices)
        for zi, M in zip(z, stack):
            assert np.array_equal(M, compact_entries(g, zi))
        for full in (False, True):
            stack, errors = weyl_stack(g, z, full)
            assert errors == [None] * len(z)
            for zi, M in zip(z, stack):
                (one,), _ = weyl_stack(g, [zi], full)
                assert np.array_equal(M, one)


def test_stack_puts_the_identity_at_a_pole():
    """At a pole the stack holds the identity and the PoleProximity of the
    first edge, in edge order, that has the pole there; the other
    energies' matrices are, bit for bit, those of a stack without the
    poles.  (2 pi)^2 is a pole of the edges 0.5 and 1 long, (pi / 0.7)^2
    of the edge 0.7 long only.  weyl_compact and weyl_full raise that
    error."""
    g = _loops_and_parallels()
    z = [2.7, (2 * math.pi) ** 2, -3.1, (math.pi / 0.7) ** 2, 11.9]
    edges = [next(e.id for e in g.edges if e.length in lengths)
             for lengths in ((0.5, 1.0), (0.7,))]
    for full, one in ((False, weyl_compact), (True, weyl_full)):
        stack, errors = weyl_stack(g, z, full)
        assert [e is None for e in errors] == [True, False, True, False,
                                               True]
        assert [(e.z, e.edge) for e in errors if e is not None] == [
            (complex(z[1]), edges[0]), (complex(z[3]), edges[1])]
        for i in (1, 3):
            assert np.array_equal(stack[i], np.eye(g.n_vertices))
            with pytest.raises(PoleProximity) as info:
                one(g, z[i])
            assert str(info.value) == str(errors[i])
        clear, errors = weyl_stack(g, z[::2], full)
        assert errors == [None] * 3
        assert np.array_equal(stack[::2], clear)


def _mp_reference(g, z):
    """The 60-digit mpmath assembly at z, and the scale of each entry: the
    sum of the moduli of its edge terms."""
    with mp.workdps(60):
        ref = compact_entries(g, mp.mpc(z))
        n = g.n_vertices
        want = np.array([[complex(ref[i, j]) for j in range(n)]
                         for i in range(n)])
        scale = np.zeros((n, n))
        idx = {vid: i for i, vid in enumerate(g.vertex_ids())}
        for e in g.edges:
            i, j = idx[e.u], idx[e.v]
            c, s, t = map(abs, mp_edge_kernels(mp.mpc(z), e.length))
            if e.is_loop:
                scale[i, i] += 2 * t
                continue
            scale[i, i] += c
            scale[j, j] += c
            scale[i, j] += s
            scale[j, i] += s
    return want, scale


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_float_stack_matches_60_digit_assembly(regime):
    """Every entry of the float stack is within 1e-13 of the 60-digit
    mpmath assembly, relative to the moduli of the terms it sums (values
    below the double range count as zero)."""
    for g in _assembly_graphs():
        for l in (e.length for e in g.edges):
            for z in REGIMES[regime]:
                k = cmath.sqrt(z)
                assert abs(z) * l * l < 1e-4 or k.imag * l > 40 or \
                    abs(cmath.sin(k * l)) > 1e-2, (z, l)
        stack = compact_entries(g, np.array(REGIMES[regime], dtype=complex))
        for z, M in zip(REGIMES[regime], stack):
            want, scale = _mp_reference(g, z)
            assert (abs(M - want) <= 1e-13 * np.maximum(scale, 1e-300)).all()


def test_pole_test_saturates_far_from_the_real_axis():
    """Where Im(sqrt(z) l) is large, |sin(sqrt(z) l)| overflows a double;
    the pole test reads it as sqrt|z| / |kcsc|, which underflows instead,
    and finds no pole."""
    g = _loops_and_parallels()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M, errors = weyl_stack(g, [complex(-1e9, 1.0), complex(1e8, 1e8)])
    assert errors == [None, None]
    assert np.isfinite(M).all()
