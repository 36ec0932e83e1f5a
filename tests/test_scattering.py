"""External scattering matrices and their two factorised routes."""

import cmath
import json
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (CouplingMatrix, Edge, FactorisationMismatch, MetricGraph,
                 NumericalError, PoleProximity, SingularMatrix, Vertex,
                 external_factors, lead_matching_oracle, parse_graph,
                 sigma_external, sigma_full, sigma_sweep)
from qgs import weyl
from qgs.scattering import FACTOR_TOL, _unitarity_defects, scattering_solves
from qgs.weyl import COND_LIMIT, compact_entries, stack_size, weyl_full
from qgs.testing import make_random_graph

from conftest import perfbench, sigma_projected

# frozen regression: interval with a lead at V1, kappa = diag(1, 0), s = 1,
# computed independently at 50 significant digits
SIGMA_REF = complex("0.55454973554964242087539796359"
                    "-0.832150581807055913936887068938j")

lead_graphs = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: make_random_graph(random.Random(seed), n_leads=2))


def real_couplings(g, rng_seed=7):
    rng = random.Random(rng_seed)
    return CouplingMatrix.from_values(
        g, [rng.uniform(-2, 2) for _ in range(g.n_vertices)])


def test_frozen_regression(lead_interval):
    k = CouplingMatrix.from_values(lead_interval, [1.0, 0.0])
    sm = sigma_external(lead_interval, k, 1.0)
    assert abs(sm.entries[0, 0] - SIGMA_REF) < 1e-12
    assert sm.at_s == 1.0
    assert sm.form == "full-factorised"


def test_halfline_closed_form():
    """No compact part at all: reflection off a single delta vertex."""
    g = MetricGraph([Vertex("O", 0.7)], [], leads=["O"])
    s = 2.0
    ik = 1j * math.sqrt(s)
    sm = sigma_external(g, CouplingMatrix.from_graph(g), s)
    assert sm.entries[0, 0] == pytest.approx((0.7 + ik) / (ik - 0.7))


def test_zero_coupling_is_transparent(lead_interval):
    # Kirchhoff conditions everywhere: the lead sees a plain reflection
    # determined by the graph; with kappa=0 the full/factorised routes both
    # reduce to a unitary scalar of modulus one
    sm = sigma_external(lead_interval, CouplingMatrix.zeros(lead_interval),
                        3.7)
    assert abs(abs(sm.entries[0, 0]) - 1.0) < 1e-12


def test_zero_coupling_identity_multi_lead():
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge("A", "B", 1.0), Edge("B", "C", 2 ** 0.5),
         Edge("A", "C", 3 ** 0.5)],
        leads=["A", "B", "C"])
    # with kappa = 0 the two factors coincide, so sigma is exactly the
    # identity-conjugated product; unitarity must hold to round-off
    sm = sigma_external(g, CouplingMatrix.zeros(g), 5.0)
    assert sm.unitarity_defect < 1e-12


@given(lead_graphs, st.floats(min_value=0.2, max_value=60.0))
@settings(max_examples=40, deadline=None)
def test_unitarity_random(g, s):
    k = real_couplings(g)
    try:
        sm = sigma_external(g, k, s)
    except Exception:
        return  # poles / conditioning: other tests pin those paths
    assert sm.unitarity_defect < 1e-8
    n_external = len(g.external_ids())
    assert sm.entries.shape == (n_external, n_external)


def test_projected_equals_factorised(star3):
    k = CouplingMatrix.from_values(star3, [0.6, -0.2, 0.0, 1.4])
    for s in (0.5, 2.0, 17.3):
        a = sigma_projected(star3, k, s)
        b = sigma_external(star3, k, s)
        assert b.form == "full-factorised"
        assert np.linalg.norm(a - b.entries) \
            < 1e-10 * (1 + np.linalg.norm(b.entries))


def test_topology_factor_ignores_couplings(star3):
    k1 = CouplingMatrix.from_values(star3, [0.6, -0.2, 0.0, 1.4])
    k2 = CouplingMatrix.from_values(star3, [-1.0, 0.3, 0.9, 0.0])
    _, F2a = external_factors(star3, k1, 4.2)
    _, F2b = external_factors(star3, k2, 4.2)
    assert np.array_equal(F2a, F2b)


def test_coupling_factor_carries_couplings(star3):
    k1 = CouplingMatrix.from_values(star3, [0.6, -0.2, 0.0, 1.4])
    k2 = CouplingMatrix.from_values(star3, [-1.0, 0.3, 0.9, 0.0])
    F1a, _ = external_factors(star3, k1, 4.2)
    F1b, _ = external_factors(star3, k2, 4.2)
    assert np.linalg.norm(F1a - F1b) > 1e-3


def test_full_matrix_shape_and_external_block(star3):
    k = CouplingMatrix.from_values(star3, [0.6, -0.2, 0.0, 1.4])
    s = 2.9
    full = sigma_full(star3, k, s)
    assert full.shape == (4, 4)
    ext = [star3.vertex_index(v) for v in star3.external_ids()]
    proj = sigma_projected(star3, k, s)
    assert np.linalg.norm(full[np.ix_(ext, ext)] - proj) < 1e-12


# --------------------------------------------------------------------------
# plane-wave matching oracle
# --------------------------------------------------------------------------

def test_oracle_single_vertex_reflection():
    g = MetricGraph([Vertex("O", -0.4)], [], leads=["O"])
    s = 3.0
    ik = 1j * math.sqrt(s)
    R = lead_matching_oracle(g, CouplingMatrix.from_graph(g), s)
    assert R[0, 0] == pytest.approx((-0.4 + ik) / (ik + 0.4))


def test_oracle_is_unitary_and_symmetric():
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge("A", "B", 1.0), Edge("B", "C", 2 ** 0.5),
         Edge("A", "C", 3 ** 0.5)],
        leads=["A", "C"])
    k = CouplingMatrix.from_values(g, [0.8, -0.3, 1.1])
    for s in (0.9, 4.4, 26.0):
        R = lead_matching_oracle(g, k, s)
        n = R.shape[0]
        assert np.linalg.norm(R @ R.conj().T - np.eye(n)) < 1e-10
        assert np.linalg.norm(R - R.T) < 1e-10


def test_oracle_transmission_through_interval(lead_interval):
    """Kirchhoff interval with one lead: incoming wave reflects with unit
    modulus; the compact side stores the phase."""
    R = lead_matching_oracle(lead_interval,
                             CouplingMatrix.zeros(lead_interval), 2.0)
    assert abs(abs(R[0, 0]) - 1.0) < 1e-12


def test_oracle_free_edge_transmits_with_its_phase():
    """Edge A-B with leads at both ends and no couplings is a free line:
    nothing reflects and each lead sees the other's wave delayed by e^{ikl}."""
    l, s = 1.3, 2.7
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", l)],
                    leads=["A", "B"])
    R = lead_matching_oracle(g, CouplingMatrix.zeros(g), s)
    t = cmath.exp(1j * math.sqrt(s) * l)
    assert np.abs(R - np.array([[0.0, t], [t, 0.0]])).max() < 1e-15


def test_oracle_delta_reflection_on_a_line():
    """A coupling a at A of the same line reflects |R_AA|^2 = a^2/(a^2+4k^2),
    the delta potential's closed form."""
    l, s, a = 1.3, 2.7, 0.9
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", l)],
                    leads=["A", "B"])
    R = lead_matching_oracle(g, CouplingMatrix.from_values(g, [a, 0.0]), s)
    assert abs(abs(R[0, 0]) ** 2 - a * a / (a * a + 4.0 * s)) < 1e-15


def test_oracle_and_sigma_both_unitary_not_identical(star3):
    """The two conventions parametrise the same physics differently; they
    are separately unitary but differ as matrices."""
    k = CouplingMatrix.from_values(star3, [0.6, 0.0, 0.0, 0.0])
    s = 2.0
    sm = sigma_external(star3, k, s)
    R = lead_matching_oracle(star3, k, s)
    assert sm.unitarity_defect < 1e-10
    assert np.linalg.norm(R @ R.conj().T - np.eye(1)) < 1e-10


def test_oracle_factorises_its_system_once(star3, monkeypatch):
    """The amplitudes come from the condition gate's own inverse: the
    oracle answers without a second factorisation by np.linalg.solve."""
    k = CouplingMatrix.from_values(star3, [0.6, 0.0, 0.0, 0.0])
    want = lead_matching_oracle(star3, k, 2.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert np.abs(lead_matching_oracle(star3, k, 2.0) - want).max() == 0.0
    assert np.linalg.norm(want @ want.conj().T - np.eye(1)) < 1e-10


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def test_sweep_skips_poles(lead_interval):
    k = CouplingMatrix.zeros(lead_interval)
    grid = [1.0, math.pi ** 2, 4.0]
    mats, skipped = sigma_sweep(lead_interval, k, grid)
    assert len(mats) == 2
    assert len(skipped) == 1
    assert skipped[0][0] == pytest.approx(math.pi ** 2)


def test_sweep_reports_the_pole_not_its_placeholder(lead_interval):
    """At a pole the solves see an identity in M's place; with a coupling
    of 1, M - K is then singular, which must not mask the pole."""
    k = CouplingMatrix.from_values(lead_interval, [1.0, 1.0])
    mats, skipped = sigma_sweep(lead_interval, k, [1.0, math.pi ** 2, 4.0])
    assert len(mats) == 2
    assert [type(exc) for _, exc in skipped] == [PoleProximity]


def test_solves_report_each_energy_by_pole_then_m_minus_k_then_m_star(
        lead_interval, monkeypatch):
    """Per energy, scattering_solves reports the first of: the pole from
    the assembly, the gate's refusal of M - K, its refusal of M*.  Here the
    gates are told to refuse M - K at the 2nd and 3rd energies and M* at
    the 2nd to 4th, and the 2nd is a pole, so the errors read pole, M - K,
    M*; the refused energies' rows and columns are NaN, and the others are
    bit for bit those of each energy alone."""
    import qgs.scattering
    k = CouplingMatrix.from_values(lead_interval, [0.3, -0.2])
    grid = [1.0, math.pi ** 2, 4.0, 6.5, 12.0]
    forced = {"M - coupling": (1, 2), "M*": (1, 2, 3)}
    real_gate = qgs.scattering.gated_inverses

    def gate(A, z, what):
        inverse, errors = real_gate(A, z, what)
        if len(z) < len(grid):
            return inverse, errors
        return inverse, [SingularMatrix(zi, what) if i in forced[what]
                         else e for i, (zi, e) in enumerate(zip(z, errors))]

    alone = {s: scattering_solves(lead_interval, k, [s], [0])
             for s in (1.0, 12.0)}
    monkeypatch.setattr(qgs.scattering, "gated_inverses", gate)
    rows, cols, errors = scattering_solves(lead_interval, k, grid, [0])
    assert [type(e) for e in errors] == [
        type(None), PoleProximity, SingularMatrix, SingularMatrix,
        type(None)]
    assert [str(e) for e in errors[2:4]] == [
        "M - coupling numerically singular at z=4.0",
        "M* numerically singular at z=6.5"]
    assert np.isnan(rows[1:4]).all() and np.isnan(cols[1:4]).all()
    for i, s in ((0, 1.0), (4, 12.0)):
        assert np.array_equal(rows[i], alone[s][0][0])
        assert np.array_equal(cols[i], alone[s][1][0])


def test_sweep_preserves_order(star3):
    k = CouplingMatrix.from_values(star3, [0.1, 0.0, 0.0, 0.0])
    grid = [5.0, 1.0, 3.0]
    mats, skipped = sigma_sweep(star3, k, grid)
    assert not skipped
    assert [m.at_s for m in mats] == grid


def test_sweep_passes_check_tol_and_keeps_the_exception(star3):
    """A negative tolerance fails every cross-check, so each point is
    skipped together with the FactorisationMismatch it raised."""
    k = CouplingMatrix.from_values(star3, [0.1, 0.0, 0.0, 0.0])
    grid = [1.0, 2.5, 4.0]
    mats, skipped = sigma_sweep(star3, k, grid, check_tol=-1.0)
    assert mats == []
    assert [s for s, _ in skipped] == grid
    assert all(isinstance(exc, FactorisationMismatch) for _, exc in skipped)


def test_phase_continuity_along_grid(lead_interval):
    """Scattering entries move continuously in s away from poles."""
    k = CouplingMatrix.from_values(lead_interval, [0.5, -0.5])
    grid = np.linspace(1.0, 2.0, 11)
    mats, skipped = sigma_sweep(lead_interval, k, grid)
    assert not skipped
    vals = np.array([m.entries[0, 0] for m in mats])
    steps = np.abs(np.diff(vals))
    assert steps.max() < 0.2


def test_external_forms_share_one_solve_bit_for_bit():
    """sigma_external's entries are, bit for bit, the product of
    external_factors, and the projection it checks them against is, bit for
    bit, the external rows of the left factor times the external columns of
    the right one, as scattering_solves gives them for the external index
    set: the external block of sigma_full, which takes every row and
    column, up to rounding (a negative tolerance makes it report the
    defect it measured)."""
    rng = random.Random(3)
    for _ in range(6):
        g = make_random_graph(rng, n_leads=2)
        kappa = real_couplings(g)
        ext = g.external_indices()
        for s in (0.7, 2.3, 11.0):
            F1, F2 = external_factors(g, kappa, s)
            assert np.array_equal(sigma_external(g, kappa, s).entries, F1 @ F2)
            (rows,), (cols,), (error,) = scattering_solves(g, kappa, [s], ext)
            assert error is None
            assert np.array_equal(rows[:, ext], F1)
            assert np.array_equal(cols[ext, :], F2)
            projected = rows @ cols
            assert np.allclose(projected, sigma_projected(g, kappa, s),
                               rtol=0, atol=1e-13)
            with pytest.raises(FactorisationMismatch) as info:
                sigma_external(g, kappa, s, check_tol=-1.0)
            assert info.value.defect == float(
                np.linalg.norm(projected - F1 @ F2, axis=(-2, -1)))


def _family_graph(n, seed):
    """A perfbench family graph of n vertices and 6 leads, couplings
    included."""
    inputs = perfbench("inputs")
    g = parse_graph(json.dumps(inputs.family_graph(random.Random(seed), n,
                                                   n_leads=6)))
    return g, CouplingMatrix.from_graph(g)


def _per_energy_reference(graph, kappa, grid, check_tol):
    """The sweep as computed one energy at a time, before stacking:
    weyl_full, the SVD gate np.linalg.cond(A) > COND_LIMIT, one 2-D solve
    per factor (left, then right), and the external block of the n x n
    product as the cross-check.  Returns (matrices, skipped) like
    sigma_sweep, with bare entry arrays for matrices."""
    order = graph.vertex_ids()
    ext = [order.index(v) for v in graph.external_ids()]
    block = np.ix_(ext, ext)
    K = kappa.as_array()
    matrices, skipped = [], []
    for s in grid:
        try:
            M = weyl_full(graph, s)
            Ms = M.conj().T
            factors = []
            for A, B, what in ((M - K, Ms - K, "M - coupling"),
                               (Ms, M, "M*")):
                if np.linalg.cond(A) > COND_LIMIT:
                    raise SingularMatrix(s, what)
                factors.append(np.linalg.solve(A, B))
            left, right = factors
            factorised = left[block] @ right[block]
            defect = float(np.linalg.norm((left @ right)[block] - factorised))
            scale = max(1.0, float(np.linalg.norm(factorised)))
            if defect > check_tol * scale:
                raise FactorisationMismatch(s, defect, check_tol)
            matrices.append((float(s), factorised))
        except NumericalError as exc:
            skipped.append((float(s), exc))
    return matrices, skipped


SWEEP_TOL = 1e-11   # entries against the full-solve reference, absolute


@pytest.mark.parametrize("n", [5, 50, 100])
@pytest.mark.parametrize("block_bytes", [None, 7 * 16 * 5 * 5])
def test_sweep_is_bit_equal_to_one_energy_at_a_time(n, block_bytes,
                                                    monkeypatch):
    """A sweep's results are, bit for bit, those of a sweep of each energy
    alone (sigma_external's), so blocks do not change them.  Against the
    per-energy full-solve computation the sweep replaced, it skips the
    same energies for the same reasons (a mismatch's defect is measured on
    a different product, so only its kind is compared), and its matrices
    agree to SWEEP_TOL: the two take the factors by different arithmetic
    (on these grids they differ by 3.4e-13 at most).  The default block
    budget takes the 5-vertex grid in one block and the 50-vertex one in
    blocks of 6; the small one cuts the 5-vertex grid into blocks of 7.
    The grid holds two poles of the first edge, and a negative tolerance
    turns every other point into a reported mismatch."""
    if block_bytes is not None:
        monkeypatch.setattr(weyl, "BLOCK_BYTES", block_bytes)
    g, kappa = _family_graph(n, seed=n)
    l0 = g.edges[0].length
    grid = sorted([0.3 + 0.41 * i for i in range(23)]
                  + [(math.pi / l0) ** 2, (2 * math.pi / l0) ** 2])
    for tol in (1e-10, -1.0):
        got = sigma_sweep(g, kappa, grid, tol)
        alone = [sigma_sweep(g, kappa, [s], tol) for s in grid]
        matrices = [m for ms, _ in alone for m in ms]
        assert [m.at_s for m in got[0]] == [m.at_s for m in matrices]
        for m, m_alone in zip(got[0], matrices):
            assert np.array_equal(m.entries, m_alone.entries)
        assert [(s, type(e), str(e)) for s, e in got[1]] == [
            (s, type(e), str(e)) for _, sk in alone for s, e in sk]

        want = _per_energy_reference(g, kappa, grid, tol)
        assert [m.at_s for m in got[0]] == [s for s, _ in want[0]]
        for m, (_, entries) in zip(got[0], want[0]):
            assert np.abs(m.entries - entries).max() <= SWEEP_TOL

        def reasons(skipped):
            return [(s, type(e), None if isinstance(e, FactorisationMismatch)
                     else str(e)) for s, e in skipped]
        assert reasons(got[1]) == reasons(want[1])
        kinds = {type(e) for _, e in got[1]}
        assert PoleProximity in kinds
        assert (FactorisationMismatch in kinds) == (tol < 0)
        assert len(got[0]) + len(got[1]) == len(grid)


@pytest.mark.parametrize("n", [5, 50, 100])
def test_rows_come_from_the_gates_inverse(n, monkeypatch):
    """A block of scattering_solves takes two inverses, the gates' of
    (M - K)^T and of M*, and no solve: its rows are the idx columns of the
    first inverse, transposed, times M* - K, bit for bit what a thin solve
    with (M - K)^T and the idx columns of the identity gives."""
    g, kappa = _family_graph(n, seed=n)
    ext = g.external_indices()
    grid = [0.3 + 0.41 * i for i in range(min(stack_size(n), 6))]
    M, errors = weyl.weyl_stack(g, np.array(grid), full=True)
    assert errors == [None] * len(grid)
    K = kappa.as_array()
    E = np.eye(n)[:, ext]
    Y = np.linalg.solve((M - K).swapaxes(1, 2),
                        np.broadcast_to(E, (len(M),) + E.shape))
    want = Y.swapaxes(1, 2) @ (M.conj().swapaxes(1, 2) - K)

    calls = []
    for name in ("solve", "inv"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda *a, name=name, real=real, **kw: calls.append(name)
            or real(*a, **kw))
    rows, _, errors = scattering_solves(g, kappa, grid, ext)
    assert calls == ["inv", "inv"]
    assert errors == [None] * len(grid)
    assert rows.tobytes() == want.tobytes()


def _mp_sigma_external(graph, kappa, s, dps=30):
    """The external block of (M - K)^-1 (M* - K) (M*)^-1 M at s, with M
    assembled and every product taken in mpmath at dps digits."""
    with mp.workdps(dps):
        M = compact_entries(graph, mp.mpf(s))
        ext = graph.external_indices()
        for i in ext:
            M[i, i] += 1j * mp.sqrt(mp.mpf(s))
        K = mp.diag([mp.mpc(a) for a in kappa.diagonal])
        Ms = M.transpose_conj()
        S = mp.inverse(M - K) * (Ms - K) * mp.inverse(Ms) * M
        return np.array([[complex(S[i, j]) for j in ext] for i in ext])


@pytest.mark.parametrize("s", [8.312, 8.313])
def test_sweep_is_as_accurate_as_full_solves_when_ill_conditioned(s):
    """Near a resonance of a 20-vertex family graph, where cond(M - K)
    reaches 7.0e6 and 3.5e7, the sweep's S is no further from a 30-digit
    one than the per-energy full-solve reference's is (within a factor 2
    and 1e-14)."""
    g, kappa = _family_graph(20, seed=8)
    (M,), _ = weyl.weyl_stack(g, [s], full=True)
    assert np.linalg.cond(M - kappa.as_array()) >= 1e6
    exact = _mp_sigma_external(g, kappa, s)
    (got,), _ = sigma_sweep(g, kappa, [s])
    ((_, want),), _ = _per_energy_reference(g, kappa, [s], FACTOR_TOL)
    error = np.abs(got.entries - exact).max()
    assert error <= 2 * np.abs(want - exact).max() + 1e-14


@pytest.mark.parametrize("s", [-4.0, -1.0, 0.0])
def test_nonpositive_energy_is_refused(star3, s):
    """The lead sees no propagating wave at s <= 0: every form refuses the
    energy, naming it, instead of answering."""
    k = CouplingMatrix.from_values(star3, [0.1, 0.0, 0.0, 0.0])
    for call in (lambda: sigma_external(star3, k, s),
                 lambda: sigma_full(star3, k, s),
                 lambda: external_factors(star3, k, s),
                 lambda: sigma_projected(star3, k, s),
                 lambda: sigma_sweep(star3, k, [2.0, 3.0, s])):
        with pytest.raises(ValueError, match=f"s={s:g}"):
            call()


def _stacks(m, rng):
    """Random complex, QR-unitary and real stacks of m x m matrices, with
    entries from 1e-8 to 1e3, and a stack of one."""
    for scale in (1e-8, 1.0, 1e3):
        shape = (9, m, m)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield scale * z
        q = np.linalg.qr(z)[0]
        yield q + scale * 1e-12 * rng.standard_normal(shape)
        yield scale * rng.standard_normal(shape)
        yield scale * z[:1]


@pytest.mark.parametrize("m", range(1, 11))
def test_stacked_unitarity_defect_is_np_linalg_norm_bit_for_bit(m):
    """The stacked defect of each matrix is, exactly, the one-matrix
    formula np.linalg.norm(S*S - I): the sweep prints it with 17 digits."""
    rng = np.random.default_rng(m)
    for S in _stacks(m, rng):
        got = _unitarity_defects(S).tolist()
        assert got == [float(np.linalg.norm(a.conj().T @ a - np.eye(m)))
                       for a in S]


def test_sweep_unitarity_defects_are_each_energy_alone(monkeypatch):
    """On a 3-lead graph swept in blocks of 4, each point's defect is
    sigma_external's at that energy alone, bit for bit, and the
    one-matrix formula on its entries."""
    g = make_random_graph(random.Random(3), n_leads=3)
    kappa = CouplingMatrix.from_graph(g)
    monkeypatch.setattr(weyl, "BLOCK_BYTES", 4 * 16 * g.n_vertices ** 2)
    assert stack_size(g.n_vertices) == 4
    grid = [0.5 + 0.37 * i for i in range(11)]
    matrices, skipped = sigma_sweep(g, kappa, grid)
    assert not skipped and len(matrices) == len(grid)
    for sm in matrices:
        assert sm.entries.shape == (3, 3)
        alone = sigma_external(g, kappa, sm.at_s)
        assert sm.unitarity_defect == alone.unitarity_defect < 1e-12
        assert type(sm.unitarity_defect) is float
        assert sm.unitarity_defect == float(np.linalg.norm(
            sm.entries.conj().T @ sm.entries - np.eye(3)))


def test_sweep_builds_the_dense_coupling_matrix_once(star3, monkeypatch):
    """Every block of a sweep takes the same dense coupling matrix."""
    calls = []
    real = CouplingMatrix.as_array
    monkeypatch.setattr(CouplingMatrix, "as_array",
                        lambda self: calls.append(1) or real(self))
    monkeypatch.setattr(weyl, "BLOCK_BYTES", 2 * 16 * star3.n_vertices ** 2)
    k = CouplingMatrix.from_values(star3, [0.1, 0.0, 0.0, 0.0])
    matrices, _ = sigma_sweep(star3, k, [1.0 + i for i in range(7)])
    assert len(matrices) == 7
    assert len(calls) == 1
