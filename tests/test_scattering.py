"""External scattering matrices and their two factorised routes."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (CouplingMatrix, Edge, FactorisationMismatch, MetricGraph,
                 Vertex, external_factors, lead_matching_oracle,
                 sigma_external, sigma_full, sigma_projected, sigma_sweep)
from qgs.scattering import external_block
from qgs.testing import make_random_graph

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
    assert sm.entries.shape == (g.n_external, g.n_external)


def test_projected_equals_factorised(star3):
    k = CouplingMatrix.from_values(star3, [0.6, -0.2, 0.0, 1.4])
    for s in (0.5, 2.0, 17.3):
        a = sigma_projected(star3, k, s)
        b = sigma_external(star3, k, s)
        assert a.form == "projected"
        assert np.linalg.norm(a.entries - b.entries) \
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
    proj = sigma_projected(star3, k, s).entries
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
    bit, that of sigma_full (a negative tolerance makes it report the
    defect it measured)."""
    rng = random.Random(3)
    for _ in range(6):
        g = make_random_graph(rng, n_leads=2)
        kappa = real_couplings(g)
        for s in (0.7, 2.3, 11.0):
            F1, F2 = external_factors(g, kappa, s)
            assert np.array_equal(sigma_external(g, kappa, s).entries, F1 @ F2)
            projected = sigma_full(g, kappa, s)[external_block(g)]
            with pytest.raises(FactorisationMismatch) as info:
                sigma_external(g, kappa, s, check_tol=-1.0)
            assert info.value.defect == float(
                np.linalg.norm(projected - F1 @ F2))
