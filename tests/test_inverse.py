"""Recovery of vertex couplings from boundary data."""

import json
import math
import os
import random
import sys
import warnings

import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, ExtrapolationDiverged,
                 InconsistentPaths, MetricGraph, PathSumEstimate,
                 PoleProximity, RtDSamples, SingularBracket, SingularMatrix,
                 SpanningTreePath, Vertex, barycentric, contract,
                 contraction_validation, extract_rtd, f1_contracted,
                 f1_entry, f1_via_determinants, forward_f1_oracle,
                 invert_couplings, parse_graph, recover_couplings,
                 recover_external_couplings, recover_path_sums,
                 robin_to_dirichlet, sigma_external, spanning_tree,
                 weyl_compact)
from qgs.inverse import _contract_along
from qgs.weyl import stack_size


def family_graph(n, seed):
    """A perfbench family graph of n vertices, couplings included."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return parse_graph(json.dumps(inputs.family_graph(random.Random(seed),
                                                      n)))


def chain(*couplings, leads=("V1",)):
    n = len(couplings)
    vs = [Vertex(f"V{i+1}", c) for i, c in enumerate(couplings)]
    # rationally independent lengths keep the recovery theory honest
    es = [Edge(f"V{i+1}", f"V{i+2}", math.sqrt(2 + i)) for i in range(n - 1)]
    return MetricGraph(vs, es, leads=list(leads))


# --------------------------------------------------------------------------
# extraction from scattering data
# --------------------------------------------------------------------------

def test_extraction_matches_direct_block(star3):
    k = CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])
    grid = [0.9, 2.7, 8.1]
    samples = extract_rtd(lambda s: sigma_external(star3, k, s), star3, grid)
    assert list(samples.grid) == grid
    for s, block in zip(samples.grid, samples.values):
        direct = robin_to_dirichlet(star3, k, s)
        assert np.linalg.norm(block - direct) < 1e-9


def test_extraction_two_leads():
    g = MetricGraph(
        [Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge("A", "B", 1.0), Edge("B", "C", 2 ** 0.5)],
        leads=["A", "C"])
    k = CouplingMatrix.from_values(g, [0.5, 1.0, -0.5])
    samples = extract_rtd(lambda s: sigma_external(g, k, s), g, [3.3])
    direct = robin_to_dirichlet(g, k, 3.3)
    assert samples.values[0].shape == (2, 2)
    assert np.linalg.norm(samples.values[0] - direct) < 1e-9


def test_extraction_rejects_nonpositive_energy(lead_interval):
    k = CouplingMatrix.zeros(lead_interval)
    with pytest.raises(ValueError):
        extract_rtd(lambda s: sigma_external(lead_interval, k, s),
                    lead_interval, [-4.0])


def test_extraction_drops_singular_points(lead_interval):
    """At a compact eigenvalue the bracket degenerates: warn and skip."""
    from qgs import compact_spectrum
    k = CouplingMatrix.from_values(lead_interval, [1.0, 0.0])
    z_eig = [e.z for e in compact_spectrum(lead_interval, k, 30.0)
             if e.z > 0][0]
    grid = [z_eig - 0.5, z_eig, z_eig + 0.5]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        samples = extract_rtd(
            lambda s: sigma_external(lead_interval, k, s),
            lead_interval, grid)
    assert len(samples.grid) == 2
    assert any(issubclass(w.category, SingularBracket) for w in rec)


def test_extraction_gates_the_topology_factor_without_an_svd(
        star3, monkeypatch):
    """The topology factor's inverse comes from the condition gate: the
    values are those of np.linalg.cond followed by np.linalg.inv, and a
    well-conditioned grid point needs no np.linalg.cond."""
    from qgs.inverse import _topology_factor
    k = CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])
    grid = [0.9, 2.7, 8.1, 20.5]
    want = []
    for s in grid:
        F2 = _topology_factor(star3, s)
        assert np.linalg.cond(F2) < 1e12
        bracket = np.eye(1) + sigma_external(star3, k, s).entries @ \
            np.linalg.inv(F2)
        want.append((2.0 * np.linalg.inv(bracket) - np.eye(1))
                    / (1j * math.sqrt(s)))
    conds = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda *a, **kw: conds.append(1) or real_cond(*a,
                                                                      **kw))
    samples = extract_rtd(lambda s: sigma_external(star3, k, s), star3, grid)
    assert conds == []
    assert np.array_equal(samples.values, np.array(want))


def test_samples_container_validation():
    with pytest.raises(ValueError):
        RtDSamples(np.array([1.0, 2.0]), np.zeros((3, 1, 1)))


# --------------------------------------------------------------------------
# response entries and contraction
# --------------------------------------------------------------------------

def test_f1_two_routes_agree(star3):
    k = CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])
    for z in (-9.0, -100.0, 2.2):
        a = f1_entry(star3, k, z)
        b = f1_via_determinants(star3, k, z)
        assert a == pytest.approx(b, rel=1e-9)


def test_f1_root_asymptotics(lead_interval):
    """-1/f1(-tau^2) grows like deg * tau + coupling at the probe vertex."""
    k = CouplingMatrix.from_values(lead_interval, [0.4, -0.2])
    tau = 400.0
    f = f1_entry(lead_interval, k, -tau * tau)
    assert -1.0 / f == pytest.approx(tau + 0.4, abs=1e-6)


def test_f1_contracted_matches_merged_graph():
    """Contracting the first chain edge equals probing the merged graph."""
    g = chain(0.3, -0.4, 0.7)
    k = CouplingMatrix.from_graph(g)
    paths = {p.target: p for p in spanning_tree(g, "V1")}
    z = -25.0
    merged = f1_contracted(g, k, paths["V2"], z)
    # direct construction: V1+V2 fused, coupling 0.3 + (-0.4)
    g2 = MetricGraph([Vertex("W", -0.1), Vertex("V3", 0.7)],
                     [Edge("W", "V3", math.sqrt(3.0))])
    direct = f1_entry(g2, CouplingMatrix.from_graph(g2), z, vertex="W")
    assert merged == pytest.approx(direct, rel=1e-10)


def _one_energy_f1(graph, kappa, z, vertex):
    """The entry at one energy, from the assembly and inverse of one
    matrix: weyl_compact, M - K, real when its imaginary part is zero,
    and np.linalg.inv."""
    A = weyl_compact(graph, z).entries - kappa.as_array()
    if not A.imag.any():
        A = A.real
    i = graph.vertex_index(vertex)
    return complex(np.linalg.inv(A)[i, i])


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.int64).tolist()


def test_stacked_f1_is_the_one_energy_entry_bit_for_bit(star3):
    g50 = family_graph(50, seed=3)
    assert stack_size(g50.n_vertices) < 7
    ladder = -(32.0 * 2.0 ** np.arange(7)) ** 2
    mixed = np.array([-4096.0, -1.0, 0.0, 0.75, 2.2, 5.5 + 0.25j, -9.0])
    cases = [
        (star3, CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])),
        (star3, CouplingMatrix.from_values(star3,
                                           [0.7 + 0.3j, -0.2, 0.4j, 0.0])),
        (g50, CouplingMatrix.from_graph(g50)),
        (g50, CouplingMatrix.from_values(
            g50, [a + 0.1j * (i % 3) for i, a in enumerate(
                CouplingMatrix.from_graph(g50).diagonal)])),
    ]
    for g, k in cases:
        for z in (ladder, mixed):
            vertex = g.vertex_ids()[-1]
            stacked = f1_entry(g, k, z, vertex=vertex)
            assert stacked.shape == z.shape
            alone = [f1_entry(g, k, zj, vertex=vertex) for zj in z]
            assert all(isinstance(f, complex) for f in alone)
            want = [_one_energy_f1(g, k, zj, vertex) for zj in z]
            assert _bits(stacked) == _bits(want)
            assert _bits(alone) == _bits(want)


def test_stacked_f1_raises_at_the_first_failing_energy(lead_interval):
    """The Kirchhoff interval is singular at z = 0 exactly, and has a pole
    at pi^2; a stack raises what a loop over its energies raises first,
    in whichever block it falls."""
    k = CouplingMatrix.zeros(lead_interval)

    def loop_error(zs):
        with pytest.raises((SingularMatrix, PoleProximity)) as info:
            for z in zs:
                f1_entry(lead_interval, k, z)
        return info.value

    pole = math.pi ** 2
    for zs in ([-4.0, -1.0, 0.0, -9.0, -16.0], [-1.0, pole, 0.0],
               [-1.0, 0.0, pole], [2.0, 3.0, pole, 0.0]):
        want = loop_error(zs)
        with pytest.raises(type(want)) as info:
            f1_entry(lead_interval, k, np.array(zs))
        assert str(info.value) == str(want)
        assert info.value.z == want.z


def test_stacked_f1_raises_in_a_later_block():
    """A 50-vertex ladder splits into blocks; a refused energy in the
    second block raises the loop's SingularMatrix."""
    g = family_graph(50, seed=3)
    k = CouplingMatrix.from_graph(g)
    z = -(32.0 * 2.0 ** np.arange(9)) ** 2
    size = stack_size(g.n_vertices)
    assert size < 7
    bad = size + 1
    # raising the first coupling by s = 1/(A^-1)_00, A = M(z[bad]) - K,
    # makes det(A - s e0 e0^T) = det(A) (1 - s (A^-1)_00) vanish there
    A = weyl_compact(g, z[bad]).entries - k.as_array()
    shift = 1.0 / np.linalg.inv(A)[0, 0]
    singular = CouplingMatrix.from_values(
        g, [a + (shift if j == 0 else 0.0) for j, a in enumerate(k.diagonal)])
    with pytest.raises(SingularMatrix) as loop:
        for zj in z:
            f1_entry(g, singular, zj)
    with pytest.raises(SingularMatrix) as stacked:
        f1_entry(g, singular, z)
    assert loop.value.z == stacked.value.z == z[bad]
    assert str(stacked.value) == str(loop.value)


def test_f1_via_determinants_on_a_large_graph():
    """On 120 vertices deep on the negative axis det(M - K) overflows;
    the log-determinant ratio still matches the gated inverse."""
    g = family_graph(120, seed=120)
    k = CouplingMatrix.from_graph(g)
    z = -2048.0 ** 2
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.linalg.det(
            weyl_compact(g, z).entries - k.as_array()))
    a = f1_via_determinants(g, k, z)
    assert math.isfinite(a.real)
    assert a == pytest.approx(f1_entry(g, k, z), rel=1e-9)


def _sequential_contraction(graph, kappa, path):
    """The path contracted one edge at a time, each step's edge looked up
    in the graph contracted so far: (graph, merged id)."""
    g = graph.with_couplings(kappa.diagonal)
    merged = path.root
    for vertex, length in zip(path.vertices_on_path[1:],
                              path.ordered_edge_lengths):
        edge = next(e.id for e in g.edges if {e.u, e.v} == {merged, vertex}
                    and abs(e.length - length) <= 1e-12 * max(1.0, length))
        before = set(g.vertex_ids())
        g = contract(g, edge)
        (merged,) = set(g.vertex_ids()) - before
    return g, merged


def test_path_contraction_equals_the_sequential_one():
    """Equal-length parallels in both orientations, ids that sort before
    '(' and a path edge whose length an edge from an earlier path vertex
    shares: one contract call picks and names what the one-edge-at-a-time
    contraction does."""
    g = MetricGraph(
        [Vertex("Z", 0.5), Vertex("!a", -0.25 + 0.5j), Vertex("#b", 1.5),
         Vertex("C", -0.75), Vertex("D", 0.125)],
        [Edge("Z", "!a", 1.0), Edge("!a", "#b", 0.5), Edge("#b", "!a", 0.5),
         Edge("#b", "C", 0.8), Edge("C", "Z", 0.8), Edge("C", "C", 0.3),
         Edge("D", "C", 1.7), Edge("Z", "D", math.sqrt(2))],
        leads=["Z"])
    k = CouplingMatrix.from_graph(g)
    coupled = g.with_couplings(k.diagonal)
    handmade = [SpanningTreePath("Z", target, lengths, len(chain_), chain_)
                for chain_, lengths, target in [
                    (("Z", "!a", "#b"), (1.0, 0.5), "#b"),
                    (("Z", "!a", "#b", "C"), (1.0, 0.5, 0.8), "C"),
                    (("Z", "!a", "#b", "C", "D"), (1.0, 0.5, 0.8, 1.7), "D")]]
    for root in ("Z", "!a", "C"):
        for path in spanning_tree(g, root) + (handmade if root == "Z"
                                              else []):
            if path.root != root:
                continue
            want, merged = _sequential_contraction(g, k, path)
            got, got_k, got_merged = _contract_along(
                coupled if root == "Z" else g.with_couplings(k.diagonal),
                path)
            assert got_merged == merged
            assert got.vertices == want.vertices
            assert got.edges == want.edges and got.leads == want.leads
            assert got_k == CouplingMatrix.from_graph(want)


def test_contraction_is_first_order(star3):
    k = CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])
    paths = {p.target: p for p in spanning_tree(star3, "C")}
    diffs, slope = contraction_validation(star3, k, paths["T2"], -16.0)
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    assert slope >= 0.9


# --------------------------------------------------------------------------
# ladder fits and recovery
# --------------------------------------------------------------------------

def test_recover_path_sums_values():
    g = chain(0.3, -0.4, 0.7)
    k = CouplingMatrix.from_graph(g)
    paths = spanning_tree(g, "V1")
    ests = recover_path_sums(g, forward_f1_oracle(g, k), paths)
    by_target = {e.path.target: e for e in ests}
    assert by_target["V1"].value == pytest.approx(0.3, abs=1e-8)
    assert by_target["V2"].value == pytest.approx(-0.1, abs=1e-8)
    assert by_target["V3"].value == pytest.approx(0.6, abs=1e-8)
    for e in ests:
        assert e.residual < 1e-9


def test_recover_couplings_triangular():
    paths = {p.target: p for p in spanning_tree(chain(0, 0, 0), "V1")}
    ests = [PathSumEstimate(paths["V1"], 0.3, 0.0),
            PathSumEstimate(paths["V2"], -0.4, 0.0),
            PathSumEstimate(paths["V3"], 0.7, 0.0)]
    rec = recover_couplings(ests)
    assert rec["V1"] == pytest.approx(0.3)
    assert rec["V2"] == pytest.approx(-0.7)
    assert rec["V3"] == pytest.approx(1.1)


def test_recover_couplings_missing_parent():
    paths = {p.target: p for p in spanning_tree(chain(0, 0, 0), "V1")}
    ests = [PathSumEstimate(paths["V1"], 0.3, 0.0),
            PathSumEstimate(paths["V3"], 0.7, 0.0)]
    with pytest.raises(InconsistentPaths):
        recover_couplings(ests)


def test_recover_couplings_conflicting_duplicates():
    paths = {p.target: p for p in spanning_tree(chain(0, 0), "V1")}
    ests = [PathSumEstimate(paths["V1"], 0.3, 0.0),
            PathSumEstimate(paths["V1"], 0.9, 0.0),
            PathSumEstimate(paths["V2"], 0.5, 0.0)]
    with pytest.raises(InconsistentPaths):
        recover_couplings(ests)


def test_roundtrip_chain():
    g = chain(0.3, -0.4, 0.7, 1.2)
    k = CouplingMatrix.from_graph(g)
    rec, ests = invert_couplings(g, forward_f1_oracle(g, k))
    for vid, true in zip(g.vertex_ids(), k.diagonal):
        assert abs(rec[vid] - true) < 1e-8
    assert all(e.residual < 1e-8 for e in ests)


def test_roundtrip_multigraph_with_loop():
    g = MetricGraph(
        [Vertex("A", -1.3), Vertex("B", 0.8), Vertex("C", 2.0),
         Vertex("D", -0.6), Vertex("E", 0.05)],
        [Edge("A", "B", 1.0), Edge("A", "B", math.sqrt(2)),
         Edge("B", "C", math.sqrt(3)), Edge("C", "C", math.sqrt(5)),
         Edge("C", "D", math.sqrt(7)), Edge("D", "E", math.sqrt(11)),
         Edge("B", "E", math.sqrt(13))],
        leads=["A"])
    k = CouplingMatrix.from_graph(g)
    rec, _ = invert_couplings(g, forward_f1_oracle(g, k))
    for vid, true in zip(g.vertex_ids(), k.diagonal):
        assert abs(rec[vid] - true) < 1e-6


def test_roundtrip_complex_couplings():
    g = chain(0.3 + 0.2j, -0.4, 0.7 - 0.1j)
    k = CouplingMatrix.from_graph(g)
    rec, _ = invert_couplings(g, forward_f1_oracle(g, k))
    for vid, true in zip(g.vertex_ids(), k.diagonal):
        assert abs(rec[vid] - true) < 1e-8


def test_diverged_fit_raises():
    g = chain(0.3, -0.4)
    k = CouplingMatrix.from_graph(g)
    clean = forward_f1_oracle(g, k)

    def noisy(z, path=None):
        return clean(z, path) * (1.0 + 1e-3 * np.sin(np.abs(z)))

    with pytest.raises(ExtrapolationDiverged):
        invert_couplings(g, noisy, fit_tol=1e-10)


# --------------------------------------------------------------------------
# sampled-data route
# --------------------------------------------------------------------------

def ladder_grid(tau0=32.0, levels=7):
    return [-((tau0 * 2 ** j) ** 2) for j in range(levels)]


def test_barycentric_reproduces_nodes():
    grid = np.array([-4.0, -2.0, -1.0])
    vals = np.array([[[1.0]], [[2.0]], [[5.0]]])
    f = barycentric(grid, vals)
    for g, v in zip(grid, vals):
        assert f(g)[0, 0] == pytest.approx(v[0, 0])


def test_barycentric_interpolates_rational():
    """Berrut trades speed for guaranteed pole-freedom: first-order in the
    node count, converging between nodes."""
    errs = []
    for n in (10, 30, 90):
        grid = np.linspace(-10, -1, n)
        f = barycentric(grid, np.array([1.0 / (3.0 - g) for g in grid]))
        errs.append(abs(f(-5.5) - 1.0 / 8.5) * 8.5)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_recover_external_from_samples():
    g = MetricGraph(
        [Vertex("A", 0.9), Vertex("B", -0.7), Vertex("C", 0.2)],
        [Edge("A", "B", 1.0), Edge("B", "C", 2 ** 0.5)],
        leads=["A", "C"])
    k = CouplingMatrix.from_graph(g)
    grid = ladder_grid()
    blocks = np.array([robin_to_dirichlet(g, k, z) for z in grid])
    samples = RtDSamples(np.array(grid), blocks)
    rec = recover_external_couplings(samples, g)
    assert set(rec) == {"A", "C"}
    assert abs(rec["A"] - 0.9) < 1e-6
    assert abs(rec["C"] - 0.2) < 1e-6


# --------------------------------------------------------------------------
# oracle protocol and the work done per path
# --------------------------------------------------------------------------

def test_forward_oracle_contracts_each_path_once(star3, monkeypatch):
    import qgs.inverse
    calls, entries = [], []
    real_contract, real_entry = qgs.inverse.contract, qgs.inverse.f1_entry

    def counting(graph, edge_ids):
        calls.append(list(edge_ids))
        return real_contract(graph, edge_ids)

    def entry(graph, kappa, z, vertex=None):
        entries.append(len(z))
        return real_entry(graph, kappa, z, vertex)

    monkeypatch.setattr(qgs.inverse, "contract", counting)
    monkeypatch.setattr(qgs.inverse, "f1_entry", entry)
    for g in (star3, chain(0.3, -0.4, 0.7, 1.2)):
        calls.clear()
        entries.clear()
        k = CouplingMatrix.from_values(g, [0.7, -0.2, 0.4, 0.1])
        rec, _ = invert_couplings(g, forward_f1_oracle(g, k))
        paths = spanning_tree(g, g.external_ids()[0])
        # one call per non-root path, with all of the path's edges
        assert [len(ids) for ids in calls] == [p.vertex_count - 1
                                               for p in paths[1:]]
        # one stacked entry call per path, with all its ladder energies
        assert entries == [7] * len(paths)
        for vid, true in zip(g.vertex_ids(), k.diagonal):
            assert abs(rec[vid] - true) < 1e-8


def test_oracle_type_error_is_not_relabelled():
    g = chain(0.3, -0.4, 0.7)
    clean = forward_f1_oracle(g, CouplingMatrix.from_graph(g))

    def faulty(z, path):
        if path.vertex_count > 1:
            raise TypeError("boom")
        return clean(z, path)

    with pytest.raises(TypeError) as info:
        invert_couplings(g, faulty)
    assert str(info.value) == "boom"
    assert info.value.__cause__ is None
