"""Recovery of vertex couplings from boundary data."""

import json
import math
import random
import warnings

import numpy as np
import pytest

from qgs import (CouplingMatrix, Edge, ExtrapolationDiverged, GraphError,
                 InconsistentPaths, MetricGraph, PathSumEstimate,
                 PoleProximity, RtDSamples, SingularBracket, SingularMatrix,
                 SpanningTreePath, UnknownEdge, Vertex, barycentric, contract,
                 extract_rtd, f1_contracted, f1_entry, forward_f1_oracle,
                 invert_couplings, ladder_tau0, parse_graph,
                 recover_couplings, recover_external_couplings,
                 recover_path_sums, robin_to_dirichlet, serialize_graph,
                 sigma_external, spanning_tree, weyl_compact)
from qgs.cli import main
from qgs.inverse import _contract_along
from qgs.weyl import stack_size

from conftest import contraction_validation, f1_via_determinants, perfbench


def family_graph(n, seed):
    """A perfbench family graph of n vertices, couplings included."""
    inputs = perfbench("inputs")
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


@pytest.mark.parametrize("gate", ["M*", "topology factor"])
def test_extraction_drops_a_point_whose_topology_factor_is_refused(
        star3, monkeypatch, gate):
    """A refusal of the topology factor, by the gate of M* in its solve or
    by the gate of its own inverse, drops that grid point with one
    SingularBracket warning and keeps the others as they were."""
    import qgs.inverse
    import qgs.scattering
    k = CouplingMatrix.from_values(star3, [0.7, -0.2, 0.4, 0.0])
    grid = [0.9, 2.7, 8.1]
    sigma = {s: sigma_external(star3, k, s) for s in grid}
    want = extract_rtd(sigma.get, star3, grid)
    module = qgs.scattering if gate == "M*" else qgs.inverse
    real_gate = module.gated_inverses

    def refuse(A, z, what):
        inverse, errors = real_gate(A, z, what)
        if what == gate and z == [2.7]:
            errors = [SingularMatrix(2.7, what)]
        return inverse, errors
    monkeypatch.setattr(module, "gated_inverses", refuse)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        samples = extract_rtd(sigma.get, star3, grid)
    assert [(w.category, str(w.message)) for w in rec] == [
        (SingularBracket, "topology factor singular at s=2.7; point dropped")]
    assert list(samples.grid) == [0.9, 8.1]
    assert np.array_equal(samples.values, want.values[[0, 2]])


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
    A = weyl_compact(graph, z) - kappa.as_array()
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
    A = weyl_compact(g, z[bad]) - k.as_array()
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


def _chain_abc():
    """The chain A-B-C, lengths 1 and sqrt 2, with leads at both ends."""
    return MetricGraph(
        [Vertex("A", 0.9), Vertex("B", -0.7), Vertex("C", 0.2)],
        [Edge("A", "B", 1.0), Edge("B", "C", math.sqrt(2))],
        leads=["A", "C"])


@pytest.mark.parametrize("z", [-9.0, -0.3, 0.5, 7.7, 2.0 + 0.5j,
                               -1.0 - 0.25j])
def test_rtd_diagonal_is_f1_entry_bit_for_bit(z):
    """robin_to_dirichlet and f1_entry read one gated inverse, so their
    entries agree bit for bit, at real energies (inverted in real
    arithmetic, with real couplings) and at complex ones alike."""
    g = _chain_abc()
    for k in (CouplingMatrix.from_graph(g),
              CouplingMatrix.from_values(g, [0.9, -0.7 + 0.2j, 0.2])):
        R = robin_to_dirichlet(g, k, z)
        assert R.shape == (2, 2) and R.dtype == complex
        assert _bits([R[0, 0], R[1, 1]]) == _bits(
            [f1_entry(g, k, z, v) for v in ("A", "C")])


def test_rtd_of_an_array_is_the_per_energy_blocks_bit_for_bit(
        lead_interval):
    """An array of energies gives the stack of the one-energy blocks, bit
    for bit and complex, across the stacks of a 50-vertex graph too; a
    failing energy raises what a loop over the energies raises first."""
    g50 = family_graph(50, seed=3)
    assert stack_size(g50.n_vertices) < 7
    z = np.array([-4096.0, -1.0, 0.0, 0.75, 2.2, 5.5 + 0.25j, -9.0, 3.1])
    for g, k in ((_chain_abc(), CouplingMatrix.from_graph(_chain_abc())),
                 (g50, CouplingMatrix.from_graph(g50))):
        stacked = robin_to_dirichlet(g, k, z)
        n_ext = len(g.external_ids())
        assert stacked.shape == (len(z), n_ext, n_ext)
        assert stacked.dtype == complex
        alone = [robin_to_dirichlet(g, k, zj) for zj in z]
        assert _bits(stacked) == _bits(alone)

    k = CouplingMatrix.zeros(lead_interval)
    pole = math.pi ** 2
    for zs in ([-4.0, -1.0, 0.0, -9.0], [-1.0, pole, 0.0],
               [-1.0, 0.0, pole]):
        with pytest.raises((SingularMatrix, PoleProximity)) as loop:
            for zj in zs:
                robin_to_dirichlet(lead_interval, k, zj)
        with pytest.raises(type(loop.value)) as stacked:
            robin_to_dirichlet(lead_interval, k, np.array(zs))
        assert str(stacked.value) == str(loop.value)
        assert stacked.value.z == loop.value.z


def test_f1_via_determinants_on_a_large_graph():
    """On 120 vertices deep on the negative axis det(M - K) overflows;
    the log-determinant ratio still matches the gated inverse."""
    g = family_graph(120, seed=120)
    k = CouplingMatrix.from_graph(g)
    z = -2048.0 ** 2
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.linalg.det(
            weyl_compact(g, z) - k.as_array()))
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

    def noisy(z, paths):
        return clean(z, paths) * (1.0 + 1e-3 * np.sin(np.abs(z)))

    with pytest.raises(ExtrapolationDiverged):
        invert_couplings(g, noisy, fit_tol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_non_finite_samples_diverge_on_their_path(bad):
    """An oracle value that makes a sample -1/f - tau D nan or infinite
    fails that path's fit, named, whatever the other paths hold."""
    g = chain(0.3, -0.4, 0.7)
    clean = forward_f1_oracle(g, CouplingMatrix.from_graph(g))
    paths = spanning_tree(g, "V1")

    def spoiled(z, paths):
        values = clean(z, paths)
        values[2, 3] = bad
        return values

    with pytest.raises(ExtrapolationDiverged,
                       match=f"for path to {paths[2].target!r}$"):
        recover_path_sums(g, spoiled, paths)


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
    samples = RtDSamples(np.array(grid), robin_to_dirichlet(g, k, grid))
    rec = recover_external_couplings(samples, g)
    assert set(rec) == {"A", "C"}
    assert abs(rec["A"] - 0.9) < 1e-6
    assert abs(rec["C"] - 0.2) < 1e-6


def test_recover_external_refuses_samples_short_of_the_ladder():
    """Samples that stop short of the ladder's deepest energy
    -(tau0 * 2^(levels - 1))^2 are refused with ValueError, where they used
    to be extrapolated with a warning; exact samples down to it are
    fitted."""
    g = chain(0.9, -0.7)
    k = CouplingMatrix.from_graph(g)
    grid = np.array(ladder_grid())
    samples = RtDSamples(grid, robin_to_dirichlet(g, k, grid))
    assert recover_external_couplings(samples, g)["V1"] == \
        pytest.approx(0.9, abs=1e-6)
    short = RtDSamples(grid[:-1], samples.values[:-1])
    with pytest.raises(ValueError, match=r"reaches only z=-1\.04858e\+06; "
                       r"the probe ladder needs z=-4\.1943e\+06$"):
        recover_external_couplings(short, g)
    with pytest.raises(ValueError, match="z=-1.67772e[+]07$"):
        recover_external_couplings(samples, g, levels=8)


def test_recover_external_refuses_a_ladder_too_deep_for_doubles():
    """Exact samples on the ladder from tau0 = 1e16: one ulp of the deepest
    drift tau * D is 128, so the samples keep no digit of the coupling.
    The fit refuses, naming the vertex, where it used to return 0; from
    tau0 = 1e10 it still recovers the coupling."""
    g = chain(0.9, -0.7)
    k = CouplingMatrix.from_graph(g)

    def samples(tau0):
        grid = ladder_grid(tau0)
        return RtDSamples(np.array(grid), robin_to_dirichlet(g, k, grid))

    rec = recover_external_couplings(samples(1e10), g, tau0=1e10)
    assert rec["V1"] == pytest.approx(0.9, abs=1e-4)
    with pytest.raises(ExtrapolationDiverged,
                       match="1.280e[+]02 > .* for path to 'V1'$"):
        recover_external_couplings(samples(1e16), g, tau0=1e16)


def test_recover_external_from_samples_of_another_topology_diverges():
    """Samples of a graph with one more A-B edge than the topology: A's
    degree, and so the drift tau * D, is one short, which no term of the
    fit absorbs.  The fit of A's root path refuses, naming A."""
    vertices = [Vertex("A", 0.9), Vertex("B", -0.7), Vertex("C", 0.2)]
    edges = [Edge("A", "B", 1.0), Edge("B", "C", 2 ** 0.5)]
    topology = MetricGraph(vertices, edges, leads=["A", "C"])
    truth = MetricGraph(vertices, edges + [Edge("A", "B", 3 ** 0.5)],
                        leads=["A", "C"])
    k = CouplingMatrix.from_graph(truth)
    grid = ladder_grid()
    samples = RtDSamples(np.array(grid), robin_to_dirichlet(truth, k, grid))
    assert recover_external_couplings(samples, truth)["A"] == \
        pytest.approx(0.9, abs=1e-6)
    with pytest.raises(ExtrapolationDiverged, match="for path to 'A'$"):
        recover_external_couplings(samples, topology)


# --------------------------------------------------------------------------
# oracle protocol, the work done per ladder, and refusals
# --------------------------------------------------------------------------

def test_forward_oracle_gates_each_ladder_energy_once(star3, monkeypatch):
    """One oracle call per ladder; it builds no contracted graph and
    assembles and gates each energy once, in stacks of stack_size(n), for
    all paths together."""
    import qgs.inverse
    import qgs.weyl
    contracted, stacks = [], []
    real_gate = qgs.weyl.gated_inverses

    def gate(A, z, what):
        stacks.append(len(A))
        return real_gate(A, z, what)

    monkeypatch.setattr(qgs.inverse, "contract",
                        lambda *args: contracted.append(args))
    monkeypatch.setattr(qgs.inverse, "f1_entry",
                        lambda *args: contracted.append(args))
    monkeypatch.setattr(qgs.weyl, "gated_inverses", gate)
    g70 = family_graph(70, seed=7)
    assert stack_size(g70.n_vertices) == 3
    for g, want in ((star3, [7]), (chain(0.3, -0.4, 0.7, 1.2), [7]),
                    (g70, [3, 3, 1])):
        stacks.clear()
        k = CouplingMatrix.from_graph(g) if g is g70 else \
            CouplingMatrix.from_values(g, [0.7, -0.2, 0.4, 0.1])
        oracle = forward_f1_oracle(g, k)
        calls = []

        def counted(z, paths):
            calls.append((len(z), len(paths)))
            return oracle(z, paths)

        rec, _ = invert_couplings(g, counted)
        assert calls == [(7, g.n_vertices)]
        assert stacks == want
        for vid, true in zip(g.vertex_ids(), k.diagonal):
            assert abs(rec[vid] - true) < 1e-8
    assert contracted == []


def test_recover_path_sums_refuses_an_oracle_of_the_wrong_shape():
    g = chain(0.3, -0.4, 0.7)
    clean = forward_f1_oracle(g, CouplingMatrix.from_graph(g))
    with pytest.raises(ValueError, match=r"shape \(7,\) for 3 paths"):
        invert_couplings(g, lambda z, paths: clean(z, paths)[0])


def test_forward_oracle_refuses_a_path_off_the_graph():
    g = chain(0.3, -0.4, 0.7)
    oracle = forward_f1_oracle(g, CouplingMatrix.from_graph(g))
    stray = SpanningTreePath("V1", "X", (1.0,), 2, ("V1", "X"))
    with pytest.raises(GraphError, match="'X'"):
        oracle([-1024.0], [stray])
    too_long = SpanningTreePath("V1", "V2", (1.0,), 2, ("V1", "V2"))
    with pytest.raises(UnknownEdge):
        oracle([-1024.0], [too_long])


def _chorded_multigraph():
    """Equal-length parallel edges in both orientations, a loop on a path
    vertex, chords between path vertices (one as long as a path edge) and
    complex couplings."""
    g = MetricGraph(
        [Vertex("Z", 0.5), Vertex("!a", -0.25 + 0.5j), Vertex("#b", 1.5),
         Vertex("C", -0.75), Vertex("D", 0.125 - 0.25j), Vertex("E", 0.3)],
        [Edge("Z", "!a", 1.0), Edge("!a", "#b", 0.5), Edge("#b", "!a", 0.5),
         Edge("#b", "C", 0.8), Edge("C", "Z", 0.8), Edge("C", "C", 0.3),
         Edge("D", "C", 1.7), Edge("Z", "D", math.sqrt(2)),
         Edge("E", "D", 0.45), Edge("E", "!a", 1.1)],
        leads=["Z"])
    handmade = [SpanningTreePath("Z", chain_[-1], lengths, len(chain_),
                                 chain_)
                for chain_, lengths in [
                    (("Z", "!a", "#b"), (1.0, 0.5)),
                    (("Z", "!a", "#b", "C"), (1.0, 0.5, 0.8)),
                    (("Z", "!a", "#b", "C", "D", "E"),
                     (1.0, 0.5, 0.8, 1.7, 0.45))]]
    return g, handmade


@pytest.mark.parametrize("n", [10, 20, 50, 100, "chorded"])
def test_forward_oracle_matches_the_contracted_graph(n):
    """On every path the glued Schur complement equals the entry of the
    contracted graph to 1e-13 at the ladder energies; on the multigraph,
    from several roots and at energies off the axis too."""
    if n == "chorded":
        g, paths = _chorded_multigraph()
        for root in ("!a", "C", "E"):
            paths += spanning_tree(g, root)
    else:
        g = family_graph(n, seed=n + 1)
        paths = spanning_tree(g, g.vertex_ids()[0])
    k = CouplingMatrix.from_graph(g)
    z = -(ladder_tau0(g) * 2.0 ** np.arange(7)) ** 2
    if n == "chorded":
        z = np.concatenate([z, [-16.0, -1.0, 0.75, 2.2, 5.5 + 0.25j]])
    got = forward_f1_oracle(g, k)(z, paths)
    assert got.shape == (len(paths), len(z))
    for path, row in zip(paths, got):
        want = f1_contracted(g, k, path, z)
        assert np.max(np.abs(row - want) / np.abs(want)) <= 1e-13


def _singular_at(graph, kappa, z, vertex=0):
    """kappa with the coupling at `vertex` raised by s = 1/(A^-1)_vv, A =
    M(z) - K, which makes det(A - s e_v e_v^T) = det(A)(1 - s (A^-1)_vv)
    vanish at z."""
    A = weyl_compact(graph, z) - kappa.as_array()
    shift = 1.0 / np.linalg.inv(A)[vertex, vertex]
    return CouplingMatrix.from_values(graph, [
        a + (shift.real if j == vertex else 0.0)
        for j, a in enumerate(kappa.diagonal)])


def _invert_forward(tmp_path, graph, kappa, *extra):
    """argv of qgs invert --oracle forward on the graph's topology, saved
    in tmp_path, with the real couplings kappa."""
    topo = tmp_path / "topology.json"
    topo.write_text(serialize_graph(graph.with_couplings(
        [0.0] * graph.n_vertices)))
    return ["invert", "--graph-topology", str(topo), "--oracle", "forward",
            "--true-couplings=" + ",".join(repr(a.real)
                                           for a in kappa.diagonal), *extra]


def _exits_3(argv, capsys):
    """qgs exits 3 with a message, no traceback and nothing on stdout."""
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure")
    assert "Traceback" not in err


def test_forward_oracle_refuses_a_singular_matrix_at_a_ladder_energy(
        tmp_path, capsys):
    """Couplings that make M - K singular at the first energy of the
    second stack: the library raises SingularMatrix there, the CLI exits
    3."""
    g = family_graph(50, seed=3)
    z = -(ladder_tau0(g) * 2.0 ** np.arange(7)) ** 2
    bad = stack_size(g.n_vertices)
    assert bad < 7
    k = _singular_at(g, CouplingMatrix.from_graph(g), z[bad])
    with pytest.raises(SingularMatrix):
        f1_entry(g, k, z[bad])
    with pytest.raises(SingularMatrix) as info:
        invert_couplings(g, forward_f1_oracle(g, k))
    assert info.value.z == z[bad]
    _exits_3(_invert_forward(tmp_path, g, k), capsys)


def test_forward_oracle_refuses_a_singular_glued_matrix(tmp_path, capsys):
    """Couplings that make the chain singular at z = -1 once V1 and V2 are
    glued, but not before: only that path is refused, as the gate of the
    contracted graph refuses it."""
    g = chain(0.5, -0.25, 0.0)
    paths = spanning_tree(g, "V1")
    glued, k_glued, _ = _contract_along(g, paths[1])
    k_glued = _singular_at(glued, k_glued, -1.0, glued.vertex_index("V3"))
    k = CouplingMatrix.from_values(g, [0.5, -0.25, k_glued.diagonal[-1]])
    f1_entry(g, k, -1.0)
    with pytest.raises(SingularMatrix):
        f1_contracted(g, k, paths[1], -1.0)
    oracle = forward_f1_oracle(g, k)
    assert np.isfinite(oracle([-1.0], [paths[0], paths[2]])).all()
    with pytest.raises(SingularMatrix) as info:
        oracle([-1.0], paths)
    assert info.value.z == -1.0
    with pytest.raises(SingularMatrix):
        invert_couplings(g, oracle, tau0=1.0)
    _exits_3(_invert_forward(tmp_path, g, k, "--tau0", "1"), capsys)


def test_forward_oracle_refuses_an_exactly_singular_G_SS(lead_interval,
                                                         tmp_path, capsys):
    """With M_ii - K_ii = 0 at z = -1 the interval's A is [[0, u], [u, 0]]:
    well conditioned, but (A^-1)_11 = 0 exactly, so the root path's G_SS,
    a 1 x 1 zero, has no inverse; that is a SingularMatrix, not a
    LinAlgError, and f1 = 0 leaves no 1/f1 to fit."""
    M = weyl_compact(lead_interval, -1.0)
    k = CouplingMatrix.from_values(lead_interval, M.diagonal().real)
    assert f1_entry(lead_interval, k, -1.0) == 0.0
    with pytest.raises(SingularMatrix) as info:
        invert_couplings(lead_interval, forward_f1_oracle(lead_interval, k),
                         tau0=1.0)
    assert info.value.z == -1.0
    _exits_3(_invert_forward(tmp_path, lead_interval, k, "--tau0", "1"),
             capsys)


def test_library_ladder_scales_with_the_shortest_edge():
    """On a family graph with a 0.3-long loop the probes carry terms of
    order exp(-0.3 tau).  invert_couplings and recover_path_sums start
    their ladder at ladder_tau0 = 32/0.3 by default and recover every
    coupling to 1e-9; tau0 = 32 misses by far more."""
    data = perfbench("inputs").family_graph(random.Random(20), 20,
                                            n_leads=1)
    loop = data["vertices"][10]["id"]
    data["edges"].append({"from": loop, "to": loop, "length": 0.3})
    g = parse_graph(json.dumps(data))
    assert ladder_tau0(g) == 32.0 / 0.3
    k = CouplingMatrix.from_graph(g)
    oracle = forward_f1_oracle(g, k)

    def worst_error(**kwargs):
        rec, _ = invert_couplings(g, oracle, **kwargs)
        return max(abs(rec[v] - a) for v, a in zip(g.vertex_ids(),
                                                     k.diagonal))

    assert worst_error() < 1e-9
    assert worst_error(tau0=32.0) > 1e-6
    paths = spanning_tree(g, g.external_ids()[0])
    assert recover_path_sums(g, oracle, paths) == recover_path_sums(
        g, oracle, paths, tau0=ladder_tau0(g))


def test_oracle_type_error_is_not_relabelled():
    g = chain(0.3, -0.4, 0.7)
    clean = forward_f1_oracle(g, CouplingMatrix.from_graph(g))

    def faulty(z, paths):
        if any(path.vertex_count > 1 for path in paths):
            raise TypeError("boom")
        return clean(z, paths)

    with pytest.raises(TypeError) as info:
        invert_couplings(g, faulty)
    assert str(info.value) == "boom"
    assert info.value.__cause__ is None
