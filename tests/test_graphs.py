"""Graph container, validation, contraction, serialisation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (Disconnected, Edge, GraphError, LoopContraction, MetricGraph,
                 ParseError, UnknownEdge, Vertex, contract, parse_graph,
                 serialize_graph, spanning_tree, validate)
from qgs.testing import make_random_graph

graphs = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: make_random_graph(random.Random(seed)))


def test_vertex_defaults():
    v = Vertex("A")
    assert v.coupling == 0.0


def test_loop_counts_twice_in_degree():
    g = MetricGraph([Vertex("P")], [Edge("P", "P", 1.0)])
    assert g.degree("P") == 2


def test_degree_ignores_leads():
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)],
                    leads=["A"])
    assert g.degree("A") == 1
    assert g.external_ids() == ["A"]


def test_index_maps_are_kept_on_the_graph_and_not_shared():
    """vertex_index, external_indices and degree read maps built once per
    graph; a caller that changes a returned list does not change the next
    answer, and unknown ids still raise (or have degree 0) every time."""
    g = MetricGraph([Vertex("C"), Vertex("B"), Vertex("A")],
                    [Edge("A", "B", 1.0), Edge("B", "B", 0.5),
                     Edge("B", "C", 2.0)], leads=["C", "A"])
    ext = g.external_indices()
    assert ext == [0, 2]
    ext.append(1)
    ext[0] = 7
    assert g.external_indices() == [0, 2]
    assert [g.vertex_index(v) for v in "ABC"] == [0, 1, 2]
    assert [g.degree(v) for v in "ABC"] == [1, 4, 1]
    for _ in range(2):
        with pytest.raises(GraphError, match="'D'"):
            g.vertex_index("D")
        assert g.degree("D") == 0
    orphan = MetricGraph([Vertex("A")], [], leads=["A", "Z"])
    for _ in range(2):
        with pytest.raises(GraphError, match="'Z'"):
            orphan.external_indices()
    assert g == MetricGraph(g.vertices, g.edges, g.leads)


def test_canonical_vertex_order_is_sorted():
    g = MetricGraph([Vertex("Z"), Vertex("A"), Vertex("M")],
                    [Edge("Z", "A", 1.0), Edge("A", "M", 2.0)])
    assert g.vertex_ids() == ["A", "M", "Z"]


def test_validate_flags_bad_length():
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", -1.0)])
    report = validate(g)
    assert report.violations
    assert any("length" in v for v in report.violations)


def test_validate_flags_disconnected():
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C"), Vertex("D")],
                    [Edge("A", "B", 1.0), Edge("C", "D", 1.0)])
    assert any("disconnected" in v for v in validate(g).violations)


def test_validate_flags_double_lead():
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)],
                    leads=["A", "A"])
    assert any("multiple leads" in v for v in validate(g).violations)


def test_validate_flags_edgeless():
    g = MetricGraph([Vertex("A")], [])
    assert any("no edges and no leads" in v for v in validate(g).violations)


def test_validate_warns_on_rational_dependence():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 1.0), Edge("A", "B", 0.5)])
    report = validate(g)
    assert not report.violations
    assert report.warnings


def test_connected_graph_validates(star3):
    assert not validate(star3).violations


@pytest.mark.parametrize("length", [math.inf, math.nan, 0.0, -1.0])
def test_validate_infinite_length_is_a_violation_not_a_crash(length):
    """An infinite length before a finite one used to reach Fraction(inf)
    in the rational-ratio check and raise OverflowError; every length
    outside (0, inf) is a violation, with no ratio warning."""
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C")],
                    [Edge("A", "B", length), Edge("B", "C", 1.0)])
    report = validate(g)
    assert any(f"non-positive length {length!r}" in v
               for v in report.violations)
    assert not report.warnings


def _fraction_loop_warnings(graph):
    """The rational-dependence warnings of a Fraction test on every pair
    in (i, j) order, as validate emitted them before its numpy screen."""
    from fractions import Fraction

    lengths = [e.length for e in graph.edges if e.length > 0]
    for i in range(len(lengths)):
        for j in range(i + 1, len(lengths)):
            r = lengths[i] / lengths[j]
            frac = Fraction(r).limit_denominator(12)
            if abs(r - float(frac)) < 1e-9 and frac != 0:
                return [
                    "edge lengths may be rationally dependent "
                    f"(ratio {lengths[i]:g}/{lengths[j]:g} ~ rational); "
                    "reconstruction guarantees assume rational independence"]
    return []


CRAFTED_RATIOS = [2 / 3, 2 / 3 + 5e-10, 2 / 3 - 5e-10, 2 / 3 + 2e-9,
                  2 / 3 - 2e-9, 11 / 12, 1 / 12 + 5e-10, 1 / 30, 1 / 25,
                  7 + 4e-10, 7 + 2e-9, 1e15 / 3, math.sqrt(2)]


@pytest.mark.parametrize("ratio", CRAFTED_RATIOS)
@pytest.mark.parametrize("flip", [False, True])
def test_validate_rational_screen_matches_fraction_loop(ratio, flip):
    """Both orders of each crafted ratio, next to an independent third
    length: tolerances of 1e-9 (warns) and 2e-9 (does not), a ratio below
    1/24 (nearest p/q is 0), ratios above 1 and a huge one."""
    a, b = (1.0, ratio) if flip else (ratio, 1.0)
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C")],
                    [Edge("A", "B", a), Edge("B", "C", b),
                     Edge("A", "C", math.sqrt(3))])
    assert validate(g).warnings == _fraction_loop_warnings(g)


def test_validate_rational_screen_matches_fraction_loop_on_random_graphs():
    """Random lengths rarely warn, so every other graph has its lengths
    rounded to two decimals, which often makes a ratio p/q with q <= 12."""
    rng = random.Random(11)
    warned = 0
    for k in range(300):
        g = make_random_graph(rng, max_vertices=8, max_edges=14)
        if k % 2:
            g = MetricGraph(g.vertices, [Edge(e.u, e.v, round(e.length, 2))
                                         for e in g.edges], g.leads)
        expected = _fraction_loop_warnings(g)
        assert validate(g).warnings == expected
        warned += bool(expected)
    assert 20 < warned < 150


# --------------------------------------------------------------------------
# contraction
# --------------------------------------------------------------------------

def test_edge_ids_are_canonical():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 2.0, id="whatever"), Edge("A", "B", 1.0)])
    assert [e.id for e in g.edges] == ["e1", "e2"]
    assert g.edges[0].length == 1.0  # sorted by (u, v, length)


def test_contract_merges_couplings():
    g = MetricGraph([Vertex("A", 0.5), Vertex("B", -0.2)],
                    [Edge("A", "B", 1.0), Edge("A", "B", 2.0)])
    c = contract(g, "e1")
    assert c.n_vertices == 1
    merged = c.vertices[0]
    assert merged.coupling == pytest.approx(0.3)
    # the parallel edge survives as a loop
    assert c.n_edges == 1 and c.edges[0].is_loop


def test_contract_loop_refuses():
    g = MetricGraph([Vertex("P")], [Edge("P", "P", 1.0)])
    with pytest.raises(LoopContraction):
        contract(g, "e1")


def test_contract_unknown_edge():
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", 1.0)])
    with pytest.raises(UnknownEdge):
        contract(g, "nope")


def _chained(graph, edge_ids):
    """The edges contracted one contract call at a time, each found in the
    graph contracted so far by its endpoints, as renamed, and length."""
    name = {v.id: v.id for v in graph.vertices}
    g = graph
    for edge_id in edge_ids:
        e = next(e for e in graph.edges if e.id == edge_id)
        ends = (name[e.u], name[e.v])
        here = next(f.id for f in g.edges
                    if (f.u, f.v, f.length) == ends + (e.length,))
        before = set(g.vertex_ids())
        g = contract(g, here)
        (merged,) = set(g.vertex_ids()) - before
        for vid, now in name.items():
            if now in ends:
                name[vid] = merged
    return g


def _assert_same_graph(a, b):
    assert a.vertex_ids() == b.vertex_ids()
    # couplings bit for bit: the sums are taken in the same order
    assert [v.coupling for v in a.vertices] == [v.coupling
                                                for v in b.vertices]
    assert [(e.u, e.v, e.length, e.id) for e in a.edges] == [
        (e.u, e.v, e.length, e.id) for e in b.edges]
    assert a.leads == b.leads


def test_contract_many_equals_chained_single_edges():
    """Loops, parallel edges (equal-length ones in both orientations on
    the tree) and ids that sort before '(' (so that merged vertices sort
    after them), tree edges in several orders."""
    g = MetricGraph(
        [Vertex("!a", 0.1 + 0.3j), Vertex("#b", -0.7), Vertex("A", 1e-17),
         Vertex("B", 0.25), Vertex("C", -1.5 + 0.5j), Vertex("D", 0.3)],
        [Edge("!a", "#b", 1.0), Edge("#b", "!a", 1.0),
         Edge("#b", "A", 0.5), Edge("A", "#b", 0.5), Edge("A", "A", 0.7),
         Edge("A", "B", 0.9), Edge("B", "C", 1.1), Edge("C", "B", 1.3),
         Edge("C", "D", 0.4), Edge("D", "!a", 2.0), Edge("D", "D", 0.6)],
        leads=["!a", "C"])
    by_ends = {(e.u, e.v, e.length): e.id for e in g.edges}
    tree = [by_ends["!a", "#b", 1.0], by_ends["A", "#b", 0.5],
            by_ends["A", "B", 0.9], by_ends["C", "B", 1.3],
            by_ends["C", "D", 0.4]]
    rng = random.Random(5)
    for ids in [tree, tree[::-1], [tree[0], tree[3], tree[1], tree[4]],
                tree[2:3]] + [rng.sample(tree, k) for k in (2, 3, 5, 5)]:
        one = contract(g, ids)
        _assert_same_graph(one, _chained(g, ids))
        assert one.n_vertices == g.n_vertices - len(ids)
        assert one.n_edges == g.n_edges - len(ids)
    assert contract(g, tree[2]) == contract(g, tree[2:3])


@given(graphs, st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_contract_spanning_tree_equals_chained(g, seed):
    paths = spanning_tree(g, g.vertex_ids()[0])
    parent = {p.target: p.vertices_on_path[-2] for p in paths[1:]}
    tree = []
    for p in paths[1:]:    # one tree edge per non-root vertex
        u, v = parent[p.target], p.target
        length = p.ordered_edge_lengths[-1]
        tree.append(next(e.id for e in g.edges if {e.u, e.v} == {u, v}
                         and e.length == length))
    ids = random.Random(seed).sample(tree, len(tree))
    _assert_same_graph(contract(g, ids), _chained(g, ids))


def test_contract_refuses_a_cycle_and_unknown_ids():
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C")],
                    [Edge("A", "B", 1.0), Edge("B", "C", 1.5),
                     Edge("C", "A", 2.0)])
    # e1 glues A and B, e3 = C-A then glues C in, and e2 = B-C is a loop
    with pytest.raises(LoopContraction, match=r"edge e2 is a loop at "
                                              r"'\(C\|\(A\|B\)\)'"):
        contract(g, ["e1", "e3", "e2"])
    with pytest.raises(UnknownEdge):
        contract(g, ["e1", "nope"])


@given(graphs)
@settings(max_examples=60, deadline=None)
def test_contract_invariants(g):
    non_loops = [e for e in g.edges if not e.is_loop]
    if not non_loops:
        return
    e = non_loops[0]
    c = contract(g, e.id)
    assert c.n_vertices == g.n_vertices - 1
    assert c.n_edges == g.n_edges - 1
    assert math.isclose(c.total_length(), g.total_length() - e.length,
                        rel_tol=1e-12)
    assert math.isclose(
        sum(v.coupling.real for v in c.vertices),
        sum(v.coupling.real for v in g.vertices), abs_tol=1e-12)
    assert c.is_connected()


# --------------------------------------------------------------------------
# serialisation
# --------------------------------------------------------------------------

@given(graphs)
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(g):
    text = serialize_graph(g)
    again = parse_graph(text)
    assert serialize_graph(again) == text
    assert again.vertex_ids() == g.vertex_ids()
    assert again.n_edges == g.n_edges
    assert again.external_ids() == g.external_ids()


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph("not json at all")


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        parse_graph('{"vertices": [{"id": "A"}], "edges": [{"from": "A"}]}')


# --------------------------------------------------------------------------
# spanning tree
# --------------------------------------------------------------------------

def test_spanning_tree_reaches_every_vertex(star3):
    paths = spanning_tree(star3, "C")
    assert sorted(p.target for p in paths) == sorted(star3.vertex_ids())
    root_path = [p for p in paths if p.target == "C"][0]
    assert root_path.vertex_count == 1
    for p in paths:
        assert p.vertices_on_path[0] == "C"
        assert p.vertices_on_path[-1] == p.target
        assert len(p.ordered_edge_lengths) == p.vertex_count - 1


def test_spanning_tree_prefers_short_edges():
    g = MetricGraph([Vertex("A"), Vertex("B")],
                    [Edge("A", "B", 5.0), Edge("A", "B", 1.0)])
    (pb,) = [p for p in spanning_tree(g, "A") if p.target == "B"]
    assert pb.ordered_edge_lengths == (1.0,)


def test_spanning_tree_disconnected_raises():
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C"), Vertex("D")],
                    [Edge("A", "B", 1.0), Edge("C", "D", 1.0)])
    with pytest.raises(Disconnected):
        spanning_tree(g, "A")


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_spanning_tree_parent_prefix(g):
    """Every non-root path extends the path of its penultimate vertex."""
    root = g.vertex_ids()[0]
    paths = {p.target: p for p in spanning_tree(g, root)}
    for p in paths.values():
        if p.vertex_count <= 1:
            continue
        parent = paths[p.vertices_on_path[-2]]
        assert parent.vertices_on_path == p.vertices_on_path[:-1]
        assert parent.ordered_edge_lengths == p.ordered_edge_lengths[:-1]
