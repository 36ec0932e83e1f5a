"""Graph container, validation, contraction, serialisation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import (Disconnected, Edge, LoopContraction, MetricGraph, ParseError,
                 UnknownEdge, Vertex, contract, parse_graph, serialize_graph,
                 spanning_tree, validate)
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
    assert g.external("A") and not g.external("B")


def test_canonical_vertex_order_is_sorted():
    g = MetricGraph([Vertex("Z"), Vertex("A"), Vertex("M")],
                    [Edge("Z", "A", 1.0), Edge("A", "M", 2.0)])
    assert g.vertex_ids() == ["A", "M", "Z"]


def test_validate_flags_bad_length():
    g = MetricGraph([Vertex("A"), Vertex("B")], [Edge("A", "B", -1.0)])
    report = validate(g)
    assert not report.ok
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
    assert report.ok
    assert report.warnings


def test_connected_graph_validates(star3):
    assert validate(star3).ok


def test_validate_infinite_length_is_a_violation_not_a_crash():
    """An infinite length before a finite one used to reach Fraction(inf)
    in the rational-ratio check and raise OverflowError."""
    g = MetricGraph([Vertex("A"), Vertex("B"), Vertex("C")],
                    [Edge("A", "B", math.inf), Edge("B", "C", 1.0)])
    report = validate(g)
    assert any("non-positive length inf" in v for v in report.violations)
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
    assert g.edge_by_id("e1").length == 1.0  # sorted by (u, v, length)


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
