"""Data model for finite non-compact metric graphs with delta-type couplings.

A metric graph here is a finite combinatorial graph whose edges carry
positive lengths, together with a set of vertices that each carry at most
one semi-infinite lead.  Vertices hold a complex coupling constant; the
vertex condition everywhere is continuity plus "sum of outgoing derivatives
equals coupling times the vertex value" (coupling 0 = standard Kirchhoff).

Conventions used throughout the toolkit:

* vertex ids are opaque strings; whenever a matrix index is needed, vertices
  are taken in sorted-id order;
* loops and parallel edges are allowed; a loop contributes 2 to the degree
  of its vertex;
* edges receive canonical ids ``e1, e2, ...`` assigned after sorting edges
  by (from, to, length); ids are per-graph labels, not preserved across
  graph surgery;
* "external" vertices are exactly those listed in ``leads`` — the flag is
  always derived, never stored.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import Disconnected, GraphError, LoopContraction, ParseError, UnknownEdge


@dataclass(frozen=True)
class Vertex:
    """Graph vertex: an id plus the delta-coupling constant sitting on it."""

    id: str
    coupling: complex = 0.0


@dataclass(frozen=True)
class Edge:
    """Compact edge of positive length between an ordered pair of vertex ids.

    ``u == v`` means a loop.  ``id`` is assigned canonically by MetricGraph.
    """

    u: str
    v: str
    length: float
    id: str = ""

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph: vertices, compact edges, and lead positions.

    The constructor canonicalises: vertices sorted by id, edges sorted by
    (u, v, length) and re-labelled ``e1..en``, leads kept as given (order
    irrelevant, duplicates preserved so that validation can flag them).

    Derived quantities:

    * ``n_vertices``  — N, total vertex count
    * ``n_edges``     — n, compact edge count
    * ``n_external``  — number of lead-carrying (external) vertices
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    leads: tuple[str, ...] = ()

    def __init__(self, vertices, edges, leads=()):
        vs = tuple(sorted((Vertex(v.id, v.coupling) if isinstance(v, Vertex)
                           else Vertex(*v) for v in vertices), key=lambda v: v.id))
        raw = []
        for e in edges:
            if isinstance(e, Edge):
                raw.append((e.u, e.v, float(e.length)))
            else:
                u, v, length = e
                raw.append((u, v, float(length)))
        raw.sort(key=lambda t: (t[0], t[1], t[2]))
        es = tuple(Edge(u, v, length, f"e{i+1}") for i, (u, v, length) in enumerate(raw))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "leads", tuple(leads))

    # ---- derived counts -------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_external(self) -> int:
        return len(set(self.leads))

    # ---- indexing helpers ----------------------------------------------
    def vertex_ids(self) -> list[str]:
        """Vertex ids in the canonical (sorted) matrix order."""
        return [v.id for v in self.vertices]

    def _cached(self, key, build):
        """build(), computed on the first call and kept on the graph (a
        MetricGraph is immutable, so the value stays valid)."""
        value = vars(self).get(key)
        if value is None:
            value = vars(self)[key] = build()
        return value

    def _index(self) -> dict[str, int]:
        """Vertex id -> matrix index (the first of a repeated id)."""
        def build():
            index = {}
            for i, v in enumerate(self.vertices):
                index.setdefault(v.id, i)
            return index
        return self._cached("_vertex_index", build)

    def vertex_index(self, vid: str) -> int:
        try:
            return self._index()[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self.vertex_index(vid)]

    def external(self, vid: str) -> bool:
        """True iff the vertex carries a lead (derived from ``leads``)."""
        return vid in self.leads

    def external_ids(self) -> list[str]:
        """Sorted ids of external vertices — the external matrix order."""
        return sorted(set(self.leads))

    def external_indices(self) -> list[int]:
        """Matrix indices of the external vertices, in external order (a
        new list on each call)."""
        return list(self._cached("_external_indices", lambda: tuple(
            self.vertex_index(vid) for vid in self.external_ids())))

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise UnknownEdge(f"no edge with id {edge_id!r}")

    def degree(self, vid: str) -> int:
        """Degree in the compact part: loops count twice, leads do not count."""
        def build():
            degrees = Counter()
            for e in self.edges:
                degrees[e.u] += 1
                degrees[e.v] += 1
            return degrees
        return self._cached("_degrees", build)[vid]

    def couplings(self) -> list[complex]:
        """Coupling constants in canonical vertex order."""
        return [v.coupling for v in self.vertices]

    def with_couplings(self, values) -> "MetricGraph":
        """Copy of the graph with couplings replaced (canonical vertex order)."""
        vals = list(values)
        if len(vals) != self.n_vertices:
            raise GraphError(
                f"expected {self.n_vertices} couplings, got {len(vals)}")
        vs = [Vertex(v.id, a) for v, a in zip(self.vertices, vals)]
        return MetricGraph(vs, self.edges, self.leads)

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return True
        seen = {self.vertices[0].id}
        frontier = [self.vertices[0].id]
        adj = _adjacency(self)
        while frontier:
            v = frontier.pop()
            for w, _e in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n_vertices


@dataclass(frozen=True)
class SpanningTreePath:
    """Tree path from the root to one target vertex.

    ``vertices_on_path`` starts at the root and ends at the target;
    ``ordered_edge_lengths`` are the lengths along it (empty for the root);
    ``vertex_count`` equals ``len(vertices_on_path)``.
    """

    root: str
    target: str
    ordered_edge_lengths: tuple[float, ...]
    vertex_count: int
    vertices_on_path: tuple[str, ...]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate` — violations are fatal, warnings are not."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _adjacency(graph):
    """vertex id -> list of (neighbour id, edge), loops listed once."""
    adj = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        if e.u in adj:
            adj[e.u].append((e.v, e))
        if not e.is_loop and e.v in adj:
            adj[e.v].append((e.u, e))
    return adj


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_RATIONAL_TOL = 1e-9
_MAX_DENOM = 12
# The screen in _rational_pairs keeps every pair within _SCREEN_SLACK times
# _RATIONAL_TOL of some p/q, q <= _MAX_DENOM, and every ratio above
# _SCREEN_MAX, where rint(ratio * q) may miss p.
_SCREEN_SLACK = 2.0
_SCREEN_MAX = 2.0 ** 40


def _near_small_rational(ratio):
    """Is `ratio` within 1e-9 of p/q with a small denominator q?"""
    from fractions import Fraction

    frac = Fraction(ratio).limit_denominator(_MAX_DENOM)
    return abs(ratio - float(frac)) < _RATIONAL_TOL and frac != 0


def _rational_pairs(lengths):
    """Index pairs (i, j), i < j, in loop order, whose length ratio
    lengths[i] / lengths[j] passes _near_small_rational.

    A numpy screen over all pairs and every q <= _MAX_DENOM leaves the
    exact Fraction test only a few candidates.
    """
    i, j = np.triu_indices(len(lengths), 1)
    ratio = np.asarray(lengths, dtype=float)[i] / np.asarray(
        lengths, dtype=float)[j]
    candidate = (_SCREEN_MAX < ratio) & (ratio < math.inf)
    for q in range(1, _MAX_DENOM + 1):
        p = np.rint(ratio * q)
        candidate |= ((np.abs(ratio - p / q) < _SCREEN_SLACK * _RATIONAL_TOL)
                      & (p != 0))
    for k in np.flatnonzero(candidate):
        if _near_small_rational(float(ratio[k])):
            yield int(i[k]), int(j[k])


def validate(graph: MetricGraph) -> ValidationReport:
    """Check the standing assumptions; returns a report, never raises.

    Violations: duplicate vertex ids, edge endpoints that do not exist,
    non-positive / non-finite edge lengths, more than one lead per vertex,
    leads on unknown vertices, disconnected graph.

    Warning (not a violation): a pair of compact edge lengths whose ratio is
    within 1e-9 of a nonzero p/q, q <= 12 (the first such pair in (i, j)
    order; a numpy screen of all pairs leaves the exact Fraction test only
    the candidates).  The forward formulas do not need rational
    independence, but the reconstruction guarantees do.
    """
    report = ValidationReport()
    ids = [v.id for v in graph.vertices]
    seen = set()
    for vid in ids:
        if vid in seen:
            report.violations.append(f"duplicate vertex id {vid!r}")
        seen.add(vid)

    for e in graph.edges:
        for end in (e.u, e.v):
            if end not in seen:
                report.violations.append(
                    f"edge {e.id} endpoint {end!r} is not a vertex")
        if not (e.length > 0.0) or e.length != e.length or e.length == float("inf"):
            report.violations.append(
                f"edge {e.id} ({e.u}-{e.v}): non-positive length {e.length!r}")

    lead_count = {}
    for lid in graph.leads:
        if lid not in seen:
            report.violations.append(f"lead on unknown vertex {lid!r}")
        lead_count[lid] = lead_count.get(lid, 0) + 1
    for lid, c in lead_count.items():
        if c > 1:
            report.violations.append(f"multiple leads on vertex {lid!r}")

    if not graph.edges and not graph.leads:
        report.violations.append("graph has no edges and no leads")
    if graph.n_vertices and not graph.is_connected():
        report.violations.append("graph is disconnected")

    lengths = [e.length for e in graph.edges if 0 < e.length < math.inf]
    for i, j in _rational_pairs(lengths):
        report.warnings.append(
            "edge lengths may be rationally dependent "
            f"(ratio {lengths[i]:g}/{lengths[j]:g} ~ rational); "
            "reconstruction guarantees assume rational independence")
        break

    return report


# --------------------------------------------------------------------------
# contraction
# --------------------------------------------------------------------------

def contract(graph: MetricGraph, edge_ids) -> MetricGraph:
    """Contract non-loop edges: glue the endpoints of each into one vertex.

    ``edge_ids`` is one edge id, or a sequence of ids of edges that form a
    tree.  The result is that of contracting them one at a time in the
    given order, built as one graph.  Each step names its merged vertex
    ``(U|V)`` after the ordered endpoints of its edge, as the steps before
    have named them, and gives it the sum of their couplings.  Any other
    edge between two vertices glued into one becomes a loop there, with
    its own length.
    Vertex and edge counts drop by exactly the number of ids.

    Raises LoopContraction for a loop, or for an edge that the steps before
    have made one (the ids close a cycle), UnknownEdge for a missing id,
    and GraphError when a merged vertex id already exists.
    """
    ids = [edge_ids] if isinstance(edge_ids, str) else list(edge_ids)
    by_id = {e.id: e for e in graph.edges}
    coupling = {}   # id of each vertex after the steps so far -> coupling
    for v in graph.vertices:
        coupling.setdefault(v.id, v.coupling)
    members = {}    # merged vertex -> the given vertices glued into it
    name = {}       # given vertex glued into a merged one -> that one

    def rename(vid):
        return name.get(vid, vid)

    for edge_id in ids:
        if edge_id not in by_id:
            raise UnknownEdge(f"no edge with id {edge_id!r}")
        target = by_id[edge_id]
        u, v = rename(target.u), rename(target.v)
        if u == v:
            raise LoopContraction(
                f"edge {edge_id} is a loop at {u!r}; cannot contract")
        merged = f"({u}|{v})"
        if merged in coupling:
            raise GraphError(f"merged vertex id {merged!r} already exists")
        for end in (u, v):
            if end not in coupling:
                raise GraphError(f"unknown vertex id {end!r}")
        coupling[merged] = coupling.pop(u) + coupling.pop(v)
        members[merged] = members.pop(u, [u]) + members.pop(v, [v])
        for vid in members[merged]:
            name[vid] = merged

    vertices = [v for v in graph.vertices if v.id not in name]
    vertices += [Vertex(vid, coupling[vid]) for vid in members]
    gone = set(ids)
    edges = [Edge(rename(e.u), rename(e.v), e.length)
             for e in graph.edges if e.id not in gone]
    leads = tuple(rename(l) for l in graph.leads)
    return MetricGraph(vertices, edges, leads)


# --------------------------------------------------------------------------
# spanning tree
# --------------------------------------------------------------------------

def spanning_tree(graph: MetricGraph, root: str) -> list[SpanningTreePath]:
    """Breadth-first spanning tree from ``root``; one path per vertex.

    Deterministic: at each vertex the incident edges are examined in
    (length, edge id) order.  Paths are returned in discovery order, so the
    vertex counts are non-decreasing and the root path (vertex count 1,
    no lengths) comes first.  Raises Disconnected if some vertex is
    unreachable.
    """
    graph.vertex_index(root)  # raises GraphError for unknown root
    adj = _adjacency(graph)
    for vid in adj:
        adj[vid].sort(key=lambda pair: (pair[1].length, pair[1].id))

    parent: dict[str, tuple[str, Edge] | None] = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w, e in adj[v]:
            if w not in parent and not e.is_loop:
                parent[w] = (v, e)
                order.append(w)
                queue.append(w)

    if len(order) != graph.n_vertices:
        missing = sorted(set(graph.vertex_ids()) - set(order))
        raise Disconnected(f"vertices unreachable from {root!r}: {missing}")

    paths = []
    for target in order:
        chain: list[str] = [target]
        lengths: list[float] = []
        v = target
        while parent[v] is not None:
            p, e = parent[v]
            lengths.append(e.length)
            chain.append(p)
            v = p
        chain.reverse()
        lengths.reverse()
        paths.append(SpanningTreePath(
            root=root,
            target=target,
            ordered_edge_lengths=tuple(lengths),
            vertex_count=len(chain),
            vertices_on_path=tuple(chain),
        ))
    return paths


# --------------------------------------------------------------------------
# file format
# --------------------------------------------------------------------------

def _coupling_from_json(value):
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        return complex(value[0], value[1])
    raise ParseError(f"coupling must be a number or [re, im], got {value!r}",
                     field="coupling")


def parse_graph(text: str) -> MetricGraph:
    """Parse the JSON graph format into a MetricGraph.

    Format::

        {"vertices": [{"id": "V1", "coupling": [0.3, 0.0]}, ...],
         "edges":    [{"from": "V1", "to": "V2", "length": 1.0}, ...],
         "leads":    ["V1", ...]}

    ``coupling`` may be omitted (defaults to 0, i.e. Kirchhoff).  Raises
    ParseError with line/field diagnostics on malformed input.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")

    for key in ("vertices", "edges"):
        if key not in data:
            raise ParseError(f"missing {key!r} section", field=key)
        if not isinstance(data[key], list):
            raise ParseError(f"{key!r} must be a list", field=key)

    vertices = []
    for i, item in enumerate(data["vertices"]):
        if not isinstance(item, dict) or "id" not in item:
            raise ParseError(f"vertex #{i + 1} needs an 'id'", field="vertices")
        coupling = _coupling_from_json(item.get("coupling", 0.0))
        vertices.append(Vertex(str(item["id"]), coupling))
    known = {v.id for v in vertices}

    edges = []
    for i, item in enumerate(data["edges"]):
        if not isinstance(item, dict):
            raise ParseError(f"edge #{i + 1} must be an object", field="edges")
        for key in ("from", "to", "length"):
            if key not in item:
                raise ParseError(f"edge #{i + 1} missing {key!r}", field=key)
        u, v = str(item["from"]), str(item["to"])
        for end in (u, v):
            if end not in known:
                raise ParseError(
                    f"edge #{i + 1} references unknown vertex {end!r}",
                    field="edges")
        length = item["length"]
        if not isinstance(length, (int, float)):
            raise ParseError(f"edge #{i + 1} length must be a number",
                             field="length")
        edges.append(Edge(u, v, float(length)))

    leads = data.get("leads", [])
    if not isinstance(leads, list):
        raise ParseError("'leads' must be a list of vertex ids", field="leads")
    for lid in leads:
        if str(lid) not in known:
            raise ParseError(f"lead on unknown vertex {lid!r}", field="leads")

    return MetricGraph(vertices, edges, tuple(str(l) for l in leads))


def serialize_graph(graph: MetricGraph) -> str:
    """Canonical JSON text for a graph (sorted, couplings as [re, im]).

    parse -> serialize -> parse is the identity on the parsed object.
    """
    doc = {
        "vertices": [
            {"id": v.id, "coupling": [float(v.coupling.real if isinstance(v.coupling, complex) else v.coupling),
                                      float(v.coupling.imag if isinstance(v.coupling, complex) else 0.0)]}
            for v in graph.vertices
        ],
        "edges": [
            {"from": e.u, "to": e.v, "length": e.length} for e in graph.edges
        ],
        "leads": sorted(graph.leads),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_graph(path) -> MetricGraph:
    """Read and parse a graph file."""
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
