"""Finite topological multigraphs.

A graph here is the combinatorial presentation of a compact connected
1-complex: a finite set of vertices plus a finite multiset of edges, where
loops and parallel edges are allowed.  Loops count twice toward degree.
Degree-2 vertices are topologically invisible, so homeomorphism questions
are settled on the smoothed normal form produced by :func:`smooth`.

Instances are immutable value objects; every operation returns a new graph.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Id = Union[int, str]


class GraphError(ValueError):
    """Structurally invalid graph data or unknown vertex/edge ids."""


class ParseError(GraphError):
    """Malformed graph text."""


class BoundExceeded(GraphError):
    """A size-bounded operation was asked to exceed its configured bound."""


def idkey(x: Id):
    """Deterministic sort key that lets int and str ids coexist."""
    if isinstance(x, bool):  # bool is an int subclass; refuse quietly via str
        return (1, 0, str(x))
    if isinstance(x, int):
        return (0, x, "")
    return (1, 0, str(x))


class Edge(NamedTuple):
    eid: Id
    a: Id
    b: Id

    @property
    def is_loop(self) -> bool:
        return self.a == self.b

    def other(self, v: Id) -> Id:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise GraphError(f"vertex {v!r} is not an endpoint of edge {self.eid!r}")


class Multigraph:
    """Immutable multigraph with loops and parallel edges.

    ``vertices`` is the sorted tuple of vertex ids, ``edges`` the tuple of
    :class:`Edge` records sorted by edge id.  Equality and hashing follow the
    labeled content, so two graphs are ``==`` only when vertices, edge ids and
    endpoint orientations all agree; use :func:`are_homeomorphic` for the
    topological question.
    """

    __slots__ = ("_vertices", "_edges", "_cache")

    def __init__(self, vertices: Iterable[Id], edges: Iterable[Edge]):
        vlist = list(vertices)
        vset = set(vlist)
        if len(vset) != len(vlist):
            raise GraphError("duplicate vertex id")
        elist = [Edge(*e) for e in edges]
        if not elist:
            raise GraphError("a graph needs at least one edge")
        eids = [e.eid for e in elist]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge id")
        for e in elist:
            if e.a not in vset or e.b not in vset:
                raise GraphError(f"edge {e.eid!r} has a dangling endpoint")
        self._vertices: tuple[Id, ...] = tuple(sorted(vset, key=idkey))
        self._edges: tuple[Edge, ...] = tuple(sorted(elist, key=lambda e: idkey(e.eid)))
        self._cache: dict = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[Id, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __reduce__(self):
        # pickles carry the graph, not the derived data in ``_cache``
        return (Multigraph, (self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def edge(self, eid: Id) -> Edge:
        """The edge with id ``eid``, found by one scan of the edges."""
        e = next((x for x in self._edges if x.eid == eid), None)
        if e is None:
            raise GraphError(f"unknown edge {eid!r}")
        return e

    @property
    def degrees(self) -> Mapping[Id, int]:
        d = self._cache.get("degrees")
        if d is None:
            d = {v: 0 for v in self._vertices}
            for e in self._edges:
                d[e.a] += 1
                d[e.b] += 1
            self._cache["degrees"] = d
        return d

    def degree(self, v: Id) -> int:
        try:
            return self.degrees[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    @property
    def incidence(self) -> Mapping[Id, tuple[Edge, ...]]:
        """The edges at each vertex in edge order, a loop listed once."""
        inc = self._cache.get("incident")
        if inc is None:
            inc = {u: [] for u in self._vertices}
            for e in self._edges:
                inc[e.a].append(e)
                if not e.is_loop:
                    inc[e.b].append(e)
            inc = {u: tuple(es) for u, es in inc.items()}
            self._cache["incident"] = inc
        return inc

    def incident(self, v: Id) -> tuple[Edge, ...]:
        try:
            return self.incidence[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def loops_at(self, v: Id) -> int:
        return sum(1 for e in self.incident(v) if e.is_loop)

    def is_connected(self) -> bool:
        c = self._cache.get("connected")
        if c is None:
            inc = self.incidence
            seen = {self._vertices[0]}
            stack = [self._vertices[0]]
            while stack:
                u = stack.pop()
                for e in inc[u]:
                    w = e.b if e.a == u else e.a
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            c = len(seen) == len(self._vertices)
            self._cache["connected"] = c
        return c

    # -- topological operations --------------------------------------------

    def subdivide(self, eid: Id, k: int) -> tuple["Multigraph", tuple[Id, ...]]:
        """Replace edge ``eid`` by a path through ``k`` fresh degree-2 vertices.

        Returns the new graph and the fresh vertex ids in order along the
        edge starting from endpoint ``a``.
        """
        if k < 1:
            raise GraphError("subdivision count must be >= 1")
        e = self.edge(eid)
        taken = set(self._vertices)
        fresh: list[Id] = []
        for i in range(1, k + 1):
            name = f"{eid}.{i}"
            while name in taken:
                name += "'"
            taken.add(name)
            fresh.append(name)
        chain = [e.a, *fresh, e.b]
        new_edges = [x for x in self._edges if x.eid != eid]
        existing = {x.eid for x in new_edges}
        for i in range(len(chain) - 1):
            ne = f"{eid}#{i}" if i else eid
            while ne in existing:
                ne = str(ne) + "'"
            existing.add(ne)
            new_edges.append(Edge(ne, chain[i], chain[i + 1]))
        return Multigraph(list(self._vertices) + fresh, new_edges), tuple(fresh)


def build(vertices: Iterable[Id], edges: Iterable[Sequence[Id]]) -> Multigraph:
    """Construct a validated multigraph.

    ``edges`` entries are either ``(a, b)`` pairs, in which case edge ids
    ``e0, e1, ...`` are assigned in order, or explicit ``(eid, a, b)`` triples.
    """
    elist = []
    auto = 0
    for entry in edges:
        entry = tuple(entry)
        if len(entry) == 2:
            elist.append(Edge(f"e{auto}", entry[0], entry[1]))
            auto += 1
        elif len(entry) == 3:
            elist.append(Edge(*entry))
        else:
            raise GraphError(f"edge entry {entry!r} is neither a pair nor a triple")
    return Multigraph(vertices, elist)


def smooth(g: Multigraph) -> Multigraph:
    """Suppress degree-2 vertices until none remain.

    The result is the homeomorphism normal form: merging the two edges at a
    suppressible vertex never changes the underlying space.  A cycle collapses
    to the one-vertex one-loop circle form, whose lone vertex is the only
    degree-2 vertex a smoothed graph may contain.

    Each maximal chain through suppressible vertices becomes one edge that
    keeps the idkey-least edge id of the chain, directed from its later end
    in vertex order to its earlier one (a chain that closes into a loop is a
    loop at its one kept vertex); the surviving vertices keep their ids, and
    a collapsed cycle keeps its idkey-greatest vertex.  An already-smooth
    graph is returned as is.  Each chain is walked once, from its first edge
    in edge order (so the idkey-least one) out to both kept ends, so the
    cost is linear in the graph.

    Nothing is cached on ``g``: a raw input's smoothed graph, with the index
    and block decomposition later calls keep on it, lives only as long as
    the caller holds it (for ``ac_number``, one call), and asking again
    costs one more linear walk.
    """
    if not g.is_connected():
        raise GraphError("smooth expects a connected graph")
    deg, inc = g.degrees, g.incidence
    # a degree-2 vertex with two distinct edges is suppressible; one reached
    # along a non-loop edge always has two, since a loop would use up its degree
    keep = [v for v in g.vertices if deg[v] != 2 or len(inc[v]) == 1]
    if len(keep) == len(g.vertices):
        return g
    if not keep:  # a cycle
        v = g.vertices[-1]
        return Multigraph([v], [Edge(g.edges[0].eid, v, v)])
    merged = []
    done: set[Id] = set()  # ids of the edges past the first of a walked chain
    for e in g.edges:
        if e.eid in done:
            continue
        if e.a == e.b:  # a loop sits at a kept vertex
            merged.append(e)
            continue
        ends = []
        for cur in (e.a, e.b):
            last = e
            while deg[cur] == 2:
                f, h = inc[cur]
                last = h if f is last else f
                done.add(last.eid)
                cur = last.b if last.a == cur else last.a
            ends.append(cur)
        x, y = ends
        merged.append(Edge(e.eid, y, x) if idkey(x) < idkey(y) else Edge(e.eid, x, y))
    return Multigraph(keep, merged)


def branch_points(g: Multigraph) -> frozenset[Id]:
    """Vertices of the smoothed form with degree >= 3.

    Smoothing only deletes degree-2 vertices and preserves the degrees of the
    survivors, so these are exactly the points of local degree >= 3.
    """
    s = smooth(g)
    return frozenset(v for v in s.vertices if s.degree(v) >= 3)


def graph_endpoints(g: Multigraph) -> frozenset[Id]:
    """Degree-1 vertices of the smoothed form."""
    s = smooth(g)
    return frozenset(v for v in s.vertices if s.degree(v) == 1)


def terminal_edges(g: Multigraph) -> tuple[Edge, ...]:
    """Edges of the smoothed form incident to a degree-1 vertex."""
    s = smooth(g)
    ends = graph_endpoints(s)
    return tuple(e for e in s.edges if e.a in ends or e.b in ends)


# -- text format -------------------------------------------------------------
#
# One edge per line as two whitespace-separated names ("a a" is a loop,
# repeat a line for parallel edges); "v NAME" declares an isolated vertex.
# Blank lines and text after "#" are ignored.  "v v" is read as a loop at a
# vertex named "v", since a lone-vertex declaration of "v" would be
# indistinguishable.


def parse_graph_text(text: str) -> Multigraph:
    vertices: list[Id] = []
    vseen: set[Id] = set()
    pairs: list[tuple[Id, Id]] = []

    def declare(name: Id) -> None:
        if name not in vseen:
            vseen.add(name)
            vertices.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] == "v" and tokens[1] != "v":
            declare(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'NAME NAME' or 'v NAME', got {raw!r}")
        a, b = tokens
        declare(a)
        declare(b)
        pairs.append((a, b))
    if not pairs:
        raise ParseError("no edges declared")
    return build(vertices, pairs)


def format_graph_text(g: Multigraph) -> str:
    """Serialize to the line format; parse(format(g)) is isomorphic to g.

    Raises ``GraphError`` naming a vertex id the format cannot carry: an
    empty name, one with ``#`` or whitespace, a name another id shares
    (such as ``1`` and ``"1"``), or an isolated vertex named ``v``.
    """
    deg = g.degrees
    names: dict[str, Id] = {}
    for v in g.vertices:
        name = str(v)
        if (name.split() != [name] or "#" in name or names.setdefault(name, v) != v
                or name == "v" and not deg[v]):
            raise GraphError(f"vertex id {v!r} cannot be written in the line format")
    lines = []
    for e in g.edges:
        a, b = str(e.a), str(e.b)
        if a == "v" and b != "v":  # avoid emitting a vertex declaration
            a, b = b, a
        lines.append(f"{a} {b}")
    lines += [f"v {v}" for v in g.vertices if not deg[v]]
    return "\n".join(lines) + "\n"
