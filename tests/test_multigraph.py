import pickle
import random

import pytest
from hypothesis import given, strategies as st

from arcon import (
    GraphError,
    ParseError,
    are_homeomorphic,
    branch_points,
    build,
    canonical_form,
    format_graph_text,
    graph_endpoints,
    parse_graph_text,
    smooth,
    terminal_edges,
)
from arcon import corpus
from arcon.multigraph import Edge, Multigraph, idkey

from conftest import naive_smooth, randomly_subdivided, relabeled


@st.composite
def small_multigraphs(draw, max_vertices=5, max_edges=6):
    v = draw(st.integers(1, max_vertices))
    m = draw(st.integers(1, max_edges))
    edges = [
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1)))
        for _ in range(m)
    ]
    verts = sorted({x for ab in edges for x in ab})
    return build(verts, edges)


graphs_any = small_multigraphs()
graphs_connected = graphs_any.filter(lambda g: g.is_connected())


class TestBuild:
    def test_arc(self):
        g = build(["a", "b"], [("a", "b")])
        assert g.degree("a") == 1 and g.degree("b") == 1

    def test_single_loop_circle_convention(self):
        g = build(["a"], [("a", "a")])
        assert g.degree("a") == 2
        assert g.edges[0].is_loop

    def test_triod(self):
        g = build(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert g.degree("c") == 3

    def test_dangling_endpoint(self):
        with pytest.raises(GraphError, match="dangling"):
            build(["a"], [("a", "b")])

    def test_duplicate_vertex_id(self):
        with pytest.raises(GraphError, match="duplicate"):
            Multigraph(["a", "a"], [Edge("e0", "a", "a")])

    def test_duplicate_edge_id(self):
        with pytest.raises(GraphError, match="duplicate"):
            build("ab", [("e", "a", "b"), ("e", "a", "b")])

    def test_zero_edges(self):
        with pytest.raises(GraphError, match="at least one edge"):
            Multigraph(["a"], [])

    def test_pickle_round_trip_drops_the_cache(self):
        g = corpus.k33()
        canonical_form(g)  # fills the index and the canonical code
        assert g._cache
        h = pickle.loads(pickle.dumps(g))
        assert h == g and h._cache == {}


class TestDegreeAndConnectivity:
    def test_dumbbell_loop_vertex(self):
        assert corpus.dumbbell().degree("a") == 3

    def test_figure_eight_vertex(self):
        assert corpus.figure_eight().degree("a") == 4

    def test_k33_all_cubic(self):
        g = corpus.k33()
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            corpus.arc().degree("zzz")

    def test_connected_examples(self):
        assert corpus.triod().is_connected()
        assert corpus.theta().is_connected()
        two_loops = build(["a", "b"], [("a", "a"), ("b", "b")])
        assert not two_loops.is_connected()


class TestSubdivide:
    def test_arc_once(self):
        g, fresh = corpus.arc().subdivide("e0", 1)
        assert len(fresh) == 1
        m = fresh[0]
        assert g.degree(m) == 2
        assert g.degree("a") == 1 and g.degree("b") == 1

    def test_circle_twice_is_triangle(self):
        g, fresh = corpus.circle().subdivide("e0", 2)
        assert len(g.vertices) == 3 and len(g.edges) == 3
        assert all(g.degree(v) == 2 for v in g.vertices)
        assert are_homeomorphic(g, corpus.circle())

    def test_theta_edge_three_times(self):
        th = corpus.theta()
        g, _ = th.subdivide(th.edges[0].eid, 3)
        assert len(g.vertices) == 5
        assert are_homeomorphic(g, th)

    def test_unknown_edge(self):
        with pytest.raises(GraphError, match="unknown edge"):
            corpus.arc().subdivide("nope", 1)

    def test_leaves_no_edge_map(self):
        th = corpus.theta()
        g, _ = th.subdivide(th.edges[0].eid, 2)
        g, _ = g.subdivide(th.edges[0].eid, 1)
        assert "edge_map" not in th._cache and "edge_map" not in g._cache

    def test_fresh_ids_in_order_along_edge(self):
        g, fresh = corpus.arc().subdivide("e0", 3)
        # walking from endpoint a must meet the fresh vertices in order
        at = "a"
        seen = []
        prev = None
        while at != "b":
            inc = [e for e in g.incident(at) if e.eid != prev]
            e = inc[0]
            at = e.other(at)
            prev = e.eid
            if at != "b":
                seen.append(at)
        assert seen == list(fresh)


def assert_same_smoothing(g):
    """``smooth`` and the quadratic oracle agree up to edge orientation."""
    got, want = smooth(g), naive_smooth(g)
    assert got.vertices == want.vertices
    assert {e.eid: {e.a, e.b} for e in got.edges} == {e.eid: {e.a, e.b} for e in want.edges}
    assert (got is g) == (want is g)


def chain_smoothing(g):
    """``smooth(g)`` by union-find over the edges that meet at suppressible vertices.

    Each class is a chain; its merged edge keeps the idkey-least id and runs
    from the chain's later kept end (in vertex order) to its earlier one.  A
    cycle becomes a loop at the idkey-greatest vertex.
    """
    parent = {e.eid: e.eid for e in g.edges}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    suppressed = set()
    for v in g.vertices:
        inc = g.incident(v)
        if g.degree(v) == 2 and len(inc) == 2:
            suppressed.add(v)
            parent[find(inc[0].eid)] = find(inc[1].eid)
    if not suppressed:
        return g
    chains = {}
    for e in g.edges:
        chains.setdefault(find(e.eid), []).append(e)
    kept = [v for v in g.vertices if v not in suppressed]
    if not kept:
        v = g.vertices[-1]
        return Multigraph([v], [Edge(min(parent, key=idkey), v, v)])
    merged = []
    for chain in chains.values():
        eid = min((e.eid for e in chain), key=idkey)
        ends = sorted({x for e in chain for x in (e.a, e.b) if x not in suppressed}, key=idkey)
        merged.append(Edge(eid, ends[-1], ends[0]))
    return Multigraph(kept, merged)


class TestSmooth:
    def test_path_to_edge(self):
        g = build("abc", [("a", "b"), ("b", "c")])
        s = smooth(g)
        assert len(s.vertices) == 2 and len(s.edges) == 1
        assert set(s.vertices) == {"a", "c"}

    def test_four_cycle_to_circle_form(self):
        g = build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        s = smooth(g)
        assert len(s.vertices) == 1 and len(s.edges) == 1
        assert s.edges[0].is_loop

    def test_subdivided_theta(self):
        th = corpus.theta()
        g, _ = th.subdivide("e1", 2)
        g, _ = g.subdivide("e2", 1)
        assert are_homeomorphic(smooth(g), th)

    def test_disconnected_rejected(self):
        g = build("ab", [("a", "a"), ("b", "b")])
        with pytest.raises(GraphError):
            smooth(g)

    def test_matches_naive_on_subdivided_corpus(self):
        rng = random.Random(11)
        for ce in corpus.CORPUS:
            g = ce.builder()
            assert_same_smoothing(g)
            for _ in range(3):
                assert_same_smoothing(randomly_subdivided(g, rng, 3, 3))

    def test_matches_naive_on_census(self, small_census):
        from arcon.census import reduced_multigraphs

        rng = random.Random(12)
        graphs = [g for k in small_census for g in small_census[k]]
        graphs += list(reduced_multigraphs(6))
        for g in graphs:
            assert_same_smoothing(g)
            assert_same_smoothing(randomly_subdivided(g, rng, 2, 2))

    @given(graphs_connected)
    def test_matches_naive_on_random(self, g):
        assert_same_smoothing(g)

    def test_chain_closing_into_a_loop(self):
        # a - b - c - a through two suppressible vertices, and a whisker a - d
        g = build("abcd", [("z", "a", "b"), ("c1", "b", "c"), ("m", "c", "a"), ("w", "a", "d")])
        assert smooth(g) == Multigraph("ad", [Edge("c1", "a", "a"), Edge("w", "d", "a")])

    def test_parallel_chains(self):
        # three chains between u and v, subdivided differently; each keeps
        # its least id and runs from v to u
        g = build(["u", "v", 1, 2, 3], [("k", "u", 1), ("b", 1, "v"), ("j", "v", 2),
                                        ("h", 2, 3), ("a", 3, "u"), ("q", "u", "v")])
        assert smooth(g) == Multigraph(["u", "v"], [
            Edge("b", "v", "u"), Edge("a", "v", "u"), Edge("q", "v", "u")])

    def test_loops_at_kept_vertices(self):
        # a lone loop is the circle form; a loop at a branch point stays as it is
        c = corpus.circle()
        assert smooth(c) is c
        g = build("axyb", [("e0", "a", "a"), ("e3", "a", "x"), ("e1", "x", "y"),
                           ("e2", "y", "b")])
        assert smooth(g) == Multigraph("ab", [Edge("e0", "a", "a"), Edge("e1", "b", "a")])

    def test_pure_cycle(self):
        g = build([2, 0, 1, 3], [("f", 0, 1), ("d", 1, 2), ("e", 2, 3), ("g", 3, 0)])
        assert smooth(g) == Multigraph([3], [Edge("d", 3, 3)])

    def test_orientation_and_ids_on_subdivided_census(self, small_census):
        rng = random.Random(13)
        for graphs in small_census.values():
            for g in graphs:
                assert smooth(g) == chain_smoothing(g)
                for _ in range(2):
                    h = randomly_subdivided(g, rng, 3, 3)
                    assert smooth(h) == chain_smoothing(h)
                    r = relabeled(h, rng)  # string ids, in another order
                    assert smooth(r) == chain_smoothing(r)

    @given(graphs_connected)
    def test_orientation_and_ids_on_random(self, g):
        assert smooth(g) == chain_smoothing(g)

    @given(graphs_connected)
    def test_idempotent(self, g):
        s = smooth(g)
        assert smooth(s) == s

    @given(graphs_any)
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


class TestBranchStructure:
    def test_triod(self):
        g = corpus.triod()
        assert branch_points(g) == {"c"}
        assert graph_endpoints(g) == {"l0", "l1", "l2"}
        assert len(terminal_edges(g)) == 3

    def test_theta(self):
        g = corpus.theta()
        assert branch_points(g) == {"a", "b"}
        assert graph_endpoints(g) == frozenset()
        assert terminal_edges(g) == ()

    def test_circle_two_whiskers(self):
        g = corpus.circle_two_whiskers()
        assert len(branch_points(g)) == 2
        assert len(terminal_edges(g)) == 2

    def test_invariant_under_subdivision(self):
        rng = random.Random(7)
        for ce in [corpus.entry("triod"), corpus.entry("circle-two-whiskers"),
                   corpus.entry("k33"), corpus.entry("lollipop")]:
            g = ce.builder()
            h = g
            for _ in range(3):
                e = rng.choice(h.edges)
                h, _ = h.subdivide(e.eid, rng.randint(1, 3))
            assert len(branch_points(h)) == len(branch_points(g))
            assert len(terminal_edges(h)) == len(terminal_edges(g))
            assert len(graph_endpoints(h)) == len(graph_endpoints(g))

    @given(graphs_connected, st.integers(1, 3), st.randoms())
    def test_subdivision_preserves_homeomorphism_type(self, g, k, rng):
        e = rng.choice(g.edges)
        h, _ = g.subdivide(e.eid, k)
        assert are_homeomorphic(g, h)


class TestTextFormat:
    def test_parse_basic(self):
        g = parse_graph_text("# a triangle with a tail\na b\nb c\nc a\n\na t # whisker\n")
        assert len(g.edges) == 4
        assert g.degree("a") == 3

    def test_isolated_vertex_and_loop_at_v(self):
        g = parse_graph_text("a b\nv c\n")
        assert "c" in g.vertices and g.degree("c") == 0
        h = parse_graph_text("v v\n")  # loop at a vertex literally named v
        assert h.degree("v") == 2

    def test_parallel_edges_by_repetition(self):
        g = parse_graph_text("a b\na b\na b\n")
        assert are_homeomorphic(g, corpus.theta())

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_graph_text("a b c\n")
        with pytest.raises(ParseError):
            parse_graph_text("# nothing but comments\n")

    def test_round_trip_corpus(self):
        for ce in corpus.CORPUS:
            g = ce.builder()
            back = parse_graph_text(format_graph_text(g))
            assert are_homeomorphic(back, g)

    def test_isolated_vertex_named_v_refused(self):
        # "v v" would read back as a loop at v
        g = Multigraph(["a", "b", "v"], [Edge("e0", "a", "b")])
        with pytest.raises(GraphError, match="'v'"):
            format_graph_text(g)
        h = Multigraph(["a", "b", "w"], [Edge("e0", "a", "b")])
        assert parse_graph_text(format_graph_text(h)).vertices == ("a", "b", "w")

    def test_id_with_hash_or_whitespace_refused(self):
        # "x#1" would read back as "x", folding two leaves of the star into a digon
        for leaves in (["x#1", "x#2", "y"], ["x 1", "x2", "y"], ["", "x2", "y"]):
            g = build(["c"] + leaves, [("c", leaf) for leaf in leaves])
            with pytest.raises(GraphError, match=repr(leaves[0])):
                format_graph_text(g)

    def test_subdivided_chain_id_refused(self):
        # subdividing edge "e0#1" makes the vertex "e0#1.1"
        g, _ = corpus.arc().subdivide("e0", 1)
        g, fresh = g.subdivide("e0#1", 1)
        assert fresh == ("e0#1.1",)
        with pytest.raises(GraphError, match="e0#1.1"):
            format_graph_text(g)

    def test_ids_sharing_a_name_refused(self):
        g = build([1, "1", "a"], [(1, "a"), ("1", "a")])
        with pytest.raises(GraphError, match="cannot be written"):
            format_graph_text(g)

    @given(graphs_connected)
    def test_round_trip_random(self, g):
        back = parse_graph_text(format_graph_text(g))
        assert are_homeomorphic(back, g)


def test_relabeling_is_isomorphic():
    rng = random.Random(0)
    for ce in corpus.CORPUS:
        g = ce.builder()
        assert are_homeomorphic(g, relabeled(g, rng))
