import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from arcon import BoundExceeded, are_homeomorphic, build, canonical_form, is_n_ac
from arcon import corpus
from arcon import symmetry
from arcon.symmetry import GraphIndex, _vertex_autos, graph_index

from conftest import automorphisms, enumerate_placements, naive_code, relabeled
from test_multigraph import graphs_any


class TestCanonicalForm:
    def test_relabelings_of_triod_agree(self):
        g1 = corpus.triod()
        g2 = build("wxyz", [("x", "w"), ("y", "w"), ("z", "w")])
        assert canonical_form(g1) == canonical_form(g2)

    def test_theta_vs_dumbbell_differ(self):
        assert canonical_form(corpus.theta()) != canonical_form(corpus.dumbbell())

    def test_k33_automorphism_invariance(self):
        # brute-force derived: K3,3 has exactly 72 automorphism pairs
        g = corpus.k33()
        pairs = automorphisms(g)
        assert len(pairs) == 72
        base = canonical_form(g)
        for vmap, emap in pairs[:20]:
            h = build(g.vertices, [(emap[e.eid], vmap[e.a], vmap[e.b]) for e in g.edges])
            assert canonical_form(h) == base

    def test_vertex_bound(self):
        big = build(range(13), [(i, (i + 1) % 13) for i in range(13)])
        with pytest.raises(BoundExceeded):
            canonical_form(big)

    def test_builds_no_index(self, monkeypatch):
        built = []
        real = GraphIndex.__init__

        def init_spy(self, g):
            built.append(g)
            real(self, g)

        monkeypatch.setattr(GraphIndex, "__init__", init_spy)
        g = corpus.k33()
        assert canonical_form(g) == canonical_form(relabeled(g, random.Random(1)))
        big = build(range(13), [(i, (i + 1) % 13) for i in range(13)])
        with pytest.raises(BoundExceeded):
            canonical_form(big)
        assert built == [] and set(g._cache) == {"canon"}

    @given(graphs_any, st.randoms())
    def test_invariant_under_relabeling(self, g, rng):
        assert canonical_form(relabeled(g, rng)) == canonical_form(g)

    @given(graphs_any, graphs_any)
    def test_matches_naive_permutation_minimum(self, g1, g2):
        same_naive = naive_code(g1) == naive_code(g2)
        same_mine = canonical_form(g1) == canonical_form(g2)
        assert same_naive == same_mine


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "builder,count",
        [(corpus.arc, 2), (corpus.triod, 6), (corpus.theta, 12), (corpus.circle, 1),
         (corpus.figure_eight, 2), (corpus.dumbbell, 2)],
    )
    def test_group_sizes(self, builder, count):
        assert len(automorphisms(builder())) == count

    def test_pairs_are_automorphisms(self):
        g = corpus.circle_two_chords()
        for vmap, emap in automorphisms(g):
            assert set(vmap.values()) == set(g.vertices)
            for e in g.edges:
                img = g.edge(emap[e.eid])
                assert {vmap[e.a], vmap[e.b]} == {img.a, img.b}

    def test_limit(self):
        with pytest.raises(BoundExceeded):
            automorphisms(corpus.star(9), limit=1000)

    def test_identity_present(self):
        g = corpus.lollipop()
        assert any(
            all(vmap[v] == v for v in g.vertices)
            and all(emap[e.eid] == e.eid for e in g.edges)
            for vmap, emap in automorphisms(g)
        )


class TestHomeomorphism:
    def test_subdivided_circle(self):
        g, _ = corpus.circle().subdivide("e0", 4)
        assert are_homeomorphic(g, corpus.circle())

    def test_lollipop_vs_arc(self):
        assert not are_homeomorphic(corpus.lollipop(), corpus.arc())

    def test_double_circle_vs_k33(self):
        # both have 9+ edges but only one embeds in the plane; not homeomorphic
        assert not are_homeomorphic(corpus.double_circle(4), corpus.k33())

    def test_all_census_k3_distinct(self, small_census):
        graphs = small_census[3]
        for a, b in itertools.combinations(graphs, 2):
            assert not are_homeomorphic(a, b)


def test_twin_block_symmetry_matches_explicit_group():
    # twin-heavy simple graphs: the compiled group (its non-identity
    # automorphisms plus the identity) is the whole explicit group
    for g, size in ((corpus.star(6), 720), (corpus.k33(), 72)):
        assert len(graph_index(g).autos()) + 1 == size
        assert len(automorphisms(g, limit=10**6)) == size


def test_twin_classes_bound_the_group_before_listing(monkeypatch):
    # 9 looped petals (two parallel c-a_i edges and a loop at a_i) are twins
    # that do not collapse into a block; their 9! swaps exceed the bound, so
    # the engine fails without building a single automorphism
    from arcon import symmetry

    calls = []
    monkeypatch.setattr(symmetry, "_coset_products", lambda *a: calls.append(a))
    petals = [f"a{i}" for i in range(9)]
    g = build(["c"] + petals, [e for a in petals for e in (("c", a), ("c", a), (a, a))])
    with pytest.raises(BoundExceeded, match="automorphism group"):
        graph_index(g).autos()
    assert calls == []


def test_star_placements_fail_on_the_twin_bound(monkeypatch):
    # the 9 leaves of star(9) are twins, and 9! exceeds the bound, so the
    # enumeration oracle fails before any automorphism is built; is_n_ac
    # answers level 2 by connectivity and needs no group.  K3,8 has
    # 3!·8! = 241,920 automorphisms, and neither probe decides its level 4
    # (the end-count placement has 5 points), so that scan hits the bound
    calls = []
    monkeypatch.setattr(symmetry, "_coset_products", lambda *a: calls.append(a))
    assert is_n_ac(corpus.star(9), 2) == (True, None)
    with pytest.raises(BoundExceeded, match="automorphism group"):
        next(enumerate_placements(corpus.star(9), 2))
    left, right = ["a0", "a1", "a2"], [f"b{i}" for i in range(8)]
    k38 = build(left + right, [(a, b) for a in left for b in right])
    with pytest.raises(BoundExceeded, match="automorphism group"):
        is_n_ac(k38, 4)
    assert calls == []


def test_vertex_autos_match_brute_force():
    # every vertex permutation that keeps loops and multiplicities, once each,
    # on the corpus graphs and their once-subdivided copies
    graphs = []
    for ce in corpus.CORPUS:
        g = r = ce.builder()
        for e in g.edges:
            r, _ = r.subdivide(e.eid, 1)
        graphs += [x for x in (g, r) if len(x.vertices) <= 8]
    for g in graphs:
        gi = graph_index(g)
        n, loops, mult = gi.n, gi.loops, gi.mult
        brute = {p for p in itertools.permutations(range(n))
                 if all(loops[p[v]] == loops[v] for v in range(n))
                 and all(mult[p[u]][p[v]] == mult[u][v]
                         for u in range(n) for v in range(u + 1, n))}
        autos = _vertex_autos(n, loops, mult, 10**6)
        assert len(autos) == len(set(autos))
        assert set(autos) == brute


def test_vertex_autos_bound_the_order_before_building_the_group(monkeypatch):
    # the basic orbits of star(8)'s 8! automorphisms multiply past 1000 long
    # before the last one is found, and no element of the group is built
    calls = []
    monkeypatch.setattr(symmetry, "_coset_products", lambda *a: calls.append(a))
    gi = graph_index(corpus.star(8))
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="automorphism group"):
        _vertex_autos(gi.n, gi.loops, gi.mult, 1000)
    assert time.perf_counter() - start < 0.5
    assert calls == []


def _base(gi):
    """The domain side's pinned vertices: first vertex of the first non-singleton class."""
    adj, base = symmetry._adjacency(gi.mult), []
    colors = symmetry._refine(gi.n, gi.loops, adj,
                              symmetry._degree_colors(gi.n, gi.loops, gi.mult))
    while len(set(colors)) < gi.n:
        b = colors.index(min(c for c in colors if colors.count(c) > 1))
        base.append(b)
        colors = symmetry._refine(gi.n, gi.loops, adj, symmetry._pin(colors, b))
    return base


LARGE_GROUPS = {"k33": corpus.k33(), "double_circle(4)": corpus.double_circle(4),
                "double_circle(5)": corpus.double_circle(5), "star(6)": corpus.star(6),
                "star(7)": corpus.star(7)}


@pytest.mark.parametrize("name", sorted(LARGE_GROUPS))
@pytest.mark.parametrize("subdivided", [False, True])
def test_vertex_autos_match_networkx(name, subdivided):
    # an independent oracle for groups too large to brute-force: VF2's
    # self-isomorphisms of the (simple) graph, each listed once, in base order
    g = LARGE_GROUPS[name]
    if subdivided:
        for e in list(g.edges):
            g, _ = g.subdivide(e.eid, 1)
    gi = graph_index(g)
    assert not any(gi.loops) and max(map(max, gi.mult)) == 1
    simple = nx.Graph()
    simple.add_nodes_from(range(gi.n))
    simple.add_edges_from((i, j) for (i, j, _, _) in gi.classes)
    oracle = {tuple(m[v] for v in range(gi.n))
              for m in GraphMatcher(simple, simple).isomorphisms_iter()}
    autos = _vertex_autos(gi.n, gi.loops, gi.mult, 10**6)
    assert set(autos) == oracle
    keys = [[p[b] for b in _base(gi)] for p in autos]
    assert len(set(map(tuple, keys))) == len(autos)
    assert keys == sorted(keys)
