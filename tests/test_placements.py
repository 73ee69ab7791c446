import itertools
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcon import GraphError, build, covering_arc, reduced_multigraphs
from arcon import corpus
from arcon import placements
from arcon.arcsearch import _find_covering_path, _uncovered
from arcon.placements import (
    Placement,
    _WitnessIndex,
    _edge_masks,
    _realize_masks,
    _supports,
    iter_placements_indexed,
    realize,
)
from arcon.symmetry import graph_index

from conftest import (automorphisms, compositions, enumerate_placements, naive_orbit_count,
                      reference_supports, refined)


def double_star():
    return build(
        "ab" + "pqr" + "xyz",
        [("a", "b"), ("a", "p"), ("a", "q"), ("a", "r"),
         ("b", "x"), ("b", "y"), ("b", "z")],
    )


GRAPHS = {"star(5)": lambda: corpus.star(5), "double-star": double_star}


def key_of(g, p: Placement):
    gi = graph_index(g)
    marks = tuple(sorted(g.vertices.index(v) for v in p.marks))
    cm = p.count_map()
    return (marks, tuple(cm.get(e, 0) for e in gi.slot_eids))


class TestEnumerate:
    def test_arc_two_points(self):
        # independent oracle: 4 raw (subset, count) pairs quotient to 3 under the flip
        g = corpus.arc()
        assert naive_orbit_count(g, 2) == 3
        reps = list(enumerate_placements(g, 2))
        assert [(sorted(p.marks), p.count_map()) for p in reps] == [
            ([], {"e0": 2}),
            (["a"], {"e0": 1}),
            (["a", "b"], {}),
        ]

    def test_circle_one_point(self):
        reps = list(enumerate_placements(corpus.circle(), 1))
        assert len(reps) == 2  # the vertex, or one interior point

    def test_triod_three_interior(self):
        reps = list(enumerate_placements(corpus.triod(), 3))
        assert any(
            not p.marks and sorted(p.count_map().values()) == [1, 1, 1] for p in reps
        )

    @pytest.mark.parametrize(
        "name,n",
        [("arc", 3), ("circle", 3), ("theta", 3), ("triod", 3), ("figure-eight", 3),
         ("dumbbell", 3), ("lollipop", 4), ("circle-two-whiskers", 3),
         ("circle-two-chords", 3), ("circle-three-spokes", 3), ("k33", 2)],
    )
    def test_exactly_one_rep_per_orbit(self, name, n):
        g = corpus.entry(name).builder()
        assert len(list(enumerate_placements(g, n))) == naive_orbit_count(g, n)

    def test_twin_block_graphs_match_oracle(self):
        # every census class up to 5 edges: twin-block, trivial and other groups
        graphs = [corpus.star(5), double_star()]
        graphs += [g for k in range(1, 6) for g in reduced_multigraphs(k)]
        for g in graphs:
            for n in (1, 2, 3, 4):
                assert len(list(enumerate_placements(g, n))) == naive_orbit_count(g, n)

    def test_corpus_matches_oracle(self):
        for ce in corpus.CORPUS:
            g = ce.builder()
            if len(g.edges) <= 9:
                for n in (1, 2, 3, 4):
                    assert len(list(enumerate_placements(g, n))) == naive_orbit_count(g, n)

    def test_stream_is_lex_sorted_and_deterministic(self):
        g = corpus.circle_two_chords()
        reps = list(enumerate_placements(g, 3))
        keys = [key_of(g, p) for p in reps]
        assert keys == sorted(keys)
        assert reps == list(enumerate_placements(g, 3))

    @pytest.mark.parametrize("name", ["theta", "dumbbell", "circle-two-whiskers",
                                      "star(5)", "double-star", "k33"])
    def test_reps_are_lex_least_in_orbit(self, name):
        from arcon.multigraph import idkey

        g = GRAPHS[name]() if name in GRAPHS else corpus.entry(name).builder()
        pairs = automorphisms(g)
        eids = sorted((e.eid for e in g.edges), key=idkey)
        eidx = {e: i for i, e in enumerate(eids)}
        gi = graph_index(g)
        for p in enumerate_placements(g, 3):
            base = key_of(g, p)
            cm = p.count_map()
            for vmap, emap in pairs:
                marks2 = tuple(sorted(g.vertices.index(vmap[v]) for v in p.marks))
                cvec2 = [0] * len(eids)
                for e, c in cm.items():
                    cvec2[eidx[emap[e]]] = c
                img = (marks2, tuple(cvec2[eidx[e]] for e in gi.slot_eids))
                assert base <= img

    def test_sizes_sum_to_n(self):
        for p in enumerate_placements(corpus.dumbbell(), 4):
            assert p.n == 4

    def test_rejects_disconnected(self):
        g = build("ab", [("a", "a"), ("b", "b")])
        with pytest.raises(GraphError):
            list(enumerate_placements(g, 2))


def test_covered_filter_drops_exactly_the_accepted_shadows(small_census):
    # with a fixed witness list the walk drops from the stream exactly the
    # representatives some listed shadow holds.  The first list's witness
    # holds every slot but slot 0, a whole slot suffix, so the subtree skip
    # fires; the second list is drawn at random
    rng = random.Random(0)
    graphs = [g for k in sorted(small_census) for g in small_census[k]]
    graphs += [g for g in (ce.builder() for ce in corpus.CORPUS) if len(g.edges) <= 9]
    for g in graphs:
        gi = graph_index(g)
        lists = [[(1 << (gi.nslots - 1)) - 1],
                 [rng.getrandbits(gi.nslots) for _ in range(3)]]
        for n in (1, 2, 3, 4):
            stream = list(iter_placements_indexed(gi, n))
            for witnesses in lists:
                assert list(iter_placements_indexed(gi, n, witnesses)) == [
                    sm for sm in stream if not any(sm & ~s == 0 for s in witnesses)]


def test_index_stays_fresh_across_yields(small_census):
    # the consumer appends a seeded random slot mask after every yield, so the
    # walk must emit the witness-free stream minus each support that an
    # entry appended before its turn holds: no more and no fewer.  A leaf
    # after a deeper yield, and a level after a child's, read a grown list
    rng = random.Random(0)
    graphs = [g for k in sorted(small_census) for g in small_census[k]]
    graphs += [g for g in (ce.builder() for ce in corpus.CORPUS) if len(g.edges) <= 9]
    skipped = 0
    for g in graphs:
        gi = graph_index(g)
        for n in (1, 2, 3, 4):
            seed = rng.getrandbits(32)

            def shadows():
                r = random.Random(seed)
                while True:
                    yield r.getrandbits(gi.nslots) | r.getrandbits(gi.nslots)

            witnesses, got, draw = [], [], shadows()
            for x in iter_placements_indexed(gi, n, witnesses):
                got.append(x)
                witnesses.append(next(draw))
            stream = list(iter_placements_indexed(gi, n))
            want, appended, draw = [], [], shadows()
            for sm in stream:
                if not any(sm & ~s == 0 for s in appended):
                    want.append(sm)
                    appended.append(next(draw))
            assert got == want, (g, n)
            skipped += len(stream) - len(want)
    assert skipped > 0


def test_mark_sets_are_the_lex_least_subsets():
    # the enumeration oracle's mark walk drops every extension of a rejected
    # mark set; the mark sets it keeps must be, in order, the subsets that
    # no automorphism maps to a greater key (vertex v at bit N-1-v), i.e.
    # to a lex-smaller tuple
    for g, size in ((refined(corpus.k33()), 72), (refined(corpus.double_circle(4)), 48)):
        gi = graph_index(g)
        N = gi.n
        vmaps = [[g.vertices.index(vmap[v]) for v in g.vertices] for vmap, _ in automorphisms(g)]
        assert len(vmaps) == size

        def key(marks):
            return sum(1 << (N - 1 - v) for v in marks)

        for n in (1, 2, 3, 4):
            got = []
            for p in enumerate_placements(g, n):
                marks = tuple(sorted(g.vertices.index(v) for v in p.marks))
                if not got or got[-1] != marks:
                    got.append(marks)
            subsets = sorted(c for k in range(n + 1) for c in itertools.combinations(range(N), k))
            want = [c for c in subsets if all(key(p[v] for v in c) <= key(c) for p in vmaps)]
            assert got == want


def v_form(cvec) -> bool:
    """1 on every loaded slot but the last, which takes the rest."""
    loaded = [c for c in cvec if c]
    return all(c == 1 for c in loaded[:-1])


def class_slots(class_sizes):
    """Per slot the last slot of its class, and per slot the previous slot of its class or -1."""
    end, prev = [], []
    for size in class_sizes:
        start = len(prev)
        prev += [-1] + list(range(start, start + size - 1))
        end += [start + size - 1] * size
    return end, prev


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(0, 7))
def test_supports_are_the_v_form_compositions(class_sizes, total):
    # the oracle's walk yields v(S) for every support; the scan's walk
    # yields the supports of exactly `total` slots, each slot one point
    end, prev = class_slots(class_sizes)
    got = list(reference_supports(total, len(prev), set(end)))
    want = [c for c in compositions(total, len(prev), prev) if v_form(c)]
    # slot s is bit nslots-1-s
    assert got == [int("".join("1" if c else "0" for c in cvec), 2) for cvec in want]
    if total:  # the scan asks for min(n, m) >= 1 slots
        got = list(_supports(total, end, _WitnessIndex((), len(end))))
        want = [c for c in compositions(total, len(prev), prev) if max(c) <= 1]
        assert total > len(end) or want
        assert got == [int("".join(map(str, cvec)), 2) for cvec in want]


@settings(max_examples=300)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(1, 6),
       st.integers(0, 4), st.data())
def test_walk_matches_reference_walk(class_sizes, k, nstart, data):
    # the walk against a filter of every class-suffix k-slot support in
    # ascending order: same starting witnesses, and a consumer that appends
    # the same seeded slot masks after yields.  Masks are dense, so levels
    # get pruned
    end, _ = class_slots(class_sizes)
    nslots = len(end)
    k = min(k, nslots)
    seed = data.draw(st.integers(0, 2**32 - 1))

    supports = sorted(sum(1 << (nslots - 1 - s) for s in c)
                      for c in itertools.combinations(range(nslots), k)
                      if all(s + 1 in c for s in c if s != end[s]))

    def reference(witnesses):
        for sm in supports:
            if not any(sm & ~w == 0 for w in witnesses):
                yield sm

    def stream(walk):
        r = random.Random(seed)
        witnesses = [r.getrandbits(nslots) | r.getrandbits(nslots) for _ in range(nstart)]
        out = []
        for sm in walk(witnesses):
            out.append(sm)
            witnesses.extend(r.getrandbits(nslots) | r.getrandbits(nslots)
                             for _ in range(r.choice((0, 0, 1, 2))))
        return out

    want = stream(reference)
    assert stream(lambda ws: _supports(k, end, _WitnessIndex(ws, nslots))) == want


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(1, 7))
def test_every_level_yields_without_witnesses(class_sizes, k):
    # a level is entered only when the slots after it can finish a support,
    # so with no witness to prune it, every level yields
    end, _ = class_slots(class_sizes)
    real, empty = placements._support_level, []

    def spy(*a):
        got = 0
        for sm in real(*a):
            got += 1
            yield sm
        empty.append(not got)

    placements._support_level = spy
    try:
        list(_supports(min(k, len(end)), end, _WitnessIndex((), len(end))))
    finally:
        placements._support_level = real
    assert not any(empty)


def test_no_level_is_entered_covered(monkeypatch):
    # the tail test runs before descent: no level starts on a current view
    # whose witnesses already hold every support below it
    real, entered = placements._support_level, []

    def spy(st, lo, rem, forced, sm, hs, known):
        witnesses, tail = st[3], st[5]
        entered.append(known == len(witnesses) and hs & tail[lo] != 0)
        yield from real(st, lo, rem, forced, sm, hs, known)

    monkeypatch.setattr(placements, "_support_level", spy)
    gi = graph_index(refined(corpus.k33()))
    for n in range(2, 7):
        assert list(_uncovered(gi, n)) == []
    assert len(entered) > 1000 and not any(entered)


@settings(max_examples=200)
@given(st.data())
def test_shadow_realization_decides_like_realize(small_census, data):
    # coverability depends only on (marked vertices, loaded slots): one point
    # per loaded slot decides exactly as every point realized on its edge
    graphs = [g for g in (ce.builder() for ce in corpus.CORPUS) if len(g.edges) <= 9]
    graphs += [g for k in sorted(small_census) for g in small_census[k]]
    g = data.draw(st.sampled_from(graphs))
    marks = data.draw(st.sets(st.sampled_from(g.vertices)))
    counts = {e.eid: data.draw(st.integers(0, 3)) for e in g.edges}
    assume(marks or any(counts.values()))
    p = Placement.of(g, marks, counts)
    # the shadow in the scan's slot order
    gi = graph_index(g)
    mm = sum(1 << g.vertices.index(v) for v in marks)
    sm = sum(1 << (gi.nslots - 1 - s) for s, eid in enumerate(gi.slot_eids) if counts[eid])
    uncovered = _find_covering_path(*_realize_masks(gi.n, gi.slot_pairs, mm, sm)) is None
    assert uncovered == (covering_arc(*realize(g, p)) is None)


class TestRealize:
    def test_circle_three_interior(self):
        g = corpus.circle()
        p = Placement.of(g, (), {"e0": 3})
        sub, marked = realize(g, p)
        assert len(sub.vertices) == 4 and len(sub.edges) == 4
        assert len(marked) == 3 and "a" not in marked
        assert not any(e.is_loop for e in sub.edges)

    def test_triod_one_per_edge(self):
        g = corpus.triod()
        p = Placement.of(g, (), {"e0": 1, "e1": 1, "e2": 1})
        sub, marked = realize(g, p)
        assert len(sub.vertices) == 7
        assert len(marked) == 3

    def test_k33_vertex_marks_only(self):
        g = corpus.k33()
        p = Placement.of(g, g.vertices, {})
        sub, marked = realize(g, p)
        assert sub == g
        assert marked == frozenset(g.vertices)

    def test_bare_loop_gets_two_unmarked_points(self):
        g = corpus.lollipop()
        p = Placement.of(g, ["b"], {})
        sub, marked = realize(g, p)
        assert not any(e.is_loop for e in sub.edges)
        assert marked == frozenset(["b"])
        assert len(sub.vertices) == 4  # a, b, two de-looping vertices

    def test_single_point_on_loop_still_loop_free(self):
        g = corpus.circle()
        p = Placement.of(g, (), {"e0": 1})
        sub, marked = realize(g, p)
        assert not any(e.is_loop for e in sub.edges)
        assert len(marked) == 1

    def test_validation(self):
        g = corpus.arc()
        with pytest.raises(GraphError):
            Placement.of(g, ["zzz"], {})
        with pytest.raises(GraphError):
            Placement.of(g, [], {"nope": 1})


def test_scans_leave_no_cyclic_garbage():
    # the support levels are module generators that share one state
    # tuple, so a scan builds no self-referring closure and
    # everything it leaves is freed by reference counting
    import gc

    from arcon import ac_number, is_n_ac

    gc.collect()
    gc.disable()
    try:
        for k in range(1, 8):
            for g in reduced_multigraphs(k):
                ac_number(g, cap=7)
        for g in (corpus.k33(), corpus.double_circle(4)):
            for n in range(2, 7):
                is_n_ac(g, n)
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_edge_masks_are_the_simple_adjacency(census_to_seven):
    # with no marks or counts, _edge_masks is the graph's simple adjacency,
    # which is_planar and the leaf blocks read: parallel edges merged, loops
    # dropped, vertices numbered by sorted id
    for g in census_to_seven + [ce.builder() for ce in corpus.CORPUS]:
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from((e.a, e.b) for e in g.edges)
        nxg.remove_edges_from(list(nx.selfloop_edges(nxg)))
        pos = {v: i for i, v in enumerate(g.vertices)}
        want = [sum(1 << pos[w] for w in nxg[v]) for v in g.vertices]
        assert _edge_masks(g) == (want, 0), g
