import random
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcon import (
    BoundExceeded,
    GraphError,
    Multigraph,
    ac_number,
    build,
    covering_arc,
    is_n_ac,
    necessary_conditions,
    reduced_multigraphs,
    refine_check,
    smooth,
)
from arcon import arcsearch, corpus, obstructions, placements
from arcon.obstructions import RULE_3CUT, RULE_3ENDS, RULE_3LEAF, leaf_block_obstruction
from arcon.placements import Placement, _to_placement, realize
from arcon.symmetry import GraphIndex, graph_index

from conftest import (
    naive_is_n_ac,
    randomly_subdivided,
    raw_ac_label,
    reference_covering_path,
    refined,
    relabeled,
)


def spy_is_n_ac(monkeypatch):
    """Record ``(graph, n)`` of every ``arcsearch.is_n_ac`` call."""
    calls = []
    real = arcsearch.is_n_ac

    def spy(g, n, *a, **k):
        calls.append((g, n))
        return real(g, n, *a, **k)

    monkeypatch.setattr(arcsearch, "is_n_ac", spy)
    return calls


def looped_or_parallel():
    """The corpus graphs with a loop or a parallel edge."""
    return [g for g in (ce.builder() for ce in corpus.CORPUS)
            if len({frozenset((e.a, e.b)) for e in g.edges}) < len(g.edges)
            or any(e.is_loop for e in g.edges)]


class TestCoveringArc:
    def test_path_graph(self):
        g = build("amb", [("a", "m"), ("m", "b")])
        w = covering_arc(g, {"a", "b"})
        assert w is not None
        assert w.vertices == ("a", "m", "b")
        w.validate()

    def test_realized_triod_has_no_cover(self):
        g = corpus.triod()
        p = Placement.of(g, (), {"e0": 1, "e1": 1, "e2": 1})
        sub, marked = realize(g, p)
        assert covering_arc(sub, marked) is None

    def test_realized_circle_always_covered(self):
        g = corpus.circle()
        for n in range(1, 6):
            p = Placement.of(g, (), {"e0": n})
            sub, marked = realize(g, p)
            w = covering_arc(sub, marked)
            assert w is not None
            w.validate()

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop-free"):
            covering_arc(corpus.circle(), {"a"})

    def test_empty_marked_rejected(self):
        with pytest.raises(GraphError, match="nonempty"):
            covering_arc(corpus.arc(), ())

    def test_path_deeper_than_the_recursion_limit_is_a_bound(self):
        g = build(range(1200), [(i, i + 1) for i in range(1199)])
        with pytest.raises(BoundExceeded, match="recursion limit"):
            covering_arc(g, {0, 1199})

    def test_builds_no_index(self, monkeypatch):
        built, real = [], GraphIndex.__init__

        def init_spy(self, g):
            built.append(g)
            real(self, g)

        g = corpus.k33()
        p = obstructions.obstruction_7(g)
        monkeypatch.setattr(GraphIndex, "__init__", init_spy)
        assert covering_arc(*realize(g, p)) is None
        assert built == []

    def test_single_marked_vertex(self):
        w = covering_arc(corpus.arc(), {"a"})
        assert w is not None and w.vertices == ("a",)

    def test_witness_endpoints_are_marked(self):
        g = corpus.circle_two_chords()
        p = Placement.of(g, ["v1"], {"e0": 1, "e3": 1})
        sub, marked = realize(g, p)
        w = covering_arc(sub, marked)
        assert w is not None
        assert w.vertices[0] in marked and w.vertices[-1] in marked
        assert marked <= set(w.vertices)


@st.composite
def search_inputs(draw, max_vertices=12):
    """A connected loop-free adjacency-mask list and a nonempty marked mask."""
    n = draw(st.integers(1, max_vertices))
    nmask = [0] * n
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # a spanning tree
    if n > 1:
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2 * n))
    for a, b in pairs:
        if a != b:
            nmask[a] |= 1 << b
            nmask[b] |= 1 << a
    return nmask, draw(st.integers(1, (1 << n) - 1))


class TestCoveringPathSearch:
    """The end-counting prune cuts only subtrees with no completion."""

    @settings(max_examples=300)
    @given(search_inputs())
    def test_matches_reference_on_random_graphs(self, case):
        nmask, marked = case
        assert arcsearch._find_covering_path(nmask, marked) == \
            reference_covering_path(nmask, marked)

    def test_matches_reference_on_ac_number_searches(self, monkeypatch, census_to_six):
        real = arcsearch._find_covering_path
        searches = []

        def compared(nmask, marked):
            path = real(nmask, marked)
            assert path == reference_covering_path(nmask, marked), (nmask, marked)
            searches.append(path)
            return path

        monkeypatch.setattr(arcsearch, "_find_covering_path", compared)
        for g in census_to_six:
            ac_number(g)
            ac_number(randomly_subdivided(g, random.Random(len(searches)), 2, 2))
        assert None in searches and len(searches) > len(census_to_six)

    def test_star_leaves_need_no_search(self, monkeypatch):
        # each start leaves the other two leaves as forced ends
        calls = []
        real = arcsearch._dfs

        def spy(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(arcsearch, "_dfs", spy)
        assert covering_arc(corpus.star(3), {"l0", "l1", "l2"}) is None
        assert calls == []
        assert covering_arc(corpus.star(3), {"l0", "l1"}) is not None
        assert calls

    def test_failed_start_is_no_end(self, monkeypatch):
        # hub c=3 with leaves p=0 and q=1 and a branch c - m=2 - r=4, marks
        # p, q, m: p and q are forced ends, so the start at m is skipped, and
        # once the start at p fails, so is the one at q (p is a forced end
        # that failed)
        starts = []
        real = arcsearch._dfs

        def spy(nmask, marked, full, failed, path, v, visited, ends):
            if visited == 1 << v:
                starts.append(v)
            return real(nmask, marked, full, failed, path, v, visited, ends)

        monkeypatch.setattr(arcsearch, "_dfs", spy)
        nmask = [0b1000, 0b1000, 0b11000, 0b111, 0b100]
        assert arcsearch._find_covering_path(nmask, 0b111) is None
        assert reference_covering_path(nmask, 0b111) is None
        assert starts == [0]


class TestIsNAc:
    def test_triod(self):
        ok, _ = is_n_ac(corpus.triod(), 2)
        assert ok
        ok, cex = is_n_ac(corpus.triod(), 3)
        assert not ok
        # the endpoint probe answers first: marks at the three leaves
        assert cex == Placement.of(corpus.triod(), ["l0", "l1", "l2"])

    def test_triod_counterexample_is_lex_least(self):
        # scanning in lex order, earlier placements are coverable
        gi = graph_index(corpus.triod())
        mm, sm = next(arcsearch._uncovered(gi, 3))
        assert mm == 0 and sm == 0b111

    def test_k33(self):
        ok, _ = is_n_ac(corpus.k33(), 6)
        assert ok
        ok, cex = is_n_ac(corpus.k33(), 7)
        assert not ok and cex is not None and cex.n == 7

    def test_theta_seven(self):
        ok, _ = is_n_ac(corpus.theta(), 7)
        assert ok

    def test_policies_agree(self, census_to_six):
        # the support scan finds the lex-least failing placement of the full
        # count-vector stream; is_n_ac, probes first, gives the same verdict
        for g in census_to_six + [ce.builder() for ce in corpus.CORPUS]:
            gi = graph_index(g)
            for n in range(3, 8):
                first = next(arcsearch._uncovered(gi, n), None)
                lex = (True, None) if first is None else (False, _to_placement(gi, n, *first))
                assert lex == naive_is_n_ac(g, n)
                assert is_n_ac(g, n)[0] == lex[0]

    def test_witness_hits_are_covered(self, monkeypatch, census_to_six):
        # a support the walk skips as covered must be coverable on its own
        # realization.  The group is emptied, so every support of every mark
        # set is in the witness-free stream, including those the symmetry
        # would hide; the scan runs on past the first failure (up to ten),
        # so placements with marked vertices at failing levels are checked
        # too, and loops and parallel edges stress the slot shadows
        real = arcsearch.iter_placements_indexed
        skips = 0
        for g in census_to_six + looped_or_parallel():
            gi = GraphIndex(g)
            gi._symmetry = SimpleNamespace(autos=[])
            for n in range(3, 8):
                emitted, finished = [], []

                def spy(*a):
                    for x in real(*a):
                        emitted.append(x)
                        yield x
                    finished.append(True)

                monkeypatch.setattr(arcsearch, "iter_placements_indexed", spy)
                for _ in islice(arcsearch._uncovered(gi, n), 10):
                    pass
                stream = list(real(gi, n))
                if not finished:
                    stream = stream[:stream.index(emitted[-1]) + 1]
                kept = set(emitted)
                assert emitted == [x for x in stream if x in kept]
                for mm, sm in stream:
                    if (mm, sm) not in kept:
                        skips += 1
                        sub, marked = realize(g, _to_placement(gi, n, mm, sm))
                        assert covering_arc(sub, marked) is not None, (g, n, mm, sm)
        assert skips > 0

    def test_witness_shadows_are_coverable(self, monkeypatch, census_to_six):
        # every path shadow the scan stores must be an arc: the placement
        # with a mark on each of its vertices and one point on each of its
        # slots is coverable
        real = arcsearch._path_shadow
        shadows = 0
        for g in census_to_six + looped_or_parallel():
            gi = graph_index(g)
            top = gi.nslots - 1

            def checked(*a):
                nonlocal shadows
                vmask, slots = real(*a)
                shadows += 1
                p = Placement.of(
                    g, [gi.vids[v] for v in range(gi.n) if vmask >> v & 1],
                    {gi.slot_eids[s]: 1 for s in range(gi.nslots) if slots >> (top - s) & 1})
                assert covering_arc(*realize(g, p)) is not None, (g, n, vmask, slots)
                return vmask, slots

            monkeypatch.setattr(arcsearch, "_path_shadow", checked)
            for n in range(2, 8):
                for _ in islice(arcsearch._uncovered(gi, n), 10):
                    pass
        assert shadows > 0

    def test_image_shadows_are_arcs(self, monkeypatch, census_to_six):
        # every entry the scan appends, the stabilizer images included, must
        # be an arc: the placement with a mark on each of its vertices and
        # one point on each of its slots is coverable.  The groups are the
        # real ones, and the scan runs on past the first failure (up to ten)
        real_iter, real_shadow = arcsearch.iter_placements_indexed, arcsearch._path_shadow
        lists, found = [], []

        def scan(gi, n, witnesses):
            lists.append(witnesses)
            return real_iter(gi, n, witnesses)

        def shadow(*a):
            found.append(real_shadow(*a))
            return found[-1]

        monkeypatch.setattr(arcsearch, "iter_placements_indexed", scan)
        monkeypatch.setattr(arcsearch, "_path_shadow", shadow)
        images = 0
        for g in census_to_six + looped_or_parallel() + [corpus.k33(), corpus.double_circle(4)]:
            gi = graph_index(g)
            top = gi.nslots - 1
            lists.clear()
            found.clear()
            for n in range(2, 8):
                for _ in islice(arcsearch._uncovered(gi, n), 10):
                    pass
            entries = {x for ws in lists for x in ws}
            images += len(entries - set(found))
            for vmask, slots in entries:
                p = Placement.of(
                    g, [gi.vids[v] for v in range(gi.n) if vmask >> v & 1],
                    {gi.slot_eids[s]: 1 for s in range(gi.nslots) if slots >> (top - s) & 1})
                assert covering_arc(*realize(g, p)) is not None, (g, vmask, slots)
        assert images > 0

    def test_compare_sees_only_representatives(self, monkeypatch):
        # a witness covers its whole orbit under the mark set's stabilizer,
        # so at a passing level the supports that reach the stabilizer
        # compare are exactly the representatives the scan yields
        real_supports, real_iter = placements._supports, arcsearch.iter_placements_indexed
        compared, reps = [], []

        def supports(*a):
            for sm in real_supports(*a):
                compared.append(sm)
                yield sm

        def scan(*a):
            for x in real_iter(*a):
                reps.append(x)
                yield x

        monkeypatch.setattr(placements, "_supports", supports)
        monkeypatch.setattr(arcsearch, "iter_placements_indexed", scan)
        for g, levels in ((refined(corpus.k33()), range(2, 7)),
                          (refined(corpus.double_circle(4)), range(2, 6))):
            gi = graph_index(g)
            for n in levels:
                compared.clear()
                reps.clear()
                assert next(arcsearch._uncovered(gi, n), None) is None
                assert compared == [sm for _, sm in reps], (g, n, len(compared), len(reps))

    def test_witness_list_only_grows(self, monkeypatch):
        # the scan never forgets a witness: no representative that reaches
        # the path search, and no new shadow, is held by an earlier shadow
        # of the same scan
        real_iter, real_shadow = arcsearch.iter_placements_indexed, arcsearch._path_shadow
        shadows: list[tuple[int, int]] = []
        held = []

        def holds(mm, sm):
            return any(not (mm & ~v or sm & ~s) for v, s in shadows)

        def reps(*a):
            for mm, sm in real_iter(*a):
                if holds(mm, sm):
                    held.append(("rep", mm, sm))
                yield mm, sm

        def shadow(*a):
            vmask, slots = real_shadow(*a)
            if holds(vmask, slots):
                held.append(("shadow", vmask, slots))
            shadows.append((vmask, slots))
            return vmask, slots

        monkeypatch.setattr(arcsearch, "iter_placements_indexed", reps)
        monkeypatch.setattr(arcsearch, "_path_shadow", shadow)
        for g in (corpus.k33(), corpus.double_circle(4)):
            gi = graph_index(g)
            for n in range(4, 8):
                shadows.clear()
                for _ in arcsearch._uncovered(gi, n):
                    pass
                assert not held, (g, n, held[:3])

    def test_probe_counterexample_is_genuine(self):
        _, cex = is_n_ac(corpus.k33(), 7)
        sub, marked = realize(corpus.k33(), cex)
        assert covering_arc(sub, marked) is None

    def test_disconnected_rejected(self):
        g = build("ab", [("a", "a"), ("b", "b")])
        with pytest.raises(GraphError):
            is_n_ac(g, 2)

    def test_connected_implies_2ac(self, small_census):
        for k in (1, 2, 3, 4):
            for g in small_census[k]:
                ok, _ = is_n_ac(g, 2)
                assert ok

    def test_monotone_in_n(self, small_census):
        for g in small_census[3] + small_census[4]:
            prev = True
            for n in range(2, 8):
                ok, _ = is_n_ac(g, n)
                assert prev or not ok  # ok at n+1 would contradict failure at n
                prev = ok


class TestAcNumber:
    @pytest.mark.parametrize(
        "name,label",
        [("triod", "2"), ("circle-two-whiskers", "3"), ("circle-two-chords", "4"),
         ("circle-three-spokes", "5"), ("dumbbell", "omega"), ("lollipop", "omega")],
    )
    def test_corpus_values(self, name, label):
        assert ac_number(corpus.entry(name).builder()).label == label

    def test_downward_closed_verdicts(self):
        prof = ac_number(corpus.circle_two_chords())
        seen_false = False
        for _, ok in prof.verdicts:
            if not ok:
                seen_false = True
            assert not (seen_false and ok)

    def test_counterexample_recorded(self):
        prof = ac_number(corpus.triod())
        assert prof.counterexample_n == 3
        assert prof.counterexample is not None

    def test_subdivision_invariance(self):
        rng = random.Random(5)
        for name in ("triod", "circle-two-whiskers", "lollipop", "theta"):
            g = corpus.entry(name).builder()
            h = g
            for _ in range(2):
                e = rng.choice(h.edges)
                h, _ = h.subdivide(e.eid, rng.randint(1, 2))
            assert ac_number(h).label == ac_number(g).label == raw_ac_label(h)

    def test_cap(self):
        prof = ac_number(corpus.triod(), cap=4)
        assert prof.cap == 4 and not prof.omega and prof.number == 2

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            ac_number(build("ab", [("a", "a"), ("b", "b")]))

    def test_levels_three_up_run_on_smoothed_graph(self, monkeypatch):
        h = randomly_subdivided(corpus.circle_two_chords(), random.Random(3), 3, 2)
        s = smooth(h)
        assert s is not h
        calls = spy_is_n_ac(monkeypatch)
        asked = []
        real = arcsearch.leaf_block_obstruction

        def blocks_spy(g):
            asked.append(g)
            return real(g)

        monkeypatch.setattr(arcsearch, "leaf_block_obstruction", blocks_spy)
        prof = ac_number(h)
        assert prof.verdicts[0] == (2, True) and prof.label == "4"
        # level 3 is the block-cut tree theorem, so the scan starts at 4
        assert [n for _, n in calls] == [4, 5]
        assert all(g == s for g, _ in calls)
        assert len(asked) == 1 and asked[0] == s

    def test_one_block_decomposition_per_graph(self, monkeypatch):
        runs = []
        real = obstructions._blocks

        def blocks_spy(nmask):
            runs.append(nmask)
            return real(nmask)

        monkeypatch.setattr(obstructions, "_blocks", blocks_spy)
        g = corpus.k33()
        prof = ac_number(g, cap=7)
        # level 3 and the probes of every higher level share one decomposition
        assert prof.label == "6" and len(runs) == 1
        rep = necessary_conditions(g)
        assert rep.fired == () and rep.end_count == 7 and len(runs) == 1

    def test_counterexample_on_subdivided_graph(self):
        rng = random.Random(8)
        for name in ("triod", "circle-two-whiskers", "circle-two-chords",
                     "circle-three-spokes", "k33"):
            h = randomly_subdivided(corpus.entry(name).builder(), rng, 3, 2)
            assert smooth(h) is not h
            prof = ac_number(h)
            prof.counterexample.validate(h)
            assert prof.counterexample.n == prof.counterexample_n
            sub, marked = realize(h, prof.counterexample)
            assert covering_arc(sub, marked) is None, name

    def test_raw_certification_builds_no_index(self, monkeypatch):
        h = randomly_subdivided(corpus.triod(), random.Random(4), 3, 2)
        s = smooth(h)
        assert s is not h
        built, searched = [], []
        real_init, real_search = GraphIndex.__init__, arcsearch._find_covering_path

        def init_spy(self, g):
            built.append(g)
            real_init(self, g)

        def search_spy(nmask, marked):
            searched.append(marked)
            return real_search(nmask, marked)

        monkeypatch.setattr(GraphIndex, "__init__", init_spy)
        monkeypatch.setattr(arcsearch, "_find_covering_path", search_spy)
        prof = ac_number(h)
        assert prof.counterexample_n == 3
        # one index, of the smoothed graph; one search on it and one on the input
        assert len(built) == 1 and built[0] == s
        assert len(searched) == 2

    def test_raw_certification_raises_when_covered(self, monkeypatch):
        h = randomly_subdivided(corpus.triod(), random.Random(4), 3, 2)
        real, calls = arcsearch._find_covering_path, []

        def covers_on_input(nmask, marked):
            calls.append(marked)
            return real(nmask, marked) if len(calls) == 1 else [marked.bit_length() - 1]

        monkeypatch.setattr(arcsearch, "_find_covering_path", covers_on_input)
        with pytest.raises(GraphError, match="covered on the input graph"):
            ac_number(h)

    def test_raw_input_keeps_no_smoothed_graph(self):
        # the smoothed graph, with its index and blocks, lasts one call
        rng = random.Random(5)
        for name in ("triod", "circle-two-chords", "circle-three-spokes", "k33"):
            h = randomly_subdivided(corpus.entry(name).builder(), rng, 3, 2)
            first = ac_number(h)
            assert not any(isinstance(x, (Multigraph, GraphIndex)) for x in h._cache.values())
            assert ac_number(h) == first, name

    @settings(max_examples=150)
    @given(st.data())
    def test_covered_decides_like_realize(self, data):
        # the realization read from the edges, against the subdivided graph
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        names = [ce.name for ce in corpus.CORPUS if len(ce.builder().edges) <= 9]
        g = corpus.entry(data.draw(st.sampled_from(names))).builder()
        if data.draw(st.booleans()):
            g = randomly_subdivided(g, rng, 2, 2)
        marks = data.draw(st.sets(st.sampled_from(g.vertices)))
        counts = {e.eid: data.draw(st.integers(0, 2)) for e in g.edges}
        assume(marks or any(counts.values()))
        p = Placement.of(g, marks, counts)
        assert arcsearch._covered(g, p) == (covering_arc(*realize(g, p)) is not None)

    def test_census_classes_keep_no_edge_map(self):
        # placements check their edge ids without caching a map on the graph
        classes = list(reduced_multigraphs(7))
        for g in classes:
            ac_number(g)
        assert not any("edge_map" in g._cache for g in classes)


def theorem_applies(g) -> bool:
    """Three degree-1 vertices, or a vertex whose removal leaves three pieces.

    Pieces are counted on the graph with every edge subdivided once, so a
    loop at the vertex is a piece of its own and parallel edges join one.
    """
    if sum(1 for v in g.vertices if g.degree(v) == 1) >= 3:
        return True
    fine = g
    for e in g.edges:
        fine, _ = fine.subdivide(e.eid, 1)
    for v in g.vertices:
        left = set(fine.vertices) - {v}
        pieces = 0
        while left:
            pieces += 1
            stack = [left.pop()]
            while stack:
                for e in fine.incident(stack.pop()):
                    for w in (e.a, e.b):
                        if w in left:
                            left.remove(w)
                            stack.append(w)
        if pieces >= 3:
            return True
    return False


class TestTheoremProbes:
    def test_census_to_seven_fails_level_three_without_symmetry(
            self, census_to_six, monkeypatch):
        from arcon import reduced_multigraphs, symmetry

        def no_symmetry(gi):
            raise AssertionError("placement symmetry built")

        def special(g):
            obs = leaf_block_obstruction(g)
            return obs is not None and obs.rules[0] != RULE_3LEAF

        monkeypatch.setattr(symmetry, "PlacementSymmetry", no_symmetry)
        rng = random.Random(11)
        checked = passed = 0
        for g in census_to_six + list(reduced_multigraphs(7)):
            assert special(g) == theorem_applies(g)
            # degree-2 vertices of an unsmoothed input change nothing
            assert special(randomly_subdivided(g, rng, 2, 2)) == special(g)
            prof = ac_number(g, cap=3)  # passing or failing, no symmetry built
            if leaf_block_obstruction(g) is None:
                assert prof.verdict(3) and prof.counterexample is None
                passed += 1
                continue
            assert prof.label == "2" and prof.counterexample_n == 3
            sub, marked = realize(g, prof.counterexample)
            assert covering_arc(sub, marked) is None
            checked += 1
        assert checked > 100 and passed > 100

    def test_leaf_blocks_decide_level_three(self):
        """The block-cut tree theorem against the scan, with its labels."""
        from arcon import reduced_multigraphs

        census = [g for k in range(1, 9) for g in reduced_multigraphs(k)]
        rng = random.Random(23)
        inputs = census + [ce.builder() for ce in corpus.CORPUS]
        inputs += [relabeled(randomly_subdivided(g, rng, 2, 2), rng) for g in inputs]
        tally = Counter()
        for i, g in enumerate(inputs):
            obs = leaf_block_obstruction(g)
            assert (obs is None) == is_n_ac(g, 3)[0]
            if i < len(census):
                tally["pass" if obs is None else
                      "leaf" if obs.rules == (RULE_3LEAF,) else "special"] += 1
            if obs is None:
                continue
            assert obs.placement.n == 3
            assert covering_arc(*realize(g, obs.placement)) is None
            ends = sum(1 for v in g.vertices if g.degree(v) == 1)
            assert (RULE_3ENDS in obs.rules) == (ends >= 3)
            assert (RULE_3ENDS in obs.rules or RULE_3CUT in obs.rules) == theorem_applies(g)
            assert (RULE_3LEAF in obs.rules) == (obs.rules == (RULE_3LEAF,))
        # 369 pass and 1,459 fail, 54 of them by neither special case
        assert tally == {"pass": 369, "special": 1459 - 54, "leaf": 54}

    def test_many_twins_answered_by_theorems(self):
        petals = [f"a{i}" for i in range(9)]
        looped = build(["c"] + petals,
                       [e for a in petals for e in (("c", a), ("c", a), (a, a))])
        assert ac_number(corpus.star(12)).label == "2"
        assert ac_number(looped).label == "2"


class TestWitnessTriodConditions:
    """Covering arcs through a local triod must pass its center and end on a leg."""

    def cases(self):
        for name in ("theta", "circle-three-spokes", "k33", "circle-two-chords"):
            g = corpus.entry(name).builder()
            for q in g.vertices:
                if g.degree(q) != 3:
                    continue
                inc = g.incident(q)
                if len(inc) < 3:
                    continue  # loops complicate the nearest-point bookkeeping
                yield g, q, {e.eid: 1 for e in inc}

    def test_center_interior_and_leg_endpoint(self):
        checked = 0
        for g, q, counts in self.cases():
            p = Placement.of(g, (), counts)
            sub, marked = realize(g, p)
            w = covering_arc(sub, marked)
            if w is None:
                continue
            w.validate()
            assert q in w.vertices
            assert w.vertices[0] != q and w.vertices[-1] != q
            # each edge at q carries one point, so the three nearest marks are
            # q's neighbours in sub; at least one endpoint of the path is one
            near = {e.other(q) for e in sub.incident(q)}
            assert near <= marked
            assert w.vertices[0] in near or w.vertices[-1] in near
            checked += 1
        assert checked >= 4


class TestRefine:
    @pytest.mark.parametrize("name,n", [("triod", 3), ("circle", 5), ("arc", 4),
                                        ("lollipop", 3), ("figure-eight", 4)])
    def test_small_agreement(self, name, n):
        assert refine_check(corpus.entry(name).builder(), n)

    def test_circle_double_refinement(self):
        g = corpus.circle()
        twice = g
        for e in g.edges:
            twice, _ = twice.subdivide(e.eid, 2)
        assert is_n_ac(g, 5)[0] == is_n_ac(twice, 5)[0]

    def test_k33_level_six(self):
        assert refine_check(corpus.k33(), 6)

    def test_refine_check_stays_raw(self, monkeypatch):
        theta = corpus.theta()
        calls = spy_is_n_ac(monkeypatch)
        assert refine_check(theta, 3)
        assert [n for _, n in calls] == [3, 3]
        assert calls[0][0] is theta
        refined = calls[1][0]
        assert len(refined.edges) == 2 * len(theta.edges)
        assert smooth(refined) is not refined

    def test_refine_check_reuses_its_refined_graph(self, monkeypatch):
        g = corpus.circle_two_chords()
        calls = spy_is_n_ac(monkeypatch)
        assert refine_check(g, 3)
        assert refine_check(g, 5)
        assert [n for _, n in calls] == [3, 3, 5, 5]
        refined = calls[1][0]
        assert calls[3][0] is refined
        monkeypatch.undo()
        fresh, twice = g, g
        for e in g.edges:
            fresh, _ = fresh.subdivide(e.eid, 1)
            twice, _ = twice.subdivide(e.eid, 2)
        assert fresh == refined and fresh is not refined
        for n in (3, 5):
            assert is_n_ac(refined, n) == is_n_ac(fresh, n)
            assert is_n_ac(g, n)[0] == is_n_ac(twice, n)[0]
