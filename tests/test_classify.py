import random

import pytest

from arcon import (
    GraphError,
    HomeoClass,
    ac_number,
    branch_points,
    build,
    covering_arc,
    cross_check,
    homeo_class,
    is_7ac_theorem,
    is_n_ac,
    necessary_conditions,
    obstruction_7,
    reduced_graph,
    reduced_multigraphs,
    smooth,
)
from arcon import corpus
from arcon.arcsearch import _covered
from arcon.classify import OMEGA_CLASSES
from arcon.obstructions import RULE_3CUT, RULE_3ENDS, RULE_3LEAF, end_count_obstruction
from arcon.placements import realize

from conftest import fewest_end_loads, randomly_subdivided


class TestReducedGraph:
    def test_lollipop_reduces_to_circle(self):
        red = reduced_graph(corpus.lollipop())
        assert not red.degenerate
        assert homeo_class(red.graph) is HomeoClass.CIRCLE

    def test_triod_degenerates(self):
        red = reduced_graph(corpus.triod())
        assert red.degenerate
        assert homeo_class(red.graph) is HomeoClass.ARC

    def test_circle_two_whiskers(self):
        red = reduced_graph(corpus.circle_two_whiskers())
        assert not red.degenerate
        assert homeo_class(red.graph) is HomeoClass.CIRCLE

    def test_no_terminal_edges_left(self):
        from arcon import terminal_edges

        g = build("abcdt", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "t")])
        red = reduced_graph(g)
        assert not red.degenerate
        assert terminal_edges(red.graph) == ()

    def test_theta_already_reduced(self):
        red = reduced_graph(corpus.theta())
        assert red.graph == corpus.theta()

    def test_prune_implication_and_converse_failure(self):
        # pruning preserves coverability levels; the converse fails on the triod
        g = corpus.triod()
        red = reduced_graph(g).graph
        ok, _ = is_n_ac(red, 3)
        assert ok  # the leftover arc is 3-ac
        bad, _ = is_n_ac(g, 3)
        assert not bad  # while the triod itself is not


class TestHomeoClass:
    def test_subdivided_dumbbell(self):
        g, _ = corpus.dumbbell().subdivide("e0", 3)
        g, _ = g.subdivide("e1", 1)
        assert homeo_class(g) is HomeoClass.DUMBBELL

    def test_k33_is_other(self):
        assert homeo_class(corpus.k33()) is HomeoClass.OTHER

    def test_four_cycle_is_circle(self):
        g = build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert homeo_class(g) is HomeoClass.CIRCLE

    def test_two_loops_one_vertex_plus_stick_is_not_dumbbell(self):
        # same vertex/edge/loop counts as the dumbbell, different space
        g = build("ab", [("a", "a"), ("a", "a"), ("a", "b")])
        assert homeo_class(g) is HomeoClass.OTHER

    def test_all_six_recognized(self):
        expect = {
            "arc": HomeoClass.ARC, "circle": HomeoClass.CIRCLE,
            "figure-eight": HomeoClass.FIGURE_EIGHT, "lollipop": HomeoClass.LOLLIPOP,
            "dumbbell": HomeoClass.DUMBBELL, "theta": HomeoClass.THETA,
        }
        for name, cls in expect.items():
            assert homeo_class(corpus.entry(name).builder()) is cls

    def test_is_7ac_theorem(self):
        assert is_7ac_theorem(corpus.theta())
        assert is_7ac_theorem(corpus.arc())
        assert not is_7ac_theorem(corpus.double_circle(5))


class TestNecessaryConditions:
    def test_five_star(self):
        rep = necessary_conditions(corpus.star(5))
        assert rep.end_count == 3
        assert rep.refutes(3)

    def test_k33(self):
        rep = necessary_conditions(corpus.k33())
        assert rep.fired == () and rep.end_count == 7
        assert rep.branch_count == 6
        assert rep.refutes(7) and not rep.refutes(6)

    def test_figure_eight_clean(self):
        rep = necessary_conditions(corpus.figure_eight())
        assert rep.fired == () and rep.end_count is None
        assert rep.branch_count == 1 and rep.max_branch_degree == 4

    def test_two_deg4_rule(self):
        g = build("ab", [("a", "b"), ("a", "b"), ("a", "a"), ("b", "b")])
        rep = necessary_conditions(g)
        assert rep.end_count == 4
        assert rep.refutes(4) and not rep.refutes(3)

    def test_cut_rule_on_whiskered_figure_eight(self):
        # two loops and a whisker at one vertex: three components of g - v,
        # but only one endpoint
        g = build("ab", [("a", "a"), ("a", "a"), ("a", "b")])
        rep = necessary_conditions(g)
        assert rep.fired == (RULE_3CUT,) and rep.end_count == 3
        assert rep.refutes(3)

    def test_endpoint_rule_on_whiskered_k33(self):
        # whiskers at three vertices: three endpoints, and K3,3 minus a
        # whiskered vertex leaves only two components
        us, ws = ["u1", "u2", "u3"], ["w1", "w2", "w3"]
        g = build(us + ws + ["t1", "t2", "t3"],
                  [(u, w) for u in us for w in ws] + [("u1", "t1"), ("u2", "t2"), ("w1", "t3")])
        rep = necessary_conditions(g)
        assert rep.fired == (RULE_3ENDS,) and rep.end_count == 3
        assert rep.refutes(3)

    def test_leaf_block_rule_on_looped_triangle(self):
        # a loop at each corner: three leaf blocks, but no endpoint and no
        # vertex in three blocks
        g = build("abc", [("a", "b"), ("b", "c"), ("c", "a"),
                          ("a", "a"), ("b", "b"), ("c", "c")])
        rep = necessary_conditions(g)
        assert rep.fired == (RULE_3LEAF,) and rep.end_count == 4
        assert rep.refutes(3) and not is_n_ac(g, 3)[0]

    def test_lollipop_and_figure_eight_clean(self):
        assert necessary_conditions(corpus.lollipop()).fired == ()
        assert necessary_conditions(corpus.figure_eight()).fired == ()

    def test_computed_on_smoothed_form(self):
        g, _ = corpus.star(5).subdivide("e0", 2)
        rep = necessary_conditions(g)
        assert rep.max_branch_degree == 5 and rep.end_count == 3


class TestObstruction7:
    @pytest.mark.parametrize("builder", [corpus.triple_triod, corpus.k33,
                                         lambda: corpus.double_circle(4)])
    def test_placement_is_uncoverable(self, builder):
        g = builder()
        p = obstruction_7(g)
        assert p.n == 7 and not p.marks
        sub, marked = realize(g, p)
        assert covering_arc(sub, marked) is None

    def test_works_through_subdivision(self, census_to_six):
        inputs = [corpus.triple_triod().subdivide("e0", 2)[0]]
        rng = random.Random(7)
        inputs += [randomly_subdivided(g, rng, 2, 2)
                   for g in census_to_six + list(reduced_multigraphs(7))
                   if len(branch_points(g)) >= 3]
        assert len(inputs) == 1 + 343
        for h in inputs:
            # built on the smoothed graph, named by the chains' kept edge ids
            p = obstruction_7(h)
            p.validate(h)
            assert p == obstruction_7(smooth(h))
            assert covering_arc(*realize(h, p)) is None

    def test_loop_supplies_two_edge_ends(self):
        # branch points carrying loops: a loop supplies two edge-ends
        g = build(
            "abc",
            [("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"), ("c", "c")],
        )
        p = obstruction_7(g)
        sub, marked = realize(g, p)
        assert covering_arc(sub, marked) is None

    def test_raises_on_the_six_shapes(self):
        for name in ("arc", "circle", "figure-eight", "lollipop", "dumbbell", "theta"):
            with pytest.raises(GraphError, match="six shapes"):
                obstruction_7(corpus.entry(name).builder())


class TestEndCountObstruction:
    def test_fewest_points_through_seven_edges(self, census_to_six):
        for g in census_to_six + list(reduced_multigraphs(7)):
            p = end_count_obstruction(g)
            assert (None if p is None else p.n) == fewest_end_loads(g), g.edges

    def test_none_exactly_on_the_six_shapes(self, census_to_six):
        graphs = census_to_six + list(reduced_multigraphs(7)) + list(reduced_multigraphs(8))
        for g in graphs:
            p = end_count_obstruction(g)
            if homeo_class(g) in OMEGA_CLASSES:
                assert p is None, g.edges
                continue
            assert not p.marks and {c for _, c in p.counts} == {1}
            assert not _covered(g, p), g.edges
            assert p.n > ac_number(g).number, g.edges

    def test_same_placement_on_subdivisions(self, census_to_six):
        rng = random.Random(11)
        for g in census_to_six:
            h = randomly_subdivided(g, rng, 2, 2)
            assert end_count_obstruction(h) == end_count_obstruction(smooth(h)), g.edges

    def test_loaded_edges_are_cached(self):
        g = corpus.k33()
        p = end_count_obstruction(g)
        assert g._cache["end_count"] == tuple(e for e, _ in p.counts)
        theta = corpus.theta()
        assert end_count_obstruction(theta) is None and theta._cache["end_count"] is None


class TestCrossCheck:
    def test_six_collapsible_shapes(self):
        for name in ("arc", "circle", "figure-eight", "lollipop", "dumbbell", "theta"):
            g = corpus.entry(name).builder()
            assert cross_check(g) and is_n_ac(g, 8)[0]

    def test_k33(self):
        assert cross_check(corpus.k33())

    def test_circle_three_spokes(self):
        assert cross_check(corpus.circle_three_spokes())
