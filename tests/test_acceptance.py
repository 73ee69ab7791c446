"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line.  Everything runs in
the default profile.
"""

import random

import pytest

from arcon import (
    GraphError,
    ac_number,
    are_homeomorphic,
    canonical_form,
    covering_arc,
    format_graph_text,
    homeo_class,
    is_7ac_theorem,
    is_n_ac,
    is_planar,
    necessary_conditions,
    obstruction_7,
    parse_graph_text,
    reduced_graph,
    refine_check,
    verify_minimality,
)
from arcon import corpus
from arcon.census import SearchTask, reduced_multigraphs, search
from arcon.arcsearch import _uncovered
from arcon.placements import realize
from arcon.symmetry import graph_index

from conftest import enumerate_placements, raw_ac_label


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def census7():
    """Census of homeomorphism classes with <= 7 smoothed edges."""
    out = []
    for k in range(1, 8):
        out.extend((k, g) for g in reduced_multigraphs(k))
    return out


@pytest.fixture(scope="session")
def census7_brute(census7):
    """Level-7 brute-force verdicts for the census, shared by criteria 2-4."""
    return [(k, g, is_n_ac(g, 7)[0]) for k, g in census7]


EXPECTED_AC = {
    "triod": "2", "circle-two-whiskers": "3", "circle-two-chords": "4",
    "circle-three-spokes": "5", "k33": "6", "double-circle-4": "6",
    "double-circle-5": "6", "arc": "omega", "circle": "omega",
    "figure-eight": "omega", "lollipop": "omega", "dumbbell": "omega",
    "theta": "omega",
}


def test_criterion_1_corpus_exactness():
    got = {}
    for name, want in EXPECTED_AC.items():
        prof = ac_number(corpus.entry(name).builder())
        got[name] = prof.label
    bad = {n: (got[n], EXPECTED_AC[n]) for n in got if got[n] != EXPECTED_AC[n]}
    report("criterion 1: corpus ac-numbers exact", not bad, str(bad) if bad else
           f"{len(got)} graphs")


def test_criterion_2_theorem_equivalence(census7_brute):
    mismatches = [
        (k, canonical_form(g).hex())
        for k, g, brute in census7_brute
        if brute != is_7ac_theorem(g)
    ]
    report("criterion 2: level-7 brute force == six-shape classification",
           not mismatches, f"{len(census7_brute)} classes <= 7 edges")


def test_criterion_3_condition_soundness(census7_brute):
    violations = []
    for k, g, brute7 in census7_brute:
        rep = necessary_conditions(g)
        levels = [("three_leaf_blocks", 3)] if rep.three_leaf_blocks else []
        if rep.end_count is not None:
            levels.append(("end_count", rep.end_count))
        for rule, level in levels:
            verdict = brute7 if level == 7 else is_n_ac(g, level)[0]
            if verdict:
                violations.append((rule, canonical_form(g).hex()))
    report("criterion 3: leaf blocks and end counts never contradict brute force",
           not violations, "0 violations required")


def test_criterion_4_obstruction_vs_engine(census7_brute):
    bad, total = [], 0
    for k, g, _ in census7_brute:
        if is_7ac_theorem(g):
            with pytest.raises(GraphError):
                obstruction_7(g)
            continue
        total += 1
        p = obstruction_7(g)
        sub, marked = realize(g, p)
        if covering_arc(sub, marked) is not None:
            bad.append(canonical_form(g).hex())
    report("criterion 4: constructed 7-point obstructions are uncoverable",
           not bad, f"{total} graphs outside the six shapes")


def test_criterion_5_minimality():
    details = []
    ok = True
    for n in (2, 3, 4, 5, 6):
        rep = verify_minimality(n)
        ok = ok and rep.ok
        details.append(f"ac={n}: <{rep.budget} edges clean, witness {rep.witness_name}")
    planar8 = list(search(SearchTask(1, 8, "=6,!7", planar_only=True)))
    ok = ok and not planar8
    report("criterion 5: minimality sweeps and empty <=8-edge planar search",
           ok, "; ".join(details))


class TestCriterion6Properties:
    def test_monotonicity(self, census7):
        for k, g in census7:
            if k > 6:
                continue
            # ac_number and is_n_ac take level 2 from connectivity; the scan must agree
            assert next(_uncovered(graph_index(g), 2), None) is None, canonical_form(g).hex()
            if k > 5:
                continue
            prev = True
            for n in range(2, 8):
                cur = is_n_ac(g, n)[0]
                assert prev or not cur
                prev = cur
        for ce in corpus.CORPUS:
            assert next(_uncovered(graph_index(ce.builder()), 2), None) is None, ce.name
        report("criterion 6a: n-ac monotone in n", True,
               "census <= 5 edges; level-2 scan on census <= 6 edges and corpus")

    def test_subdivision_invariance(self):
        rng = random.Random(2024)
        heavy = {"double-circle-4", "double-circle-5"}
        for ce in corpus.CORPUS:
            g = ce.builder()
            h = g
            for _ in range(2):
                e = rng.choice(h.edges)
                h, _ = h.subdivide(e.eid, rng.randint(1, 3))
            assert homeo_class(h) is homeo_class(g)
            assert is_planar(h) == is_planar(g)
            if ce.name not in heavy:
                # the raw scan on unsmoothed h keeps this from comparing two smoothed runs
                assert ac_number(h).label == ac_number(g).label == raw_ac_label(h)
        report("criterion 6b: subdivision invariance", True,
               "profile invariance on spoked graphs is criterion 6b+")

    def test_subdivision_invariance_spoked(self):
        rng = random.Random(2024)
        for name in ("double-circle-4", "double-circle-5"):
            g = corpus.entry(name).builder()
            e = rng.choice(g.edges)
            h, _ = g.subdivide(e.eid, 2)
            assert ac_number(h).label == ac_number(g).label == raw_ac_label(h)
        report("criterion 6b+: profile subdivision invariance (spoked)", True)

    def test_refine_agreement(self):
        for ce in corpus.CORPUS:
            if ce.name == "double-circle-5":
                continue  # checked on its own in test_refine_agreement_heavy
            g = ce.builder()
            for n in range(2, 8):
                assert refine_check(g, n), (ce.name, n)
        report("criterion 6c: refine agreement (corpus minus 15-edge graph)", True)

    def test_refine_agreement_heavy(self):
        g = corpus.entry("double-circle-5").builder()
        for n in range(2, 8):
            assert refine_check(g, n), n
        report("criterion 6c+: refine agreement on the 15-edge spoked graph", True)

    def test_prune_implication(self, census7):
        for k, g in census7:
            if k > 6:
                continue
            red = reduced_graph(g).graph
            for n in range(2, 8):
                ok, _ = is_n_ac(g, n)
                if not ok:
                    break
                ok_red, _ = is_n_ac(red, n)
                assert ok_red, (canonical_form(g).hex(), n)
        # and the converse genuinely fails: the triod against its pruned arc
        assert not is_n_ac(corpus.triod(), 3)[0]
        assert is_n_ac(reduced_graph(corpus.triod()).graph, 3)[0]
        report("criterion 6d: terminal-edge pruning preserves levels", True,
               "census <= 6 edges; converse fails on the triod as required")

    def test_witness_validity(self, census7):
        checked = 0
        for k, g in census7:
            if k > 4:
                continue
            for p in enumerate_placements(g, 3):
                sub, marked = realize(g, p)
                w = covering_arc(sub, marked)
                if w is not None:
                    w.validate()
                    checked += 1
        report("criterion 6e: every witness satisfies its invariants", checked > 100,
               f"{checked} witnesses")

    def test_triod_leg_conditions(self):
        checked = 0
        for name in ("theta", "circle-three-spokes", "k33", "circle-two-chords"):
            g = corpus.entry(name).builder()
            for q in g.vertices:
                if g.degree(q) != 3 or g.loops_at(q):
                    continue
                counts = {e.eid: 1 for e in g.incident(q)}
                from arcon.placements import Placement

                sub, marked = realize(g, Placement.of(g, (), counts))
                w = covering_arc(sub, marked)
                if w is None:
                    continue
                assert q in w.vertices[1:-1], (name, q)
                assert w.vertices[0] in marked and w.vertices[-1] in marked
                checked += 1
        report("criterion 6f: local-triod witnesses pass the center internally",
               checked >= 6, f"{checked} configurations")

    def test_round_trip(self):
        for ce in corpus.CORPUS:
            g = ce.builder()
            assert are_homeomorphic(parse_graph_text(format_graph_text(g)), g)
        report("criterion 6g: parse/serialize round trip", True)

    def test_checkpoint_resume_equality(self, tmp_path):
        full = {r.to_json() for r in search(SearchTask(1, 5, "=2"))}
        ck = tmp_path / "resume.jsonl"
        task = SearchTask(1, 5, "=2", checkpoint=str(ck))
        list(search(task, stop_after=13))
        resumed = {r.to_json() for r in search(task)}
        assert resumed == full
        report("criterion 6h: checkpoint-resume record-set equality", True,
               f"{len(full)} matching records")


def test_criterion_7_nine_edge_planar_search(tmp_path):
    """Outcome reported, not asserted: the 9-edge planar question is open."""
    ck = tmp_path / "nine.jsonl"
    task = SearchTask(9, 9, "=6,!7", planar_only=True, checkpoint=str(ck))
    first = [r.to_json() for r in search(task)]
    again = [r.to_json() for r in search(task)]  # resumes fully from checkpoint
    assert first == again
    processed = len(ck.read_text().splitlines()) - 1
    outcome = ("no planar 9-edge graph is 6-ac but not 7-ac"
               if not first else f"matches: {sorted(first)}")
    report("criterion 7: 9-edge planar search completes deterministically", True,
           f"{processed} planar classes processed; outcome: {outcome}")
