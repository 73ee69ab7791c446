import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given

from arcon import (
    BoundExceeded,
    GraphError,
    Multigraph,
    build,
    canonical_form,
    is_planar,
    verify_minimality,
)
from arcon import corpus
from arcon.census import (
    SearchRecord,
    SearchTask,
    parse_profile,
    reduced_multigraphs,
    search,
)
from arcon.symmetry import GraphIndex

from conftest import naive_census_codes
from test_multigraph import graphs_connected

# Homeomorphism classes by smoothed edge count.
CENSUS_COUNTS = {1: 2, 2: 2, 3: 6, 4: 14, 5: 39, 6: 117, 7: 374, 8: 1274,
                 9: 4625, 10: 17547}


def _reading(n, edges, perm):
    """Row-by-row reading ``(loops[r], mult[r][r+1:])`` of a relabeled graph."""
    mult = [[0] * n for _ in range(n)]
    for a, b in edges:
        a, b = perm[a], perm[b]
        mult[a][b] += 1
        if a != b:
            mult[b][a] += 1
    return tuple(x for r in range(n) for x in [mult[r][r]] + mult[r][r + 1:])


class TestReducedMultigraphs:
    def test_one_edge(self):
        graphs = list(reduced_multigraphs(1))
        assert len(graphs) == 2
        classes = {canonical_form(g) for g in graphs}
        assert canonical_form(corpus.arc()) in classes
        assert canonical_form(corpus.circle()) in classes

    def test_two_edges_golden(self):
        graphs = list(reduced_multigraphs(2))
        classes = {canonical_form(g) for g in graphs}
        assert classes == {
            canonical_form(corpus.lollipop()),
            canonical_form(corpus.figure_eight()),
        }

    def test_three_edges_contains_triod_and_theta(self):
        classes = {canonical_form(g) for g in reduced_multigraphs(3)}
        assert canonical_form(corpus.triod()) in classes
        assert canonical_form(corpus.theta()) in classes
        assert len(classes) == 6

    @pytest.mark.parametrize("k,count", [(1, 2), (2, 2), (3, 6), (4, 14), (5, 39)])
    def test_census_matches_naive_oracle(self, k, count):
        codes = {canonical_form(g) for g in reduced_multigraphs(k)}
        assert len(codes) == count
        assert codes == naive_census_codes(k)

    @pytest.mark.parametrize("k", [*range(1, 9), *(pytest.param(k, marks=pytest.mark.slow)
                                                   for k in (9, 10))])
    def test_class_counts(self, k):
        assert sum(1 for _ in reduced_multigraphs(k)) == CENSUS_COUNTS[k]

    def test_representative_is_greatest_labeling(self, small_census):
        # the fill runs in descending reading order and both prunes spare the
        # greatest labeling, so each class comes out as that labeling
        import itertools

        for k in range(2, 6):
            for g in small_census[k]:
                n = len(g.vertices)
                deg = [g.degree(v) for v in range(n)]
                assert deg == sorted(deg, reverse=True)
                edges = [(e.a, e.b) for e in g.edges]
                best = max(_reading(n, edges, perm)
                           for perm in itertools.permutations(range(n))
                           if [deg[perm.index(v)] for v in range(n)] == deg)
                assert _reading(n, edges, range(n)) == best

    def test_fill_leaves_few_duplicates(self):
        # labeled matrices that reach the canonical dedupe at 8 edges, against
        # about 7.5k connected fills before the in-fill prunes
        from arcon.census import _degree_sequences, _matrices

        fills = sum(1 for v in range(1, 10) for d in _degree_sequences(16, v)
                    for _ in _matrices(d))
        assert fills == 1340

    def test_no_two_emitted_homeomorphic(self, small_census):
        for k in (3, 4, 5):
            graphs = small_census[k]
            codes = {canonical_form(g) for g in graphs}
            assert len(codes) == len(graphs)

    def test_members_are_smoothed_forms(self, small_census):
        from arcon import smooth

        for k in (2, 3, 4):
            for g in small_census[k]:
                assert g.is_connected()
                s = smooth(g)
                assert len(s.edges) == len(g.edges)

    def test_classes_carry_only_their_code(self):
        # the dedupe keeps the code on each class and builds no index; the
        # circle skips the dedupe and carries nothing
        for k in range(1, 9):
            classes = list(reduced_multigraphs(k))
            assert sum("canon" in g._cache for g in classes) == len(classes) - (k == 1)
            for g in classes:
                assert set(g._cache) <= {"canon"}
                assert canonical_form(g) == canonical_form(build(g.vertices, g.edges))

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            next(reduced_multigraphs(12))
        with pytest.raises(GraphError):
            next(reduced_multigraphs(0))


def test_census_path_leaves_no_cyclic_garbage():
    # the census fill, the index and its symmetry, the level-3 test with its
    # path search, and smooth build no reference cycle: everything they
    # leave is freed by reference counting, none of it by the cyclic GC
    import gc

    from arcon import ac_number, smooth
    from arcon.symmetry import graph_index

    k33 = corpus.k33()
    for e in k33.edges:
        k33, _ = k33.subdivide(e.eid, 1)
    gc.collect()
    gc.disable()
    try:
        for k in range(1, 8):
            for g in reduced_multigraphs(k):
                is_planar(g)
                canonical_form(g)
                ac_number(g, cap=3)
                graph_index(g).autos()
                smooth(g)
        smooth(k33)
        del g, k33
        assert gc.collect() == 0
    finally:
        gc.enable()


def nx_planar(g):
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from((e.a, e.b) for e in g.edges)
    return nx.check_planarity(nxg)[0]


class TestPlanarity:
    def test_k33_not_planar(self):
        assert not is_planar(corpus.k33())

    def test_double_circles_planar(self):
        assert is_planar(corpus.double_circle(4))
        assert is_planar(corpus.double_circle(5))

    def test_dumbbell_planar(self):
        assert is_planar(corpus.dumbbell())

    def test_k5_not_planar(self):
        g = build(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert not is_planar(g)

    def test_k5_and_k33_subdivided(self):
        g, _ = corpus.k33().subdivide("e0", 2)
        assert not is_planar(g)

    def test_builds_no_index(self, monkeypatch, census_to_seven):
        # the simple graph is read from g's own adjacency; fresh copies, so
        # no index cached by another test hides a build
        built, real = [], GraphIndex.__init__

        def init_spy(self, g):
            built.append(g)
            real(self, g)

        monkeypatch.setattr(GraphIndex, "__init__", init_spy)
        for g in census_to_seven:
            is_planar(Multigraph(g.vertices, g.edges))
        assert built == []

    def test_census_agrees_with_networkx(self, small_census):
        for k in (3, 4, 5):
            for g in small_census[k]:
                assert is_planar(g) == nx_planar(g)

    def test_euler_bound_respected(self, small_census):
        # planar simple graphs satisfy E <= 3V - 6
        for k in (4, 5):
            for g in small_census[k]:
                pairs = {tuple(sorted((str(e.a), str(e.b)))) for e in g.edges
                         if not e.is_loop}
                v = len(g.vertices)
                if v >= 3 and is_planar(g):
                    assert len(pairs) <= 3 * v - 6

    @given(graphs_connected)
    def test_random_agrees_with_networkx(self, g):
        assert is_planar(g) == nx_planar(g)

    def test_random_simple_agree_with_networkx(self):
        rng = random.Random(12)
        verdicts = Counter()
        for _ in range(800):
            n = rng.randint(5, 12)
            nxg = nx.gnp_random_graph(n, rng.uniform(0.2, 0.6), seed=rng.randrange(1 << 30))
            nxg.add_edges_from(nx.path_graph(n).edges)  # connected
            g = build(range(n), list(nxg.edges))
            expected = nx.check_planarity(nxg)[0]
            assert is_planar(g) == expected, sorted(nxg.edges)
            verdicts[expected] += 1
        assert min(verdicts.values()) > 250

    def test_random_cubic_agree_with_networkx(self):
        for n in range(10, 17, 2):
            for seed in range(30):
                nxg = nx.random_regular_graph(3, n, seed=seed)
                if nx.is_connected(nxg):
                    g = build(range(n), list(nxg.edges))
                    assert is_planar(g) == nx.check_planarity(nxg)[0], (n, seed)

    def test_fragment_with_one_face_goes_first(self):
        # planar; path addition that always takes the first fragment, not
        # one that fits a single face, calls it nonplanar
        g = build(range(7), [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4),
                             (1, 6), (2, 5), (2, 6), (3, 4), (3, 5), (5, 6)])
        assert is_planar(g) and nx_planar(g)

    def test_loops_and_parallels_ignored(self):
        extra = [(0, 0), (0, 1), (0, 1), (2, 3), (4, 4), (4, 4)]
        k5 = build(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)] + extra)
        k33 = build(range(6), [(i, j) for i in range(3) for j in range(3, 6)] + extra)
        for g in (k5, k33):
            assert not is_planar(g) and not nx_planar(g)

    def test_large_graphs(self):
        g = corpus.double_circle(12)
        assert len(g.vertices) == 24 and is_planar(g)
        h = corpus.k33()
        for e in h.edges:
            h, _ = h.subdivide(e.eid, 3)
        assert len(h.vertices) == 33 and not is_planar(h)


class TestProfileGrammar:
    def test_forms(self):
        assert parse_profile("=2") == ("exact", 2)
        assert parse_profile("=6,!7") == ("exact", 6)
        assert parse_profile("omega") == ("omega", 0)

    def test_rejects(self):
        for bad in ("=1", "=7", "=6,!8", "whatever", "=6,7"):
            with pytest.raises(GraphError):
                parse_profile(bad)


class TestSearch:
    def test_census_bound_fails_before_the_sweep(self):
        # the task itself rejects the edge count, before the sweep spends
        # minutes on the edge counts below it
        with pytest.raises(BoundExceeded):
            SearchTask(11, 12, "=6,!7")

    def test_triod_found_at_three_edges(self):
        recs = list(search(SearchTask(3, 3, "=2")))
        assert canonical_form(corpus.triod()).hex() in {r.canon for r in recs}

    def test_no_three_edge_graph_has_ac_exactly_three(self):
        assert list(search(SearchTask(1, 3, "=3,!4"))) == []

    def test_omega_profile(self):
        recs = list(search(SearchTask(1, 2, "omega")))
        assert len(recs) == 4  # arc, circle, lollipop, figure eight
        assert all(r.omega and r.ac == "omega" for r in recs)

    def test_deterministic_records(self):
        a = [r.to_json() for r in search(SearchTask(1, 4, "=2"))]
        b = [r.to_json() for r in search(SearchTask(1, 4, "=2"))]
        assert a == b

    def test_checkpoint_resume_equality(self, tmp_path):
        full = list(search(SearchTask(1, 4, "=2")))
        ck = tmp_path / "ck.jsonl"
        task = SearchTask(1, 4, "=2", checkpoint=str(ck))
        first = list(search(task, stop_after=9))
        assert ck.exists()
        resumed = list(search(task))
        assert {r.to_json() for r in resumed} == {r.to_json() for r in full}
        # the checkpoint recorded every processed graph exactly once
        lines = ck.read_text().splitlines()
        recs = [SearchRecord.from_json(ln) for ln in lines[1:]]
        assert len({r.canon for r in recs}) == len(recs)

    def test_resumed_stream_in_census_order(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        task = SearchTask(1, 5, "=3", checkpoint=str(ck))
        full = [r.to_json() for r in search(task)]
        lines = ck.read_text().splitlines(keepends=True)
        ck.write_text("".join(lines[:1] + lines[2::2]))  # every other graph done
        assert [r.to_json() for r in search(task)] == full

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stop_after_streams_the_census(self, monkeypatch, jobs):
        from arcon import census

        yielded = []
        real = census.reduced_multigraphs

        def counted(k):
            for g in real(k):
                yielded.append(g)
                yield g

        monkeypatch.setattr(census, "SEARCH_CHUNK", 8)
        monkeypatch.setattr(census, "reduced_multigraphs", counted)
        list(search(SearchTask(6, 6, "=2", jobs=jobs), stop_after=1))
        assert len(yielded) == (1 if jobs == 1 else census.SEARCH_CHUNK)
        assert len(yielded) < CENSUS_COUNTS[6]

    def test_progress_once_per_record(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        task = SearchTask(1, 4, "=2", checkpoint=str(ck))
        list(search(task, stop_after=9))
        seen = []
        list(search(task, progress=seen.append))  # 9 resumed, the rest fresh
        records = [SearchRecord.from_json(ln) for ln in ck.read_text().splitlines()[1:]]
        assert sorted(r.to_json() for r in seen) == sorted(r.to_json() for r in records)
        assert len(seen) == sum(CENSUS_COUNTS[k] for k in range(1, 5))

    def test_checkpoint_task_mismatch(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        list(search(SearchTask(1, 2, "=2", checkpoint=str(ck))))
        with pytest.raises(GraphError, match="does not match"):
            list(search(SearchTask(1, 3, "=2", checkpoint=str(ck))))

    def test_planar_filter(self):
        # every graph with <= 8 edges is planar, so filtering must not drop any
        plain = {r.to_json() for r in search(SearchTask(1, 4, "=2"))}
        filtered = {r.to_json() for r in search(SearchTask(1, 4, "=2", planar_only=True))}
        assert plain == filtered

    def test_jobs_smoke(self, tmp_path):
        serial = [r.to_json() for r in search(SearchTask(1, 3, "=2"))]
        parallel = [r.to_json() for r in search(SearchTask(1, 3, "=2", jobs=2))]
        assert serial == parallel

    @pytest.mark.parametrize("cores, workers", [(3, 3), (None, 1)])
    def test_jobs_pool_capped_at_cpu_count(self, monkeypatch, cores, workers):
        # the pool forks all its workers at the first submit, so --jobs
        # 100000 must not ask for 100,000 processes; a stand-in pool records
        # its size and maps in this process, so no real pool is started
        import concurrent.futures
        import os

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        serial = [r.to_json() for r in search(SearchTask(1, 4, "=2"))]
        assert [r.to_json() for r in search(SearchTask(1, 4, "=2", jobs=100_000))] == serial
        assert sizes == [workers]

    def test_jobs_identical_streams(self, tmp_path):
        streams = {}
        for jobs in (1, 2):
            ck = tmp_path / f"jobs{jobs}.jsonl"
            recs = [r.to_json() for r in search(SearchTask(1, 5, "=2", checkpoint=str(ck),
                                                           jobs=jobs))]
            streams[jobs] = (recs, ck.read_text())
        assert streams[1] == streams[2]
        assert len(streams[1][1].splitlines()) == 1 + sum(CENSUS_COUNTS[k] for k in range(1, 6))

    def test_planarity_once_per_graph(self, monkeypatch):
        from arcon import census

        calls = []

        def counted(g):
            calls.append(g)
            return is_planar(g)

        monkeypatch.setattr(census, "is_planar", counted)
        list(search(SearchTask(1, 4, "=2", planar_only=True)))
        assert len(calls) == sum(CENSUS_COUNTS[k] for k in range(1, 5))

    @pytest.mark.parametrize("torn", ["half", "no-newline"])
    def test_checkpoint_torn_final_line(self, tmp_path, torn):
        full = [r.to_json() for r in search(SearchTask(1, 4, "=2"))]
        ck = tmp_path / "ck.jsonl"
        task = SearchTask(1, 4, "=2", checkpoint=str(ck))
        list(search(task, stop_after=9))
        lines = ck.read_text().splitlines()
        last = lines[-1][: len(lines[-1]) // 2] if torn == "half" else lines[-1]
        ck.write_text("\n".join(lines[:-1] + [last]))  # killed mid-append
        resumed = [r.to_json() for r in search(task)]
        assert sorted(resumed) == sorted(full)
        # the torn record was recomputed, and every record sits on its own line
        recs = [SearchRecord.from_json(ln) for ln in ck.read_text().splitlines()[1:]]
        assert len(recs) == sum(CENSUS_COUNTS[k] for k in range(1, 5))
        assert len({r.canon for r in recs}) == len(recs)

    def test_checkpoint_midfile_corruption(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        task = SearchTask(1, 3, "=2", checkpoint=str(ck))
        list(search(task))
        lines = ck.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(GraphError, match="line 3 is corrupt"):
            list(search(task))


class TestMinimality:
    def test_ac2_minimal_at_three_edges(self):
        rep = verify_minimality(2)
        assert rep.ok and rep.budget == 3
        assert rep.witness_name == "triod"
        assert dict(rep.census_sizes) == {1: 2, 2: 2}

    def test_ac3_minimal_at_four_edges(self):
        rep = verify_minimality(3)
        assert rep.ok and rep.budget == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            verify_minimality(7)
