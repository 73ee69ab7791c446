"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's clever paths: orbit counts
come from explicit automorphism pairs (``automorphisms``) plus union-find,
canonical-code checks from a minimum over all vertex permutations, and
censuses from generate-everything-and-deduplicate.  Tests freeze values
computed by these.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest
from hypothesis import settings

from arcon import build, canonical_form, is_n_ac
from arcon.arcsearch import _find_covering_path
from arcon.multigraph import BoundExceeded, Edge, GraphError, Id, Multigraph, idkey
from arcon.placements import Placement
from arcon.symmetry import _vertex_autos, graph_index

settings.register_profile("ci", deadline=None, max_examples=40)
settings.load_profile("ci")

AUTOMORPHISM_PAIR_LIMIT = 100_000


def automorphisms(g, limit: int = AUTOMORPHISM_PAIR_LIMIT):
    """The full automorphism group as explicit (vertex map, edge map) pairs.

    A pair maps vertex ids to vertex ids and edge ids to edge ids; parallel
    edges (and parallel loops) may permute freely above any vertex
    permutation, so the group size is |vertex autos| * prod(class sizes!).
    Raises :class:`BoundExceeded` when that count exceeds ``limit``.
    """
    gi = graph_index(g)
    vautos = _vertex_autos(gi.n, gi.loops, gi.mult, limit)
    class_sizes = [e - s for (_, _, s, e) in gi.classes]
    total = len(vautos)
    for sz in class_sizes:
        for f in range(2, sz + 1):
            total *= f
        if total > limit:
            raise BoundExceeded("automorphism pair count exceeds the configured bound")
    class_slots = [list(range(s, e)) for (_, _, s, e) in gi.classes]
    pairs = []
    for va in vautos:
        vmap = {gi.vids[i]: gi.vids[va[i]] for i in range(gi.n)}
        targets = []
        for (i, j, s, e) in gi.classes:
            ti, tj = va[i], va[j]
            if ti > tj:
                ti, tj = tj, ti
            tcls = gi.class_of_pair[(ti, tj)]
            targets.append(class_slots[tcls])
        for assignment in itertools.product(
            *[itertools.permutations(t) for t in targets]
        ):
            emap = {}
            for (ci, (_, _, s, e)) in enumerate(gi.classes):
                for off, slot in enumerate(range(s, e)):
                    emap[gi.slot_eids[slot]] = gi.slot_eids[assignment[ci][off]]
            pairs.append((vmap, emap))
    return pairs


def naive_orbit_count(g, n: int) -> int:
    """Orbits of (marked vertices, loaded edges) under the explicit automorphism pairs.

    A placement of n points is a vertex subset of size j plus a nonempty set
    of at most n - j loaded edges (empty exactly when j = n).
    """
    eids = sorted((e.eid for e in g.edges), key=idkey)
    raw = set()
    for j in range(0, min(n, len(g.vertices)) + 1):
        sizes = range(1, n - j + 1) if j < n else (0,)
        for S in itertools.combinations(g.vertices, j):
            for k in sizes:
                for L in itertools.combinations(eids, k):
                    raw.add((frozenset(S), frozenset(L)))
    pairs = automorphisms(g)
    seen: set = set()
    orbits = 0
    for p in raw:
        if p in seen:
            continue
        orbits += 1
        stack = [p]
        seen.add(p)
        while stack:
            S, L = stack.pop()
            for vmap, emap in pairs:
                q = (frozenset(vmap[v] for v in S), frozenset(emap[e] for e in L))
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
    return orbits


def naive_code(g):
    """Minimum relabeled edge list over every vertex permutation (<= 7 vertices)."""
    verts = g.vertices
    assert len(verts) <= 7, "naive canonicalization oracle is factorial"
    best = None
    for perm in itertools.permutations(range(len(verts))):
        pos = dict(zip(verts, perm))
        items = sorted(
            (min(pos[e.a], pos[e.b]), max(pos[e.a], pos[e.b])) for e in g.edges
        )
        if best is None or items < best:
            best = items
    return (len(verts), tuple(best))


def naive_census_codes(k: int) -> set:
    """Canonical codes of every valid census member, generated the dumb way."""
    seen = set()
    for v in range(1, k + 2):
        pairs = [(i, j) for i in range(v) for j in range(i, v)]
        for combo in itertools.combinations_with_replacement(pairs, k):
            used = {x for ab in combo for x in ab}
            if used != set(range(v)):
                continue
            g = build(range(v), [(f"e{t}", a, b) for t, (a, b) in enumerate(combo)])
            if not g.is_connected():
                continue
            ok = True
            for u in range(v):
                if g.degree(u) == 2 and not (v == 1 and len(g.incident(u)) == 1):
                    ok = False
                    break
            if ok:
                seen.add(canonical_form(g))
    return seen


def _suppressible(g: Multigraph, v: Id) -> tuple[Edge, Edge] | None:
    """The two distinct edges at a degree-2 vertex, or None.

    A vertex carrying a single loop has degree 2 but both edge-ends belong to
    the same edge, so it is not suppressible; that is the circle normal form.
    """
    if g.degree(v) != 2:
        return None
    inc = g.incident(v)
    if len(inc) != 2:  # single loop
        return None
    return inc[0], inc[1]


def naive_smooth(g):
    """Suppress the idkey-least suppressible vertex and rebuild, until none is left.

    Quadratic, and kept as the oracle for the one-pass ``smooth``.
    """
    if not g.is_connected():
        raise GraphError("smooth expects a connected graph")
    cur = g
    while True:
        target = None
        for v in cur.vertices:
            pair = _suppressible(cur, v)
            if pair is not None:
                target = (v, pair)
                break
        if target is None:
            return cur
        v, (e1, e2) = target
        a, b = e1.other(v), e2.other(v)
        keep = e1.eid if idkey(e1.eid) <= idkey(e2.eid) else e2.eid
        edges = [x for x in cur.edges if x.eid not in (e1.eid, e2.eid)]
        edges.append(Edge(keep, a, b))
        cur = Multigraph([u for u in cur.vertices if u != v], edges)


def _reference_reach(nmask, seed: int, allowed: int) -> int:
    reach = frontier = seed
    while frontier:
        nxt = 0
        for v in range(len(nmask)):
            if frontier >> v & 1:
                nxt |= nmask[v]
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def _reference_dfs(nmask, marked, full, path, v, visited) -> bool:
    um = marked & ~visited
    comp = _reference_reach(nmask, um & -um, full & ~visited)
    if um & ~comp:
        return False
    cand = nmask[v] & comp
    while cand:
        b = cand & -cand
        cand ^= b
        w = b.bit_length() - 1
        nv = visited | b
        path.append(w)
        if b & marked and not (marked & ~nv) or _reference_dfs(nmask, marked, full, path, w, nv):
            return True
        path.pop()
    return False


def reference_covering_path(nmask, marked):
    """The covering-path search with the component prune alone.

    Same start order and branch order as ``_find_covering_path``, and the
    first completion wins, so the end-counting search must match it path
    for path.
    """
    if marked == 0:
        raise GraphError("no marked vertices")
    if marked & (marked - 1) == 0:
        return [marked.bit_length() - 1]
    full = (1 << len(nmask)) - 1
    for s in range(len(nmask)):
        if marked >> s & 1:
            path = [s]
            if _reference_dfs(nmask, marked, full, path, s, 1 << s):
                return path
    return None


def reference_supports(total: int, nslots: int, ends) -> Iterator[int]:
    """Loaded-slot masks of the supports with ``total`` points, lex ascending.

    A support S stands for ``v(S)``: one point on each slot of S but the
    last, which takes the rest, and masks come in lex order of those count
    vectors.  ``ends`` holds the last slot of each parallel class; the
    loaded slots of a class form a suffix of it.  The support walk of the
    mark-and-count quotient, which ``enumerate_placements`` runs for every
    mark set.
    """
    if total == 0:
        yield 0
    else:
        yield from _reference_support_level(nslots - 1, ends, 0, total, False, 0)


def _reference_support_level(top, ends, lo, rem, forced, sm):
    for f in (lo,) if forced else range(top, lo - 1, -1):
        if rem > 1:
            yield from _reference_support_level(top, ends, f + 1, rem - 1, f not in ends,
                                                sm | 1 << (top - f))
        if f in ends:
            yield sm | 1 << (top - f)


def enumerate_placements(g, n: int) -> Iterator[Placement]:
    """One placement per automorphism orbit of (marked vertices, loaded edges).

    The full quotient the scan walked before it asked about edge sets only:
    mark sets depth first, each sorted tuple before its extensions by larger
    vertices (the lex order of the tuples), and for each mark set that no
    automorphism maps to a lex-smaller one, the supports of the remaining
    points (``reference_supports``) that are least under the mark set's
    stabilizer.  Vertex ``v`` is at bit ``N-1-v`` of a mark-set key, so the
    lex-least of a set of mark sets of one size has the greatest key.  A
    mark set some image beats is dropped with its extensions: if
    g(P) <lex P and x > max P, then g(P ∪ {x}) <lex P ∪ {x}.  Each
    placement is ``v(S)`` with its marks, so the stream is in lex order of
    (sorted marked vertices, count vector).
    """
    if n < 1:
        raise GraphError("placement size must be >= 1")
    if not g.is_connected():
        raise GraphError("placement enumeration expects a connected graph")
    gi = graph_index(g)
    autos = gi.autos()
    ends = {end - 1 for (_, _, _, end) in gi.classes}
    for mm, sm in _mark_node(gi, n, autos, ends, 0, 0, 0, 0, [0] * len(autos)):
        top = gi.nslots - 1
        loaded = [s for s in range(gi.nslots) if sm >> (top - s) & 1]
        counts = {gi.slot_eids[s]: 1 for s in loaded}
        if loaded:
            counts[gi.slot_eids[loaded[-1]]] = n - mm.bit_count() - len(loaded) + 1
        yield Placement(frozenset(gi.vids[v] for v in range(gi.n) if mm >> v & 1),
                        tuple(sorted(counts.items(), key=lambda t: idkey(t[0]))))


def _mark_node(gi, n, autos, ends, lo, k, key, mm, imgs):
    """The shadows with the ``k`` marks ``mm`` or their extensions from ``lo`` on.

    ``imgs[i]``: the key of the mark set's image under ``autos[i]``, none
    above ``key``.
    """
    stab = [sbits for (_, sbits), img in zip(autos, imgs) if img == key]
    for sm in reference_supports(n - k, gi.nslots, ends):
        bits = [b for b in range(gi.nslots) if sm >> b & 1]
        if all(sum(sbits[b] for b in bits) >= sm for sbits in stab):
            yield mm, sm
    if k == n:
        return
    top = gi.n - 1
    for v in range(lo, gi.n):
        ckey = key | 1 << (top - v)
        cimgs = [img | vbits[v] for (vbits, _), img in zip(autos, imgs)]
        if all(img <= ckey for img in cimgs):
            yield from _mark_node(gi, n, autos, ends, v + 1, k + 1, ckey, mm | 1 << v, cimgs)


def compositions(total: int, nslots: int, prev_slot) -> Iterator[tuple[int, ...]]:
    """Count vectors summing to ``total``, lex ascending, class-sorted.

    ``prev_slot[s]`` points at the previous slot of the same parallel class
    (or -1); within a class only ascending runs are produced, because any
    other arrangement is the image of one of these under a parallel-edge
    swap.
    """
    vec = [0] * nslots

    def rec(s: int, rem: int) -> Iterator[tuple[int, ...]]:
        if s == nslots - 1:
            p = prev_slot[s]
            if p < 0 or vec[p] <= rem:
                vec[s] = rem
                yield tuple(vec)
                vec[s] = 0
            return
        lo = 0 if prev_slot[s] < 0 else vec[prev_slot[s]]
        for c in range(lo, rem + 1):
            vec[s] = c
            yield from rec(s + 1, rem - c)
        vec[s] = 0

    if nslots == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def prev_slots(gi) -> list[int]:
    """The previous slot of the same parallel class, or -1, per slot."""
    prev = []
    for (_, _, start, end) in gi.classes:
        prev.extend([-1] + list(range(start, end - 1)))
    return prev


def count_vector_stream(g, n: int):
    """Every count-vector orbit representative, in lex order of (marks, counts).

    The placement quotient before supports: each mark set lex-least over the
    vertex automorphisms, then every class-sorted count vector lex-least
    under the mark set's stabilizer, compared slot by slot.  The vertex
    automorphisms are the distinct vertex maps of ``automorphisms()``.
    """
    gi = graph_index(g)
    slot_of = {}
    for (i, j, start, _) in gi.classes:
        slot_of[(i, j)] = start
    vautos = sorted({tuple(gi.vpos[vmap[v]] for v in gi.vids)
                     for vmap, _ in automorphisms(g)})
    prev = prev_slots(gi)
    for marks in sorted(
        m for size in range(min(n, gi.n) + 1)
        for m in itertools.combinations(range(gi.n), size)
    ):
        lm = list(marks)
        if any(sorted(vp[v] for v in marks) < lm for vp in vautos):
            continue
        stab = []
        for vp in vautos:
            if sorted(vp[v] for v in marks) == lm:
                sp = [0] * gi.nslots  # image[t] = counts[sp[t]]
                for (i, j, s, e) in gi.classes:
                    ts = slot_of[tuple(sorted((vp[i], vp[j])))]
                    for off in range(e - s):
                        sp[ts + off] = s + off
                stab.append(sp)
        for cvec in compositions(n - len(marks), gi.nslots, prev):
            if all(tuple(cvec[t] for t in sp) >= cvec for sp in stab):
                yield marks, cvec


def count_vector_masks(gi, marks, cvec):
    """Adjacency bitmasks of the full count-vector realization, plus the marked mask.

    Every interior point is a fresh marked vertex on a chain along its
    edge; loops also receive unmarked vertices so none survives (two on a
    bare loop, one next to a single point).  The reference realization, as
    ``realize`` builds it, for checking the shadow realization of the scan.
    """
    n = gi.n
    nmask = [0] * n
    marked = 0
    for v in marks:
        marked |= 1 << v
    nxt = n
    for s, (i, j) in enumerate(gi.slot_pairs):
        c = cvec[s]
        extra = 2 - c if i == j and c < 2 else 0
        if c == 0 and extra == 0:
            nmask[i] |= 1 << j
            nmask[j] |= 1 << i
            continue
        chain = list(range(nxt, nxt + c + extra))
        nxt += c + extra
        nmask.extend([0] * (c + extra))
        for k in chain[:c]:
            marked |= 1 << k
        prev = i
        for k in chain:
            nmask[prev] |= 1 << k
            nmask[k] |= 1 << prev
            prev = k
        nmask[prev] |= 1 << j
        nmask[j] |= 1 << prev
    return nmask, marked


def count_vector_placement(gi, marks, cvec) -> Placement:
    """The placement of indexed marks and a count vector."""
    return Placement(
        frozenset(gi.vids[v] for v in marks),
        tuple(sorted(((gi.slot_eids[s], c) for s, c in enumerate(cvec) if c),
                     key=lambda t: idkey(t[0]))),
    )


def naive_is_n_ac(g, n: int):
    """The lex-least uncovered placement over the full count-vector stream.

    Realizes every count-vector orbit representative in lex order, a chain
    of points per edge, and runs the path search on it; the first failure
    is the counterexample.  Kept as the reference for the scan, which walks
    shadows, realizes one point per loaded slot and skips placements a
    cached witness covers.
    """
    gi = graph_index(g)
    for marks, cvec in count_vector_stream(g, n):
        if _find_covering_path(*count_vector_masks(gi, marks, cvec)) is None:
            return False, count_vector_placement(gi, marks, cvec)
    return True, None


def fewest_end_loads(g):
    """The fewest edges of ``g`` whose demand is 3 or more, or None.

    Tries every edge subset, smallest first.  The demand of a set of loaded
    edges is the sum over vertices of max(k - 2, 0), k the loaded edge-ends
    there (a loop twice), plus 1 per degree-1 vertex whose edge is loaded.
    """
    for size in range(1, len(g.edges) + 1):
        for loaded in itertools.combinations(g.edges, size):
            k = dict.fromkeys(g.vertices, 0)
            for e in loaded:
                k[e.a] += 1
                k[e.b] += 1
            if sum(k[v] if g.degree(v) == 1 else max(k[v] - 2, 0) for v in k) >= 3:
                return size
    return None


def raw_ac_label(g, cap: int = 7) -> str:
    """ac label from ``is_n_ac`` at every level 2..cap on ``g`` itself, unsmoothed."""
    for n in range(2, cap + 1):
        if not is_n_ac(g, n)[0]:
            return str(n - 1)
    return "omega" if cap >= 7 else str(cap)


def randomly_subdivided(g, rng, times: int, most: int):
    """``g`` with ``times`` random edges subdivided, each 1..most times."""
    for _ in range(times):
        g, _ = g.subdivide(rng.choice(g.edges).eid, rng.randint(1, most))
    return g


def refined(g):
    """``g`` with every edge subdivided once."""
    for e in g.edges:
        g, _ = g.subdivide(e.eid, 1)
    return g


def relabeled(g, rng):
    """A randomly relabeled copy of ``g`` (same isomorphism class)."""
    names = [f"x{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    vmap = dict(zip(g.vertices, names))
    enames = [f"f{i}" for i in range(len(g.edges))]
    rng.shuffle(enames)
    return build(
        names,
        [(enames[i], vmap[e.a], vmap[e.b]) for i, e in enumerate(g.edges)],
    )


@pytest.fixture(scope="session")
def small_census():
    """Census by edge count for k <= 5, reused across tests."""
    from arcon.census import reduced_multigraphs

    return {k: list(reduced_multigraphs(k)) for k in range(1, 6)}


@pytest.fixture(scope="session")
def census_to_six(small_census):
    """Every census class with at most 6 edges, in census order."""
    from arcon.census import reduced_multigraphs

    return [g for k in sorted(small_census) for g in small_census[k]] + \
        list(reduced_multigraphs(6))


@pytest.fixture(scope="session")
def census_to_seven(census_to_six):
    """Every census class with at most 7 edges, in census order."""
    from arcon.census import reduced_multigraphs

    return census_to_six + list(reduced_multigraphs(7))


@pytest.fixture(scope="session")
def oracle_verdicts(census_to_seven):
    """``naive_is_n_ac`` verdicts at n = 2..7, by graph, on the census up to 7 edges and the corpus.

    The mark-and-count oracle is the slow side of the scan checks, so its
    verdicts are computed once for every test that compares against them.
    """
    from arcon import corpus

    graphs = census_to_seven + [ce.builder() for ce in corpus.CORPUS]
    return {g: {n: naive_is_n_ac(g, n)[0] for n in range(2, 8)} for g in graphs}
