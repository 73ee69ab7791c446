"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's clever paths: orbit counts
come from explicit automorphism pairs plus union-find, canonical-code checks
from a minimum over all vertex permutations, and censuses from
generate-everything-and-deduplicate.  Tests freeze values computed by these.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings

from arcon import build, canonical_form, is_n_ac
from arcon.arcsearch import _find_covering_path
from arcon.multigraph import Edge, GraphError, Multigraph, _suppressible, idkey
from arcon.placements import _realize_masks, _to_placement, iter_placements_indexed
from arcon.symmetry import automorphisms, graph_index

settings.register_profile("ci", deadline=None, max_examples=40)
settings.load_profile("ci")


def naive_orbit_count(g, n: int) -> int:
    """Orbits of raw n-point placements under the explicit automorphism pairs."""
    eids = sorted((e.eid for e in g.edges), key=idkey)
    eidx = {e: i for i, e in enumerate(eids)}
    raw = set()
    for j in range(0, min(n, len(g.vertices)) + 1):
        for S in itertools.combinations(g.vertices, j):
            for combo in itertools.combinations_with_replacement(range(len(eids)), n - j):
                counts = [0] * len(eids)
                for c in combo:
                    counts[c] += 1
                raw.add((frozenset(S), tuple(counts)))
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
            S, counts = stack.pop()
            for vmap, emap in pairs:
                S2 = frozenset(vmap[v] for v in S)
                c2 = [0] * len(eids)
                for e, i in eidx.items():
                    c2[eidx[emap[e]]] = counts[i]
                q = (S2, tuple(c2))
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


def naive_is_n_ac(g, n: int):
    """``is_n_ac(g, n, "lex")`` without witness reuse.

    Realizes every orbit representative in lex order and runs the path
    search on it; the first failure is the counterexample.  Kept as the
    reference for the scan that skips placements a cached witness covers.
    """
    gi = graph_index(g)
    for marks, cvec in iter_placements_indexed(gi, n):
        if _find_covering_path(*_realize_masks(gi, marks, cvec)) is None:
            return False, _to_placement(gi, marks, cvec)
    return True, None


def raw_ac_label(g, cap: int = 7) -> str:
    """ac label from ``is_n_ac`` at every level 2..cap on ``g`` itself, unsmoothed."""
    for n in range(2, cap + 1):
        if not is_n_ac(g, n, counterexamples="probe")[0]:
            return str(n - 1)
    return "omega" if cap >= 7 else str(cap)


def randomly_subdivided(g, rng, times: int, most: int):
    """``g`` with ``times`` random edges subdivided, each 1..most times."""
    for _ in range(times):
        g, _ = g.subdivide(rng.choice(g.edges).eid, rng.randint(1, most))
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
