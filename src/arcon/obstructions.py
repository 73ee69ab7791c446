"""Constructive placements that defeat covering arcs.

An arc has two ends.  Level 3 is a theorem: a graph is 3-arc connected
exactly when its block-cut tree has at most two leaves, and three points
inside three leaf blocks, away from their cut vertices, need three arc
ends (``leaf_block_obstruction``).  Above level 3 the end-count lemma
builds one placement: points inside edges that leave more loaded
edge-ends at a vertex than an arc can pass through there need an arc end
each, and three such needs are more than an arc has
(``end_count_obstruction``).  Callers certify each placement with the
exhaustive covering-arc search, so a construction that ever failed to
obstruct would be caught, not trusted.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .multigraph import Edge, GraphError, Id, Multigraph, idkey, smooth
from .placements import Placement, _bits, _edge_masks


def _blocks(nmask: list[int]) -> list[int]:
    """Vertex masks of the blocks of a connected simple graph (Tarjan's DFS).

    ``nmask[v]`` is the neighbour mask of vertex ``v``.  A bridge is a block
    of two vertices; a graph of one vertex has none.
    """
    n = len(nmask)
    disc = [0] * n  # DFS order from 1, 0 while unvisited
    low = [0] * n
    rest = nmask[:]  # neighbours not yet scanned
    disc[0] = low[0] = t = 1
    stack = [0]
    trail = [0]  # visited vertices not yet in a closed block
    blocks = []
    while stack:
        v = stack[-1]
        r = rest[v]
        if r:
            b = r & -r
            rest[v] = r ^ b
            w = b.bit_length() - 1
            if not disc[w]:
                t += 1
                disc[w] = low[w] = t
                stack.append(w)
                trail.append(w)
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        if stack:
            u = stack[-1]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:  # u cuts v's subtree off: close its block
                m = 1 << u
                while m >> v & 1 == 0:
                    m |= 1 << trail.pop()
                blocks.append(m)
    return blocks


def leaf_block_obstruction(g: Multigraph) -> Placement | None:
    """None when the block-cut tree of connected ``g`` has at most two leaves.

    Otherwise three points no arc covers, each in its own leaf block and
    off that block's cut vertex (see ``ac_number`` for the proof).  A loop
    is a block of its own, and a parallel class lies inside one block.
    Each leaf block of the simple graph (loops dropped, parallel classes
    merged), a block with exactly one cut vertex, offers its least vertex
    other than that cut vertex; the placement marks the three least of
    these, and when there are fewer than three it puts one interior point
    on each loop, in edge order, until there are three points.  The simple
    graph is ``g``'s own adjacency (``_edge_masks``), so no
    :class:`GraphIndex` is built.

    The answer is kept in ``g``'s cache, so ``ac_number``'s level 3 and
    every later ``probe_placements`` call on the same graph object share
    one block decomposition.  Those callers and ``necessary_conditions``
    ask on the smoothed graph, and ``smooth`` keeps nothing on a raw input,
    so separate callers on one raw input each smooth it and decompose their
    own copy.
    """
    if "leaf_blocks" not in g._cache:
        g._cache["leaf_blocks"] = _leaf_blocks(g)
    return g._cache["leaf_blocks"]


def _leaf_blocks(g: Multigraph) -> Placement | None:
    blocks = _blocks(_edge_masks(g)[0])
    loops = [e for e in g.edges if e.is_loop]
    looped = Counter(e.a for e in loops)
    nb = [looped[v] for v in g.vertices]  # blocks at each vertex
    for m in blocks:
        for v in _bits(m):
            nb[v] += 1
    cut = sum(1 << v for v, k in enumerate(nb) if k >= 2)
    # a leaf block's vertices off its cut vertex lie in no other block
    picks = sorted(_bits(m & ~cut)[0] for m in blocks if (m & cut).bit_count() == 1)
    if len(picks) + len(loops) < 3:
        return None
    marks = [g.vertices[v] for v in picks[:3]]
    return Placement.of(g, marks, {e.eid: 1 for e in loops[:3 - len(marks)]})


def end_count_obstruction(g: Multigraph) -> Placement | None:
    """A placement that no arc covers by the end-count lemma, or None.

    Put one point inside each edge of a set L.  For a vertex v let k_v be
    the number of loaded edge-ends at v, a loaded loop counting twice.  The
    demand of L is the sum of max(k_v - 2, 0), plus 1 for each vertex of
    degree 1 whose edge is loaded.  If the demand is 3 or more, no arc
    covers the points:

    * an arc meets an open edge in sub-arcs, and a sub-arc that holds no end
      of the arc is the whole edge, so it uses both edge-ends; a loop is
      never whole;
    * the arc uses at most two edge-ends at a vertex, and it uses a degree-1
      vertex's edge-end only by ending there;
    * so each loaded edge-end left unused, and each loaded degree-1 vertex,
      needs an arc end in its own sub-arc (a sub-arc that holds both arc
      ends is the whole arc, inside one edge);
    * the arc has two ends.

    Returns the placement of a set L of demand 3 or more with the fewest
    edges, chosen on ``smooth(g)``, or None when there is none (exactly on
    the six shapes that are n-arc connected for every n).  Smoothing keeps
    the idkey-least edge id of each chain, so the placement is valid on
    ``g``; it marks no vertex.  The loaded edge ids, or None, are kept in
    ``g``'s cache.

    The demand is met by a set S of at most three vertices whose shares
    sum to 3: a degree-1 vertex takes share 1 and needs its edge loaded,
    any other vertex needs share + 2 loaded ends, at most its degree.  S is
    a vertex v and at most two vertices from v's neighbours and the degree-1
    vertices, or, when there are three degree-1 vertices or more, the first
    three of them (three edges, the least any L needs).  For each S and
    shares, ``_load`` meets the needs, and an S is skipped once half its
    needed ends, rounded up, reach the best count so far, since an edge
    gives at most two ends.  The count equals a minimum over every edge
    subset on each census class up to 10 edges.
    """
    if "end_count" not in g._cache:
        g._cache["end_count"] = _fewest_loads(smooth(g))
    eids = g._cache["end_count"]
    return None if eids is None else Placement.of(g, (), dict.fromkeys(eids, 1))


# the shares of the demand 3 over one, two or three vertices
_SHARES = {1: ((3,),), 2: ((1, 2), (2, 1)), 3: ((1, 1, 1),)}


def _fewest_loads(s: Multigraph) -> tuple[Id, ...] | None:
    """The loaded edge ids of ``end_count_obstruction`` on the smooth ``s``."""
    deg, inc = s.degrees, s.incidence
    leaves = [v for v in s.vertices if deg[v] == 1]
    if len(leaves) >= 3:
        return tuple(sorted((inc[v][0].eid for v in leaves[:3]), key=idkey))
    best: list[Id] | None = None
    for v in s.vertices:
        near = [u for u in dict.fromkeys([e.other(v) for e in inc[v]] + leaves) if u != v]
        groups = [(v,)] + [(v, x) for x in near] + [(v, *xy) for xy in combinations(near, 2)]
        for members in groups:
            for shares in _SHARES[len(members)]:
                need = {m: share + 2 * (deg[m] > 1) for m, share in zip(members, shares)}
                if any(need[m] > deg[m] for m in members) or (
                        best is not None and (sum(need.values()) + 1) // 2 >= len(best)):
                    continue
                edges = sorted({e.eid: e for m in members for e in inc[m]}.values(),
                               key=lambda e: idkey(e.eid))
                loaded = _load(need, edges)
                if best is None or len(loaded) < len(best):
                    best = loaded
    return None if best is None else tuple(sorted(best, key=idkey))


def _load(need: dict[Id, int], edges: list[Edge]) -> list[Id]:
    """Edge ids that give each vertex of ``need`` that many loaded ends.

    ``edges`` are the edges at those vertices, in edge order.  Taken in
    edge order: first edges between two vertices that still need ends, then
    loops, then any other edge; ``need`` is used up.
    """
    loaded = []
    for e in edges:
        if not e.is_loop and need.get(e.a, 0) > 0 and need.get(e.b, 0) > 0:
            loaded.append(e.eid)
            need[e.a] -= 1
            need[e.b] -= 1
    for e in edges:
        if e.is_loop and need[e.a] > 0:
            loaded.append(e.eid)
            need[e.a] -= 2
    for e in edges:
        if e.eid not in loaded and (need.get(e.a, 0) > 0 or need.get(e.b, 0) > 0):
            loaded.append(e.eid)
            need[e.a if need.get(e.a, 0) > 0 else e.b] -= 1
    return loaded


def obstruction_7(g: Multigraph) -> Placement:
    """``end_count_obstruction(g)`` padded to 7 points; ``GraphError`` if none fits."""
    core = end_count_obstruction(g)
    if core is None:
        raise GraphError("no end-count obstruction: the graph is one of the six shapes")
    return padded(g, core, 7)


def padded(g: Multigraph, core: Placement, n: int) -> Placement:
    """Extend ``core`` to exactly ``n`` points by stacking interior points.

    Failing placements stay failing under adding points (an arc covering the
    superset covers the subset), so padding preserves obstructions.
    """
    extra = n - core.n
    if extra < 0:
        raise GraphError("core placement larger than n")
    if extra == 0:
        return core
    counts = Counter(core.count_map())
    counts[g.edges[0].eid] += extra
    return Placement.of(g, core.marks, counts)


def probe_placements(g: Multigraph, n: int):
    """The certain obstructions of ``is_n_ac``, padded to ``n`` points.

    For n >= 3 the leaf-block placement, which exists exactly when ``g`` is
    not 3-arc connected; for n >= 4 the end-count placement, when it has at
    most ``n`` points.  Both always obstruct, and callers certify each with
    the exhaustive per-placement search all the same.  No speculative
    candidate is tried: a level neither decides goes to the scan.
    """
    if n >= 3:
        core = leaf_block_obstruction(g)
        if core is not None:
            yield padded(g, core, n)
    if n >= 4:
        core = end_count_obstruction(g)
        if core is not None and core.n <= n:
            yield padded(g, core, n)
