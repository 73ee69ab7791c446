"""Constructive placements that defeat covering arcs.

An arc has two endpoints.  Level 3 is a theorem: a graph is 3-arc connected
exactly when its block-cut tree has at most two leaves, and three points
inside three leaf blocks need three arc ends (``leaf_block_obstruction``;
three endpoints of the graph and a vertex in three blocks are its special
cases).  Around a branch point, points planted just inside several of its
edge-ends force any covering arc to spend an endpoint locally; three branch
points in a row need more endpoints than an arc has.  These constructions
produce concrete placements; callers certify them with the exhaustive
covering-arc search, so a construction that ever failed to obstruct would be
caught, not trusted.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from .multigraph import Edge, GraphError, Id, Multigraph, smooth
from .placements import Placement
from .symmetry import GraphIndex, graph_index, neighbour_masks


RULE_3ENDS = "3endpoints"
RULE_3CUT = "3way-cut"
RULE_3LEAF = "3leaf-blocks"


class LeafObstruction(NamedTuple):
    """Three leaf blocks of the block-cut tree, and a placement they defeat.

    ``rules`` names the special cases that hold, ``3endpoints`` (three
    degree-1 vertices) and ``3way-cut`` (a vertex in three blocks), or is
    ``("3leaf-blocks",)`` when neither does; ``placement`` is built by the
    first of them.
    """

    rules: tuple[str, ...]
    placement: Placement


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


def leaf_block_obstruction(g: Multigraph) -> LeafObstruction | None:
    """None when the block-cut tree of connected ``g`` has at most two leaves.

    Otherwise three points no arc covers (see ``ac_number`` for the proof),
    with the rules that hold.  The answer is kept in ``g``'s cache, so
    ``ac_number``'s level 3 and every later ``probe_placements`` call on
    the same graph object share one block decomposition.  Those callers
    and ``necessary_conditions`` ask on the smoothed graph, and ``smooth``
    keeps nothing on a raw input, so separate callers on one raw input each
    smooth it and decompose their own copy.  A loop is a
    block of its own, and a parallel class lies inside one block.  The
    placement is the first that applies:

    * ``3endpoints``: marks at the three idkey-least degree-1 vertices;
    * ``3way-cut``: one point on the idkey-least edge at ``v`` of each of
      its first three blocks, in the order of those edges (edge order at
      ``v``), where ``v`` is the idkey-least vertex in three blocks or more
      (removing it leaves as many pieces, a loop counting as one);
    * ``3leaf-blocks``: one point on the idkey-least edge of each of the
      first three leaf blocks, in the order of those edges.
    """
    if "leaf_blocks" not in g._cache:
        g._cache["leaf_blocks"] = _leaf_blocks(g)
    return g._cache["leaf_blocks"]


def _leaf_blocks(g: Multigraph) -> LeafObstruction | None:
    gi = graph_index(g)
    n = gi.n
    blocks = _blocks(neighbour_masks(gi))
    loops = gi.loops
    nb = loops[:]  # blocks at each vertex
    for m in blocks:
        while m:
            b = m & -m
            m ^= b
            nb[b.bit_length() - 1] += 1
    cut = sum(1 << v for v in range(n) if nb[v] >= 2)
    leaves = [m for m in blocks if (m & cut).bit_count() == 1]
    # a loop is a leaf unless it is the only block
    if len(leaves) + sum(loops) < 3:
        return None
    rules: list[str] = []
    placement = None
    ends = [gi.vids[v] for v in range(n) if gi.deg[v] == 1]
    if len(ends) >= 3:
        rules.append(RULE_3ENDS)
        placement = Placement.of(g, ends[:3])
    hub = next((v for v in range(n) if nb[v] >= 3), None)
    if hub is not None:
        rules.append(RULE_3CUT)
        placement = placement or _one_per_block(
            g, gi, g.incident(gi.vids[hub]), [m for m in blocks if m >> hub & 1])
    if placement is None:
        rules.append(RULE_3LEAF)
        placement = _one_per_block(g, gi, g.edges, leaves)
    return LeafObstruction(tuple(rules), placement)


def _one_per_block(g: Multigraph, gi: GraphIndex, edges: Iterable[Edge],
                   blocks: list[int]) -> Placement:
    """One point on the first edge of ``edges`` in each of three blocks.

    A loop is a block of its own; another edge counts only when one of
    ``blocks`` (vertex masks) holds both its ends.
    """
    picks: list[Id] = []
    taken = set()
    for e in edges:
        if not e.is_loop:
            pair = 1 << gi.vpos[e.a] | 1 << gi.vpos[e.b]
            m = next((m for m in blocks if pair & m == pair), None)
            if m is None or m in taken:
                continue
            taken.add(m)
        picks.append(e.eid)
        if len(picks) == 3:
            break
    return Placement.of(g, (), {eid: 1 for eid in picks})


def _ends(g: Multigraph, v: Id) -> list[Id]:
    """The ids of the edges at ``v`` in edge order, a loop listed twice."""
    return [e.eid for e in g.incident(v) for _ in range(1 + e.is_loop)]


def kod_core(g: Multigraph, v: Id, k: int) -> Placement | None:
    """One interior point just inside each of ``k`` edge-ends at ``v``.

    The edge-ends are taken in edge order, a loop's two ends one after the
    other.  Returns None when the vertex has fewer than ``k`` edge-ends.
    """
    if g.degree(v) < k:
        return None
    return Placement.of(g, (), Counter(_ends(g, v)[:k]))


def seven_point_obstruction(g: Multigraph) -> Placement:
    """A 7-point placement no arc can cover, for graphs with >= 3 branch points.

    Takes branch points q1, q2, q3 with branch-free connections q1-q2 and
    q2-q3, puts one point inside each connection, and plants 2/1/2 points on
    other edge-ends at q1/q2/q3.  Any covering arc would need an endpoint
    near each of the three branch points, one more endpoint than an arc has.
    The choice is made on ``smooth(g)``, where a branch-free connection is a
    single edge; smoothing keeps the branch points and names each chain by
    its idkey-least edge, so the placement is valid on ``g``.
    """
    if not g.is_connected():
        raise GraphError("obstruction construction expects a connected graph")
    s = smooth(g)
    deg = s.degrees
    branch = [v for v in s.vertices if deg[v] >= 3]
    if len(branch) < 3:
        raise GraphError("need at least 3 branch points")
    for q2 in branch:
        links = [e for e in s.incident(q2) if not e.is_loop and deg[e.other(q2)] >= 3]
        e3 = next((e for e in links if e.other(q2) != links[0].other(q2)), None)
        if e3 is not None:
            break
    else:  # unreachable for connected graphs with >= 3 branch points
        raise GraphError("no two branch-free connections from one branch point")
    e1 = links[0]  # the connection to q1; e3 the one to q3
    spare = _ends(s, q2)
    spare.remove(e1.eid)
    spare.remove(e3.eid)
    counts = Counter((e1.eid, e3.eid, spare[0]))
    for e in (e1, e3):  # two points at each far end, off the connection
        spare = _ends(s, e.other(q2))
        spare.remove(e.eid)
        counts.update(spare[:2])
    return Placement.of(g, (), counts)


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
    """Deterministic candidates likely (or certain) to be uncoverable.

    Yields n-point placements only; callers verify each with the exhaustive
    per-placement search, so speculative candidates cost one search at most.
    For n >= 3 the leaf-block obstruction comes first; it always obstructs
    when it exists.  The speculative fans run for n = 4 and 5 only: at n = 4
    the 3-fan and the fan of size ``min(deg, 4)``, at n = 5 only the fan of
    size ``min(deg, 5)``, when that is at least 4.  At n = 3 a 3-fan at v
    obstructs only when its edge-ends enter three blocks at v, and then the
    leaf-block obstruction has already been found.  Over the census up to 9
    edges the 3-fan hit none of its 267 tries at n = 5, and the fans none of
    their 56 tries at n >= 6.
    """
    seen = set()
    branch = [v for v in g.vertices if g.degree(v) >= 3]

    def emit(core: Placement | None):
        if core is None or core.n > n:
            return None
        p = padded(g, core, n)
        key = (p.marks, p.counts)
        if key in seen:
            return None
        seen.add(key)
        return p

    if n >= 3:
        obs = leaf_block_obstruction(g)
        p = emit(obs and obs.placement)
        if p is not None:
            yield p
    if n >= 7 and len(branch) >= 3:
        p = emit(seven_point_obstruction(g))
        if p is not None:
            yield p
    if n >= 5:
        for v in branch:
            if g.degree(v) >= 5:
                p = emit(kod_core(g, v, 5))
                if p is not None:
                    yield p
                break
    if n not in (4, 5):
        return
    for v in branch[:6]:
        sizes = {min(g.degree(v), 4), 3} if n == 4 else {min(g.degree(v), 5)} - {3}
        for k in sorted(sizes, reverse=True):
            p = emit(kod_core(g, v, k))
            if p is not None:
                yield p
