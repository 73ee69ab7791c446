"""Constructive placements that defeat covering arcs.

An arc has two endpoints, and an arc minus one point has at most two
components.  So three endpoints of the graph cannot lie on one arc, nor can
three points in three components of the graph minus a vertex.  Around a
branch point, points planted just inside several edge-germs force any
covering arc to spend an endpoint locally; three branch points in a row need
more endpoints than an arc has.  These constructions produce concrete
placements; callers certify them with the exhaustive covering-arc search, so
a construction that ever failed to obstruct would be caught, not trusted.
"""

from __future__ import annotations

from collections import Counter

from .multigraph import (
    Germ,
    GraphError,
    Id,
    Multigraph,
    germs,
    idkey,
    segments_from,
)
from .placements import Placement


def endpoint_obstruction(g: Multigraph) -> Placement | None:
    """Marks at the three idkey-least degree-1 vertices, or None.

    A point of degree 1 on an arc is an endpoint of the arc, and an arc has
    two endpoints.
    """
    ends = sorted((v for v in g.vertices if g.degree(v) == 1), key=idkey)
    if len(ends) < 3:
        return None
    return Placement.of(g, ends[:3])


def cut_vertex_obstruction(g: Multigraph) -> Placement | None:
    """One point just inside a germ into each of three components of g - v.

    ``v`` is the idkey-least branch vertex whose removal leaves at least
    three components; a loop at ``v`` is a component of its own.  Returns
    None when there is no such vertex.  An arc minus ``v`` has at most two
    components, each inside one component of g - v, so it misses a point.
    """
    for v in sorted((v for v in g.vertices if g.degree(v) >= 3), key=idkey):
        seen = {v}            # v and the components entered so far
        picks: list[Id] = []  # one edge id into each component
        for gm in germs(g, v):
            e = gm.edge
            if e.is_loop:
                if gm.side == 0:
                    picks.append(e.eid)
                continue
            u = e.other(v)
            if u in seen:
                continue
            seen.add(u)
            stack = [u]
            while stack:
                for f in g.incident(stack.pop()):
                    for x in (f.a, f.b):
                        if x not in seen:
                            seen.add(x)
                            stack.append(x)
            picks.append(e.eid)
        if len(picks) >= 3:
            return Placement.of(g, (), {eid: 1 for eid in picks[:3]})
    return None


def kod_core(g: Multigraph, v: Id, k: int) -> Placement | None:
    """One interior point just inside each of ``k`` edge-germs at ``v``.

    A loop contributes two germs (its two halves).  Returns None when the
    vertex has fewer than ``k`` germs.
    """
    gs = germs(g, v)
    if len(gs) < k:
        return None
    counts: Counter = Counter()
    for gm in gs[:k]:
        counts[gm.edge.eid] += 1
    return Placement.of(g, (), counts)


def seven_point_obstruction(g: Multigraph) -> Placement:
    """A 7-point placement no arc can cover, for graphs with >= 3 branch points.

    Takes branch points q1, q2, q3 with branch-free connections q1-q2 and
    q2-q3, puts one point inside each connection, and plants 2/1/2 points on
    other germs at q1/q2/q3.  Any covering arc would need an endpoint near
    each of the three branch points, one more endpoint than an arc has.
    """
    if not g.is_connected():
        raise GraphError("obstruction construction expects a connected graph")
    branch = sorted((v for v in g.vertices if g.degree(v) >= 3), key=idkey)
    if len(branch) < 3:
        raise GraphError("need at least 3 branch points")
    choice = None
    for q2 in branch:
        segs = [s for s in segments_from(g, q2)
                if s.end != q2 and g.degree(s.end) >= 3]
        for s1 in segs:
            s2 = next((s for s in segs if s.end != s1.end), None)
            if s2 is not None:
                choice = (q2, s1, s2)
                break
        if choice:
            break
    if choice is None:  # unreachable for connected graphs with >= 3 branch points
        raise GraphError("no two branch-free connections from one branch point")
    q2, seg1, seg2 = choice
    counts: Counter = Counter()
    counts[seg1.edges[0].eid] += 1  # interior of q2-q1 connection
    counts[seg2.edges[0].eid] += 1  # interior of q2-q3 connection
    spare_q2 = [gm for gm in germs(g, q2) if gm not in (seg1.germ, seg2.germ)]
    counts[spare_q2[0].edge.eid] += 1

    def plant_two(seg) -> None:
        q = seg.end
        last = seg.edges[-1]
        arrival = Germ(q, last, 0 if last.a == q else 1)
        spare = [gm for gm in germs(g, q) if gm != arrival]
        counts[spare[0].edge.eid] += 1
        counts[spare[1].edge.eid] += 1

    plant_two(seg1)
    plant_two(seg2)
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
    For n >= 3 the endpoint and cut-vertex obstructions come first; they
    always obstruct when they exist.  The speculative fans run for n = 4 and
    5 only: at n = 4 the 3-fan and the fan of size ``min(deg, 4)``, at n = 5
    only the fan of size ``min(deg, 5)``, when that is at least 4.  At n = 3
    a 3-fan at v obstructs only when its germs enter three components of
    g - v, and then the cut-vertex obstruction has already been tried.  Over
    the census up to 9 edges the 3-fan hit none of its 267 tries at n = 5,
    and the fans none of their 56 tries at n >= 6.
    """
    seen = set()
    branch = sorted((v for v in g.vertices if g.degree(v) >= 3), key=idkey)

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
        for core in (endpoint_obstruction(g), cut_vertex_obstruction(g)):
            p = emit(core)
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
