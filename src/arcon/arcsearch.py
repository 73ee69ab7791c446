"""Deciding n-arc connectivity by exhaustive search.

A graph is n-arc connected when every n points lie on one arc.  Per
placement, that is a concrete question: after realizing the interior points
as vertices, does a simple path with marked endpoints visit every marked
vertex?  ``covering_arc`` answers it by backtracking with two prunes: the
unvisited marked vertices must lie in one component, and an arc has two
ends, so at most one unvisited marked vertex may be left with a single way
in.  ``is_n_ac`` answers n <= 3 by theorems, and above that quantifies
over one placement per automorphism orbit of sets of min(n, m) loaded
edges, m the number of edges: by the theorem in
``iter_placements_indexed``, no other placement can fail first.  Its
searches run on the realization with the unmarked vertices of at most two
neighbours suppressed (``_search``), which no arc with marked ends can tell
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .multigraph import BoundExceeded, GraphError, Id, Multigraph, smooth
from .obstructions import leaf_block_obstruction, probe_placements
from .placements import (
    Placement,
    _bits,
    _edge_masks,
    _path_shadow,
    _realize_masks,
    _to_placement,
    iter_placements_indexed,
)
from .symmetry import GraphIndex, graph_index


def _reach(nmask: list[int], seed: int, allowed: int) -> int:
    reach = seed
    frontier = seed
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            nxt |= nmask[b.bit_length() - 1]
        nxt &= allowed & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def _images(table: list[tuple[int, ...]], members: list[int]) -> Iterator[int]:
    """The image mask of a set under each row of ``table``.

    Row entry ``x`` is the image bit of member ``x``, and a row is a
    permutation, so the image is the sum of the members' entries.
    """
    return map(sum, zip(repeat(0, len(table)), *(map(itemgetter(x), table) for x in members)))


def _dfs(nmask: list[int], marked: int, full: int, failed: int, path: list[int], v: int,
         visited: int, ends: int) -> bool:
    """Extend ``path``, which ends at ``v`` and visits ``visited``, to cover
    ``marked``; on failure ``path`` is left as it came.

    ``ends`` holds the forced ends: the unvisited marked vertices with fewer
    than two ways in, a way in being an unvisited neighbour or ``v``.  The
    caller keeps it at most one vertex, and none of ``failed``.
    """
    um = marked & ~visited
    comp = _reach(nmask, um & -um, full & ~visited)
    if um & ~comp:
        return False
    cand = nmask[v] & comp
    # once the path leaves v, v is no way in: recount its unvisited marked neighbours
    near = nmask[v] & um & ~ends
    while near:
        b = near & -near
        near ^= b
        ways = nmask[b.bit_length() - 1] & ~visited
        if not ways & (ways - 1):
            ends |= b
    while cand:
        b = cand & -cand
        cand ^= b
        e = ends & ~b
        if e & (e - 1) or e & failed:
            continue  # two forced ends, or one no covering path ends at
        w = b.bit_length() - 1
        nv = visited | b
        path.append(w)
        if b & marked and not (marked & ~nv) or _dfs(nmask, marked, full, failed, path, w, nv, e):
            return True
        path.pop()
    return False


def _find_covering_path(nmask: list[int], marked: int) -> Optional[list[int]]:
    """A simple path with marked endpoints visiting all marked vertices.

    Vertices are bit indices of ``nmask``.  Deterministic: starts and branch
    choices are taken in ascending index order, and the first completion wins.
    The depth-first search (``_dfs``, a module function, so no closure
    cycle per call) prunes a partial path once the unvisited marked
    vertices no longer lie in one component of the unvisited graph, and
    once it leaves two forced ends.

    The prune counts the arc's ends.  An unvisited marked vertex with fewer
    than two ways in (unvisited neighbours, or the path's live end) can only
    be the path's last vertex, so a partial path with two such vertices has
    no completion.  A step from ``v`` to ``w`` takes a way in only from
    ``v``'s neighbours, so the search updates the forced ends over those
    alone.  When the search from a start ``s`` fails, no covering path ends
    at ``s`` either, since its reverse would start there; so a forced end
    that is an earlier failed start prunes too, and a start that leaves two
    forced ends is not searched.  Only subtrees with no completion are cut
    and the order is unchanged, so the path found is the one the plain
    search finds.

    ``_dfs`` recurses once per path vertex, so a path deeper than the
    interpreter's recursion limit raises ``BoundExceeded``.
    """
    if marked == 0:
        raise GraphError("no marked vertices")
    if marked & (marked - 1) == 0:
        return [marked.bit_length() - 1]
    full = (1 << len(nmask)) - 1
    # with only the start visited, a way in is any neighbour
    ends = 0
    for u in _bits(marked):
        ways = nmask[u]
        if not ways & (ways - 1):
            ends |= 1 << u
    failed = 0
    try:
        for s in _bits(marked):
            b = 1 << s
            e = ends & ~b
            path = [s]
            if not (e & (e - 1) or e & failed) and _dfs(nmask, marked, full, failed, path,
                                                         s, b, e):
                return path
            failed |= b
    except RecursionError:
        raise BoundExceeded("covering path deeper than the recursion limit") from None
    return None


@dataclass(frozen=True)
class ArcWitness:
    """A simple path certifying that a marked set lies on one arc.

    ``vertices`` lists the path in order; ``edges`` the edge ids used between
    consecutive vertices.  Both path endpoints are marked and every marked
    vertex is on the path.
    """

    graph: Multigraph
    marked: frozenset
    vertices: tuple[Id, ...]
    edges: tuple[Id, ...]

    def validate(self) -> None:
        g = self.graph
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("witness path repeats a vertex")
        if not self.vertices:
            raise GraphError("empty witness path")
        if self.vertices[0] not in self.marked or self.vertices[-1] not in self.marked:
            raise GraphError("witness endpoints must be marked")
        if not self.marked <= set(self.vertices):
            raise GraphError("witness path misses a marked vertex")
        if len(self.edges) != len(self.vertices) - 1:
            raise GraphError("witness edge count mismatch")
        edges = {e.eid: e for e in g.edges}
        for i, eid in enumerate(self.edges):
            e = edges.get(eid)
            if e is None:
                raise GraphError(f"unknown edge {eid!r}")
            if {e.a, e.b} != {self.vertices[i], self.vertices[i + 1]}:
                raise GraphError("witness edge does not join consecutive vertices")


def covering_arc(gprime: Multigraph, marked: Iterable[Id]) -> Optional[ArcWitness]:
    """Search ``gprime`` (loop-free) for a simple path covering ``marked``.

    Returns a validated witness or None when no such path exists.  The search
    is exhaustive backtracking over (start, edge choices) that abandons a
    partial path once some unvisited marked vertex is cut off from its live
    end, or once two of them can only be the path's last vertex (see
    ``_find_covering_path``).  The search runs on ``gprime``'s own adjacency
    (``_edge_masks``), with no index; each step of the path is named by the
    idkey-least edge id between its two vertices.
    """
    marked = frozenset(marked)
    if not marked:
        raise GraphError("marked set must be nonempty")
    for e in gprime.edges:
        if e.is_loop:
            raise GraphError("covering_arc expects a loop-free graph")
    unknown = marked.difference(gprime.vertices)
    if unknown:
        raise GraphError(f"marked vertex {next(iter(unknown))!r} not in graph")
    path = _find_covering_path(*_edge_masks(gprime, marked))
    if path is None:
        return None
    ids = tuple(gprime.vertices[i] for i in path)
    least: dict[frozenset, Id] = {}
    for e in gprime.edges:
        least.setdefault(frozenset((e.a, e.b)), e.eid)
    eids = tuple(least[frozenset(step)] for step in zip(ids, ids[1:]))
    witness = ArcWitness(gprime, marked, ids, eids)
    witness.validate()
    return witness


def _between(via: dict[tuple[int, int], list[int]], x: int, y: int) -> list[int]:
    """The suppressed vertices a step from ``x`` to ``y`` stands for, in order."""
    return via.get((x, y), []) if x < y else via.get((y, x), [])[::-1]


def _search(nmask: list[int], marked: int) -> Optional[list[int]]:
    """``_find_covering_path`` with the unmarked vertices of at most two
    neighbours suppressed.

    Such a vertex is no end of a path with marked ends, and a simple path
    enters it only to pass from one neighbour to the other.  So it is
    dropped when it has fewer than two neighbours, or when its two are
    adjacent already (it offers only another route between them), and
    otherwise bypassed: an edge joins its two neighbours.  Either way a
    covering path exists exactly when one did before.  The vertices are
    taken in ascending order, each with the neighbours it has once the
    smaller ones are suppressed.  A suppression never raises the number
    of neighbours a vertex has, so every unmarked vertex of at most two
    neighbours in the given ``nmask`` is suppressed: the input's degree-2
    vertices and, in a realization, any vertex whose edges reach at most
    two others, in parallel classes or through loaded slots.  A chain of
    such vertices is bypassed one vertex at a time, and ``via`` keeps, for
    each bypass edge ``(x, y)`` with ``x < y``, the vertices it stands for
    from ``x`` to ``y``.  The path found is expanded back, so it is a path
    of the given ``nmask`` with the same marked ends.  ``nmask`` is
    changed in place.
    """
    via: dict[tuple[int, int], list[int]] = {}
    rest = (1 << len(nmask)) - 1 & ~marked
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        nb = nmask[v]
        if nb.bit_count() > 2:
            continue
        nmask[v] = 0
        bx = nb & -nb
        by = nb ^ bx
        if bx:
            x = bx.bit_length() - 1
            nmask[x] ^= b
        if by:
            y = by.bit_length() - 1
            nmask[y] ^= b
            if not nmask[x] & by:
                nmask[x] |= by
                nmask[y] |= bx
                via[x, y] = _between(via, x, v) + [v] + _between(via, v, y)
    path = _find_covering_path(nmask, marked)
    if path is None or not via:
        return path
    out = path[:1]
    for x, y in zip(path, path[1:]):
        out += _between(via, x, y)
        out.append(y)
    return out


def _covered(g: Multigraph, p: Placement) -> bool:
    """Does one arc cover the placement ``p`` of ``g``?  Builds no index."""
    return _search(*_edge_masks(g, p.marks, p.count_map())) is not None


def _uncovered(gi: GraphIndex, n: int) -> Iterator[int]:
    """The supports no arc covers, one per orbit, in ascending order.

    Keeps the slot mask of every covering arc found (see ``_path_shadow``)
    in ``gi.witnesses``, the list the scan reads (``iter_placements_indexed``'s
    ``witnesses``): a support one of them holds costs neither the canonicity
    compare nor a search, and any other representative is decided by the
    path search on its realization, its unmarked vertices of at most two
    neighbours suppressed (``_search``).  The list outlives the scan: an
    entry is the mask of a real arc at any number of points, so the next
    level asked on the same index starts with this level's arcs.

    With each mask ``s`` found go its distinct images ``g(s)`` under the
    automorphisms ``g``, so a witness covers its whole orbit, and the
    non-representatives of a covered orbit never reach the compare.  An
    image is a witness too: ``g`` maps the arc to an arc and slots onto
    slots, class offset to class offset.  Coverage is a property of the
    orbit, so the uncovered representatives and their order stay the same.
    """
    sbs = gi.autos()
    witnesses = gi.witnesses
    for sm in iter_placements_indexed(gi, n, witnesses):
        path = _search(*_realize_masks(gi.n, gi.slot_pairs, 0, sm))
        if path is None:
            yield sm
            continue
        s = _path_shadow(gi, sm, path)
        witnesses.append(s)
        if sbs:
            images = dict.fromkeys(_images(sbs, _bits(s)))
            images.pop(s, None)
            witnesses.extend(images)


def is_n_ac(g: Multigraph, n: int) -> tuple[bool, Optional[Placement]]:
    """Is every n-point placement coverable by one arc?

    Levels up to 3 are answered by the theorems of ``ac_number``: a
    connected graph is 2-arc connected, and 3-arc connected exactly when
    its block-cut tree has at most two leaves (``leaf_block_obstruction``
    is None), so no level up to 3 builds the automorphism group.
    Otherwise it tries the certain obstructions of ``probe_placements``,
    each certified by the exhaustive per-placement search: the leaf-block
    placement at n >= 3, which is the answer of a failing level 3, and the
    end-count placement at n >= 4.  When neither obstructs, it scans one
    set of min(n, m) edges per orbit in lex order (``_uncovered``) and
    returns the first uncovered one, the lex-least failing edge set.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not g.is_connected():
        raise GraphError("is_n_ac expects a connected graph")
    if n <= 2 or n == 3 and leaf_block_obstruction(g) is None:
        return True, None
    for cand in probe_placements(g, n):
        if not _covered(g, cand):
            return False, cand
    gi = graph_index(g)
    for sm in _uncovered(gi, n):
        return False, _to_placement(gi, n, sm)
    return True, None


@dataclass(frozen=True)
class AcProfile:
    """Verdicts for n = 2..cap, with the usual downward closure.

    Level 2 holds by connectivity and level 3 by the block-cut tree theorem
    (see ``ac_number``); the others are ``is_n_ac`` verdicts.
    """

    verdicts: tuple[tuple[int, bool], ...]
    cap: int
    counterexample: Optional[Placement]
    counterexample_n: Optional[int]

    def verdict(self, n: int) -> bool:
        for m, ok in self.verdicts:
            if m == n:
                return ok
        raise KeyError(n)

    @property
    def omega(self) -> bool:
        """ω-arc connectivity; for graphs, settled by the verdict at 7."""
        return self.cap >= 7 and self.verdict(7)

    @property
    def number(self) -> int:
        best = 1
        for m, ok in self.verdicts:
            if ok:
                best = m
        return best

    @property
    def label(self) -> str:
        return "omega" if self.omega else str(self.number)


def ac_number(g: Multigraph, cap: int = 7) -> AcProfile:
    """Largest n with is_n_ac true, capped; ω exactly when 7-ac.

    Level 2 is settled by a theorem: a connected finite graph is arcwise
    connected, so any two of its points lie on an arc.  Level 3 is settled
    by another: the graph is 3-arc connected exactly when its block-cut tree
    has at most two leaves, a loop being a block of its own
    (``leaf_block_obstruction``).

    Three leaf blocks L1, L2, L3, attached at cut vertices c1, c2, c3, force
    three arc ends: an arc through a point inside each ``Li - ci`` leaves
    ``Li`` through ``ci``, which it crosses at most once, so the piece of
    the arc beyond ``ci`` ends inside ``Li - ci``.  The failing placement
    marks a vertex of ``Li`` other than ``ci``, or puts a point inside a
    loop ``Li``, so each of its points lies in its ``Li - ci``; it is
    certified by the exhaustive path search all the same.

    When the tree is a path of blocks B1 - B2 - ... - Bk, any three points
    lie on an arc that runs from the block of the first point to the block
    of the last, entering and leaving each block in between at its cut
    vertices.  Inside a block the arc needs a path between two given points
    that passes a third: in a 2-connected block the fan lemma gives two
    paths from the middle point to the two outer ones that meet only there,
    and a bridge, a loop or a parallel class is trivial.  So a passing level
    3 costs no scan and no placement symmetry.

    Levels 4..cap run ``is_n_ac`` on ``smooth(g)``, since n-arc connectivity
    is a property of the space.  They are checked in increasing order and
    the scan stops at the first failure, which settles all higher levels (an
    (n+1)-arc-connected space is n-arc connected).

    The counterexample is given in the ids of ``g``: smoothing keeps the
    surviving vertex ids and the idkey-least edge id of each merged chain, and
    points inside one piece of a chain sit in the same space as points inside
    the merged edge.  When smoothing changed the graph, the counterexample is
    certified once more on ``g`` itself by the exhaustive path search, on a
    realization read from ``g``'s edges (``_covered``), so no index of ``g``
    is built.
    """
    if cap < 2:
        raise GraphError("cap must be >= 2")
    if not g.is_connected():
        raise GraphError("ac_number expects a connected graph")
    s = smooth(g)
    verdicts: list[tuple[int, bool]] = [(2, True)]
    cex: Optional[Placement] = None
    cexn: Optional[int] = None
    for n in range(3, cap + 1):
        if n > 3:
            ok, c = is_n_ac(s, n)
        else:
            c = leaf_block_obstruction(s)
            ok = c is None
            if not ok and _covered(s, c):
                raise GraphError("internal: level-3 leaf-block placement is covered")
        verdicts.append((n, ok))
        if not ok:
            if s is not g and _covered(g, c):
                raise GraphError(f"internal: level-{n} counterexample of the smoothed "
                                 "graph is covered on the input graph")
            cex, cexn = c, n
            for m in range(n + 1, cap + 1):
                verdicts.append((m, False))
            break
    return AcProfile(tuple(verdicts), cap, cex, cexn)


def refine_check(g: Multigraph, n: int) -> bool:
    """Recompute is_n_ac on a refined subdivision and compare verdicts.

    Subdividing every edge once changes the presentation but not the space,
    so the verdicts must agree.  At n <= 3 both sides are the theorem
    answers of ``is_n_ac`` (connectivity, and the leaf blocks with a
    certified probe), so the scans are compared from n = 4.  Both sides scan
    edge sets only, so this checks the orbit scan, the witnesses and the
    probes on two presentations, not the edge-set theorem itself: the
    refined graph's scan puts no point on the vertices it adds, and its
    path search suppresses them.  The oracle that tries every mark set and
    count vector, independent of the quotient, is ``naive_is_n_ac`` in the
    tests.  The refined copy is kept in ``g``'s cache under ``"refined"``,
    so its index, placement symmetry and witness list are built once for
    all the levels asked about ``g``: the later levels reuse them, which
    cost more to build than the copy costs to hold.
    """
    refined = g._cache.get("refined")
    if refined is None:
        refined = g
        for e in g.edges:
            refined, _ = refined.subdivide(e.eid, 1)
        g._cache["refined"] = refined
    base, _ = is_n_ac(g, n)
    fine, _ = is_n_ac(refined, n)
    return base == fine
