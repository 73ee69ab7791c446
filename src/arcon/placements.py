"""Point placements on a multigraph.

An n-point configuration is tested only through its shadow: the set of
edges (slots) with points inside.  Once an arc meets the inside of an edge,
a self-homeomorphism fixing the vertices can stretch that meeting over all
of the edge's points, so coverability by one arc does not depend on how
many points each edge holds, and a point at a vertex can be moved onto an
edge next to it; the theorem and its proof are in
``iter_placements_indexed``.  The scan therefore asks only about sets of
min(n, m) loaded edges.  The test oracle ``naive_is_n_ac``, which tries
every mark set and count vector, checks that reduction.

Inside the engine a shadow is one integer ``sm`` with bit ``nslots-1-s`` for
each loaded slot ``s`` (slots as numbered by ``GraphIndex``).  The scan, the
realization and the witness list all work on these masks; count vectors
appear only in :class:`Placement`, at the boundary.  A support S stands for
the placement ``v(S)``: one point on each loaded slot, and when n exceeds
the number of slots, the rest on the last.  Supports are enumerated in
ascending mask order, which is the lex order of their indicator vectors,
one per automorphism orbit: the least of the orbit.  A placement asked about
on its own, marks included, is realized from the graph's edges in edge
order (``_edge_masks``), so it needs no index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .multigraph import GraphError, Id, Multigraph, idkey
from .symmetry import GraphIndex


@dataclass(frozen=True)
class Placement:
    """n marked points: a vertex subset plus per-edge interior counts.

    ``counts`` stores only nonzero entries, sorted by edge id.
    """

    marks: frozenset
    counts: tuple[tuple[Id, int], ...]

    @property
    def n(self) -> int:
        return len(self.marks) + sum(c for _, c in self.counts)

    def count_map(self) -> dict[Id, int]:
        return dict(self.counts)

    def validate(self, g: Multigraph) -> None:
        for v in self.marks:
            if v not in g.degrees:
                raise GraphError(f"placement marks unknown vertex {v!r}")
        eids = {e.eid for e in g.edges}
        for eid, c in self.counts:
            if eid not in eids:
                raise GraphError(f"unknown edge {eid!r}")
            if c < 0:
                raise GraphError("negative interior count")

    @staticmethod
    def of(g: Multigraph, marks=(), counts: Mapping[Id, int] | None = None) -> "Placement":
        cm = dict(counts or {})
        p = Placement(
            frozenset(marks),
            tuple(sorted(((e, c) for e, c in cm.items() if c), key=lambda t: idkey(t[0]))),
        )
        p.validate(g)
        return p


def _to_placement(gi: GraphIndex, n: int, sm: int) -> Placement:
    """The placement ``v(S)`` of the support ``sm`` with ``n`` points.

    One point on each loaded slot.  When ``n`` exceeds the number of slots,
    every slot is loaded and the last one takes the rest.
    """
    top = gi.nslots - 1
    counts = {gi.slot_eids[s]: 1 for s in range(gi.nslots) if sm >> (top - s) & 1}
    if n > gi.nslots:
        counts[gi.slot_eids[top]] = n - top
    return Placement(frozenset(), tuple(sorted(counts.items(), key=lambda t: idkey(t[0]))))


def _bits(m: int) -> list[int]:
    """The positions of the set bits of ``m``, ascending."""
    out = []
    while m:
        b = m & -m
        m ^= b
        out.append(b.bit_length() - 1)
    return out


class _WitnessIndex:
    """A transposed view of an append-only list of witness slot masks.

    ``slot[s]`` has bit ``i`` when ``witnesses[i]`` holds slot ``s``, and
    ``tail[lo]`` has bit ``i`` when it holds every slot from ``lo`` on, the
    trailing run of ones of its mask.  So a set of witnesses is one int, and
    the witnesses that hold a support are an AND over its slots.  ``count``
    entries are read so far.
    """

    __slots__ = ("witnesses", "count", "slot", "tail")

    def __init__(self, witnesses: Sequence[int], nslots: int):
        self.witnesses = witnesses
        self.count = 0
        self.slot = [0] * nslots
        self.tail = [0] * (nslots + 1)

    def holding(self, sm: int) -> int:
        """The witnesses that hold ``sm``, new entries read first."""
        slot, tail = self.slot, self.tail
        top = len(slot) - 1
        for i in range(self.count, len(self.witnesses)):
            s = self.witnesses[i]
            b = 1 << i
            for x in _bits(s):
                slot[top - x] |= b
            for lo in range(len(tail) - (s ^ (s + 1)).bit_length(), len(tail)):
                tail[lo] |= b
        self.count = len(self.witnesses)
        hs = (1 << self.count) - 1
        for x in _bits(sm):
            hs &= slot[top - x]
        return hs


def _supports(k: int, end: Sequence[int], index: _WitnessIndex) -> Iterator[int]:
    """Masks of the supports of exactly ``k`` slots, ascending.

    ``end[s]`` is the last slot of the parallel class of slot ``s``.  The
    loaded slots of a class form a suffix of it, because any other support
    is the image of one of these under a parallel-edge swap.  Each recursion
    level (``_support_level``, a module generator, so no closure cycle per
    scan) loads one slot, so the depth is ``k``.  A first slot is tried only
    when the rest of its class and the slots after it can make up the ``k``,
    so every level that is entered yields or is pruned by a witness.

    The supports that a witness of ``index`` holds are left out.  Each
    recursion level carries ``hs``, the witnesses that hold its partial
    support: a leaf adding slot ``f`` is covered exactly when
    ``hs & slot[f]`` is nonzero, and a level from ``lo`` on is covered as a
    whole when ``hs & tail[lo]`` is, since one witness then holds every
    support below it.  That test is made before a level is entered, so a
    covered level is never created.  The consumer may append to the list
    only while a yield is suspended, so a level's view stays current
    between yields: it re-reads ``hs`` only after a yield of its own or of
    a child, once the list has grown, and tests its tail right after.  A
    stale view would still be sound, since it holds only witnesses of the
    longer list.
    """
    hs = index.holding(0)
    if not hs & index.tail[0]:
        # the state every level shares: (top, end, index, witnesses, slot, tail)
        yield from _support_level((len(end) - 1, end, index, index.witnesses, index.slot,
                                   index.tail), 0, k, False, 0, hs, index.count)


def _support_level(st: tuple, lo: int, rem: int, forced: bool, sm: int, hs: int, known: int
                   ) -> Iterator[int]:
    """The supports that add ``rem`` slots from ``lo`` on to ``sm``.

    ``hs``: the witnesses among the first ``known`` that hold ``sm``; the
    caller has checked that ``hs & tail[lo]`` is zero.  ``forced``: ``sm``
    loads slot ``lo - 1`` and not the end of its class, so ``lo`` is next.
    """
    top, end, index, witnesses, slot, tail = st
    # the first loaded slot runs down from the last one that leaves room, so
    # the masks come in ascending order
    for f in (lo,) if forced else range(top - rem + 1, lo - 1, -1):
        if end[f] - f >= rem:
            continue  # the rest of f's class does not fit
        hf = hs & slot[f]
        if rem == 1:
            if hf:
                continue
            yield sm | 1 << (top - f)
        elif hf & tail[f + 1]:
            continue
        else:
            yield from _support_level(st, f + 1, rem - 1, f != end[f], sm | 1 << (top - f),
                                      hf, known)
        if len(witnesses) != known:
            hs, known = index.holding(sm), index.count
            if hs & tail[lo]:
                return


def iter_placements_indexed(gi: GraphIndex, n: int, witnesses: Sequence[int] = ()
                            ) -> Iterator[int]:
    """One support of min(n, m) slots per automorphism orbit, ascending.

    The theorem.  Let G have m edges and let k = min(n, m).  G is n-arc
    connected exactly when every placement ``v(S)`` with ``|S| = k`` is
    covered: one point inside each edge of S, and when n > m the n - m
    points left over inside the last edge too.  Each ``v(S)`` has n points,
    so one uncovered ``v(S)`` refutes n-ac.  Conversely, let P be an
    uncovered placement of n points.

    * Marks can go.  Say P marks the vertex v, and let e be an edge at v.
      Let P' be P without v, plus a point p inside e nearer to v than any
      point of P on e.  Suppose an arc A' covers P'.  If v is on A', A'
      covers P.  If not, the piece of A' in e through p stops, on the side
      toward v, at a point q short of v, and q is an end of A'.  No other
      piece of A' lies between q and v: it could leave e only through v,
      so both its ends would be ends of A', and A' would lie inside e,
      missing p.  So A' with [q, v] added is an arc that covers P.  So P'
      is uncovered, with n points and one mark fewer.
    * Counts can go.  A mark-free placement is covered exactly when its
      support, one point inside each loaded edge, is.  One way is a subset.
      For the other, let A cover the support.  A meets the inside of each
      loaded edge e, and A ∩ e is either all of e or has at most two pieces,
      each ending at an end of A.  A homeomorphism of the space that fixes
      every vertex and maps each edge onto itself, increasing along it,
      moves those ends so that A holds every point on e: one piece from an
      end vertex of e, or a piece inside e, is stretched past every point.
      The one case that needs care is two pieces, [u, a] from one end u of
      e and [b, w] from the other end w, with a and b the two ends of A:
      then a is moved past every point and b between a and w, so the gap
      between the pieces holds no point.  The image of A is an arc that
      covers the placement.
    * Pad.  Adding points keeps a placement uncovered.  The support that P
      reduces to has at most min(n, m) edges, and one point inside each of
      further edges, up to k, keeps it uncovered; when n > m, so do the
      n - m points left over on the last edge.  That is an uncovered
      ``v(S)`` with ``|S| = k``.

    So the scan yields the loaded-slot masks ``sm`` of supports of exactly
    k slots (``_supports``), slot ``s`` at bit ``nslots-1-s``, one per
    orbit of the automorphism group: a mask is kept when no automorphism
    maps it to a smaller one, an integer compare of image masks, and lex
    order of the indicator vectors is that integer order.

    ``witnesses`` holds slot masks of covering arcs, and the caller may
    append to it between yields.  The walk reads it through one
    ``_WitnessIndex``, and the supports one of them holds are skipped
    without the compare (see ``_supports``).  A caller that tests
    coverability loses nothing by this: coverage is a property of the
    placement, shared by its whole orbit, so the skipped representatives
    are covered ones and the uncovered ones come in the same order.  A
    witness slot mask holds a support when it holds every loaded slot, and
    that covers the support by the stretching of "counts can go": the
    witness arc meets the inside of each of its slots in a nondegenerate
    interval, unless it is one point inside a loop, and then it covers
    only supports on that loop.  The list only grows, and every entry in
    it is the slot mask of a real arc.
    """
    sbs = gi.autos()
    end = [e - 1 for (_, _, start, e) in gi.classes for _ in range(start, e)]
    for sm in _supports(min(n, gi.nslots), end, _WitnessIndex(witnesses, gi.nslots)):
        bits = _bits(sm)
        if all(sum(map(sbits.__getitem__, bits)) >= sm for sbits in sbs):
            yield sm


# -- realization ---------------------------------------------------------------


def _realize_masks(nverts: int, slot_pairs: Sequence[tuple[int, int]], mm: int, sm: int
                   ) -> tuple[list[int], int]:
    """Adjacency bitmasks of a shadow's realization, and its marked mask.

    The graph has ``nverts`` vertices and one slot per entry of
    ``slot_pairs``, the slot's two end vertices (``GraphIndex.slot_pairs``,
    or a graph's edges in edge order).  Each loaded slot gets one marked
    vertex, the k-th loaded slot (in slot order) vertex ``nverts + k``: on
    a non-loop slot between its two ends, on a loop hanging off the loop's
    vertex.  An empty non-loop slot is a direct adjacency and an empty loop
    is left out, since no simple path with marked ends can use it.
    Parallel edges collapse to one adjacency bit, which is harmless for
    vertex-simple path existence.  Every vertex of the graph is kept here;
    the searches of ``arcsearch`` suppress the unmarked vertices of at most
    two neighbours afterwards (``arcsearch._search``), and expand the path
    they find back to this realization.
    """
    nmask = [0] * nverts
    marked = mm
    top = len(slot_pairs) - 1
    for s, (i, j) in enumerate(slot_pairs):
        if sm >> (top - s) & 1:
            x = len(nmask)
            b = 1 << x
            marked |= b
            nmask[i] |= b
            if i == j:
                nmask.append(1 << i)
            else:
                nmask[j] |= b
                nmask.append(1 << i | 1 << j)
        elif i != j:
            nmask[i] |= 1 << j
            nmask[j] |= 1 << i
    return nmask, marked


def _edge_masks(g: Multigraph, marks: Iterable[Id] = (), counts: Mapping[Id, int] = {}
                ) -> tuple[list[int], int]:
    """``_realize_masks`` of marks and interior counts read straight from ``g``.

    Vertices are numbered by sorted id and slots are ``g``'s edges in edge
    order, so no :class:`GraphIndex` is built; an edge is loaded when its
    count is nonzero.  With no counts this is ``g``'s own adjacency, parallel
    edges merged and loops left out: the simple graph that ``is_planar``
    and the leaf blocks of ``obstructions`` read.
    """
    vpos = {v: i for i, v in enumerate(g.vertices)}
    top = len(g.edges) - 1
    mm = sum(1 << vpos[v] for v in marks)
    sm = sum(1 << (top - k) for k, e in enumerate(g.edges) if counts.get(e.eid))
    return _realize_masks(len(vpos), [(vpos[e.a], vpos[e.b]) for e in g.edges], mm, sm)


def _path_shadow(gi: GraphIndex, sm: int, path: list[int]) -> int:
    """The base-graph slot mask of a path found in the realization of ``sm``.

    The slots the arc the path stands for meets in a nondegenerate
    interval.  ``path`` is a path of the full realization
    (``_realize_masks``): a search that bypassed vertices has put them
    back (``arcsearch._search``), so each step is read as its own.  A
    slot counts when its realized vertex is on the path.  A direct step
    between base vertices runs along an empty slot of that pair, and since
    the path stands for an arc along any of them, the last one counts:
    supports load a suffix of each parallel class, so it is the slot most
    of them load.
    """
    n = gi.n
    top = gi.nslots - 1
    loaded = [s for s in range(gi.nslots) if sm >> (top - s) & 1]
    slots = 0
    prev = -1
    for v in path:
        if v >= n:
            slots |= 1 << (top - loaded[v - n])
        elif 0 <= prev < n:
            _, _, lo, hi = gi.classes[gi.class_of_pair[(min(prev, v), max(prev, v))]]
            free = ((1 << (hi - lo)) - 1) << (gi.nslots - hi) & ~sm
            slots |= free & -free
        prev = v
    return slots


def realize(g: Multigraph, p: Placement) -> tuple[Multigraph, frozenset]:
    """Subdivide ``g`` so the placement's interior points become vertices.

    Returns the subdivided graph and the full marked set (placement vertex
    marks plus the fresh interior vertices).  Loops are subdivided past their
    marked points so the result is loop-free.
    """
    p.validate(g)
    cm = p.count_map()
    cur = g
    marked = set(p.marks)
    for e in g.edges:
        c = cm.get(e.eid, 0)
        extra = 0
        if e.is_loop:
            extra = 2 - c if c < 2 else 0
        if c + extra == 0:
            continue
        cur, fresh = cur.subdivide(e.eid, c + extra)
        marked.update(fresh[:c])
    return cur, frozenset(marked)
