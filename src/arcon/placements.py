"""Point placements on a multigraph.

An n-point configuration is tested only through its combinatorial shadow: the
set of marked vertices plus the set of edges (slots) with points inside.
Once an arc meets the inside of an edge, a self-homeomorphism fixing the
vertices can stretch that meeting over all of the edge's points, so
coverability by one arc depends only on this data, not on how many points
each edge holds; the refine-based oracle in :mod:`arcon.arcsearch`
double-checks that reduction empirically.

Inside the engine a shadow is the pair of integers ``(mm, sm)``: ``mm`` has
bit ``v`` for each marked vertex, ``sm`` has bit ``nslots-1-s`` for each
loaded slot ``s`` (slots as numbered by ``GraphIndex``).  The scan, the
realization and the witness list all work on these masks; count vectors
appear only in :class:`Placement`, at the boundary.  A shadow (marks, S)
stands for the placement ``v(S)``: one point on each loaded slot but the
last, which takes the rest.  Shadows are enumerated in lexicographic order
of (sorted marked vertices, count vector of ``v(S)``), one per automorphism
orbit: the lex-least ``v(S)`` of the orbit.  A placement asked about on its
own is realized from the graph's edges in edge order (``_edge_masks``), so
it needs no index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .multigraph import GraphError, Id, Multigraph, idkey
from .symmetry import GraphIndex, graph_index


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


def _to_placement(gi: GraphIndex, n: int, mm: int, sm: int) -> Placement:
    """The placement ``v(S)`` of the shadow ``(mm, sm)`` with ``n`` points.

    One point on each loaded slot but the last, which takes the rest.
    """
    top = gi.nslots - 1
    loaded = [s for s in range(gi.nslots) if sm >> (top - s) & 1]
    counts = {gi.slot_eids[s]: 1 for s in loaded}
    if loaded:
        counts[gi.slot_eids[loaded[-1]]] = n - mm.bit_count() - len(loaded) + 1
    return Placement(frozenset(gi.vids[v] for v in range(gi.n) if mm >> v & 1),
                     tuple(sorted(counts.items(), key=lambda t: idkey(t[0]))))


def _bits(m: int) -> list[int]:
    """The positions of the set bits of ``m``, ascending."""
    out = []
    while m:
        b = m & -m
        m ^= b
        out.append(b.bit_length() - 1)
    return out


class _WitnessIndex:
    """A transposed view of an append-only list of witness shadows.

    ``vert[v]`` and ``slot[s]`` have bit ``i`` when ``witnesses[i]`` holds
    vertex ``v`` or slot ``s``, and ``tail[lo]`` has bit ``i`` when it holds
    every slot from ``lo`` on, the trailing run of ones of its slot mask.
    So a set of witnesses is one int, and the witnesses that hold a shadow
    are an AND over its members.  ``count`` entries are read so far.
    """

    __slots__ = ("witnesses", "count", "vert", "slot", "tail")

    def __init__(self, witnesses: Sequence[tuple[int, int]], nverts: int, nslots: int):
        self.witnesses = witnesses
        self.count = 0
        self.vert = [0] * nverts
        self.slot = [0] * nslots
        self.tail = [0] * (nslots + 1)

    def holding(self, mm: int, sm: int) -> int:
        """The witnesses that hold ``mm`` and ``sm``, new entries read first."""
        vert, slot, tail = self.vert, self.slot, self.tail
        top = len(slot) - 1
        for i in range(self.count, len(self.witnesses)):
            vm, s = self.witnesses[i]
            b = 1 << i
            for x in _bits(vm):
                vert[x] |= b
            for x in _bits(s):
                slot[top - x] |= b
            for lo in range(len(tail) - (s ^ (s + 1)).bit_length(), len(tail)):
                tail[lo] |= b
        self.count = len(self.witnesses)
        hs = (1 << self.count) - 1
        for x in _bits(mm):
            hs &= vert[x]
        for x in _bits(sm):
            hs &= slot[top - x]
        return hs


def _supports(total: int, nslots: int, ends: Container[int], mm: int,
              index: _WitnessIndex) -> Iterator[int]:
    """Loaded-slot masks of the supports with ``total`` points, lex ascending.

    A support S stands for ``v(S)``: one point on each slot of S but the
    last, which takes the rest; masks come in lex order of those count
    vectors.  ``ends`` holds the last slot of each parallel class; the loaded
    slots of a class form a suffix of it, because any other support is the
    image of one of these under a parallel-edge swap.  Each recursion level
    (``_support_level``, a module generator, so no closure cycle per mark
    set) places one point, so the depth is at most ``total``.

    The supports that a witness of ``index`` holds together with the marks
    ``mm`` are left out.  Each recursion level carries ``hs``, the
    witnesses that hold ``mm`` and its partial support: a leaf adding slot
    ``f`` is covered exactly when ``hs & slot[f]`` is nonzero, and a level
    from ``lo`` on is covered as a whole when ``hs & tail[lo]`` is, since
    one witness then holds every support below it.  That test is made
    before a level is entered, so a covered level is never created.  The
    consumer may append to the list only while a yield is suspended, so a
    level's view stays current between yields: it re-reads ``hs`` only
    after a yield of its own or of a child, once the list has grown, and
    tests its tail right after.  A stale view would still be sound, since
    it holds only witnesses of the longer list.
    """
    hs = index.holding(mm, 0)
    if total == 0:
        if not hs:
            yield 0
    elif not hs & index.tail[0]:
        # the state every level shares: (top, ends, mm, index, witnesses, slot, tail)
        yield from _support_level((nslots - 1, ends, mm, index, index.witnesses, index.slot,
                                   index.tail), 0, total, False, 0, hs, index.count)


def _support_level(st: tuple, lo: int, rem: int, forced: bool, sm: int, hs: int, known: int
                   ) -> Iterator[int]:
    """The supports that add ``rem`` points to ``sm`` on slots from ``lo`` on.

    ``hs``: the witnesses among the first ``known`` that hold ``mm`` and
    ``sm``; the caller has checked that ``hs & tail[lo]`` is zero.
    """
    top, ends, mm, index, witnesses, slot, tail = st
    # the first loaded slot runs from the last slot down, so the vectors
    # with more leading zeros come first
    for f in (lo,) if forced else range(top, lo - 1, -1):
        hf = hs & slot[f]
        if rem > 1 and not hf & tail[f + 1]:
            yield from _support_level(st, f + 1, rem - 1, f not in ends, sm | 1 << (top - f),
                                      hf, known)
            if len(witnesses) != known:
                hs, known = index.holding(mm, sm), index.count
                if hs & tail[lo]:
                    return
                hf = hs & slot[f]
        if f in ends and not hf:
            yield sm | 1 << (top - f)
            if len(witnesses) != known:
                hs, known = index.holding(mm, sm), index.count
                if hs & tail[lo]:
                    return


def iter_placements_indexed(gi: GraphIndex, n: int,
                            witnesses: Sequence[tuple[int, int]] = (),
                            ) -> Iterator[tuple[int, int]]:
    """Shadow-orbit representatives ``(mm, sm)`` in lex order of ``v(S)``.

    Marks compare first, so canonicity splits: the mark set must be lex-least
    over the group, and the support mask least under the mark set's
    stabilizer.  With vertex ``v`` at bit ``n-1-v``, the lex-least of a set
    of mark sets of one size has the greatest mask.  For supports of one
    size, ``v(S) < v(T)`` exactly when the indicator of S is lex-smaller,
    which is the integer compare of their masks.

    Mark sets are walked depth first (``_mark_node``, a module generator),
    each sorted tuple before its extensions by larger vertices, which is
    the lex order of the tuples.
    Each node carries the image keys of its mark set under every
    automorphism, so a child adds one bit per image.  A node with an image
    key greater than its own is rejected together with its whole subtree:
    say g(P) <lex P and x > max P.  P ∪ {x} agrees with P on its first |P|
    positions, and inserting g(x) into the sorted tuple of g(P) can only
    lower each of those positions, so g(P ∪ {x}) <lex P ∪ {x}.  Every
    extension of a rejected set is rejected, and the kept sets come in the
    same order as a walk over all subsets would give.

    ``witnesses`` holds base-graph shadows ``(vmask, slots)`` of covering
    arcs, and the caller may append to it between yields.  The walk reads
    it through one ``_WitnessIndex``, and the supports of a surviving mark
    set that one of them covers are skipped without the stabilizer compare
    (see ``_supports``).  A caller that tests
    coverability loses nothing by this: coverage is a property of the
    placement, shared by its whole orbit, so the skipped representatives
    are covered ones and the uncovered ones come in the same order.  A
    placement is covered when one shadow holds every marked vertex and
    every loaded slot.  Why that is sound: let A be the witness arc in the
    space.  A meets the interior of every slot in ``slots`` in a
    nondegenerate interval, unless A is one point inside a loop, and then
    it covers only placements on that loop, which lie on an arc inside it.
    A homeomorphism of the space that fixes every vertex and maps each edge
    onto itself can stretch that interval until it holds all of the edge's
    points of the new placement, and the marked vertices lie on A already.
    So the preimage of A is an arc through all n points.  This is the
    premise the placement quotient rests on.  The list only grows, and
    every entry in it is the shadow of a real arc.
    """
    autos = gi.autos()
    ends = {end - 1 for (_, _, _, end) in gi.classes}
    index = _WitnessIndex(witnesses, gi.n, gi.nslots)
    # the state every node shares: (n, nverts, nslots, autos, ends, index)
    yield from _mark_node((n, gi.n, gi.nslots, autos, ends, index), 0, 0, 0, 0, [0] * len(autos))


def _mark_node(st: tuple, lo: int, k: int, key: int, mm: int, imgs: list[int]
               ) -> Iterator[tuple[int, int]]:
    """The representatives with the ``k`` marks ``mm`` or their extensions from ``lo`` on.

    ``imgs[i]``: the image key of the mark set under ``autos[i]``, none above ``key``.
    """
    n, nverts, nslots, autos, ends, index = st
    stab = [sbits for (_, sbits), img in zip(autos, imgs) if img == key]
    for sm in _supports(n - k, nslots, ends, mm, index):
        bits = _bits(sm)
        if all(sum(map(sbits.__getitem__, bits)) >= sm for sbits in stab):
            yield mm, sm
    if k == n:
        return
    top = nverts - 1
    for v in range(lo, nverts):
        ckey = key | 1 << (top - v)
        cimgs = []
        for (vbits, _), img in zip(autos, imgs):
            img |= vbits[v]
            if img > ckey:
                break
            cimgs.append(img)
        else:
            yield from _mark_node(st, v + 1, k + 1, ckey, mm | 1 << v, cimgs)


def enumerate_placements(g: Multigraph, n: int) -> Iterator[Placement]:
    """One representative per automorphism orbit of (marks, loaded slots).

    Representatives appear in lexicographic order of (sorted marked vertex
    indices, count vector); each is the lex-least ``v(S)`` of its orbit, so
    the stream is deterministic and schedule independent.
    """
    if n < 1:
        raise GraphError("placement size must be >= 1")
    if not g.is_connected():
        raise GraphError("placement enumeration expects a connected graph")
    gi = graph_index(g)
    for mm, sm in iter_placements_indexed(gi, n):
        yield _to_placement(gi, n, mm, sm)


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
    vertex-simple path existence.
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
    edges merged and loops left out.
    """
    vpos = {v: i for i, v in enumerate(g.vertices)}
    top = len(g.edges) - 1
    mm = sum(1 << vpos[v] for v in marks)
    sm = sum(1 << (top - k) for k, e in enumerate(g.edges) if counts.get(e.eid))
    return _realize_masks(len(vpos), [(vpos[e.a], vpos[e.b]) for e in g.edges], mm, sm)


def _path_shadow(gi: GraphIndex, sm: int, path: list[int]) -> tuple[int, int]:
    """The base-graph shadow of a path found in the realization of ``(mm, sm)``.

    Returns ``(vmask, slots)``: the base vertices on the path, and the mask
    of the edge slots the arc it stands for meets in a nondegenerate
    interval.  A slot counts when its realized vertex is on the path.  A
    direct step between base vertices runs along an empty slot of that
    pair, and since the path stands for an arc along any of them, the last
    one counts: supports load a suffix of each parallel class, so it is the
    slot most of them load.
    """
    n = gi.n
    top = gi.nslots - 1
    loaded = [s for s in range(gi.nslots) if sm >> (top - s) & 1]
    vmask = slots = 0
    prev = -1
    for v in path:
        if v >= n:
            slots |= 1 << (top - loaded[v - n])
        else:
            vmask |= 1 << v
            if 0 <= prev < n:
                _, _, lo, hi = gi.classes[gi.class_of_pair[(min(prev, v), max(prev, v))]]
                free = ((1 << (hi - lo)) - 1) << (gi.nslots - hi) & ~sm
                slots |= free & -free
        prev = v
    return vmask, slots


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
