"""Point placements on a multigraph.

An n-point configuration is tested only through its combinatorial shadow: the
set of marked vertices plus the set of edges (slots) with points inside.
Once an arc meets the inside of an edge, a self-homeomorphism fixing the
vertices can stretch that meeting over all of the edge's points, so
coverability by one arc depends only on this data, not on how many points
each edge holds; the refine-based oracle in :mod:`arcon.arcsearch`
double-checks that reduction empirically.

Each shadow (marks, S) is represented by ``v(S)``: one point on each loaded
slot but the last, which takes the rest.  Placements are enumerated in
lexicographic order of (sorted marked vertices, count vector), with the
count vector indexed by edges sorted by (endpoint pair, edge id).  One
representative per automorphism orbit of shadows is yielded: the lex-least
``v(S)`` of the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterator, Mapping

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
        for eid, c in self.counts:
            g.edge(eid)
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


def _to_placement(gi: GraphIndex, marks: tuple[int, ...], cvec: tuple[int, ...]) -> Placement:
    return Placement(
        frozenset(gi.vids[v] for v in marks),
        tuple(sorted(((gi.slot_eids[s], c) for s, c in enumerate(cvec) if c),
                     key=lambda t: idkey(t[0]))),
    )


def _to_indexed(gi: GraphIndex, p: Placement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    marks = tuple(sorted(gi.vpos[v] for v in p.marks))
    cvec = [0] * gi.nslots
    cm = p.count_map()
    for s, eid in enumerate(gi.slot_eids):
        cvec[s] = cm.get(eid, 0)
    return marks, tuple(cvec)


def _supports(total: int, nslots: int, ends: Container[int]
              ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Support representatives ``v(S)`` with ``total`` points, lex ascending.

    ``v(S)`` puts one point on each slot of S but the last, which takes the
    rest.  Yields ``(cvec, S)`` with S the loaded slots in ascending order.
    ``ends`` holds the last slot of each parallel class; the loaded slots of
    a class form a suffix of it, because any other support is the image of
    one of these under a parallel-edge swap.  Each recursion level places
    one point, so the depth is at most ``total``.
    """
    vec = [0] * nslots
    sup: list[int] = []
    if total == 0:
        yield tuple(vec), ()
        return

    def rec(lo: int, rem: int, forced: bool):
        # the first loaded slot runs from the last slot down, so the vectors
        # with more leading zeros come first
        for f in (lo,) if forced else range(nslots - 1, lo - 1, -1):
            sup.append(f)
            if rem > 1:
                vec[f] = 1
                yield from rec(f + 1, rem - 1, f not in ends)
            if f in ends:
                vec[f] = rem
                yield tuple(vec), tuple(sup)
            vec[f] = 0
            sup.pop()

    yield from rec(0, total, False)


def _subsets_lex(ids: tuple[int, ...], maxlen: int) -> Iterator[tuple[int, ...]]:
    """Subsets as sorted tuples in lexicographic tuple order ((), (0,), (0,1)...)."""
    n = len(ids)

    def rec(start: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(acc)
        if len(acc) == maxlen:
            return
        for i in range(start, n):
            acc.append(ids[i])
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


def iter_placements_indexed(gi: GraphIndex, n: int):
    """Shadow-orbit representatives in lex order, as indexed (marks, counts).

    Marks compare first, so canonicity splits: the mark set must be lex-least
    over the group, and the support mask least under the mark set's
    stabilizer.  For supports of one size, ``v(S) < v(T)`` exactly when the
    indicator of S is lex-smaller, which is the integer compare of their
    masks.  Rejecting a mark set discards all its supports at once, and
    surviving mark sets usually have small stabilizers.
    """
    autos = gi.symmetry().autos
    ident = [1 << (gi.nslots - 1 - s) for s in range(gi.nslots)]
    ends = {end - 1 for (_, _, _, end) in gi.classes}
    for marks in _subsets_lex(tuple(range(gi.n)), n):
        lm = list(marks)
        stab = []
        for vperm, bits in autos:
            im = sorted(vperm[v] for v in marks)
            if im < lm:
                break
            if im == lm:
                stab.append(bits)
        else:
            for cvec, sup in _supports(n - len(marks), gi.nslots, ends):
                mask = sum(map(ident.__getitem__, sup))
                for bits in stab:
                    img = 0
                    for s in sup:
                        img |= bits[s]
                    if img < mask:
                        break
                else:
                    yield marks, cvec


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
    for marks, cvec in iter_placements_indexed(gi, n):
        yield _to_placement(gi, marks, cvec)


# -- realization ---------------------------------------------------------------


def _realize_masks(gi: GraphIndex, marks: tuple[int, ...], cvec: tuple[int, ...]):
    """Adjacency bitmasks of the subdivided graph plus the marked-vertex mask.

    Marked interior points become fresh marked vertices; loops additionally
    receive unmarked subdivision vertices so no loop survives (two points on
    a bare loop, one extra next to a single marked point).  Parallel edges
    collapse to one adjacency bit, which is harmless for vertex-simple path
    existence.
    """
    n = gi.n
    nmask = [0] * n
    marked = 0
    for v in marks:
        marked |= 1 << v
    nxt = n
    pairs = gi.slot_pairs
    for s in range(gi.nslots):
        c = cvec[s]
        i, j = pairs[s]
        extra = 0
        if i == j:
            extra = 2 - c if c < 2 else 0
        if c == 0 and extra == 0:
            nmask[i] |= 1 << j
            nmask[j] |= 1 << i
            continue
        chain = list(range(nxt, nxt + c + extra))
        nxt += c + extra
        for _ in range(c + extra):
            nmask.append(0)
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


def _path_shadow(gi: GraphIndex, cvec: tuple[int, ...], path: list[int]) -> tuple[int, int]:
    """The base-graph shadow of a path found in ``_realize_masks(gi, marks, cvec)``.

    Returns ``(vmask, slots)``: the base vertices on the path, and the edge
    slots the path is known to run inside.  A slot counts when one of its
    chain vertices is on the path.  A direct step between base vertices
    ``i`` and ``j`` runs along an empty slot of that pair; it counts only
    when exactly one slot of the pair is empty, since otherwise the slot it
    used is not known.
    """
    n = gi.n
    owner: list[int] = []  # slot of each chain vertex, in realization order
    for s, (i, j) in enumerate(gi.slot_pairs):
        c = cvec[s]
        owner.extend([s] * (c + (2 - c if i == j and c < 2 else 0)))
    vmask = slots = 0
    prev = -1
    for v in path:
        if v >= n:
            slots |= 1 << owner[v - n]
        else:
            vmask |= 1 << v
            if 0 <= prev < n:
                _, _, lo, hi = gi.classes[gi.class_of_pair[(min(prev, v), max(prev, v))]]
                free = [s for s in range(lo, hi) if not cvec[s]]
                if len(free) == 1:
                    slots |= 1 << free[0]
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
