"""Isomorphism machinery for small multigraphs.

Two related jobs live here:

* canonical codes (``canonical_form``): a byte string equal for two graphs
  exactly when they are isomorphic as multigraphs with loops,
* placement symmetry (``GraphIndex.autos``): the vertex automorphisms
  with their action on edge slots, used to enumerate placements one per
  orbit.

Both work on the loop counts and multiplicity matrix of a graph
(``_matrix``) and refine the same degree and loop colors
(``_degree_colors``); placement symmetry reads the matrix from the
integer-indexed view (:class:`GraphIndex`) that holds it.  The canonical
code is the minimum relabeled edge list over all labelings consistent with
iterated degree refinement; individualization handles ties and mutually
interchangeable (twin) vertices are branched only once.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Sequence

from .multigraph import BoundExceeded, GraphError, Id, Multigraph

# Search/size bounds.  Census graphs stay far below these; the errors exist
# so misuse fails loudly instead of hanging.
CANON_NODE_BUDGET = 500_000
SKELETON_AUTO_LIMIT = 50_000
DEFAULT_MAX_CANON_VERTICES = 12


class GraphIndex:
    """Integer-indexed adjacency view of a multigraph.

    Vertices are numbered by sorted id; edge slots are numbered with parallel
    classes consecutive (sorted by endpoint pair, then edge id: the sort is
    stable and ``g.edges`` come in edge-id order).  ``classes`` holds
    ``(i, j, start, end)`` per class, its slots being ``start..end-1``.
    A placement shadow is a marked-vertex mask with vertex ``v`` at bit ``v``
    and a loaded-slot mask with slot ``s`` at bit ``nslots-1-s``.

    ``witnesses`` is the append-only list of slot masks of covering arcs
    that the scans of this graph have found (``arcsearch._uncovered``).  An
    entry is the mask of a real arc whatever the number of points, so it
    serves every level: a scan at level n + 1 starts with the arcs of the
    levels asked before it, orbit images included.
    """

    __slots__ = (
        "n", "vids", "vpos", "loops", "mult", "deg",
        "nslots", "slot_pairs", "slot_eids", "classes", "class_of_pair",
        "_autos", "witnesses",
    )

    def __init__(self, g: Multigraph):
        self.vids = g.vertices
        self.n = n = len(self.vids)
        self.vpos, self.loops, self.mult = _matrix(g)
        vpos = self.vpos
        indexed = []
        for e in g.edges:
            i, j = vpos[e.a], vpos[e.b]
            indexed.append(((i, j) if i <= j else (j, i), e.eid))
        indexed.sort(key=itemgetter(0))
        self.nslots = len(indexed)
        self.slot_pairs = tuple(t[0] for t in indexed)
        self.slot_eids = tuple(t[1] for t in indexed)
        classes: list[tuple[int, int, int, int]] = []
        self.class_of_pair: dict[tuple[int, int], int] = {}
        start = 0
        for s, pair in enumerate(self.slot_pairs):
            if s > 0 and pair != self.slot_pairs[s - 1]:
                p0 = self.slot_pairs[start]
                classes.append((p0[0], p0[1], start, s))
                self.class_of_pair[p0] = len(classes) - 1
                start = s
        p0 = self.slot_pairs[start]
        classes.append((p0[0], p0[1], start, self.nslots))
        self.class_of_pair[p0] = len(classes) - 1
        self.classes = tuple(classes)
        self.deg = [self.loops[i] * 2 + sum(self.mult[i]) for i in range(n)]
        self._autos: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None
        self.witnesses: list[int] = []

    def autos(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The automorphism action on placement shadows, built once.

        ``(vbits, sbits)`` for every non-identity vertex automorphism, so a
        trivial group has no entries.  ``vbits[v]`` is the image of vertex
        ``v`` as bit ``n-1-image``, the bit order in which the lex-least
        mark set has the greatest mask; the scan reads only ``sbits``, and
        the mark-set walk of the tests' enumeration oracle reads
        ``vbits``.  A support is a mask with slot
        ``s`` as bit ``nslots-1-s``, and ``sbits[b]`` is the image of the
        slot at bit ``b``.  An image mask is the OR of its members'
        entries.  Parallel-edge swaps are left out: supports are
        class-suffix instead.  Raises ``BoundExceeded`` when the group is
        larger than ``SKELETON_AUTO_LIMIT``.
        """
        if self._autos is None:
            n = self.n
            vautos = _vertex_autos(n, self.loops, self.mult, SKELETON_AUTO_LIMIT)
            self._autos = [(tuple(1 << (n - 1 - w) for w in vperm), _slot_bits(self, vperm))
                           for vperm in vautos if vperm != tuple(range(n))]
        return self._autos


def _matrix(g: Multigraph) -> tuple[dict[Id, int], list[int], list[list[int]]]:
    """Vertex positions by sorted id, loop counts, and the multiplicity matrix."""
    vpos = {v: i for i, v in enumerate(g.vertices)}
    n = len(vpos)
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
    for e in g.edges:
        i, j = vpos[e.a], vpos[e.b]
        if i == j:
            loops[i] += 1
        else:
            mult[i][j] += 1
            mult[j][i] += 1
    return vpos, loops, mult


def graph_index(g: Multigraph) -> GraphIndex:
    gi = g._cache.get("index")
    if gi is None:
        gi = GraphIndex(g)
        g._cache["index"] = gi
    return gi


def neighbour_masks(gi: GraphIndex) -> list[int]:
    """Neighbour masks of the underlying simple graph.

    Bit ``w`` of entry ``v`` is set when an edge joins ``v`` and ``w != v``:
    loops are dropped and parallel classes merged.
    """
    nmask = [0] * gi.n
    for (i, j, _, _) in gi.classes:
        if i != j:
            nmask[i] |= 1 << j
            nmask[j] |= 1 << i
    return nmask


def _rank(keys: Sequence) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _adjacency(mult: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """``(u, multiplicity)`` for each neighbour ``u`` of each vertex."""
    return [[(u, m) for u, m in enumerate(row) if m] for row in mult]


def _degree_colors(n: int, loops: Sequence[int], mult: Sequence[Sequence[int]]) -> list[int]:
    """The colors refinement starts from: degree and loop count."""
    return _rank([(sum(mult[v]) + 2 * loops[v], loops[v]) for v in range(n)])


def _refine(n: int, loops: Sequence[int], adj: Sequence[Sequence[tuple[int, int]]],
            colors: list[int]) -> list[int]:
    """Iterate neighborhood color signatures to a stable partition."""
    while True:
        sigs = [(colors[v], loops[v], tuple(sorted((colors[u], m) for u, m in adj[v])))
                for v in range(n)]
        new = _rank(sigs)
        if new == colors:
            return colors
        colors = new


def _pin(colors: Sequence[int], v: int) -> list[int]:
    """Individualize ``v``: a color of its own just below its old class."""
    out = [c * 2 for c in colors]
    out[v] -= 1
    return _rank(out)


def _first_cell(colors: Sequence[int]) -> list[int] | None:
    """The vertices of the least color that more than one vertex has."""
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return next((groups[c] for c in sorted(groups) if len(groups[c]) > 1), None)


def _twins(loops: Sequence[int], mult: Sequence[Sequence[int]], i: int, j: int) -> bool:
    """True when swapping i and j is an automorphism."""
    if loops[i] != loops[j]:
        return False
    ri, rj = mult[i], mult[j]
    for k in range(len(ri)):
        if k == i or k == j:
            continue
        if ri[k] != rj[k]:
            return False
    return True


# -- canonical labeling ------------------------------------------------------


def _code_items(n: int, loops, mult, perm: Sequence[int]) -> list[tuple[int, int, int]]:
    items = []
    for i in range(n):
        if loops[i]:
            items.append((perm[i], perm[i], loops[i]))
        row = mult[i]
        for j in range(i + 1, n):
            if row[j]:
                a, b = perm[i], perm[j]
                if a > b:
                    a, b = b, a
                items.append((a, b, row[j]))
    items.sort()
    return items


def _canonical_items(n: int, loops, mult):
    """Minimum relabeled edge list over refinement-consistent labelings."""
    best: list[tuple[int, int, int]] | None = None
    adj = _adjacency(mult)
    # depth first, without a recursive closure (a reference cycle)
    stack = [_refine(n, loops, adj, _degree_colors(n, loops, mult))]
    nodes = 0
    while stack:
        colors = stack.pop()
        nodes += 1
        if nodes > CANON_NODE_BUDGET:
            raise BoundExceeded("canonicalization search budget exceeded")
        target = _first_cell(colors)
        if target is None:
            items = _code_items(n, loops, mult, colors)
            if best is None or items < best:
                best = items
            continue
        all_twins = all(_twins(loops, mult, target[0], w) for w in target[1:])
        branch = target[:1] if all_twins else target
        stack += [_refine(n, loops, adj, _pin(colors, v)) for v in branch]
    assert best is not None
    return best


def canonical_bytes(n: int, loops, mult) -> bytes:
    """The canonical code of a loop/multiplicity matrix: n, then (a, b, m) items."""
    out = bytearray([n])
    for a, b, m in _canonical_items(n, loops, mult):
        out.extend((a, b, m))
    return bytes(out)


def canonical_form(g: Multigraph) -> bytes:
    """Byte code identifying the isomorphism class of ``g``.

    Two multigraphs produce equal codes exactly when they are isomorphic
    (loops and parallel edges included).  Raises :class:`BoundExceeded` above
    ``DEFAULT_MAX_CANON_VERTICES`` vertices.  Only the code is kept in
    ``g``'s cache: it is read from the loop/multiplicity matrix
    (``_matrix``), and no :class:`GraphIndex` is built, so a census class
    carries nothing else until a caller asks for its index.
    """
    n = len(g.vertices)
    if n > DEFAULT_MAX_CANON_VERTICES:
        raise BoundExceeded(
            f"canonical_form limited to {DEFAULT_MAX_CANON_VERTICES} vertices, got {n}")
    cached = g._cache.get("canon")
    if cached is None:
        _, loops, mult = _matrix(g)
        cached = canonical_bytes(n, loops, mult)
        g._cache["canon"] = cached
    return cached


def are_homeomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Topological equivalence: canonical codes of smoothed forms agree."""
    from .multigraph import smooth

    if not (g1.is_connected() and g2.is_connected()):
        raise GraphError("are_homeomorphic expects connected graphs")
    return canonical_form(smooth(g1)) == canonical_form(smooth(g2))


# -- vertex automorphisms -----------------------------------------------------


def _vertex_autos(n: int, loops, mult, limit: int) -> list[tuple[int, ...]]:
    """All vertex permutations preserving loops and multiplicities.

    Individualization-refinement with orbit pruning (McKay & Piperno).  The
    domain side pins the base ``b0..bk-1``: at each level the first vertex of
    the first non-singleton color class, refined after each pin.  From the
    deepest level up, level ``i`` looks for one automorphism fixing
    ``b0..b(i-1)`` and sending ``b(i)`` to each class member ``w`` not yet in
    the orbit of ``b(i)`` under the generators found so far: it pins ``w`` on
    the range side, refines, prunes on diverging color histograms and
    verifies the first leaf.  The orbits are the basic orbits of the group,
    so their sizes multiply to its order, checked against ``limit`` before
    the group is built from their transversals.  An automorphism is fixed by
    its base images; the list is sorted by them.
    """
    adj = _adjacency(mult)
    doms, base, cells = [_refine(n, loops, adj, _degree_colors(n, loops, mult))], [], []
    while (cell := _first_cell(doms[-1])) is not None:
        base.append(cell[0])
        cells.append(cell)
        doms.append(_refine(n, loops, adj, _pin(doms[-1], cell[0])))
    hists = [sorted(Counter(d).items()) for d in doms]

    def find(i: int, w: int) -> tuple[int, ...] | None:
        # depth first, without a recursive closure (a reference cycle)
        stack = [(i + 1, doms[i], w)]
        while stack:
            j, parent, w = stack.pop()
            rng = _refine(n, loops, adj, _pin(parent, w))
            if sorted(Counter(rng).items()) != hists[j]:
                continue
            if j < len(base):
                c = doms[j][base[j]]
                stack += [(j + 1, rng, x) for x in reversed(range(n)) if rng[x] == c]
                continue
            pos = {c: v for v, c in enumerate(rng)}
            perm = tuple(pos[c] for c in doms[j])
            if all(loops[perm[v]] == loops[v] and
                   all(mult[v][u] == mult[perm[v]][perm[u]] for u in range(v + 1, n))
                   for v in range(n)):
                return perm
        return None

    gens: list[tuple[int, ...]] = []
    trans: list[dict[int, tuple[int, ...]]] = []
    order = 1
    for i in reversed(range(len(base))):
        orbit = _orbit(base[i], gens, n)
        for w in cells[i]:
            if w not in orbit and (p := find(i, w)):
                gens.append(p)
                orbit = _orbit(base[i], gens, n)
        order *= len(orbit)
        if order > limit:
            raise BoundExceeded("automorphism group larger than the configured bound")
        trans.append(orbit)
    return sorted(_coset_products(trans, n), key=lambda p: [p[b] for b in base])


def _orbit(b: int, gens: Sequence[tuple[int, ...]], n: int) -> dict[int, tuple[int, ...]]:
    """The orbit of ``b``, each point with a product of ``gens`` sending ``b`` there."""
    orbit = {b: tuple(range(n))}
    queue = [b]
    for x in queue:
        for s in gens:
            if (y := s[x]) not in orbit:
                orbit[y] = tuple(map(s.__getitem__, orbit[x]))
                queue.append(y)
    return orbit


def _coset_products(trans, n: int) -> list[tuple[int, ...]]:
    """The group from its transversals, deepest level first: each level's
    elements are its transversal elements composed with the level below."""
    group = [tuple(range(n))]
    for orbit in trans:
        group = [tuple(map(u.__getitem__, h)) for u in orbit.values() for h in group]
    return group


def _slot_bits(gi: GraphIndex, vperm: Sequence[int]) -> tuple[int, ...]:
    """Image bit of the slot at each mask bit; class offsets are kept."""
    top = gi.nslots - 1
    bits = [0] * gi.nslots
    for (i, j, s, e) in gi.classes:
        ts = gi.classes[gi.class_of_pair[tuple(sorted((vperm[i], vperm[j])))]][2]
        for off in range(e - s):
            bits[top - s - off] = 1 << (top - ts - off)
    return tuple(bits)
