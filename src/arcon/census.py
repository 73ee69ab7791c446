"""Exhaustive census of small graph homeomorphism classes.

Every connected multigraph without suppressible degree-2 vertices (vertex
degrees 1 or >= 3, plus the one-loop circle at a single edge) represents one
homeomorphism class, and every class with a given smoothed edge count has
exactly one such representative up to isomorphism.  This module enumerates
them, filters by planarity, runs arc-connectivity profiles over them with a
resumable checkpoint, and verifies minimal-edge-count claims.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

from .arcsearch import _reach, ac_number
from .multigraph import BoundExceeded, GraphError, Multigraph, build
from .obstructions import _blocks
from .placements import _bits, _edge_masks
from .symmetry import canonical_form

MAX_CENSUS_EDGES = 11
CHECKPOINT_FORMAT = 1
SEARCH_CHUNK = 256  # graphs handed to a search's process pool at a time


# -- enumeration ----------------------------------------------------------------


def _degree_sequences(total: int, vcount: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing sequences of ``vcount`` degrees from {1, 3, 4, ...} summing to total."""
    yield from _degrees(total, vcount, total, [])


def _degrees(remaining: int, slots: int, cap: int, acc: list[int]
             ) -> Iterator[tuple[int, ...]]:
    """``acc`` extended by ``slots`` more degrees, none above ``cap``, summing to ``remaining``."""
    if slots == 0:
        if remaining == 0:
            yield tuple(acc)
        return
    if remaining < slots or remaining > slots * cap:
        return
    for d in range(min(cap, remaining - slots + 1), 0, -1):
        if d == 2:
            continue
        acc.append(d)
        yield from _degrees(remaining - d, slots - 1, d, acc)
        acc.pop()


def _matrices(degseq: tuple[int, ...]) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Connected loop/multiplicity matrices realizing ``degseq``, pruned while filled.

    A matrix reads row by row as ``(loops[r], mult[r][r+1:])``; rows are
    filled in that order with every entry counted down, so matrices come out
    in descending order of that reading.  Two exact prunes cut branches:

    * connectivity: once row ``i`` is done every edge at ``0..i`` is fixed,
      so the component of ``i`` must reach past ``i`` or be the whole graph;
    * equal-degree swap order: for adjacent vertices ``c, c+1`` of equal
      degree, the first row ``r < c`` where columns ``c`` and ``c+1`` differ
      must have ``mult[r][c] > mult[r][c+1]``, and if none does, row ``c+1``
      must not read greater than row ``c`` (columns past ``c+1``).

    The second condition says that swapping ``c`` and ``c+1``, which keeps
    the degree sequence non-increasing, does not raise the reading.  The
    greatest labeling of a class meets every such condition, so each class
    survives at least once, and it is the first of its class to come out.
    """
    n = len(degseq)
    # the fill state every row generator shares: (n, full, loops, mult, res,
    # comp, tied, prevs, rooms).  comp[v] is the component of v over the
    # finished rows; tied[c] says columns c and c+1 have equal degree and
    # agree in every row so far; prevs[i] and rooms[i] are set as row i starts
    yield from _fill_row((n, (1 << n) - 1, [0] * n, [[0] * n for _ in range(n)],
                          list(degseq), [1 << v for v in range(n)],
                          [c + 1 < n and degseq[c] == degseq[c + 1] for c in range(n)],
                          [None] * n, [None] * n), 0)


def _fill_row(st: tuple, i: int) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Rows ``i..n-1``, rows ``0..i-1`` being done."""
    n, _, loops, mult, res, comp, tied, prevs, rooms = st
    if i == n:
        yield loops[:], [row[:] for row in mult]
        return
    prev = prevs[i] = mult[i - 1] if i and tied[i - 1] else None  # row i may not read above it
    room = rooms[i] = [0] * (n + 1)  # room[j]: residual degree left in columns j..n-1
    for j in range(n - 1, i, -1):
        room[j] = room[j + 1] + res[j]
    top = res[i] // 2
    if prev is not None and loops[i - 1] < top:
        top = loops[i - 1]
    for li in range(top, -1, -1):
        rem = res[i] - 2 * li
        if rem > room[i + 1]:
            break
        loops[i] = li
        yield from _assign(st, i, i + 1, rem, comp[i], prev is not None and li == loops[i - 1])
    loops[i] = 0


def _close(st: tuple, i: int, cur: int) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Row ``i`` is done and its vertex's component is ``cur``: merge, fill on."""
    full, comp = st[1], st[5]
    if not cur >> (i + 1) and cur != full:
        return  # a finished component that misses part of the graph
    saved = comp[:]
    rest = cur
    while rest:
        b = rest & -rest
        comp[b.bit_length() - 1] = cur
        rest ^= b
    yield from _fill_row(st, i + 1)
    comp[:] = saved


def _assign(st: tuple, i: int, j: int, rem: int, cur: int, tight: bool
            ) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Entries ``j..n-1`` of row ``i``, ``rem`` degree left to place in them."""
    n, _, _, mult, res, comp, tied, prevs, rooms = st
    if j == n:
        if rem == 0:
            yield from _close(st, i, cur)
        return
    row, prev = mult[i], prevs[i]
    hi = min(rem, res[j])
    pair = j - 1 > i and tied[j - 1]
    if pair and row[j - 1] < hi:
        hi = row[j - 1]
    if tight and prev[j] < hi:
        hi = prev[j]
    lo = rem - rooms[i][j + 1]
    for m in range(hi, max(lo, 0) - 1, -1):
        row[j] = mult[j][i] = m
        res[j] -= m
        split = pair and m < row[j - 1]
        if split:
            tied[j - 1] = False
        yield from _assign(st, i, j + 1, rem - m, cur | comp[j] if m else cur,
                           tight and m == prev[j])
        if split:
            tied[j - 1] = True
        res[j] += m
    row[j] = mult[j][i] = 0


def _matrix_graph(loops: list[int], mult: list[list[int]]) -> Multigraph:
    n = len(loops)
    edges = []
    t = 0
    for i in range(n):
        for _ in range(loops[i]):
            edges.append((f"e{t}", i, i))
            t += 1
        for j in range(i + 1, n):
            for _ in range(mult[i][j]):
                edges.append((f"e{t}", i, j))
                t += 1
    return build(range(n), edges)


def reduced_multigraphs(edge_count: int) -> Iterator[Multigraph]:
    """One representative per homeomorphism class with ``edge_count`` smoothed edges.

    Connected multigraphs with all degrees 1 or >= 3; the one-loop circle
    joins the census at a single edge.  ``_matrices`` cuts disconnected fills
    and most labeled duplicates while it fills (see there for the two exact
    prunes and why every class survives), and a canonical-form dedupe drops
    the few duplicates left.  The dedupe runs per degree sequence, since
    graphs with different degree sequences are never isomorphic, so it holds
    the codes of one sequence at a time.  A yielded class carries its
    cached code and nothing else; its index is built only when a caller
    asks for one.  Deterministic order: vertex count, then degree sequence,
    then descending matrix reading; each class is yielded as the greatest
    labeling of its sorted degree sequence.  Above ``MAX_CENSUS_EDGES``
    edges it raises ``BoundExceeded``.
    """
    if edge_count < 1:
        raise GraphError("edge_count must be >= 1")
    if edge_count > MAX_CENSUS_EDGES:
        raise BoundExceeded(f"census limited to {MAX_CENSUS_EDGES} edges, asked for {edge_count}")
    if edge_count == 1:
        yield build(["a"], [("e0", "a", "a")])  # circle: the sanctioned degree-2 form
    total = 2 * edge_count
    for vcount in range(1, edge_count + 2):
        for degseq in _degree_sequences(total, vcount):
            seen: set[bytes] = set()  # graphs of other degree sequences are never isomorphic
            for loops, mult in _matrices(degseq):
                g = _matrix_graph(loops, mult)
                code = canonical_form(g)
                if code not in seen:
                    seen.add(code)
                    yield g


# -- planarity -------------------------------------------------------------------


def _bridge_path(adj: list[int], a: int, inner: int, ends: int) -> list[int]:
    """A shortest path ``a, x1, ..., xk, b`` with k >= 1, every ``xi`` in
    ``inner`` and ``b`` in ``ends``; the caller knows that one exists."""
    parent = {}
    frontier = seen = adj[a] & inner
    for x in _bits(frontier):
        parent[x] = a
    while frontier:
        nxt = 0
        for x in _bits(frontier):
            hit = adj[x] & ends
            if hit:
                path = [(hit & -hit).bit_length() - 1, x]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                return path[::-1]
            new = adj[x] & inner & ~seen
            seen |= new
            nxt |= new
            for y in _bits(new):
                parent[y] = x
        frontier = nxt
    raise GraphError("internal: no path through a fragment of a 2-connected block")


def _block_planar(adj: list[int], block: int) -> bool:
    """Demoucron-Malgrange-Pertuiset path addition on a 2-connected block.

    ``adj[v]`` holds the neighbours of ``v`` inside ``block``.  One cycle is
    embedded first, as two faces, and each face is kept as a vertex cycle
    with its mask.  A fragment is an edge not yet embedded between two
    embedded vertices (a chord), or a component of the block minus the
    embedded vertices; its attachments are the embedded vertices it
    touches, and it fits a face that holds all of them.  A fragment that
    fits no face makes the block nonplanar.  Otherwise a path through a
    fragment that fits only one face, or else through any fragment, splits
    a face it fits in two.  The embedded graph stays 2-connected, so every
    face stays a cycle.
    """
    u = (block & -block).bit_length() - 1
    w = (adj[u] & -adj[u]).bit_length() - 1
    cycle = [u] + _bridge_path(adj, w, block & ~(1 << u | 1 << w), 1 << u)[:-1]
    placed = sum(1 << v for v in cycle)
    faces = [(cycle, placed), (cycle, placed)]
    embedded = [0] * len(adj)  # neighbours along embedded edges
    path = cycle + [u]
    while True:
        for x, y in zip(path, path[1:]):
            embedded[x] |= 1 << y
            embedded[y] |= 1 << x
        frags = [(1 << x | 1 << y, 0) for x in _bits(placed)
                 for y in _bits(adj[x] & placed & ~embedded[x]) if y > x]
        rest = block & ~placed
        while rest:
            comp = _reach(adj, rest & -rest, rest)
            rest &= ~comp
            touch = 0
            for x in _bits(comp):
                touch |= adj[x]
            frags.append((touch & placed, comp))
        if not frags:
            return True
        choice = None
        for attach, comp in frags:
            fits = [k for k, (_, m) in enumerate(faces) if attach & m == attach]
            if not fits:
                return False
            if choice is None or len(fits) == 1:
                choice = attach, comp, fits[0]
            if len(fits) == 1:
                break
        attach, comp, k = choice
        a = (attach & -attach).bit_length() - 1
        if comp:
            path = _bridge_path(adj, a, comp, attach & ~(1 << a))
        else:
            path = [a, (attach ^ 1 << a).bit_length() - 1]
        f = faces[k][0]
        i, j = f.index(path[0]), f.index(path[-1])
        if i > j:
            i, j = j, i
            path.reverse()
        inner = path[1:-1]
        f1 = f[i:j + 1] + inner[::-1]
        f2 = f[j:] + f[:i + 1] + inner
        faces[k] = (f1, sum(1 << v for v in f1))
        faces.append((f2, sum(1 << v for v in f2)))
        placed |= sum(1 << v for v in inner)


def is_planar(g: Multigraph) -> bool:
    """Planarity of the underlying space.

    Loops and parallel edges never matter, so the test runs on the simple
    underlying graph, ``g``'s own adjacency (``_edge_masks``, no
    :class:`GraphIndex` built), which is planar exactly when each of its
    blocks is (``obstructions._blocks``).  A graph or block with at most 8
    edges, or a block with at most 4 vertices, is planar, and a block with
    more than 3n - 6 edges is not; path addition (``_block_planar``)
    decides the others.
    """
    if not g.is_connected():
        raise GraphError("is_planar expects a connected graph")
    nmask, _ = _edge_masks(g)
    if sum(m.bit_count() for m in nmask) <= 16:
        return True  # at most 8 edges in all
    for block in _blocks(nmask):
        n = block.bit_count()
        ecount = sum((nmask[v] & block).bit_count() for v in _bits(block)) // 2
        if ecount <= 8 or n <= 4:
            continue
        if ecount > 3 * n - 6 or not _block_planar([m & block for m in nmask], block):
            return False
    return True


# -- profile search ---------------------------------------------------------------


def parse_profile(expr: str) -> tuple[str, int]:
    """Profile grammar: ``=k`` or ``=k,!k+1`` (ac-number exactly k) or ``omega``."""
    expr = expr.strip()
    if expr == "omega":
        return ("omega", 0)
    if expr.startswith("="):
        left, comma, right = expr[1:].partition(",")
        if comma and not right.startswith("!"):
            raise GraphError(f"bad profile {expr!r}")
        try:
            k = int(left)
            nxt = int(right[1:]) if comma else k + 1
        except ValueError:
            raise GraphError(f"bad profile {expr!r}") from None
        if nxt != k + 1:
            raise GraphError(f"bad profile {expr!r}: expected !{k + 1}")
        if not 2 <= k <= 6:
            raise GraphError("profile level must be in 2..6")
        return ("exact", k)
    raise GraphError(f"bad profile {expr!r}")


@dataclass(frozen=True)
class SearchTask:
    edges_min: int
    edges_max: int
    profile: str
    planar_only: bool = False
    checkpoint: Optional[str] = None
    jobs: int = 1

    def __post_init__(self):
        parse_profile(self.profile)
        if self.edges_min < 1 or self.edges_max < self.edges_min:
            raise GraphError("bad edge range")
        if self.edges_max > MAX_CENSUS_EDGES:
            raise BoundExceeded(
                f"census limited to {MAX_CENSUS_EDGES} edges, asked for {self.edges_max}")
        if self.jobs < 1:
            raise GraphError("jobs must be >= 1")


@dataclass(frozen=True)
class SearchRecord:
    canon: str  # hex canonical code
    edges: int
    planar: bool
    ac: str     # "2".."6" or "omega"
    omega: bool

    def to_json(self) -> str:
        return json.dumps(
            {"canon": self.canon, "edges": self.edges, "planar": self.planar,
             "ac": self.ac, "omega": self.omega},
            sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "SearchRecord":
        d = json.loads(line)
        return SearchRecord(d["canon"], d["edges"], d["planar"], str(d["ac"]), d["omega"])


def _record_matches(rec: SearchRecord, kind: str, k: int) -> bool:
    if kind == "omega":
        return rec.omega
    return (not rec.omega) and rec.ac == str(k)


def _profile_worker(payload):
    """Top-level worker: profile one census graph."""
    g, canon_hex, k, planar = payload
    prof = ac_number(g, cap=7)
    return SearchRecord(canon_hex, k, planar, prof.label, prof.omega)


def _checkpoint_header(task: SearchTask) -> str:
    return json.dumps(
        {"format": CHECKPOINT_FORMAT, "edges_min": task.edges_min,
         "edges_max": task.edges_max, "profile": task.profile,
         "planar_only": task.planar_only},
        sort_keys=True, separators=(",", ":"))


def _load_checkpoint(path: str, header: str) -> dict[str, SearchRecord]:
    """Records of an existing checkpoint, keyed by canonical hex.

    A kill in the middle of an append can leave the last line torn (no
    newline, or not parseable).  That line is cut off the file, so its graph
    is recomputed and the next append starts on a line of its own.  A bad
    line anywhere else is corruption and raises ``GraphError``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    if not lines or lines[0] != header.encode() + b"\n":
        raise GraphError("checkpoint file does not match this task")
    done: dict[str, SearchRecord] = {}
    keep = len(lines[0])
    for no, raw in enumerate(lines[1:], start=2):
        if raw.endswith(b"\n") and not raw.strip():
            keep += len(raw)
            continue
        try:
            if not raw.endswith(b"\n"):
                raise ValueError("line has no newline")
            rec = SearchRecord.from_json(raw.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            if no < len(lines):
                raise GraphError(f"checkpoint line {no} is corrupt: {exc}") from exc
            break  # torn final line
        done[rec.canon] = rec
        keep += len(raw)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return done


def _profiled(items: Iterator, pool) -> Iterator[tuple[SearchRecord, bool]]:
    """``(record, fresh)`` per item, in order.

    An item is a resumed ``SearchRecord``, passed through, or a worker
    payload, profiled.  Items are taken in chunks of ``SEARCH_CHUNK`` for a
    process pool, one at a time without one, so records follow the census as
    it streams instead of waiting for a whole edge count.
    """
    items = iter(items)
    size = SEARCH_CHUNK if pool is not None else 1
    while True:
        chunk = list(islice(items, size))
        if not chunk:
            return
        todo = [x for x in chunk if not isinstance(x, SearchRecord)]
        fresh = pool.map(_profile_worker, todo, chunksize=4) if pool is not None \
            else map(_profile_worker, todo)
        for x in chunk:
            yield (x, False) if isinstance(x, SearchRecord) else (next(fresh), True)


def search(task: SearchTask, stop_after: Optional[int] = None,
           progress: Optional[Callable[[SearchRecord], None]] = None
           ) -> Iterator[SearchRecord]:
    """Profile every census graph in range, checkpointing as it goes.

    Emits one record per processed graph whose profile matches the task, in
    census order, so re-runs and resumed runs produce the same stream.
    Graphs are profiled as the census yields them (``--jobs`` above 1 feeds
    a pool of at most ``os.cpu_count()`` workers ``SEARCH_CHUNK`` graphs at
    a time).  The checkpoint file is append-only: a header line with the
    task parameters, then one JSON record per processed graph; on resume,
    codes present in the file are not recomputed (a torn final line is
    dropped and its graph recomputed; corruption earlier in the file raises
    ``GraphError``).  Records are keyed by canonical code, which does not
    depend on the labeling the census happens to yield, so any checkpoint
    of the same task resumes.
    ``stop_after`` aborts after that many newly processed graphs, as a kill
    would (the kill-and-resume tests use it).  ``progress``, when given, is
    called once per processed record, resumed or fresh, after the record
    has been checkpointed and emitted; pass it by keyword.
    """
    done: dict[str, SearchRecord] = {}
    out = None
    if task.checkpoint:
        header = _checkpoint_header(task)
        if os.path.exists(task.checkpoint):
            done = _load_checkpoint(task.checkpoint, header)
            out = open(task.checkpoint, "a", encoding="utf-8")
        else:
            out = open(task.checkpoint, "w", encoding="utf-8")
            out.write(header + "\n")
            out.flush()

    def items() -> Iterator:
        for k in range(task.edges_min, task.edges_max + 1):
            for g in reduced_multigraphs(k):
                planar = is_planar(g)
                if task.planar_only and not planar:
                    continue
                code = canonical_form(g).hex()
                if code in done:
                    yield done[code]
                    continue
                yield (g, code, k, planar)

    kind, level = parse_profile(task.profile)
    processed = 0
    pool = None
    try:
        if task.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # the pool forks all its workers at once: no more than there are cores
            pool = ProcessPoolExecutor(max_workers=min(task.jobs, os.cpu_count() or 1))
        for rec, fresh in _profiled(items(), pool):
            if fresh:
                if out is not None:
                    out.write(rec.to_json() + "\n")
                    out.flush()
                processed += 1
            if _record_matches(rec, kind, level):
                yield rec
            if progress is not None:
                progress(rec)
            if fresh and stop_after is not None and processed >= stop_after:
                return
    finally:
        if pool is not None:
            pool.shutdown()
        if out is not None:
            out.close()


# -- minimality -------------------------------------------------------------------

MINIMAL_EDGE_BUDGET = {2: 3, 3: 4, 4: 5, 5: 6, 6: 9}


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of sweeping all censuses below a claimed minimal edge count."""

    n: int
    budget: int
    census_sizes: tuple[tuple[int, int], ...]  # (edge count, classes examined)
    violations: tuple[str, ...]                # canon hex of graphs with ac == n
    witness_name: str
    witness_ok: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.witness_ok


def verify_minimality(n: int) -> MinimalityReport:
    """Check that no graph below the known edge budget has ac-number exactly n.

    Edge counts are counts of smoothed edges (degree-2 vertices suppressed,
    circle = one loop).  The sweep is ``search`` over 1..budget-1 edges with
    the profile ``=n``: its matches are the violations, and its ``progress``
    hook counts the classes examined per edge count.
    """
    from . import corpus

    if n not in MINIMAL_EDGE_BUDGET:
        raise GraphError("minimality is tracked for ac-numbers 2..6")
    budget = MINIMAL_EDGE_BUDGET[n]
    sizes: Counter[int] = Counter()
    task = SearchTask(1, budget - 1, f"={n}")
    violations = tuple(rec.canon for rec in search(
        task, progress=lambda rec: sizes.update((rec.edges,))))
    name, builder = corpus.MINIMAL_WITNESSES[n]
    wprof = ac_number(builder(), cap=n + 1)
    return MinimalityReport(n, budget, tuple(sizes.items()), violations,
                            name, wprof.number == n)
