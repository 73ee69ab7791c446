"""Digests of the engine's observable output, for equivalence checks.

Run ``python3 tests/fingerprint.py`` from any directory; it imports the
``arcon`` package of the checkout it sits in.  It takes no options and
prints one line per fingerprint, ``name items sha256``:

* ``verdicts``: the ``ac_number`` verdicts alone on every census class up
  to 9 edges;
* ``profiles``: ``ac_number`` (verdicts, counterexample and its level) on
  the same classes;
* ``end-count``: the ``end_count_obstruction`` placement, or ``-``, of
  every census class up to 9 edges (``absent`` on checkouts without it);
* ``first-uncovered``: the first item of ``_uncovered`` on every census
  class up to 7 edges, n = 3..7;
* ``enumerate``: the stream of the mark-and-count orbit enumerator
  ``enumerate_placements``, the oracle in ``tests/conftest.py``, on the
  census up to 6 edges at n = 1..4, and on K3,3, ``double_circle(4)`` and
  ``star(6)`` at n = 1..3;
* ``symmetry``: ``canonical_form`` and the ``GraphIndex.autos()`` list of
  slot tables, order included, of every census class up to 9 edges
  (``bound`` where the automorphism bound is hit);
* ``planar``: the ``is_planar`` verdicts on every census class up to 10
  edges;
* ``census``: the vertices and oriented edges of every class that
  ``reduced_multigraphs`` yields up to 10 edges, in order: the labeled
  stream the dedupe keeps, which the canonical codes alone do not show;
* ``spoked``: the first 20 items of ``_uncovered`` on K3,3,
  ``double_circle(4)`` and ``double_circle(5)``, each as given and with
  every edge subdivided once, n = 2..7 (the subdivided ``double_circle(5)``
  only up to n = 5): the large groups the census hardly exercises;
* ``groups``: the ``GraphIndex.autos()`` slot tables, order included, of
  K3,3, ``double_circle(4)``, ``double_circle(5)``, ``star(6)`` and
  ``star(7)``, each as given and with every edge subdivided once, and of
  ``star(8)``;
* ``smoothed``: the vertices and oriented edges of ``smooth`` on three
  seeded random subdivisions of every census class up to 7 edges;
* ``paths``: the input and the returned path of every
  ``_find_covering_path`` call that ``ac_number`` makes on the census up
  to 8 edges;
* ``scan``: every item that ``iter_placements_indexed`` yields to
  ``_uncovered`` on K3,3 and ``double_circle(4)``, each as given and with
  every edge subdivided once, n = 2..6 (the subdivided
  ``double_circle(4)`` only up to n = 5): the stream the witness list
  prunes, which the verdicts alone do not show.  Items are loaded-slot
  masks;
* ``witnesses``: the ``covering_arc(*realize(g, p))`` path (vertices and
  edges, or ``-``) on five seeded random placements ``p`` of every corpus
  graph and every census class up to 6 edges: the witness a caller sees.
  It reads only public names, so it runs on older checkouts too;
* ``cli``: the exit code and stdout (not stderr) of ``arcon acnum --witness
  --json`` and ``arcon classify --json`` on every corpus graph, ``arcon
  homeo`` on consecutive corpus pairs, ``arcon enumerate --edges K --json``
  for K = 1..4 and ``arcon search --edges-min 1 --edges-max 5 --profile =3
  --json``, and the exit code of ``acnum``, ``classify`` and ``homeo`` on a
  malformed, a non-UTF-8 and a disconnected file, run in process through
  ``click.testing.CliRunner``.  It too reads only public names.

Marks are written sorted, so the digests do not depend on the hash seed.
Run it on two checkouts: equal digests mean equal verdicts, counterexamples,
scan order, symmetry data, planarity verdicts, census labelings, spoked
counterexample streams, large automorphism groups, smoothed forms, covering
paths, scanned representatives, covering-arc witnesses and CLI output on
these inputs.
A change that keeps the verdicts but picks other counterexamples shows as
equal ``verdicts`` and different ``profiles``.
The full run takes under a minute on a 2-core host.  The file is not a
test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from arcon import (  # noqa: E402
    Placement, ac_number, arcsearch, canonical_form, corpus, covering_arc, format_graph_text,
    is_planar, realize)
from arcon.cli import main as cli_main  # noqa: E402
from arcon.arcsearch import _uncovered  # noqa: E402
from arcon.census import reduced_multigraphs  # noqa: E402
from arcon.multigraph import BoundExceeded, Multigraph, idkey, smooth  # noqa: E402
from arcon.symmetry import graph_index  # noqa: E402
from conftest import enumerate_placements  # noqa: E402

try:
    from arcon.obstructions import end_count_obstruction  # noqa: E402
except ImportError:  # a checkout from before the end-count lemma
    end_count_obstruction = None


def placement_text(p) -> str:
    if p is None:
        return "-"
    return repr((sorted(p.marks, key=idkey), p.counts))


class Digest:
    def __init__(self, name: str):
        self.name = name
        self.items = 0
        self.h = hashlib.sha256()

    def add(self, *parts) -> None:
        self.items += 1
        self.h.update(repr(parts).encode())
        self.h.update(b"\n")

    def line(self) -> str:
        return f"{self.name} {self.items} {self.h.hexdigest()}"


def main() -> None:
    census = {k: list(reduced_multigraphs(k)) for k in range(1, 10)}

    dv, d = Digest("verdicts"), Digest("profiles")
    for k, graphs in census.items():
        for g in graphs:
            prof = ac_number(g)
            dv.add(k, prof.verdicts)
            d.add(k, prof.verdicts, placement_text(prof.counterexample), prof.counterexample_n)
    print(dv.line(), flush=True)
    print(d.line(), flush=True)

    if end_count_obstruction is None:
        print("end-count absent", flush=True)
    else:
        d = Digest("end-count")
        for k, graphs in census.items():
            for g in graphs:
                d.add(k, placement_text(end_count_obstruction(g)))
        print(d.line(), flush=True)

    d = Digest("first-uncovered")
    for k in range(1, 8):
        for g in census[k]:
            gi = graph_index(g)
            for n in range(3, 8):
                d.add(k, n, next(_uncovered(gi, n), None))
    print(d.line(), flush=True)

    d = Digest("enumerate")
    inputs = [(g, range(1, 5)) for k in range(1, 7) for g in census[k]]
    inputs += [(g, range(1, 4)) for g in (corpus.k33(), corpus.double_circle(4), corpus.star(6))]
    for g, levels in inputs:
        for n in levels:
            for p in enumerate_placements(g, n):
                d.add(n, placement_text(p))
    print(d.line(), flush=True)

    d = Digest("symmetry")
    for k, graphs in census.items():
        for g in graphs:
            try:
                autos = graph_index(g).autos()
            except BoundExceeded:
                autos = "bound"
            d.add(k, canonical_form(g), autos)
    print(d.line(), flush=True)

    d, dc = Digest("planar"), Digest("census")
    for k in range(1, 11):
        for g in census[k] if k in census else reduced_multigraphs(k):
            d.add(k, is_planar(g))
            dc.add(k, g.vertices, g.edges)
    print(d.line(), flush=True)
    print(dc.line(), flush=True)

    d = Digest("spoked")
    for name, g in (("k33", corpus.k33()), ("double_circle(4)", corpus.double_circle(4)),
                    ("double_circle(5)", corpus.double_circle(5))):
        for label, h, top in ((name, g, 7), (name + " refined", subdivided(g),
                                              5 if name == "double_circle(5)" else 7)):
            gi = graph_index(h)
            for n in range(2, top + 1):
                d.add(label, n, list(islice(_uncovered(gi, n), 20)))
    print(d.line(), flush=True)

    d = Digest("groups")
    for name, g in (("k33", corpus.k33()), ("double_circle(4)", corpus.double_circle(4)),
                    ("double_circle(5)", corpus.double_circle(5)),
                    ("star(6)", corpus.star(6)), ("star(7)", corpus.star(7))):
        d.add(name, graph_index(g).autos())
        d.add(name + " refined", graph_index(subdivided(g)).autos())
    d.add("star(8)", graph_index(corpus.star(8)).autos())
    print(d.line(), flush=True)

    d = Digest("smoothed")
    rng = random.Random(17)
    for k in range(1, 8):
        for g in census[k]:
            for _ in range(3):
                h = g
                for _ in range(rng.randint(1, 3)):
                    h, _ = h.subdivide(rng.choice(h.edges).eid, rng.randint(1, 3))
                s = smooth(h)
                d.add(k, s.vertices, s.edges)
    print(d.line(), flush=True)

    d = Digest("paths")
    search = arcsearch._find_covering_path

    def recorded(nmask, marked):
        path = search(nmask, marked)
        d.add(nmask, marked, path)
        return path

    arcsearch._find_covering_path = recorded
    try:
        for k in range(1, 9):
            for g in census[k]:
                ac_number(Multigraph(g.vertices, g.edges))  # a fresh copy: nothing cached
    finally:
        arcsearch._find_covering_path = search
    print(d.line(), flush=True)

    d = Digest("scan")
    scan = arcsearch.iter_placements_indexed

    def scanned(gi, n, witnesses=()):
        for x in scan(gi, n, witnesses):
            d.add(label, n, x)
            yield x

    arcsearch.iter_placements_indexed = scanned
    try:
        for name, g in (("k33", corpus.k33()), ("double_circle(4)", corpus.double_circle(4))):
            for label, h, top in ((name, g, 6), (name + " refined", subdivided(g),
                                                 5 if name == "double_circle(4)" else 6)):
                gi = graph_index(h)
                for n in range(2, top + 1):
                    for _ in _uncovered(gi, n):
                        pass
    finally:
        arcsearch.iter_placements_indexed = scan
    print(d.line(), flush=True)

    d = Digest("witnesses")
    rng = random.Random(23)
    graphs = [(ce.name, ce.builder()) for ce in corpus.CORPUS]
    graphs += [(k, g) for k in range(1, 7) for g in census[k]]
    for label, g in graphs:
        for _ in range(5):
            marks = [v for v in g.vertices if rng.random() < 0.3]
            counts = {e.eid: rng.choice((0, 0, 1, 2)) for e in g.edges}
            if not marks and not any(counts.values()):
                counts[g.edges[0].eid] = 1
            p = Placement.of(g, marks, counts)
            w = covering_arc(*realize(g, p))
            d.add(label, placement_text(p), "-" if w is None else (w.vertices, w.edges))
    print(d.line(), flush=True)

    print(cli_digest().line(), flush=True)


def cli_digest() -> Digest:
    """The ``cli`` line: exit codes and stdout of the CLI on fixed inputs."""
    d = Digest("cli")
    runner = CliRunner()

    def run(*args, out=True):
        res = runner.invoke(cli_main, list(args))
        d.add(args[0], res.exit_code, res.stdout if out else None)

    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for ce in corpus.CORPUS:
            path = Path(tmp, ce.name + ".graph")
            path.write_text(format_graph_text(ce.builder()), encoding="utf-8")
            files.append(str(path))
            run("acnum", str(path), "--witness", "--json")
            run("classify", str(path), "--json")
        for a, b in zip(files, files[1:]):
            run("homeo", a, b)
        for k in range(1, 5):
            run("enumerate", "--edges", str(k), "--json")
        run("search", "--edges-min", "1", "--edges-max", "5", "--profile", "=3", "--json")
        bad = {"malformed": b"a b c d\n", "non-utf8": "a b\nb \xe9\n".encode("latin-1"),
               "disconnected": b"a a\nb b\n"}
        for kind, data in bad.items():
            path = Path(tmp, kind + ".graph")
            path.write_bytes(data)
            run("acnum", str(path), out=False)
            run("classify", str(path), out=False)
            run("homeo", str(path), files[0], out=False)
    return d


def subdivided(g):
    """``g`` with every edge subdivided once."""
    for e in list(g.edges):
        g, _ = g.subdivide(e.eid, 1)
    return g


if __name__ == "__main__":
    main()
