"""The benchmark's workloads and one timed pass over one of them.

Each workload calls the library entry points that the CLI commands call:

* ``census-sweep``: ``search`` for planar graphs that are 6-ac but not 7-ac
  at 9 edges, the paper's open-question traffic (``arcon search``).  Census
  enumeration and ``canonical_form`` do most of the work; ``ac_number`` on
  the already-smooth census graphs does the rest, mostly failing at level 3.
* ``refine-spoked``: ``refine_check(g, n)`` for n = 2..7 on K3,3 and the
  4-spoke double circle, except n = 6 on the double circle (about 30 s on
  its own, which would not fit the benchmark's time budget).  Large realized
  graphs at passing levels, so the placement-orbit enumeration and the
  covering-arc DFS do all the work.
* ``subdivided-profile``: ``ac_number`` on every 7-edge census class after
  three seeded-random edge subdivisions (``arcon acnum FILE`` on unsmoothed
  input).  The same engine layers as the sweep, on other graph shapes, with
  no enumeration in the timed region.  Seven edges, not eight, keep the
  three workloads' runs inside the benchmark's time budget on a 2-core host.

Only ``subdivided-profile`` draws its inputs from the seed.  Each workload
checks its outputs against known values; a mismatch counts as a failed
operation.  ``python3 perfbench/workloads.py ...`` runs one pass and prints
one JSON line; ``run.py`` starts one such process per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
from collections import Counter
from time import perf_counter

from tracer import Tracer

SIZES = ("full", "tiny")

# census-sweep: edge count, classes enumerated, planar records, ac tally.
CENSUS = {
    "full": (9, 4625, 4624, {"2": 3905, "3": 664, "4": 51, "5": 4}),
    "tiny": (5, 39, 39, {"2": 27, "3": 9, "4": 3}),
}
# refine-spoked: levels asked per graph; every base verdict is true up to 6, false at 7.
REFINE_LEVELS = {
    "full": {"k33": (2, 3, 4, 5, 6, 7), "double_circle(4)": (2, 3, 4, 5, 7)},
    "tiny": {"k33": (2, 3, 4), "double_circle(4)": (2, 3, 4)},
}
REFINE_LAST_TRUE = 6
# subdivided-profile: census edge count and ac tally of the subdivided classes.
SUBDIVIDED = {
    "full": (7, {"2": 293, "3": 73, "4": 8}),
    "tiny": (5, {"2": 27, "3": 9, "4": 3}),
}
SUBDIVISIONS = 3


def _excess(seen: Counter, want: dict) -> int:
    """Operations a tally cannot account for: labels seen more often than expected."""
    return sum(max(0, seen[k] - want.get(k, 0)) for k in seen)


# -- census-sweep -------------------------------------------------------------


def census_setup(size: str, seed: int, workdir: str):
    from arcon.census import SearchTask

    edges = CENSUS[size][0]
    path = os.path.join(workdir, f"sweep-{os.getpid()}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    return SearchTask(edges, edges, "=6,!7", planar_only=True, checkpoint=path)


def census_run(task, tracer: Tracer):
    from arcon import census

    matches = list(census.search(task))
    return matches, tracer.items


def census_gate(task, matches, tracer: Tracer, size: str):
    _, classes_want, records_want, tally_want = CENSUS[size]
    with open(task.checkpoint, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()[1:] if ln.strip()]
    os.remove(task.checkpoint)
    tally = Counter(str(json.loads(ln)["ac"]) for ln in lines)
    classes = tracer.calls["enum"] if tracer.installed("arcon.census.reduced_multigraphs") else None
    failed = (_excess(tally, tally_want) + max(0, records_want - len(lines)) + len(matches)
              + (abs(classes - classes_want) if classes is not None else 1))
    gates = {"classes": [classes, classes_want], "records": [len(lines), records_want],
             "matches": [len(matches), 0], "tally": [dict(sorted(tally.items())), tally_want]}
    return classes_want, min(failed, classes_want), gates


# -- refine-spoked ------------------------------------------------------------


def refine_setup(size: str, seed: int, workdir: str):
    from arcon import corpus

    graphs = {"k33": corpus.k33(), "double_circle(4)": corpus.double_circle(4)}
    return [(name, graphs[name], n)
            for name, levels in REFINE_LEVELS[size].items() for n in levels]


def refine_run(questions, tracer: Tracer):
    from arcon import arcsearch

    results, item_s = [], []
    for _, g, n in questions:
        t0 = perf_counter()
        results.append(arcsearch.refine_check(g, n))
        item_s.append(perf_counter() - t0)
    return results, item_s


def refine_gate(questions, results, tracer: Tracer, size: str):
    """Each question passes when refine_check is true and the base verdict is right.

    The base verdict is the ``is_n_ac`` call refine_check makes on the
    unrefined graph, as the tracer saw it.
    """
    base = {(gid, n): ok for gid, n, ok, _, _ in tracer.verdicts}
    failed = 0
    wrong = []
    for (name, g, n), agree in zip(questions, results):
        want = n <= REFINE_LAST_TRUE
        got = base.get((id(g), n))
        if not agree or got is not want:
            failed += 1
            wrong.append(f"{name} n={n}: refine={agree} base={got}")
    gates = {"refine_true": [sum(results), len(questions)], "wrong": wrong}
    return len(questions), failed, gates


# -- subdivided-profile -------------------------------------------------------


def subdivided_setup(size: str, seed: int, workdir: str):
    from arcon import census

    rng = random.Random(seed)
    pairs = []
    for g in census.reduced_multigraphs(SUBDIVIDED[size][0]):
        h = g
        for _ in range(SUBDIVISIONS):
            h, _ = h.subdivide(rng.choice(h.edges).eid, 1)
        pairs.append((g, h))
    return pairs


def subdivided_run(pairs, tracer: Tracer):
    from arcon import arcsearch

    labels, item_s = [], []
    for _, h in pairs:
        t0 = perf_counter()
        labels.append(arcsearch.ac_number(h).label)
        item_s.append(perf_counter() - t0)
    return labels, item_s


def subdivided_gate(pairs, labels, tracer: Tracer, size: str):
    """Each subdivided graph must keep its class's label; the tally must match."""
    from arcon import arcsearch

    tally_want = SUBDIVIDED[size][1]
    mismatched = sum(1 for (g, _), lab in zip(pairs, labels)
                     if arcsearch.ac_number(g).label != lab)
    tally = Counter(labels)
    failed = max(mismatched, _excess(tally, tally_want))
    gates = {"class_label_mismatches": [mismatched, 0],
             "tally": [dict(sorted(tally.items())), tally_want]}
    return len(pairs), failed, gates


WORKLOADS = {
    "census-sweep": (census_setup, census_run, census_gate),
    "refine-spoked": (refine_setup, refine_run, refine_gate),
    "subdivided-profile": (subdivided_setup, subdivided_run, subdivided_gate),
}


def run_pass(workload: str, seed: int, size: str, workdir: str, trace: bool,
             setup_only: bool = False) -> dict:
    """Set up, time and check one workload in this process.

    ``setup_s`` covers importing ``arcon`` (the tracer's first import of it)
    and building the inputs; ``wall_s`` covers the workload's calls into the
    library.  The gate runs after the tracer is removed, so its own engine
    calls are neither timed nor traced.
    """
    setup, run, gate = WORKLOADS[workload]
    t0 = perf_counter()
    with Tracer(full=trace) as tracer:
        inputs = setup(size, seed, workdir)
        setup_s = perf_counter() - t0
        if setup_only:
            return {"setup_s": setup_s}
        t1 = perf_counter()
        out, item_s = run(inputs, tracer)
        wall_s = perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, gates = gate(inputs, out, tracer, size)
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "item_s": list(item_s), "attempted": attempted, "failed": failed,
              "gates": gates, "absent": sorted(tracer.absent)}
    if trace:
        result["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one timed pass of a workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.size, args.workdir,
                      bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
