"""Command-line interface.

Line-oriented key=value output by default (one record per line,
machine-parsable); ``--json`` switches every record to one JSON object per
line with the same keys.  Exit codes: 0 success or true, 1 expectation
failure or false, 2 usage error or bad input: ``main``'s ``invoke`` turns a
file, parse, input or engine-bound error from any command into ``error: ...``
on stderr.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import nullcontext
from time import monotonic
from typing import Optional

import click

from . import corpus
from .arcsearch import ac_number, covering_arc, refine_check
from .census import SearchTask, canonical_form, is_planar, reduced_multigraphs
from .census import search as profile_search
from .classify import HomeoClass, cross_check, homeo_class, necessary_conditions, reduced_graph
from .multigraph import GraphError, Multigraph, format_graph_text, parse_graph_text
from .obstructions import obstruction_7
from .placements import Placement, realize
from .symmetry import are_homeomorphic


def _load(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    s = str(v)
    if " " in s or "=" in s:
        return json.dumps(s)
    return s


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(" ".join(f"{k}={_fmt_value(v)}" for k, v in record.items()))


def _fmt_placement(p: Placement) -> str:
    marks = ",".join(str(v) for v in sorted(p.marks, key=str))
    counts = ",".join(f"{e}:{c}" for e, c in p.counts)
    return f"marks={marks};counts={counts}"


class _Main(click.Group):
    """The command group, whose ``invoke`` is the CLI's one error boundary."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (GraphError, OSError, UnicodeDecodeError) as exc:
            if isinstance(exc, BrokenPipeError):
                raise  # a closed output pipe, not bad input: click exits 1 quietly
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Arc-connectivity analysis of finite topological graphs."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--cap", default=7, show_default=True, help="Largest n to test (2..8).")
@click.option("--witness", is_flag=True, help="Include the failing placement, if any.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def acnum(file: str, cap: int, witness: bool, as_json: bool) -> None:
    """Arc-connectivity profile of the graph in FILE."""
    if not 2 <= cap <= 8:
        raise click.UsageError("--cap must be in 2..8")
    prof = ac_number(_load(file), cap=cap)
    rec: dict = {"ac": prof.label, "omega": prof.omega}
    for n, ok in prof.verdicts:
        rec[f"n{n}"] = ok
    if witness and prof.counterexample is not None:
        rec["counterexample_n"] = prof.counterexample_n
        rec["counterexample"] = _fmt_placement(prof.counterexample)
    _emit(rec, as_json)


@main.command("classify")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def classify_cmd(file: str, as_json: bool) -> None:
    """Structural classification of the graph in FILE."""
    g = _load(file)
    cls = homeo_class(g)
    report = necessary_conditions(g)
    red = reduced_graph(g)
    rec = {
        "class": cls.value,
        "omega": cls is not HomeoClass.OTHER,
        "rules": "[" + ",".join(report.fired) + "]",
        "branch_points": report.branch_count,
        "max_branch_degree": report.max_branch_degree,
        "reduced_class": homeo_class(red.graph).value,
        "reduced_edges": len(red.graph.edges),
        "reduced_degenerate": red.degenerate,
    }
    if report.end_count is not None:
        rec["end_count"] = report.end_count
    _emit(rec, as_json)


@main.command()
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def homeo(file1: str, file2: str, as_json: bool) -> None:
    """Are the two graphs homeomorphic?  Exit 0 when yes, 1 when no."""
    same = are_homeomorphic(_load(file1), _load(file2))
    _emit({"homeomorphic": same}, as_json)
    sys.exit(0 if same else 1)


@main.command("enumerate")
@click.option("--edges", required=True, type=int, help="Smoothed edge count.")
@click.option("--planar-only", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the records to this file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def enumerate_cmd(edges: int, planar_only: bool, out: Optional[str], as_json: bool) -> None:
    """List the census of homeomorphism classes with the given edge count."""
    count = 0
    # opened first, so a path it cannot write is reported before any work
    with open(out, "w", encoding="utf-8") if out else nullcontext() as fh:
        for g in reduced_multigraphs(edges):
            planar = is_planar(g)
            if planar_only and not planar:
                continue
            rec = {"canon": canonical_form(g).hex(), "edges": edges, "planar": planar}
            count += 1
            _emit(rec, as_json)
            if fh:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    _emit({"count": count}, as_json)


class _SearchProgress:
    """Progress of ``arcon search`` on stderr, at most one line a second.

    Called once per processed record; ``report`` prints the line.
    """

    def __init__(self) -> None:
        self.start = self.last = monotonic()
        self.edges: Optional[int] = None
        self.done = self.matches = 0

    def __call__(self, rec) -> None:
        self.edges = rec.edges
        self.done += 1
        now = monotonic()
        if now - self.last >= 1.0:
            self.last = now
            self.report()

    def report(self) -> None:
        elapsed = monotonic() - self.start
        rate = self.done / elapsed if elapsed > 0 else 0.0
        click.echo(f"progress: edges={self.edges} done={self.done} "
                   f"rate={rate:.1f}/s matches={self.matches}", err=True)


@main.command("search")
@click.option("--edges-min", required=True, type=int)
@click.option("--edges-max", required=True, type=int)
@click.option("--planar", is_flag=True, help="Planar graphs only.")
@click.option("--profile", "profile_expr", required=True,
              help="Profile: =K, =K,!K+1, or omega.")
@click.option("--resume", "checkpoint", type=click.Path(dir_okay=False), default=None,
              help="Checkpoint file; re-running skips already processed graphs.")
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def search_cmd(edges_min: int, edges_max: int, planar: bool, profile_expr: str,
               checkpoint: Optional[str], jobs: int, as_json: bool) -> None:
    """Sweep the census for graphs matching an arc-connectivity profile."""
    task = SearchTask(edges_min, edges_max, profile_expr, planar, checkpoint, jobs)
    progress = _SearchProgress()
    for rec in profile_search(task, progress=progress):
        progress.matches += 1
        _emit(dataclasses.asdict(rec), as_json)
    progress.report()
    _emit({"matches": progress.matches}, as_json)


@main.command("verify-paper")
@click.option("--only", default=None, help="Restrict to corpus entries whose name contains this.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def verify_paper(only: Optional[str], as_json: bool) -> None:
    """Re-derive the documented corpus values and invariants; exit 1 on any mismatch."""
    failures = 0
    entries = [ce for ce in corpus.CORPUS if only is None or only in ce.name]
    if not entries:
        raise click.UsageError(f"no corpus entry matches {only!r}")
    for ce in entries:
        g = ce.builder()
        prof = ac_number(g, cap=7)
        cls = homeo_class(g)
        planar = is_planar(g)
        ok = prof.label == ce.ac and cls is ce.homeo and planar is ce.planar
        failures += 0 if ok else 1
        _emit({"entry": ce.name, "ac": prof.label, "expect_ac": ce.ac,
               "class": cls.value, "expect_class": ce.homeo.value,
               "planar": planar, "expect_planar": ce.planar,
               "ok": ok, "claim": ce.claim}, as_json)
        ok = cross_check(g)
        failures += 0 if ok else 1
        _emit({"check": "cross_check", "entry": ce.name, "ok": ok}, as_json)
        if cls is HomeoClass.OTHER:
            ok = covering_arc(*realize(g, obstruction_7(g))) is None
            failures += 0 if ok else 1
            _emit({"check": "obstruction_7", "entry": ce.name, "ok": ok}, as_json)
        ok = all(refine_check(g, n) for n in range(2, 8))
        failures += 0 if ok else 1
        _emit({"check": "refine", "entry": ce.name, "ok": ok}, as_json)
        ok = are_homeomorphic(parse_graph_text(format_graph_text(g)), g)
        failures += 0 if ok else 1
        _emit({"check": "roundtrip", "entry": ce.name, "ok": ok}, as_json)
    _emit({"status": 1 if failures else 0, "failures": failures}, as_json)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
