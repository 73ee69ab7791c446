"""Tests of the benchmark itself, at tiny sizes (census <= 5 edges, n <= 4).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from arcon import arcsearch, census

WORKLOADS = sorted(workloads.WORKLOADS)


def _pass(workload, tmp_path, trace=False, seed=1):
    return workloads.run_pass(workload, seed, "tiny", str(tmp_path), trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_is_clean(workload, tmp_path):
    r = _pass(workload, tmp_path)
    assert r["attempted"] > 0
    assert r["failed"] == 0, r["gates"]
    assert r["wall_s"] > 0 and r["setup_s"] > 0 and r["peak_rss_mb"] > 0
    assert len(r["item_s"]) == r["attempted"]
    assert r["absent"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_trace_reports_every_layer_and_restores(workload, tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in tracer.BOUNDARIES}
    r = _pass(workload, tmp_path, trace=True)
    assert r["failed"] == 0, r["gates"]
    assert set(r["layers"]) == {name for name, _, _ in tracer.LAYER_METRICS}
    assert r["layers"]["arcsearch.dfs_calls"] > 0
    for (m, a), orig in originals.items():
        assert getattr(sys.modules[m], a) is orig


def test_census_layers_move_where_expected(tmp_path):
    sweep = _pass("census-sweep", tmp_path, trace=True)["layers"]
    refine = _pass("refine-spoked", tmp_path, trace=True)["layers"]
    assert sweep["census.classes"] == 39
    assert sweep["census.canon_calls"] >= 39
    assert 0 < sweep["census.kept_ratio"] <= 1
    assert refine["census.classes"] == 0 and refine["symmetry.canon_calls"] == 0
    assert sweep["obstructions.probe_hits"] <= sweep["arcsearch.L3_fail_calls"] + \
        sweep["arcsearch.L4_fail_calls"] + sweep["arcsearch.L5_fail_calls"]


def _wrong_first_label(orig):
    calls = []

    def ac_number(*a, **k):
        prof = orig(*a, **k)
        calls.append(1)
        if len(calls) == 1:  # claim the first graph fails at level 2
            prof = dataclasses.replace(
                prof, verdicts=tuple((m, False) for m, _ in prof.verdicts))
        return prof

    return ac_number


def test_wrong_label_counts_as_failed_subdivided(tmp_path, monkeypatch):
    monkeypatch.setattr(arcsearch, "ac_number", _wrong_first_label(arcsearch.ac_number))
    r = _pass("subdivided-profile", tmp_path)
    assert r["failed"] >= 1
    assert r["gates"]["class_label_mismatches"][0] == 1


def test_wrong_label_counts_as_failed_census(tmp_path, monkeypatch):
    monkeypatch.setattr(census, "ac_number", _wrong_first_label(census.ac_number))
    r = _pass("census-sweep", tmp_path)
    assert r["failed"] >= 1


def test_wrong_refine_verdict_counts_as_failed(tmp_path, monkeypatch):
    real = arcsearch.refine_check
    monkeypatch.setattr(arcsearch, "refine_check", lambda g, n: real(g, n) and n != 3)
    r = _pass("refine-spoked", tmp_path)
    assert r["failed"] == 2  # n = 3 on both graphs


def test_missing_boundary_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(arcsearch, "_find_covering_path")
    monkeypatch.setattr(tracer, "BOUNDARIES",
                        tracer.BOUNDARIES + (("arcon.no_such_module", "f", "_dfs", "dfs", False),))
    reach = arcsearch._reach
    with tracer.Tracer(full=True) as t:
        assert arcsearch._reach is not reach
    assert arcsearch._reach is reach
    assert not hasattr(arcsearch, "_find_covering_path")
    assert t.absent == {"arcon.arcsearch._find_covering_path", "arcon.no_such_module.f"}
    metrics = t.metrics()
    assert "arcsearch.dfs_s" not in metrics and "arcsearch.nodes_per_call" not in metrics
    assert "arcsearch.dfs_nodes" in metrics and "placements.orbit_reps" in metrics


def test_subdivided_inputs_follow_the_seed(tmp_path):
    def shapes(seed):
        return [h.edges for _, h in workloads.subdivided_setup("tiny", seed, str(tmp_path))]

    assert shapes(5) == shapes(5)
    assert shapes(5) != shapes(6)


def test_item_stats_tail():
    p50, tail, pct = run.item_stats([float(i) for i in range(1, 101)])
    assert p50 == pytest.approx(50.5 * 1000)
    assert (tail, pct) == (90 * 1000, 90.0)  # p99 would have one item beyond it
    assert run.item_stats([float(i) for i in range(1, 1001)])[1:] == (990 * 1000, 99.0)
    assert run.item_stats([3.0, 1.0, 2.0]) == (2000.0, 3000.0, 100.0)


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _run_py(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_py_prints_contract_line(trace):
    proc = _run_py(run.ROOT, "--workload", "subdivided-profile", "--seed", "2",
                   "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(names)
    assert "failed_frac 0 (0/" in proc.stdout
    if trace == "0":
        assert "item_tail_ms" in proc.stdout and "of 39 items" in proc.stdout
    assert '"src_lines"' in proc.stdout


def test_run_py_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "--workload", "census-sweep", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
