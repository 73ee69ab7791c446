#!/usr/bin/env python3
"""Benchmark of arcon: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every timed pass runs in a fresh single Python process (as the CLI
does, so module caches such as ``_minor_memo`` and per-graph ``_cache``
entries never carry over), and every pass checks its outputs against known
values.  Passes are whole: the run makes at least one and starts another only
while it is expected to end within ``--seconds``.

With ``--trace 0`` the run also starts a few set-up-only processes and
reports:

* ``wall_s``: median seconds of the timed region over the passes;
* ``setup_s``: median seconds of importing ``arcon`` and building the inputs,
  over the set-up-only processes and the passes;
* ``peak_rss_mb``: median peak resident set size of a pass process.

The report also gives, per pass and not gated, ``item_p50_ms`` and
``item_tail_ms``: the median and tail of the per-operation times.  An
operation is a census graph (``census-sweep``), a question
(``refine-spoked``) or a subdivided graph (``subdivided-profile``).  The tail
is the highest of p99.9, p99 and p90 with at least ten operations beyond it,
or the maximum when none has.  They are not gated because single operations
of 0.1 s or less vary by up to half their time between runs on a shared
host, and the median of the twelve ``refine-spoked`` questions is one such
operation.

Failed or wrong operations go to ``failed``; ``failed / attempted`` is the
failed fraction, printed with the report.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of the traced pass (see ``tracer.py``) plus
``trace.overhead_s``, the traced minus the untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report with run metadata.  ``--size tiny`` shrinks
every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + (("trace.overhead_s", "s"),)
# Set-up-only processes per run: at least SETUP_MIN, more while they have
# taken under SETUP_SPEND_S seconds (cheap set-ups get more samples).
SETUP_MIN, SETUP_MAX, SETUP_SPEND_S = 2, 11, 1.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
RUN_LIMIT_S = 170.0  # each run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def _worker(args: argparse.Namespace, workdir: str, deadline: float, trace: bool,
            setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--workdir", workdir,
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_stats(item_s: list[float]) -> tuple[float, float, float]:
    """Median and tail in ms, and the tail's percentile.

    The tail is the highest of ``TAIL_PERCENTILES`` with at least ten items
    beyond it, or the maximum when none has.
    """
    xs = sorted(item_s)
    n = len(xs)
    tail, pct = xs[-1], 100.0
    for p in TAIL_PERCENTILES:
        k = math.ceil(round(n * p / 100, 6)) - 1
        if n - 1 - k >= 10:
            tail, pct = xs[k], p
            break
    return statistics.median(xs) * 1000, tail * 1000, pct


def _metadata(args: argparse.Namespace) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "seed": args.seed,
            "src_lines": src_lines}


def _untraced(args, workdir: str, deadline: float, report: list) -> tuple[list, dict]:
    setups = []
    start = monotonic()
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and monotonic() - start < SETUP_SPEND_S):
        setups.append(_worker(args, workdir, deadline, False, setup_only=True)["setup_s"])
    passes = []
    start = monotonic()
    while True:
        passes.append(_worker(args, workdir, deadline, False))
        spent = monotonic() - start
        if spent + spent / len(passes) > args.seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report.append(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    for i, p in enumerate(passes, 1):
        p50, tail, pct = item_stats(p["item_s"])
        report.append(f"pass {i} items (not gated): item_p50_ms {p50:.6g} ms, "
                      f"item_tail_ms {tail:.6g} ms at p{pct:g} of {len(p['item_s'])} items")
    return passes, {k: (metrics[k], unit) for k, unit in END_TO_END}


def _traced(args, workdir: str, deadline: float, report: list) -> tuple[list, dict]:
    plain = _worker(args, workdir, deadline, False)
    traced = _worker(args, workdir, deadline, True)
    units = dict(PER_LAYER)
    metrics = {k: (v, units[k]) for k, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    report.append(f"wall_s untraced {plain['wall_s']:.4f} traced {traced['wall_s']:.4f}")
    absent = [k for k, _ in PER_LAYER if k not in metrics]
    if absent:
        report.append(f"absent (boundary missing): {' '.join(absent)}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so the running pass is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "arcon" / "__init__.py").is_file():
        print(f"error: no arcon sources under {SRC}", file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_LIMIT_S
    report = [f"workload={args.workload} seed={args.seed} size={args.size} "
              f"trace={args.trace} seconds={args.seconds:g}"]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        run = _traced if args.trace else _untraced
        passes, metrics = run(args, workdir, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report.append("meta " + json.dumps(_metadata(args)))
    for i, p in enumerate(passes, 1):
        report.append(f"pass {i}: wall_s={p['wall_s']:.4f} attempted={p['attempted']} "
                      f"failed={p['failed']} gates={json.dumps(p['gates'])}")
        if p["absent"]:
            report.append(f"pass {i}: missing boundaries {' '.join(p['absent'])}")
    report.append(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    report.extend(f"{k} {v:.6g} {unit}" for k, (v, unit) in metrics.items())
    for line in report:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
