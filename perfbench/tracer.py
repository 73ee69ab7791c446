"""Timers and counters at the module boundaries of the ``arcon`` engine.

The engine's layers call each other through module globals: ``search`` looks
up ``reduced_multigraphs``, ``canonical_form``, ``is_planar`` and
``ac_number`` in ``arcon.census``; ``is_n_ac`` looks up
``probe_placements``, ``iter_placements_indexed``, ``_realize_masks`` and
``_find_covering_path`` in ``arcon.arcsearch``, and the DFS looks up
``_reach`` there once per node.  :class:`Tracer` swaps those attributes for
wrappers that time and count the calls, and puts the originals back on exit.
No file under ``src/`` is changed.

A boundary whose module or attribute is missing (say, a later version
renames it) is skipped, and every metric that needs it is reported absent
instead of crashing the run.

Two depths: the untraced pass installs only the three boundaries the
correctness gates and item timings need (one timer pair per call, a few
thousand calls per pass); the traced pass installs all of them.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LEVELS = range(2, 8)

# (module, attribute, wrapper method, key, installed in the untraced pass too)
BOUNDARIES = (
    ("arcon.census", "reduced_multigraphs", "_generator", "enum", True),
    ("arcon.census", "ac_number", "_profile", "profile", True),
    ("arcon.arcsearch", "is_n_ac", "_level", "level", True),
    ("arcon.census", "canonical_form", "_canon", "canon", False),
    ("arcon.census", "is_planar", "_timed", "planar", False),
    ("arcon.arcsearch", "probe_placements", "_generator", "probes", False),
    ("arcon.arcsearch", "iter_placements_indexed", "_generator", "orbits", False),
    ("arcon.arcsearch", "_realize_masks", "_timed", "realize", False),
    ("arcon.arcsearch", "_find_covering_path", "_dfs", "dfs", False),
    ("arcon.arcsearch", "_reach", "_node", "nodes", False),
)

_ENUM = "arcon.census.reduced_multigraphs"
_CANON = "arcon.census.canonical_form"
_PLANAR = "arcon.census.is_planar"
_LEVEL = "arcon.arcsearch.is_n_ac"
_PROBES = "arcon.arcsearch.probe_placements"
_ORBITS = "arcon.arcsearch.iter_placements_indexed"
_REALIZE = "arcon.arcsearch._realize_masks"
_DFS = "arcon.arcsearch._find_covering_path"
_NODE = "arcon.arcsearch._reach"


def _level_metrics():
    out = []
    for n in LEVELS:
        for verdict in ("pass", "fail"):
            out.append((f"arcsearch.L{n}_{verdict}_s", "s", (_LEVEL,)))
            out.append((f"arcsearch.L{n}_{verdict}_calls", "count", (_LEVEL,)))
    return out


# Per-layer metrics of the traced pass: (name, unit, boundaries it needs).
LAYER_METRICS = (
    ("census.enum_s", "s", (_ENUM,)),
    ("census.classes", "count", (_ENUM,)),
    ("census.canon_calls", "count", (_ENUM, _CANON)),
    ("census.kept_ratio", "ratio", (_ENUM, _CANON)),
    ("census.planar_s", "s", (_PLANAR,)),
    ("census.planar_calls", "count", (_PLANAR,)),
    ("symmetry.canon_s", "s", (_CANON,)),
    ("symmetry.canon_calls", "count", (_CANON,)),
    ("placements.orbit_s", "s", (_ORBITS,)),
    ("placements.orbit_reps", "count", (_ORBITS,)),
    ("placements.realize_s", "s", (_REALIZE,)),
    ("arcsearch.dfs_s", "s", (_DFS,)),
    ("arcsearch.dfs_calls", "count", (_DFS,)),
    ("arcsearch.dfs_fail", "count", (_DFS,)),
    ("arcsearch.dfs_nodes", "count", (_NODE,)),
    ("arcsearch.nodes_per_call", "ratio", (_NODE, _DFS)),
    *_level_metrics(),
    ("obstructions.probes", "count", (_PROBES,)),
    ("obstructions.probe_hits", "count", (_LEVEL, _ORBITS)),
    ("obstructions.hit_ratio", "ratio", (_LEVEL, _ORBITS)),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps the engine's boundaries while active.

    ``items`` holds the seconds of each ``ac_number`` call made by the census
    sweep (one per graph); ``verdicts`` holds ``(id(graph), n, ok, seconds,
    probe_hit)`` for each ``is_n_ac`` call.  ``probe_hit`` is meaningful only
    in a full trace, where the orbit scan is watched: a failing call that
    never started the scan was settled by an obstruction probe.
    """

    def __init__(self, full: bool):
        self.full = full
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.starts: dict[str, int] = defaultdict(int)
        self.items: list[float] = []
        self.verdicts: list[tuple[int, int, bool, float, bool]] = []
        self.absent: set[str] = set()
        self._nodes = [0]
        self._saved: list = []
        self._inside = None  # key of the generator whose step is running

    def __enter__(self) -> "Tracer":
        for modname, attr, wrapper, key, untraced in BOUNDARIES:
            if not (self.full or untraced):
                continue
            name = f"{modname}.{attr}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.add(name)
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.add(name)
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, getattr(self, wrapper)(key, orig))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def installed(self, name: str) -> bool:
        return name not in self.absent

    # -- wrappers: each takes the boundary's key and the original callable --

    def _timed(self, key: str, orig):
        seconds, calls = self.seconds, self.calls

        def wrapper(*a, **k):
            t0 = perf_counter()
            try:
                return orig(*a, **k)
            finally:
                seconds[key] += perf_counter() - t0
                calls[key] += 1

        return wrapper

    def _generator(self, key: str, orig):
        """Time each step of a generator (its own work, not the consumer's)."""
        seconds, calls, starts = self.seconds, self.calls, self.starts

        def wrapper(*a, **k):
            starts[key] += 1
            it = orig(*a, **k)
            while True:
                t0 = perf_counter()
                outer, self._inside = self._inside, key
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    self._inside = outer
                    seconds[key] += perf_counter() - t0
                calls[key] += 1
                yield x

        return wrapper

    def _canon(self, key: str, orig):
        timed = self._timed(key, orig)

        def canonical_form(*a, **k):
            if self._inside == "enum":
                self.calls["enum_canon"] += 1
            return timed(*a, **k)

        return canonical_form

    def _profile(self, key: str, orig):
        items = self.items

        def ac_number(*a, **k):
            t0 = perf_counter()
            try:
                return orig(*a, **k)
            finally:
                items.append(perf_counter() - t0)

        return ac_number

    def _level(self, key: str, orig):
        verdicts, starts = self.verdicts, self.starts

        def is_n_ac(g, n, *a, **k):
            scans = starts["orbits"]
            t0 = perf_counter()
            ok, cex = orig(g, n, *a, **k)
            dt = perf_counter() - t0
            verdicts.append((id(g), n, ok, dt, not ok and starts["orbits"] == scans))
            return ok, cex

        return is_n_ac

    def _dfs(self, key: str, orig):
        seconds, calls = self.seconds, self.calls

        def _find_covering_path(*a, **k):
            t0 = perf_counter()
            path = orig(*a, **k)
            seconds[key] += perf_counter() - t0
            calls[key] += 1
            if path is None:
                calls["dfs_fail"] += 1
            return path

        return _find_covering_path

    def _node(self, key: str, orig):
        nodes = self._nodes

        def _reach(*a, **k):
            nodes[0] += 1
            return orig(*a, **k)

        return _reach

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every layer metric whose boundaries were all installed."""
        s, c = self.seconds, self.calls
        values = {
            "census.enum_s": s["enum"],
            "census.classes": c["enum"],
            "census.canon_calls": c["enum_canon"],
            "census.kept_ratio": _ratio(c["enum"], c["enum_canon"]),
            "census.planar_s": s["planar"],
            "census.planar_calls": c["planar"],
            "symmetry.canon_s": s["canon"],
            "symmetry.canon_calls": c["canon"],
            "placements.orbit_s": s["orbits"],
            "placements.orbit_reps": c["orbits"],
            "placements.realize_s": s["realize"],
            "arcsearch.dfs_s": s["dfs"],
            "arcsearch.dfs_calls": c["dfs"],
            "arcsearch.dfs_fail": c["dfs_fail"],
            "arcsearch.dfs_nodes": self._nodes[0],
            "arcsearch.nodes_per_call": _ratio(self._nodes[0], c["dfs"]),
            "obstructions.probes": c["probes"],
        }
        for n in LEVELS:
            for verdict, want in (("pass", True), ("fail", False)):
                rows = [v for v in self.verdicts if v[1] == n and v[2] is want]
                values[f"arcsearch.L{n}_{verdict}_s"] = sum(v[3] for v in rows)
                values[f"arcsearch.L{n}_{verdict}_calls"] = len(rows)
        hits = sum(1 for v in self.verdicts if v[4])
        fails = sum(1 for v in self.verdicts if not v[2])
        values["obstructions.probe_hits"] = hits
        values["obstructions.hit_ratio"] = _ratio(hits, fails)
        return {name: (values[name], unit) for name, unit, needs in LAYER_METRICS
                if all(self.installed(b) for b in needs)}
