"""Structure-driven classification of finite graphs.

The brute-force search in :mod:`arcon.arcsearch` answers n-arc questions from
first principles; this module answers them from structure: pruning terminal
edges, recognizing the six graph classes that are arc-coverable at every
finite size (arc, circle, figure eight, lollipop, dumbbell, theta), and the
branch-point conditions that rule the property out.  Tests hold the two
routes against each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .arcsearch import is_n_ac
from .multigraph import Edge, GraphError, Multigraph, smooth
from .obstructions import RULE_3CUT, RULE_3ENDS, RULE_3LEAF, leaf_block_obstruction


class HomeoClass(enum.Enum):
    ARC = "arc"
    CIRCLE = "circle"
    FIGURE_EIGHT = "figure_eight"
    LOLLIPOP = "lollipop"
    DUMBBELL = "dumbbell"
    THETA = "theta"
    OTHER = "other"


OMEGA_CLASSES = frozenset(HomeoClass) - {HomeoClass.OTHER}


class ReducedGraph(NamedTuple):
    graph: Multigraph
    degenerate: bool  # True when pruning a tree stopped at its last edge


def reduced_graph(g: Multigraph) -> ReducedGraph:
    """Delete terminal edges (and their stranded endpoints) until none remain.

    A terminal edge has a degree-1 endpoint.  Trees would be consumed
    entirely; pruning then stops at the final edge and flags the result
    degenerate instead of returning an empty graph.
    """
    if not g.is_connected():
        raise GraphError("reduced_graph expects a connected graph")
    cur = g
    while True:
        ends = {v for v in cur.vertices if cur.degree(v) == 1}
        if not ends:
            return ReducedGraph(cur, False)
        target: Optional[Edge] = None
        for e in cur.edges:
            if e.a in ends or e.b in ends:
                target = e
                break
        assert target is not None
        if len(cur.edges) == 1:
            return ReducedGraph(cur, True)
        drop = {v for v in (target.a, target.b) if cur.degree(v) == 1}
        cur = Multigraph(
            [v for v in cur.vertices if v not in drop],
            [e for e in cur.edges if e.eid != target.eid],
        )


def homeo_class(g: Multigraph) -> HomeoClass:
    """Match the smoothed form against the six coverable shapes."""
    s = smooth(g)
    nv, ne = len(s.vertices), len(s.edges)
    loops = sum(1 for e in s.edges if e.is_loop)
    if nv == 2 and ne == 1 and loops == 0:
        return HomeoClass.ARC
    if nv == 1 and ne == 1 and loops == 1:
        return HomeoClass.CIRCLE
    if nv == 1 and ne == 2 and loops == 2:
        return HomeoClass.FIGURE_EIGHT
    if nv == 2 and ne == 2 and loops == 1:
        return HomeoClass.LOLLIPOP
    if nv == 2 and ne == 3 and loops == 2:
        loop_sites = {e.a for e in s.edges if e.is_loop}
        if len(loop_sites) == 2:  # one loop per end; both at one vertex is not a dumbbell
            return HomeoClass.DUMBBELL
    if nv == 2 and ne == 3 and loops == 0:
        return HomeoClass.THETA
    return HomeoClass.OTHER


def is_7ac_theorem(g: Multigraph) -> bool:
    """Structural verdict for 7-arc connectivity: one of the six shapes."""
    return homeo_class(g) is not HomeoClass.OTHER


RULE_DEG5 = "deg>=5"
RULE_3BRANCH = "3+branch"
RULE_2DEG4 = "2branch-deg>=4"

# rule name -> the level at which the graph cannot be n-arc connected
RULE_BREAKS_AT = {RULE_DEG5: 5, RULE_3BRANCH: 7, RULE_2DEG4: 7,
                  RULE_3ENDS: 3, RULE_3CUT: 3, RULE_3LEAF: 3}


@dataclass(frozen=True)
class ConditionReport:
    """Branch-point statistics and the non-coverability rules they trigger.

    Each fired rule is sound: ``3endpoints``, ``3way-cut`` and
    ``3leaf-blocks`` refute 3-arc connectivity, ``deg>=5`` refutes 5-arc
    connectivity, ``3+branch`` and ``2branch-deg>=4`` refute 7-arc
    connectivity.  The level-3 rules are also complete: one fires exactly
    when the block-cut tree has three leaves, ``3leaf-blocks`` only when
    neither of the other two does.
    """

    branch_count: int
    max_branch_degree: int
    fired: tuple[str, ...]

    def refutes(self, n: int) -> bool:
        return any(RULE_BREAKS_AT[r] <= n for r in self.fired)


def necessary_conditions(g: Multigraph) -> ConditionReport:
    if not g.is_connected():
        raise GraphError("necessary_conditions expects a connected graph")
    s = smooth(g)
    degs = [s.degree(v) for v in s.vertices if s.degree(v) >= 3]
    count = len(degs)
    maxdeg = max(degs, default=0)
    fired = []
    if maxdeg >= 5:
        fired.append(RULE_DEG5)
    if count >= 3:
        fired.append(RULE_3BRANCH)
    if count == 2 and min(degs) >= 4:
        fired.append(RULE_2DEG4)
    # the level-3 rules are the engine's own block decomposition
    obs = leaf_block_obstruction(s)
    if obs is not None:
        fired.extend(obs.rules)
    return ConditionReport(count, maxdeg, tuple(fired))


def cross_check(g: Multigraph) -> bool:
    """Agreement of the structural verdict with brute force at level 7.

    Level 7 settles every finite level for graphs, so no higher level is
    brute-forced here.
    """
    structural = is_7ac_theorem(g)
    brute, _ = is_n_ac(g, 7)
    return structural == brute
