"""arcon: n-arc connectivity of finite topological graphs.

Decide whether every n points of a finite graph lie on one arc, classify
graphs against the six shapes that admit covering arcs at every finite size,
and enumerate all small graph homeomorphism classes to verify minimality
claims.
"""

from .arcsearch import (
    AcProfile,
    ArcWitness,
    ac_number,
    covering_arc,
    is_n_ac,
    refine_check,
)
from .census import (
    MinimalityReport,
    SearchRecord,
    SearchTask,
    is_planar,
    reduced_multigraphs,
    search,
    verify_minimality,
)
from .classify import (
    ConditionReport,
    HomeoClass,
    ReducedGraph,
    cross_check,
    homeo_class,
    is_7ac_theorem,
    necessary_conditions,
    reduced_graph,
)
from .multigraph import (
    BoundExceeded,
    Edge,
    GraphError,
    Multigraph,
    ParseError,
    branch_points,
    build,
    format_graph_text,
    graph_endpoints,
    parse_graph_text,
    smooth,
    terminal_edges,
)
from .obstructions import obstruction_7
from .placements import Placement, enumerate_placements, realize
from .symmetry import are_homeomorphic, canonical_form

__version__ = "0.1.0"

__all__ = [
    "AcProfile", "ArcWitness", "BoundExceeded", "ConditionReport", "Edge",
    "GraphError", "HomeoClass", "MinimalityReport", "Multigraph", "ParseError",
    "Placement", "ReducedGraph", "SearchRecord", "SearchTask", "ac_number",
    "are_homeomorphic", "branch_points", "build",
    "canonical_form", "covering_arc", "cross_check", "enumerate_placements",
    "format_graph_text", "graph_endpoints", "homeo_class", "is_7ac_theorem",
    "is_n_ac", "is_planar", "necessary_conditions", "obstruction_7",
    "parse_graph_text", "realize", "reduced_graph", "reduced_multigraphs",
    "refine_check", "search", "smooth", "terminal_edges", "verify_minimality",
]
