"""Edge-disjoint paths toolkit: exact solvers, a linear kernel, reductions
and instance generators for undirected multigraphs."""

__version__ = "0.1.0"

from .graphs import (
    EDPInstance,
    MultiGraph,
    ParseError,
    StructureError,
    feedback_edge_set,
    parse_instance,
    restrict_pairs,
    serialize_instance,
    terminal_normalize,
)

__all__ = [
    "EDPInstance",
    "MultiGraph",
    "ParseError",
    "StructureError",
    "feedback_edge_set",
    "parse_instance",
    "restrict_pairs",
    "serialize_instance",
    "terminal_normalize",
]
