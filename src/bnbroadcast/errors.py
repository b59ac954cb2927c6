"""Exception types shared across the package.

Class names mirror the failure they signal rather than carrying an Error
suffix; they are part of the public API and are matched by callers (the CLI
maps them to exit codes).  BudgetExceeded is not a failure: a solver raises
it when it counts more nodes than its max_nodes cap, and the CLI records it
as a `budget_exceeded` outcome.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for every error raised by this package."""


class NotATree(GraphError):
    """Vertex/edge data does not describe a tree: no vertex, a cycle, a
    self-loop, a repeated edge, or an edge count other than n - 1."""


class BadVertexIndex(GraphError):
    """A vertex reference falls outside 0..n-1."""


class NoBranchVertices(GraphError):
    """The operation needs at least one vertex of degree >= 3."""


class InvalidBroadcast(GraphError):
    """A strength assignment violates the broadcast definition."""


class NegativeStrength(InvalidBroadcast):
    """Some vertex was assigned a strength below zero."""


class StrengthExceedsEccentricity(InvalidBroadcast):
    """Some vertex was assigned a strength above its eccentricity."""


class NotBnIndependent(GraphError):
    """Maximality is only defined for boundary-independent broadcasts."""


class ShapeMismatch(GraphError):
    """A closed formula was applied outside the family it covers."""


class BadSpec(GraphError):
    """A parametric family description is malformed or out of range."""


class ParseError(GraphError):
    """Malformed textual input (edge list, graph6 string, broadcast file)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedLongForm(ParseError):
    """graph6's 8-byte order header (order >= 258048) is deliberately not
    handled."""

    def __init__(self, message="graph6 order >= 258048 not supported"):
        super().__init__(message)


class BudgetExceeded(GraphError):
    """A solver ran out of its node budget.

    Carries the nodes counted when it stopped, which exceed max_nodes.  No
    clock is read, so identical inputs and caps stop at the same node.
    """

    def __init__(self, nodes):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class InternalInconsistency(GraphError):
    """Two routes that must agree disagreed; this is a bug, not bad input."""
