"""Exception hierarchy for trace-forge.

Every rejected precondition has its own class so callers (and the CLI) can
map failures to stable, nameable conditions.
"""


class TraceForgeError(Exception):
    """Base class for all trace-forge errors."""


# -- graph construction and structure ---------------------------------------

class SelfLoopError(TraceForgeError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(TraceForgeError):
    """The same unordered edge was given twice."""


class EmptyGraphError(TraceForgeError):
    """The operation needs a non-empty graph (or at least one edge)."""


class DisconnectedGraphError(TraceForgeError):
    """The operation requires a connected graph."""


class GraphTooSmallError(TraceForgeError):
    """The operation needs more vertices than the graph has."""


class UnknownVertexError(TraceForgeError):
    """A referenced vertex id is not in the graph."""


class InvalidPartitionError(TraceForgeError):
    """A neighborhood partition is not a partition of N(v)."""


class DegreeTooSmallError(TraceForgeError):
    """The vertex degree is below the operation's minimum."""


class OverlappingNeighborhoodsError(TraceForgeError):
    """Vertices to identify share a neighbor."""


class AdjacentTargetsError(TraceForgeError):
    """Vertices to identify are joined by an edge."""


# -- trace validation --------------------------------------------------------

class TraceValidationError(TraceForgeError):
    """Base class for rejected double-trace candidates."""


class WrongLengthError(TraceValidationError):
    """Sequence length differs from twice the edge count."""


class NonAdjacentStepError(TraceValidationError):
    """A cyclically consecutive pair is not an edge of the host."""

    def __init__(self, index: int, u: int, v: int):
        self.index = index
        super().__init__(f"step {index}: {u} -> {v} is not an edge of the host")


class WrongMultiplicityError(TraceValidationError):
    """An edge is not traversed exactly twice."""

    def __init__(self, edge: tuple, count: int):
        self.edge = edge
        self.count = count
        super().__init__(f"edge {edge} traversed {count} times, expected 2")


class NotAntiparallelError(TraceValidationError):
    """The trace traverses some edge twice in the same direction."""


class NotStableError(TraceValidationError):
    """The trace has a repetition of order at most d."""

    def __init__(self, d: int):
        self.d = d
        super().__init__(f"trace is not {d}-stable")


# -- spanning trees and deficiency -------------------------------------------

class NotSpanningTreeError(TraceForgeError):
    """The edge set is not a spanning tree of the host."""


class NotQualifiedError(TraceForgeError):
    """An odd co-tree component has no vertex meeting the degree threshold."""


class NotInOddComponentError(TraceForgeError):
    """The vertex does not lie in an odd co-tree component."""


# -- transforms ----------------------------------------------------------------

class PreconditionViolatedError(TraceForgeError):
    """A transform precondition failed; the message names the clause."""


class PartitionNotRepetitionClosedError(TraceForgeError):
    """A split part is not a union of the trace's minimal repetitions."""


# -- search and pipeline -------------------------------------------------------

class BudgetExhaustedError(TraceForgeError):
    """The search hit its node budget before finishing."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


class InternalInvariantError(TraceForgeError):
    """A guaranteed construction step failed; indicates a bug, never a wrong answer."""


# -- file formats ---------------------------------------------------------------

class ParseError(TraceForgeError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
