"""Exception types shared across the package."""


class MixedColorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MixedColorError):
    """A graph, coloring, or expression file is malformed."""


class LoopError(MixedColorError):
    """A relation connects a vertex to itself."""


class DuplicateRelation(MixedColorError):
    """A vertex pair carries more than one edge/arc relation."""


class DirectedCycleError(MixedColorError):
    """The arc set contains a directed cycle."""


class IncompleteColoring(MixedColorError):
    """A coloring does not assign a color to every vertex of the graph."""


class InvalidCover(MixedColorError):
    """A claimed vertex cover leaves some edge of the underlying graph uncovered."""


# The work budget of every exact search: each counts its own unit of work
# (search nodes, loop steps, table entries, preorders) against this number.
DEFAULT_NODE_BUDGET = 5_000_000


class BudgetExceeded(MixedColorError):
    """An exact search exceeded its work budget."""


class CapExceeded(MixedColorError):
    """An input is larger than the hard cap of a brute-force routine."""


class InvalidDecomposition(MixedColorError):
    """A tree decomposition violates coverage or connectivity."""


class ConflictingRelation(MixedColorError):
    """Expression evaluation tried to add a relation parallel or opposite to an existing one."""


class WidthCapExceeded(MixedColorError):
    """An expression is wider than the configured cap of a transformation."""


class UnsupportedClosureExpression(MixedColorError):
    """The label-level closure construction cannot express the required relations.

    Raised when two vertices share a composite label but disagree on whether
    their relation to a third group survives in the transitive closure; no
    label-uniform operation sequence can then realize the closure exactly.
    """
