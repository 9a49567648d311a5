"""Shared exception types."""


class CmcError(Exception):
    """Base class for library errors."""

    code = "error"


class BudgetExceeded(CmcError):
    """A splitting-node search (or an evaluation that depends on one) ran past
    its depth budget without reaching a decision, or a gap computation needs
    more cells than its limit."""

    code = "budget-exceeded"


class ZeroMass(CmcError):
    """An operation required a cylinder of positive mass."""

    code = "zero-mass"


class NotInCodingDomain(CmcError):
    """A spine node failed both exact 2/3-1/3 ratio patterns, witnessing that
    the measure codes no bitstring at that index."""

    code = "not-in-coding-domain"

    def __init__(self, index, node):
        super().__init__(f"ratio check failed at spine index {index}, node {node!r}")
        self.index = index
        self.node = node


class SemanticError(CmcError, ValueError):
    """Structurally valid input with inconsistent content (weights not summing
    to one, values outside [0,1], and similar)."""

    code = "semantic-error"


class NotSerializable(CmcError):
    """The code contains an opaque oracle with no finite description."""

    code = "not-serializable"


class Diagnostic(CmcError):
    """Positioned syntax error from the measure DSL parser."""

    code = "syntax-error"

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
