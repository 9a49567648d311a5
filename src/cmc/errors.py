"""Shared exception types, and ``Record``, the base class of the result types.

A result (a certificate, a witness, ``Inconclusive``) is an immutable record
with its annotated names, in order, as fields and class-level defaults.  It
is built positionally or by keyword, compared (within its class), hashed and
printed by its fields, and round-trips through ``pickle`` and ``copy``.  It is
not a dataclass: ``dataclasses.asdict`` and ``replace`` do not apply.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(self._fields):  # every field, in order
            self.__dict__.update(zip(self._fields, args))
            return
        fields, given = self._fields, {**self._defaults, **kwargs}
        rest = fields[len(args):]
        if len(args) > len(fields) or not kwargs.keys() <= set(rest) <= given.keys():
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(zip(fields, args), **{f: given[f] for f in rest})

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
