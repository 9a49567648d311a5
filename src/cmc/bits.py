"""Finite bitstrings and infinite bit sequences.

Finite binary strings are plain ``str`` values over the alphabet ``{'0','1'}``
(the empty string is the root cylinder index).  Infinite sequences are
:class:`BitSequence` oracles; the concrete subclasses carry enough metadata to
decide, for some pairs, whether two sequences differ in only finitely many
positions.
"""

from __future__ import annotations

from math import lcm


def check_bitstring(s):
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a bitstring: {s!r}")
    return s


def check_natural(n, what):
    """``n`` if it is a natural number; a depth, count or budget below zero
    would make a search vacuous or endless."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{what} must be a natural number, got {n!r}")
    return n


def sibling(s):
    """The other child of the parent of ``s``."""
    if not s:
        raise ValueError("the root has no sibling")
    return s[:-1] + ("1" if s[-1] == "0" else "0")


def shortlex_string(n):
    """The ``n``-th finite binary string in shortlex order.

    ``0 -> ''``, ``1 -> '0'``, ``2 -> '1'``, ``3 -> '00'``, ...
    """
    if n < 0:
        raise ValueError("index must be a natural number")
    length = (n + 1).bit_length() - 1
    rank = n + 1 - (1 << length)
    return format(rank, "b").zfill(length) if length else ""


def shortlex_key(s):
    return (len(s), s)


def all_strings_of_length(n):
    return [format(i, "b").zfill(n) if n else "" for i in range(1 << n)]


class BitSequence:
    """A total map from naturals to bits."""

    def __getitem__(self, n):
        raise NotImplementedError

    def flip(self, *positions):
        """This sequence with the given positions toggled."""
        return FlippedBits(self, frozenset(positions))


class PeriodicBits(BitSequence):
    """An eventually periodic sequence: a finite prefix, then a repeating
    period.  Covers constants, finite strings padded with zeros, and every
    pattern the DSL can describe."""

    def __init__(self, prefix_bits="", period_bits="0"):
        check_bitstring(prefix_bits)
        check_bitstring(period_bits)
        if not period_bits:
            raise ValueError("period must be nonempty")
        self.prefix_bits = prefix_bits
        self.period_bits = period_bits

    def __getitem__(self, n):
        if n < 0:
            raise IndexError(n)
        if n < len(self.prefix_bits):
            return int(self.prefix_bits[n])
        k = (n - len(self.prefix_bits)) % len(self.period_bits)
        return int(self.period_bits[k])

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicBits)
            and self.prefix_bits == other.prefix_bits
            and self.period_bits == other.period_bits
        )

    def __hash__(self):
        return hash((self.prefix_bits, self.period_bits))

    def __repr__(self):
        return f"PeriodicBits({self.prefix_bits!r}, {self.period_bits!r})"


class FlippedBits(BitSequence):
    def __init__(self, base, positions):
        self.base = base
        self.positions = frozenset(positions)

    def __getitem__(self, n):
        b = self.base[n]
        return 1 - b if n in self.positions else b

    def __repr__(self):
        return f"FlippedBits({self.base!r}, {sorted(self.positions)})"


class CallableBits(BitSequence):
    """Opaque oracle wrapping an arbitrary total function."""

    def __init__(self, fn, name=None):
        self.fn = fn
        self.name = name

    def __getitem__(self, n):
        b = self.fn(n)
        if b not in (0, 1):
            raise ValueError(f"oracle returned {b!r} at {n}")
        return b

    def __repr__(self):
        return f"CallableBits({self.name or self.fn!r})"


ZEROS = PeriodicBits("", "0")
ONES = PeriodicBits("", "1")


def from_bits(bits):
    """The sequence that starts with ``bits`` and continues with zeros."""
    check_bitstring(bits)
    return PeriodicBits(bits, "0")


def _core_and_flips(x):
    flips = frozenset()
    while isinstance(x, FlippedBits):
        flips ^= x.positions
        x = x.base
    return x, flips


def difference_summary(x, y):
    """Classify where two sequences differ.

    Returns ``("finite", positions)`` when the sequences provably differ in
    exactly the given finite set of positions, ``("infinite", None)`` when they
    provably differ infinitely often, and ``("unknown", None)`` when the
    metadata does not settle it.
    """
    cx, fx = _core_and_flips(x)
    cy, fy = _core_and_flips(y)
    flips = fx ^ fy
    horizon = None
    if cx is cy or (isinstance(cx, PeriodicBits) and cx == cy):
        horizon = 0
    elif isinstance(cx, PeriodicBits) and isinstance(cy, PeriodicBits):
        start = max(len(cx.prefix_bits), len(cy.prefix_bits))
        span = lcm(len(cx.period_bits), len(cy.period_bits))
        if any(cx[n] != cy[n] for n in range(start, start + span)):
            return ("infinite", None)
        horizon = start
    if horizon is None:
        return ("unknown", None)
    horizon = max([horizon] + [p + 1 for p in flips])
    positions = frozenset(n for n in range(horizon) if x[n] != y[n])
    return ("finite", positions)
