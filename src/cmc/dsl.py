"""The measure-description language: parser and canonical serializer.

Grammar (LL(1), whitespace insignificant, rationals reduced on parse):

    measure  := "uniform"
              | "dirac(" bits ")"
              | "finite(" (bits ":" rational ",")+ ")"
              | "convex(" (rational ":" measure ",")+ ")"
              | "product(" schedule ")"
              | "table(" depth ";" (bits "=" rational ",")+ ")"
              | "coded(" measure ";" payload ")"
    schedule := "const(" rational ")" | "ks(" pattern ")"
              | "list(" rational ("," rational)* ";" tailrule ")"
    tailrule := "const(" rational ")" | "cycle"
    pattern  := bits | bits "*" | bits "(" bits ")" "*"
    rational := integer "/" positive-integer | integer
    bits     := /[01]*/
    payload  := "0x" hex | bits

A trailing comma before the closing parenthesis is tolerated on parse but
never printed.  ``ks`` patterns denote eventually periodic parameter
sequences: plain ``bits`` continue with zeros, ``w*`` repeats the last bit of
``w`` forever, ``w(p)*`` repeats the group ``p`` after the prefix ``w``.

``parse`` returns either a MeasureCode or a ``Diagnostic`` carrying the
1-based line and column of the failure plus the expected tokens.  Semantic
failures inside structurally valid text (weights not summing to one, values
out of range) raise ``SemanticError``.

``print_measure`` emits the canonical form: single ``", "``/``": "``/``" = "``
separators, reduced rationals, lowercase hex payloads exactly when the
payload length is a positive multiple of 4, ``dirac``/``ks`` arguments with
redundant trailing zeros stripped and periods reduced to primitive ones.
``parse(print_measure(c))`` evaluates identically to ``c``, and printing is
byte-stable across round trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bits import PeriodicBits
from .codec import CodedMeasure, encode
from .errors import Diagnostic, NotSerializable, SemanticError
from .measures import (
    Convex,
    Dirac,
    FiniteSupport,
    ProductCode,
    TableCode,
    Uniform,
)
from .schedules import ConstantSchedule, ExplicitSchedule, KSSchedule, ks_schedule

_KEYWORD = re.compile(r"[a-z]+")
_DIGITS = re.compile(r"[0-9]+")
_BITS = re.compile(r"[01]*")
_HEX = re.compile(r"[0-9a-fA-F]+")

_MEASURE_KEYWORDS = ("uniform", "dirac", "finite", "convex", "product", "table", "coded")
_SCHEDULE_KEYWORDS = ("const", "ks", "list")


class _Syntax(Exception):
    def __init__(self, pos, message, expected):
        super().__init__(message)
        self.pos = pos
        self.message = message
        self.expected = tuple(expected)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def fail(self, message, *expected):
        raise _Syntax(self.pos, message, expected)

    def lit(self, token):
        self.skip()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}", token)
        self.pos += len(token)

    def try_lit(self, token):
        self.skip()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def peek(self, token):
        self.skip()
        return self.text.startswith(token, self.pos)

    def keyword(self, choices):
        self.skip()
        m = _KEYWORD.match(self.text, self.pos)
        if not m or m.group() not in choices:
            self.fail("expected a keyword", *choices)
        self.pos = m.end()
        return m.group()

    def bits(self):
        self.skip()
        m = _BITS.match(self.text, self.pos)
        self.pos = m.end()
        return m.group()

    def unsigned(self):
        self.skip()
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            self.fail("expected an integer", "integer")
        self.pos = m.end()
        return int(m.group())

    def rational(self):
        self.skip()
        neg = self.try_lit("-")
        n = self.unsigned()
        if neg:
            n = -n
        if self.try_lit("/"):
            self.skip()
            at = self.pos
            den = self.unsigned()
            if not den:
                self.pos = at
                self.fail("expected a positive denominator", "positive integer")
            return Fraction(n, den)
        return Fraction(n)

    # grammar productions ---------------------------------------------------

    def measure(self):
        kw = self.keyword(_MEASURE_KEYWORDS)
        if kw == "uniform":
            return Uniform()
        self.lit("(")
        if kw == "dirac":
            b = self.bits()
            self.lit(")")
            return Dirac(b)
        if kw == "finite":
            pairs = self._entries(lambda: (self.bits(), self._after(":", self.rational)))
            self.lit(")")
            return FiniteSupport(pairs)
        if kw == "convex":
            terms = self._entries(lambda: (self.rational(), self._after(":", self.measure)))
            self.lit(")")
            return Convex(terms)
        if kw == "product":
            sched = self.schedule()
            self.lit(")")
            return ProductCode(sched)
        if kw == "table":
            depth = self.unsigned()
            self.lit(";")
            entries = {}
            for key, value in self._entries(
                lambda: (self.bits(), self._after("=", self.rational))
            ):
                if key in entries:
                    raise SemanticError(f"duplicate table entry {key!r}")
                entries[key] = value
            self.lit(")")
            return TableCode(depth, entries)
        base = self.measure()
        self.lit(";")
        payload = self.payload()
        self.lit(")")
        return encode(base, payload)

    def _after(self, token, production):
        self.lit(token)
        return production()

    def _entries(self, entry):
        out = [entry()]
        while self.try_lit(","):
            if self.peek(")"):
                break
            out.append(entry())
        return out

    def schedule(self):
        kw = self.keyword(_SCHEDULE_KEYWORDS)
        self.lit("(")
        if kw == "const":
            value = self.rational()
            self.lit(")")
            return ConstantSchedule(value)
        if kw == "ks":
            pat = self.pattern()
            self.lit(")")
            return ks_schedule(pat)
        values = [self.rational()]
        while self.try_lit(","):
            if self.peek(";"):
                break
            values.append(self.rational())
        self.lit(";")
        tail = self.tailrule()
        self.lit(")")
        return ExplicitSchedule(values, tail)

    def tailrule(self):
        kw = self.keyword(("const", "cycle"))
        if kw == "cycle":
            return "cycle"
        self.lit("(")
        value = self.rational()
        self.lit(")")
        return ("const", value)

    def pattern(self):
        w = self.bits()
        if self.peek("("):
            self.lit("(")
            period = self.bits()
            if not period:
                self.fail("expected bits in the repeat group", "bits")
            self.lit(")")
            self.lit("*")
            return PeriodicBits(w, period)
        if self.try_lit("*"):
            if not w:
                self.fail("expected bits before '*'", "bits")
            return PeriodicBits(w[:-1], w[-1])
        return PeriodicBits(w, "0")

    def payload(self):
        self.skip()
        if self.text.startswith("0x", self.pos):
            self.pos += 2
            m = _HEX.match(self.text, self.pos)
            if not m:
                self.fail("expected hex digits after '0x'", "hex digits")
            self.pos = m.end()
            return tuple(
                int(bit) for c in m.group() for bit in format(int(c, 16), "04b")
            )
        return tuple(int(b) for b in self.bits())


def _diagnose(source, err):
    line = source.count("\n", 0, err.pos) + 1
    column = err.pos - source.rfind("\n", 0, err.pos)
    return Diagnostic(err.message, line, column, err.expected)


def _run(source, production):
    p = _Parser(source)
    try:
        out = production(p)
        p.skip()
        if p.pos != len(p.text):
            p.fail("unexpected trailing input", "end of input")
    except _Syntax as err:
        return _diagnose(source, err)
    return out


def parse(source):
    """MeasureCode, or a Diagnostic with position and expected tokens."""
    return _run(source, _Parser.measure)


def parse_schedule(source):
    """Schedule from the ``schedule`` production, or a Diagnostic."""
    return _run(source, _Parser.schedule)


def parse_pattern(source):
    """Eventually periodic bit sequence from the ``pattern`` production."""
    return _run(source, _Parser.pattern)


def parse_payload(source):
    """Payload bit tuple from the ``payload`` production, or a Diagnostic."""
    return _run(source, _Parser.payload)


# ---------------------------------------------------------------------------
# Canonical printing


def _primitive(period):
    for d in range(1, len(period) + 1):
        if len(period) % d == 0 and period[: d] * (len(period) // d) == period:
            return period[:d]
    return period


def _pattern_text(x):
    if not isinstance(x, PeriodicBits):
        raise NotSerializable(f"parameter sequence {x!r} has no finite description")
    prefix, period = x.prefix_bits, _primitive(x.period_bits)
    # roll matching prefix tail bits into the period (rotating it) so the
    # printed prefix is as short as possible
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = period[-1] + period[:-1]
    if period == "0":
        return prefix
    if len(period) == 1:
        return prefix + period + "*"
    return prefix + "(" + period + ")*"


def _branch_text(branch):
    if isinstance(branch, PeriodicBits) and set(branch.period_bits) == {"0"}:
        return branch.prefix_bits.rstrip("0")
    raise NotSerializable(f"branch {branch!r} has no finite description")


def print_schedule(sched):
    if isinstance(sched, ConstantSchedule):
        return f"const({sched.value})"
    if isinstance(sched, KSSchedule):
        return f"ks({_pattern_text(sched.x)})"
    if isinstance(sched, ExplicitSchedule):
        values = ", ".join(str(v) for v in sched.values)
        tail = "cycle" if sched.tail == "cycle" else f"const({sched.tail[1]})"
        return f"list({values}; {tail})"
    raise NotSerializable(f"schedule {sched!r} has no finite description")


def _payload_text(code):
    bits = code.payload_bits
    if bits is None:
        raise NotSerializable("payload has no declared finite description")
    text = "".join(str(b) for b in bits)
    if text and len(text) % 4 == 0:
        return "0x" + "".join(
            format(int(text[i : i + 4], 2), "x") for i in range(0, len(text), 4)
        )
    return text


def print_measure(code):
    """Canonical DSL text; NotSerializable for opaque oracles."""
    if isinstance(code, Uniform):
        return "uniform"
    if isinstance(code, Dirac):
        return f"dirac({_branch_text(code.branch)})"
    if isinstance(code, FiniteSupport):
        body = ", ".join(f"{s}: {w}" for s, w in code.pairs)
        return f"finite({body})"
    if isinstance(code, Convex):
        body = ", ".join(f"{w}: {print_measure(m)}" for w, m in code.terms)
        return f"convex({body})"
    if isinstance(code, ProductCode):
        return f"product({print_schedule(code.schedule)})"
    if isinstance(code, TableCode):
        items = sorted(code.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if not items:
            items = [("", Fraction(1))]
        body = ", ".join(f"{s} = {v}" for s, v in items)
        return f"table({code.depth}; {body})"
    if isinstance(code, CodedMeasure):
        return f"coded({print_measure(code.base)}; {_payload_text(code)})"
    raise NotSerializable(f"{code!r} has no finite description")
