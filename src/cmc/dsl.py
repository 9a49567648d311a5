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
1-based line and column of the failure plus the expected tokens.  The parser
raises the ``Diagnostic`` where the failure occurs, at the offending token,
and each entry point catches it and returns it.  Semantic failures inside
structurally valid text (weights not summing to one, values out of range)
raise ``SemanticError``.  A form's code is built only once its closing
parenthesis is read, so a form's ``SemanticError`` comes after any syntax
error inside the form; a duplicate table key is refused just before the
table's ``)``.

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
    MAX_NESTING,
    NESTING_ERROR,
    Convex,
    Dirac,
    FiniteSupport,
    ProductCode,
    TableCode,
    Uniform,
)
from .schedules import ConstantSchedule, ExplicitSchedule, KSSchedule, ks_schedule

_KEYWORD = re.compile(r"[a-z]*")
_DIGITS = re.compile(r"[0-9]*")
_BITS = re.compile(r"[01]*")
_PAYLOAD = re.compile(r"0x[0-9a-fA-F]*|[01]*")

_MEASURE_KEYWORDS = ("uniform", "dirac", "finite", "convex", "product", "table", "coded")
_SCHEDULE_KEYWORDS = ("const", "ks", "list")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message, *expected):
        text, pos = self.text, self.pos
        column = pos - text.rfind("\n", 0, pos)
        raise Diagnostic(message, text.count("\n", 0, pos) + 1, column, expected)

    def skip(self):
        """Move past whitespace; the position of the next token."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos
        return pos

    def peek(self, token):
        return self.text.startswith(token, self.skip())

    def take(self, token):
        found = self.text.startswith(token, self.skip())
        if found:
            self.pos += len(token)
        return found

    def lit(self, token):
        if not self.take(token):
            self.fail(f"expected {token!r}", token)

    def read(self, pattern):
        """Consume and return the match of ``pattern`` at the next token, maybe ''."""
        word = pattern.match(self.text, self.skip()).group()
        self.pos += len(word)
        return word

    def keyword(self, choices):
        word = self.read(_KEYWORD)
        if word not in choices:
            self.pos -= len(word)
            self.fail("expected a keyword", *choices)
        return word

    def bits(self):
        return self.read(_BITS)

    def unsigned(self):
        digits = self.read(_DIGITS)
        if not digits:
            self.fail("expected an integer", "integer")
        return int(digits)

    def rational(self):
        n = -self.unsigned() if self.take("-") else self.unsigned()
        if not self.take("/"):
            return Fraction(n)
        at = self.skip()
        den = self.unsigned()
        if not den:
            self.pos = at
            self.fail("expected a positive denominator", "positive integer")
        return Fraction(n, den)

    # grammar productions ---------------------------------------------------

    def measure(self, nesting=0):
        kw = self.keyword(_MEASURE_KEYWORDS)
        if kw == "uniform":
            return Uniform()
        if kw in ("finite", "convex", "coded") and nesting == MAX_NESTING:
            self.pos -= len(kw)
            self.fail(NESTING_ERROR, "uniform", "dirac", "product", "table")
        self.lit("(")
        if kw == "dirac":
            make, args = Dirac, [self.bits()]
        elif kw == "finite":
            pairs = self._entries(lambda: (self.bits(), self._after(":", self.rational)))
            make, args = FiniteSupport, [pairs]
        elif kw == "convex":
            term = lambda: (self.rational(), self._after(":", lambda: self.measure(nesting + 1)))
            make, args = Convex, [self._entries(term)]
        elif kw == "product":
            make, args = ProductCode, [self.schedule()]
        elif kw == "table":
            depth = self.unsigned()
            self.lit(";")
            entries = {}
            for key, value in self._entries(lambda: (self.bits(), self._after("=", self.rational))):
                if key in entries:
                    raise SemanticError(f"duplicate table entry {key!r}")
                entries[key] = value
            make, args = TableCode, [depth, entries]
        else:
            make, args = encode, [self.measure(nesting + 1), self._after(";", self.payload)]
        self.lit(")")
        return make(*args)

    def _after(self, token, production):
        self.lit(token)
        return production()

    def _entries(self, entry, close=")"):
        """``entry``, then more after commas; a comma may come last before ``close``."""
        out = [entry()]
        while self.take(",") and not self.peek(close):
            out.append(entry())
        return out

    def schedule(self):
        kw = self.keyword(_SCHEDULE_KEYWORDS)
        self.lit("(")
        if kw == "const":
            make, args = ConstantSchedule, [self.rational()]
        elif kw == "ks":
            make, args = ks_schedule, [self.pattern()]
        else:
            values = self._entries(self.rational, ";")
            make, args = ExplicitSchedule, [values, self._after(";", self.tailrule)]
        self.lit(")")
        return make(*args)

    def tailrule(self):
        if self.keyword(("const", "cycle")) == "cycle":
            return "cycle"
        self.lit("(")
        value = self.rational()
        self.lit(")")
        return ("const", value)

    def pattern(self):
        w = self.bits()
        if self.take("("):
            period = self.bits()
            if not period:
                self.fail("expected bits in the repeat group", "bits")
            self.lit(")")
            self.lit("*")
            return PeriodicBits(w, period)
        if self.take("*"):
            if not w:
                self.fail("expected bits before '*'", "bits")
            return PeriodicBits(w[:-1], w[-1])
        return PeriodicBits(w, "0")

    def payload(self):
        word = self.read(_PAYLOAD)
        if not word.startswith("0x"):
            return tuple(map(int, word))
        if word == "0x":
            self.fail("expected hex digits after '0x'", "hex digits")
        return tuple(int(bit) for c in word[2:] for bit in format(int(c, 16), "04b"))


def _run(source, production):
    p = _Parser(source)
    try:
        out = production(p)
        if p.skip() != len(source):
            p.fail("unexpected trailing input", "end of input")
    except Diagnostic as err:
        return err
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
