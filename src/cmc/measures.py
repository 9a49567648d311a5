"""Measure codes: exact cylinder evaluation on Cantor space.

A measure code is a map ``f`` from finite binary strings to ``[0,1]`` with
``f('') == 1`` and ``f(s) == f(s+'0') + f(s+'1')``; it determines a unique
Borel probability measure with ``mu(N_s) == f(s)``.  All values are exact
``Fraction``s.  Codes are immutable after construction.  A table reads a
cylinder off its named cells, a point mass by a prefix test; every code but
a point mass memoizes its cylinders, which never changes results.  A string
is checked once, where it enters: ``mass(s)`` checks ``s`` on a memo miss,
while strings the library builds from checked ones are read by ``_read``.

``product_below(s)`` names the schedule of a code's law conditioned on
``N_s`` where that law is a product by construction; gaps sweep there.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from . import bits
from .bits import check_bitstring, check_natural
from .errors import Record, SemanticError
from .schedules import ConstantSchedule, Schedule

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
UNIFORM_SCHEDULE = ConstantSchedule(HALF)  # shared, so mixtures can match it
MAX_NESTING = 64  # mixtures and coded codes nested in a code, at most
NESTING_ERROR = f"mixtures and coded measures nest at most {MAX_NESTING} deep"


def _check_unit(value, what="value"):
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise SemanticError(f"{what} {value} outside [0, 1]")
    return value


class MeasureCode:
    """Base class.  A code given by conditional ratios has ``_split``, which a
    cold cylinder descends by; any other code overrides ``_mass_raw``."""

    def __init__(self):
        self.nesting = 0  # mixtures and coded codes on the deepest path to a leaf
        self._memo = {}
        self._spine = None  # the codec's lazily grown splitting spine, shared by coded layers

    def _nest(self, children):
        self.nesting = 1 + max(child.nesting for child in children)
        if self.nesting > MAX_NESTING:
            raise SemanticError(NESTING_ERROR)

    def mass(self, s):
        try:
            v = self._memo.get(s)
        except TypeError:  # unhashable, so a miss that the check refuses
            v = None
        return self._read(check_bitstring(s)) if v is None else v

    def _read(self, s):
        """``mass(s)``, unchecked: for strings built from checked ones."""
        v = self._memo.get(s)
        if v is None:
            v = self._memo[s] = self._mass_raw(s)
        return v

    def _split(self, s, i):
        """Integers ``(p, q)``, ``q > 0``: ``mass(s[:i])`` is ``p/q`` of the
        parent's; None where the code has no such rule."""
        return None

    def _mass_raw(self, s):
        """The descent: from the deepest memoized ancestor (or the root, of
        mass 1), one conditional ratio per level, to the first zero."""
        memo, m = self._memo, None
        k = len(s) if memo else 0  # an empty memo holds no ancestor: start at the root
        while m is None:
            k -= 1
            m = memo.get(s[:k]) if k > 0 else ONE
        up, down = m.as_integer_ratio()
        if not up:
            return ZERO
        num = den = 1
        bound = 1 << 12  # bits; ratios read off masses telescope, so reduce past it
        for i in range(max(k, 0) + 1, len(s) + 1):
            p, q = self._split(s, i)
            if not p:
                return ZERO
            num, den = num * p, den * q
            if den.bit_length() > bound:
                g = gcd(num, den)
                num, den = num // g, den // g
                bound = max(bound, 2 * den.bit_length())
        if down.bit_length() > 256:  # a long ancestor: one gcd of two long products
            return m * Fraction(num, den)  # costs more than reducing crosswise
        return Fraction(up * num, down * den)

    def product_below(self, s):
        """A schedule whose coordinates ``len(s)..`` give this code's law given
        ``N_s`` when that law is a product by construction, else None."""
        return None


class Dirac(MeasureCode):
    """Point mass on an infinite branch."""

    def __init__(self, branch):
        super().__init__()
        if isinstance(branch, str):
            branch = bits.from_bits(branch)
        self.branch = branch
        self._prefix = ""  # the branch's first bits, grown on demand

    def _mass_raw(self, s):
        prefix = self._prefix
        if len(s) > len(prefix):
            grown = range(len(prefix), max(len(s), 2 * len(prefix)))
            grown = map("01".__getitem__, map(self.branch.__getitem__, grown))  # two cached strs
            prefix = self._prefix = prefix + "".join(grown)
        return ONE if prefix.startswith(s) else ZERO

    _read = _mass_raw  # memoizes nothing

    def __repr__(self):
        return f"Dirac({self.branch!r})"


class Convex(MeasureCode):
    """Convex combination of measure codes."""

    _kind = "convex"

    def __init__(self, terms):
        super().__init__()
        terms = [(_check_unit(w, "weight"), child) for w, child in terms]
        total = sum((w for w, _ in terms), ZERO)
        if total != 1:
            raise SemanticError(f"{self._kind} weights sum to {total}, not 1")
        self.terms = tuple(terms)
        self._nest(child for _, child in terms)

    def _mass_raw(self, s):
        """Every term's mass, in order, summed as one integer pair."""
        num, den = 0, 1
        for w, child in self.terms:
            m = child._read(s)
            (a, b), (c, d) = w.as_integer_ratio(), m.as_integer_ratio()
            num, den = num * b * d + a * c * den, den * b * d
        return Fraction(num, den)

    def product_below(self, s):
        """The one schedule object every term with mass at ``s`` has below it."""
        found = [c.product_below(s) for w, c in self.terms if w and c._read(s)]
        return found[0] if found and all(x is found[0] for x in found) else None

    def __repr__(self):
        return f"Convex({list(self.terms)})"


class FiniteSupport(Convex):
    """Finitely many point masses: a mixture of one ``Dirac`` per leaf string,
    on the branch that extends the leaf with zeros.  ``pairs`` lists the
    leaves and weights in shortlex order of the leaves."""

    _kind = "finite-support"

    def __init__(self, pairs):
        super().__init__((w, Dirac(check_bitstring(leaf))) for leaf, w in pairs)
        key = lambda term: bits.shortlex_key(term[1].branch.prefix_bits)  # the leaf
        self.terms = tuple(sorted(self.terms, key=key))
        self.pairs = tuple((point.branch.prefix_bits, w) for w, point in self.terms)

    def __repr__(self):
        return f"FiniteSupport({list(self.pairs)})"


class ProductCode(MeasureCode):
    """Product measure: independent coordinates with bit-0 probabilities given
    by a schedule."""

    def __init__(self, schedule):
        super().__init__()
        if not isinstance(schedule, Schedule):
            raise TypeError(f"not a schedule: {schedule!r}")
        self.schedule = schedule

    def _split(self, s, i):
        p, q = self.schedule.alpha(i - 1).as_integer_ratio()
        return (p, q) if s[i - 1] == "0" else (q - p, q)

    def product_below(self, s):
        return self.schedule

    def __repr__(self):
        return f"ProductCode({self.schedule!r})"


def product_code(schedule):
    """Measure code of the product measure with the given schedule."""
    return ProductCode(schedule)


class TableCode(MeasureCode):
    """Explicit cylinder table down to a stored depth; below it, mass splits
    uniformly.  Its named cells are each entry, its sibling and its prefixes;
    one that is no entry is derived at construction as its parent less its
    sibling's entry, or else half its parent, as is every other cell.  The
    table itself is trusted; ``validate_additivity`` is the checker."""

    def __init__(self, depth, entries):
        super().__init__()
        if depth < 0:
            raise SemanticError("table depth must be a natural number")
        self.depth = depth
        self.entries = {}
        for key, value in entries.items():
            check_bitstring(key)
            if len(key) > depth:
                raise SemanticError(f"table entry {key!r} deeper than {depth}")
            self.entries[key] = _check_unit(value, f"table entry {key!r}")
        entries = self.entries
        named = {key[:i] for key in entries for i in range(1, len(key) + 1)}
        cells = self._cells = {"": entries.get("", ONE)}
        for t in sorted(named | {bits.sibling(key) for key in entries if key}, key=len):
            v, sib = cells[t[:-1]], bits.sibling(t)
            cells[t] = entries[t] if t in entries else v - entries[sib] if sib in entries else v / 2
        self._reach = max(map(len, cells))  # no longer prefix is named

    def _split(self, s, i):
        return (1, 2) if i > self._reach or s[:i] not in self._cells else None

    def _mass_raw(self, s):
        """The deepest named prefix's mass, halved once per level below it."""
        cells, k = self._cells, min(len(s), self._reach)
        while s[:k] not in cells:
            k -= 1
        v = cells[s[:k]]
        if k == len(s):
            return v
        n, q = v.as_integer_ratio()
        return Fraction(n, q << (len(s) - k))

    def product_below(self, s):
        return UNIFORM_SCHEDULE if len(s) >= self.depth else None

    def __repr__(self):
        return f"TableCode({self.depth}, {self.entries})"


class Uniform(TableCode):
    """The fair-coin measure: the table with no entries."""

    def __init__(self):
        super().__init__(0, {})

    def __repr__(self):
        return "Uniform()"


# ---------------------------------------------------------------------------
# Operations


class ExactSum(dict):
    """An exact sum of rationals ``n / d``, ``d > 0``, kept as the total
    numerator per denominator: a term pays no gcd, and ``value`` builds one
    ``Fraction`` over the lcm of the denominators."""

    def add(self, n, d):
        self[d] = self.get(d, 0) + n

    def value(self):
        den = lcm(*self)
        return Fraction(sum(n * (den // d) for d, n in self.items()), den)


def eval_cylinder(code, s):
    """``mu(N_s)`` as an exact rational."""
    return code.mass(s)


class Violation(Record):
    """First additivity (or normalization) failure, in shortlex order.

    For a normalization failure ``s`` is the empty string with ``lhs`` the
    evaluated root mass and ``rhs`` 1; for an additivity failure ``lhs`` is the
    parent mass and ``rhs`` the sum of the children.
    """

    s: str
    lhs: Fraction
    rhs: Fraction


def validate_additivity(code, depth):
    """Check ``f('') == 1`` and additivity at every string of length < depth.

    Returns ``"ok"`` or the first :class:`Violation` in shortlex order.
    """
    check_natural(depth, "depth")
    root = code._read("")
    if root != 1:
        return Violation("", root, ONE)
    for n in range(depth):
        for s in bits.all_strings_of_length(n):
            lhs, left, right = code._read(s), code._read(s + "0"), code._read(s + "1")
            (a, b), (c, d), (e, f) = (m.as_integer_ratio() for m in (lhs, left, right))
            if a * d * f != (c * f + e * d) * b:  # lhs != left + right, crosswise
                return Violation(s, lhs, left + right)
    return "ok"


class CylinderFamily(Record):
    """A finite union of cylinders, given by any list of index strings."""

    strings: tuple

    def __init__(self, strings):
        object.__setattr__(self, "strings", tuple(check_bitstring(s) for s in strings))

    def canonical(self):
        """Shortlex-sorted antichain with the same union: duplicates and
        strings nested inside shorter members are dropped."""
        keep = {}  # an ordered set: each string is probed with its proper prefixes
        for s in sorted(set(self.strings), key=bits.shortlex_key):
            if not any(s[:n] in keep for n in range(len(s))):
                keep[s] = None
        return tuple(keep)

    def __iter__(self):
        return iter(self.strings)

    def __len__(self):
        return len(self.strings)


def measure_of_family(code, family):
    """Exact mass of a finite union of cylinders."""
    if not isinstance(family, CylinderFamily):
        family = CylinderFamily(family)
    total = ExactSum()
    for s in family.canonical():
        total.add(*code._read(s).as_integer_ratio())
    return total.value()


def metric_bracket(f, g, N):
    """Enclosure of the code metric ``d(f,g) = sum 2**-(n+1) |f(s_n)-g(s_n)|``.

    Returns ``(lo, hi)`` with ``lo`` the exact partial sum over the first ``N``
    strings and ``hi = lo + 2**-N`` (the tail is at most the remaining
    geometric mass).  Each code reads each string once, level by level in
    shortlex order, each level built from the one above.  A nonzero term,
    shifted left by ``N-1-n`` bits, joins one :class:`ExactSum` over the
    product of the two masses' denominators, divided by ``2**N`` at the end.
    """
    check_natural(N, "N")
    total, level, n = ExactSum(), [""][:N], 0
    while level:
        for n, s in enumerate(level, n):
            (an, ad), (bn, bd) = f._read(s).as_integer_ratio(), g._read(s).as_integer_ratio()
            diff = an * bd - bn * ad
            if diff:
                total.add(abs(diff) << (N - 1 - n), ad * bd)
        n += 1  # the strings read so far
        level = [t + c for t in level[: (N - n + 1) // 2] for c in "01"][: N - n]
    lo = total.value() / (1 << N)
    return lo, lo + Fraction(1, 1 << N)


# ---------------------------------------------------------------------------
# The dense family of finitely supported rational codes


def _compositions(total, parts):
    """All ``parts``-vectors of naturals summing to ``total``, in ascending lex
    order: stars and bars, whose bar positions in lex order give it."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))


def _dense_units():
    """Finitely supported rational distributions, diagonally by
    (level, common denominator), numerator vectors in lexicographic order."""
    for diag in itertools.count(1):
        for level in range(diag):
            denom = diag - level
            leaves = bits.all_strings_of_length(level)
            for numerators in _compositions(denom, len(leaves)):
                yield [(leaf, Fraction(c, denom)) for leaf, c in zip(leaves, numerators) if c]


_dense_cache = []
_dense_iter = _dense_units()


def enumerate_dense(i):
    """The ``i``-th member of the fixed countable dense family of codes.

    Every member is finitely supported: a rational distribution on some level
    ``2**n``, each leaf's weight carried by its all-zeros extension.
    """
    if i < 0:
        raise ValueError("index must be a natural number")
    while len(_dense_cache) <= i:
        _dense_cache.append(FiniteSupport(next(_dense_iter)))
    return _dense_cache[i]
