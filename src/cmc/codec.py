"""Splitting-node spines and the measure-class-preserving bitstring codec.

A splitting node of a measure is a string whose two child cylinders both have
positive mass.  Following the chain ``t_{k+1} = least splitting node extending
t_k + '0'`` yields the spine; the encoder rescales the two children at the
k-th spine node to an exact 2/3-1/3 split oriented by the k-th payload bit and
leaves all other conditional masses unchanged, so it keeps the base's zero
sets, measure class and spine.  The decoder reads the orientation back off the
exact ratios, memoizing no node.  One cursor finds the spine down the leftmost
branch of positive mass and holds it once, as that branch and its nodes'
depths (``_SpineCache``), for the innermost uncoded base and its coded layers.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .bits import BitSequence, check_bitstring, check_natural, sibling
from .errors import BudgetExceeded, NotInCodingDomain, Record, ZeroMass
from .measures import MeasureCode, ZERO

DEFAULT_BUDGET = 65536


class _SpineCache:
    """Lazily grown spine of one measure class, held once as ``path``.

    A cursor walks the leftmost branch of positive mass below the search
    start, one level past the last node found (the root before any).  A node
    that does not split has at most one child of positive mass, so the branch
    has one string per level; it turns to ``'0'`` at every node, and ``path``
    runs from the root to the cursor.  ``depths`` lists the node lengths, each
    a prefix of ``path``, ``index`` maps each to its place and ``ended`` marks
    a branch that ends (at once, where the root has no mass).  The walk resumes
    where it stopped and memoizes nothing; it holds its code weakly, so that a
    code and its spine form no reference cycle.
    """

    def __init__(self, code):
        self.code = weakref.ref(code)
        self.path, self.depths, self.index, self.ended = "", [], {}, code._mass_raw("") <= 0

    def __getstate__(self):  # a pickle or deep copy carries the code itself
        return {**vars(self), "code": self.code()}

    def __setstate__(self, state):
        vars(self).update(state, code=weakref.ref(state["code"]))

    def _step(self, budget):
        """Move the cursor one level down, recording it as the next node if
        it splits; BudgetExceeded once it is over ``budget`` levels past the
        search start."""
        t = self.path
        start = self.depths[-1] + 1 if self.depths else 0
        if len(t) - start > budget:
            raise BudgetExceeded(
                f"no splitting node extending {t[:start]!r} within {budget} levels"
            )
        children = t + "0", t + "1"
        left, right = map(self._child, children)
        if left and right:
            self.index[len(t)] = len(self.depths)
            self.depths.append(len(t))
        self.ended = not (left or right)
        self.path = t if self.ended else children[0 if left else 1]

    def _child(self, c):
        """Whether child ``c`` has positive mass; the cursor's is, so a rule's sign decides."""
        code = self.code()
        rule = code._split(c, len(c))
        return code._mass_raw(c).numerator > 0 if rule is None else rule[0] > 0

    def extend(self, budget, count=0, length=None):
        """Search on until at least ``count`` nodes are known and, when
        ``length`` is given, the last of them is at least that long; raises
        BudgetExceeded where the spine ends."""
        depths = self.depths
        while len(depths) < count or (length is not None and (not depths or depths[-1] < length)):
            if self.ended:
                raise BudgetExceeded("spine ended: no further splitting node")
            self._step(budget)


def _spine_cache(code):
    if code._spine is None:
        code._spine = _SpineCache(code)
    return code._spine


class SplittingSpine(Record):
    """Nodes ``t_0 .. t_n`` of a measure's splitting spine."""

    nodes: tuple
    base: MeasureCode


def spine(code, n, budget=DEFAULT_BUDGET):
    """The first ``n+1`` spine nodes of ``code``.

    ``t_0`` is the least splitting node at all (the root, when the root
    splits); thereafter ``t_{k+1}`` extends ``t_k + '0'``.
    """
    check_natural(n, "spine index")
    cache = _spine_cache(code)
    cache.extend(check_natural(budget, "budget"), count=n + 1)
    return SplittingSpine(tuple(cache.path[:d] for d in cache.depths[: n + 1]), code)


class CodedMeasure(MeasureCode):
    """The encoded measure: the base with payload bits stamped into its spine.

    At the k-th spine node of the base the child masses are exactly
    ``{2/3, 1/3}`` of the parent, child 0 getting 2/3 when payload bit k is 1;
    everywhere else conditional masses equal the base's.
    """

    def __init__(self, base, payload, budget=DEFAULT_BUDGET):
        super().__init__()
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.base = base
        self._nest((base,))
        if isinstance(payload, tuple) and all(b in (0, 1) for b in payload):
            payload = tuple(map(int, payload))
        elif not isinstance(payload, BitSequence):  # any other tuple fails the check
            payload = tuple(map(int, check_bitstring(payload)))
        self.payload = payload
        self.budget = budget
        # declared payload bits, when finite (used by the serializer); a finite
        # payload stamps only its own spine nodes and leaves the rest alone
        self.payload_bits = tuple(payload) if hasattr(payload, "__len__") else None
        self._spine = _spine_cache(base)  # encoding keeps the base's spine

    def _spine_index_of(self, s):
        """Index of ``s`` in the base's spine, or None.  Moves the base's
        spine cursor only while ``s`` extends it: every node not yet found
        extends the cursor, so once it has ended, is longer than ``s`` or is
        off the branch of ``s``, the nodes found decide.  No node past a finite
        payload's last stamped one is stamped, so the cursor stops there."""
        cache, bits = self._spine, self.payload_bits
        while not cache.ended and s.startswith(cache.path):
            if bits is not None and len(cache.depths) >= len(bits):
                break
            cache._step(self.budget)
        return cache.index.get(len(s)) if cache.path.startswith(s) else None

    def _split(self, s, i):
        """The stamped 2/3-1/3 split at a spine node that the payload reaches,
        else the base's conditional ratio, by its rule or from its masses."""
        base, u = self.base, s[: i - 1]
        if i == 1 and not base._mass_raw(""):
            return 0, 1
        k, bits = self._spine_index_of(u), self.payload_bits
        if k is not None and (bits is None or k < len(bits)):
            return (2, 3) if (s[i - 1] == "0") == (self.payload[k] == 1) else (1, 3)
        rule = base._split(s, i)
        if rule is None:
            (a, b), (c, d) = base._read(s[:i]).as_integer_ratio(), base._read(u).as_integer_ratio()
            rule = (a * d, b * c) if c > 0 else (-a * d, -b * c)
        return rule

    def product_below(self, s):
        """The base's schedule below ``s`` once no stamped spine node extends
        ``s``.  Past ``_spine_index_of(s)`` the cursor has ended, is longer
        than ``s`` or is off its branch, and every node not yet known extends it."""
        self._spine_index_of(s)
        cache, bits = self._spine, self.payload_bits
        stamped = len(cache.depths) if bits is None else min(len(cache.depths), len(bits))
        reach = cache.depths[stamped - 1] if stamped else -1  # the last stamped node's length
        if not cache.ended and (bits is None or len(cache.depths) < len(bits)):
            reach = len(cache.path)  # the cursor's, which every node not yet found extends
        on_spine = len(s) <= reach and cache.path.startswith(s)
        return None if on_spine else self.base.product_below(s)

    def __repr__(self):
        return f"CodedMeasure({self.base!r}, {self.payload!r}, budget={self.budget})"


def encode(base, payload, budget=DEFAULT_BUDGET):
    """Stamp ``payload`` into ``base``'s spine; lazy, fails with
    BudgetExceeded on evaluation if the base stops splitting."""
    if base._read("") != 1:
        raise ZeroMass("base is not normalized: f('') != 1")
    return CodedMeasure(base, payload, budget)


def decode(g, k, budget=DEFAULT_BUDGET):
    """First ``k`` payload bits read off the spine of ``g``.

    Raises NotInCodingDomain at the first spine node where neither exact
    ratio pattern holds.  The ratios are read by the code's rule, else from
    unmemoized masses, so no node is memoized.
    """
    check_natural(k, "k")
    cache = _spine_cache(g)
    cache.extend(check_natural(budget, "budget"), count=k)
    out = []
    for n, depth in enumerate(cache.depths[:k]):
        node = cache.path[:depth]
        ratio = lambda c: g._split(c, depth + 1) or (g._mass_raw(c), g._mass_raw(node))
        (a, b), (c, d) = ratio(node + "0"), ratio(node + "1")
        if 3 * a == 2 * b and 3 * c == d:
            out.append("1")
        elif 3 * a == b and 3 * c == 2 * d:
            out.append("0")
        else:
            raise NotInCodingDomain(n, node)
    return "".join(out)


def in_coding_domain(g, k, budget=DEFAULT_BUDGET):
    """True iff the first ``k`` spine ratio checks pass exactly; otherwise
    ``(False, n, t_n)`` with the first failing index and node."""
    try:
        decode(g, k, budget)
    except NotInCodingDomain as err:
        return (False, err.index, err.node)
    return True


def density(g, s):
    """Cylinder mass ratio ``g(s)/f(s)`` against the base (0 where the base
    vanishes)."""
    if not isinstance(g, CodedMeasure):
        raise TypeError("density is defined for encoded measures")
    c, d = g.base._read(check_bitstring(s)).as_integer_ratio()
    if not c:
        return ZERO
    a, b = g._read(s).as_integer_ratio()
    return Fraction(a * d, b * c)


class Stabilized(Record):
    theta: Fraction


class NotYetStable:
    """The prefix still lies on the base's spine path; the density ratio can
    change further down."""

    def __repr__(self):
        return "NotYetStable()"


NOT_YET_STABLE = NotYetStable()


def density_limit(g, prefix):
    """Stabilized density below ``prefix`` once it has branched off the base's
    spine path; NotYetStable while the prefix is an initial segment of it."""
    if not isinstance(g, CodedMeasure):
        raise TypeError("density_limit is defined for encoded measures")
    g._spine.extend(g.budget, length=len(check_bitstring(prefix)))
    return NOT_YET_STABLE if g._spine.path.startswith(prefix) else Stabilized(density(g, prefix))


def offspine_decomposition(code, depth, budget=DEFAULT_BUDGET):
    """Strings of length <= depth whose parent is on the spine path but which
    leave it: the roots of the cylinders on which the encoder's density ratio
    is constant.  Together with the depth-``depth`` spine prefix they cover
    everything."""
    if check_natural(depth, "depth") == 0:
        return []
    cache = _spine_cache(code)
    cache.extend(check_natural(budget, "budget"), length=depth)
    return [sibling(cache.path[:j]) for j in range(1, depth + 1)]
