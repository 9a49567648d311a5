"""Dichotomy evidence for the parameterized product measures.

Two parameter sequences whose weighted difference series
``sum |x(n)-x'(n)|/(n+1)`` converges give equivalent product measures; when
the series diverges the measures are orthogonal.  Divergence is witnessed at
a finite stage; equivalence is only ever asserted from declared metadata
(finitely many differing positions), never guessed from samples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .bits import BitSequence, check_natural, difference_summary
from .dyadic import affinity_bounds
from .errors import Record


def ei_partial_sum(x, y, N):
    """Exact ``sum_{n<N} |x(n)-y(n)|/(n+1)``."""
    check_natural(N, "N")
    return sum(
        (Fraction(1, n + 1) for n in range(N) if x[n] != y[n]), Fraction(0)
    )


class DivergenceCertificate(Record):
    """Least stage at which the difference series reached the target."""

    N: int
    partial_sum: Fraction
    target: Fraction


class Inconclusive(Record):
    """Budget ran out before a decision; carries what was seen: the best gap
    and its depth for orthogonality searches, else only a detail line."""

    best_gap: Fraction = None
    at_depth: int = None
    detail: str = ""


def ei_divergence_certificate(x, y, target, budget):
    """Least ``N <= budget`` whose partial sum reaches ``target``; the series
    is never asserted convergent."""
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target must be positive")
    check_natural(budget, "budget")
    total = Fraction(0)
    for n in range(budget):
        if x[n] != y[n]:
            total += Fraction(1, n + 1)
            if total >= target:
                return DivergenceCertificate(n + 1, total, target)
    return Inconclusive(detail=f"partial sum {total} < {target} at N={budget}")


class EquivalentFiniteDifference(Record):
    """The parameters differ in finitely many positions (so the product
    measures are equivalent); ``last_diff`` is the largest one."""

    last_diff: int


class OrthogonalEvidence(Record):
    cert: DivergenceCertificate


DEFAULT_DIVERGENCE_TARGET = Fraction(3)


def classify_pair(x, y, budget, target=DEFAULT_DIVERGENCE_TARGET):
    """Equivalence from declared finite-difference metadata, orthogonality
    from a divergence certificate, else Inconclusive."""
    check_natural(budget, "budget")
    kind, positions = difference_summary(x, y)
    if kind == "finite" and all(p < budget for p in positions):
        return EquivalentFiniteDifference(max(positions, default=0))
    cert = ei_divergence_certificate(x, y, target, budget)
    if isinstance(cert, DivergenceCertificate):
        return OrthogonalEvidence(cert)
    return cert


# ---------------------------------------------------------------------------
# Hellinger-style partial sums


class HellingerReport(Record):
    N: int
    sum_interval: tuple
    precision_bits: int


def hellinger_partial(a, b, N, precision_bits):
    """Enclosure of ``sum_{n<N} (1 - [sqrt(a_n b_n) + sqrt((1-a_n)(1-b_n))])``
    for two schedules, with outward dyadic rounding.

    Each of the two roots per term is enclosed to ``precision_bits + 1`` bits,
    so the total width is at most ``N * 2**-precision_bits``.
    """
    check_natural(N, "N")
    if precision_bits < 1:
        raise ValueError("precision_bits must be at least 1")
    bits = precision_bits + 1
    lo = Fraction(0)
    hi = Fraction(0)
    for n in range(N):
        bc_lo, bc_hi = affinity_bounds(a.alpha(n), b.alpha(n), bits)
        lo += 1 - bc_hi
        hi += 1 - bc_lo
    return HellingerReport(N, (lo, hi), precision_bits)


# ---------------------------------------------------------------------------
# Perfectly many inequivalent parameters, at desk scale


class BlockBits(BitSequence):
    """Indicator of a union of dyadic blocks: positions ``[2**k, 2**(k+1))``
    are all ones exactly when bit ``k mod len(word)`` of the codeword is 1.
    Position 0 lies in no block and is 0."""

    def __init__(self, word):
        if not word or word.strip("01"):
            raise ValueError(f"bad codeword {word!r}")
        self.word = word

    def __getitem__(self, n):
        if n <= 0:
            return 0
        k = n.bit_length() - 1
        return int(self.word[k % len(self.word)])

    def __repr__(self):
        return f"BlockBits({self.word!r})"


_MIN_BLOCK_DISTANCE = 5


@cache
def _block_codewords(length):
    """Greedy lexicographic binary code of the given length with pairwise
    Hamming distance >= 5."""
    words = []
    for v in range(1 << length):
        if all(bin(v ^ w).count("1") >= _MIN_BLOCK_DISTANCE for w in words):
            words.append(v)
    return words


def perfect_family(count):
    """``count`` parameter sequences, pairwise inequivalent by construction.

    Distinct members disagree on at least 5 of every 12 consecutive dyadic
    blocks (more for longer codewords), so each pair's difference series
    gains close to ``5 ln 2`` per sweep of the codeword and diverges.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    length = 12
    while len(_block_codewords(length)) < count:
        length += 2
    words = _block_codewords(length)
    return [
        BlockBits(format(words[i], "b").zfill(length)[::-1]) for i in range(count)
    ]
