"""Outward-rounded dyadic enclosures for the few irrational quantities we
ever need (square roots), built on integer square roots."""

from fractions import Fraction
from math import isqrt


def sqrt_bounds(q, bits):
    """Dyadic ``(lo, hi)`` with ``lo <= sqrt(q) <= hi`` and ``hi - lo <=
    2**-bits`` (exact dyadic square roots give a degenerate interval)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    a, b = q.numerator, q.denominator
    # floor(2**bits * sqrt(a/b)) == floor(floor(sqrt(a*b*4**bits)) / b)
    d = isqrt((a * b) << (2 * bits)) // b
    lo = Fraction(d, 1 << bits)
    if d * d * b == a << (2 * bits):  # lo * lo == q
        return lo, lo
    return lo, Fraction(d + 1, 1 << bits)


def affinity_bounds(a, b, bits):
    """Dyadic ``(lo, hi)`` around the affinity ``sqrt(a*b) + sqrt((1-a)*(1-b))``
    of two coins, each root enclosed by ``sqrt_bounds`` to ``bits`` bits."""
    l1, h1 = sqrt_bounds(a * b, bits)
    l2, h2 = sqrt_bounds((1 - a) * (1 - b), bits)
    return l1 + l2, h1 + h2
