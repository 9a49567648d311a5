"""Factorized depth-d total-variation computations for product measures.

For two product measures and the level-d cell set ``A = {cells with nu > mu}``
``mim_masses`` returns the exact pair ``(mu(A), nu(A))`` without enumerating
all ``2**d`` cells, in one sweep.  Coordinates with equal bit-0 probabilities
do not change any cell's likelihood ratio, so they sum out; the rest group by
their probability pair, and a class of ``c`` coordinates enters only through
its zero count, as ``c + 1`` cells with binomial weights.  The classes are
split into two halves, each half's cells are enumerated as integer numerators
over one common denominator, both halves are sorted by likelihood ratio, and
one half is swept against the other with suffix sums (meet in the middle).
The sort is a float-log presort, confirmed pair by pair in exact arithmetic;
everything else stays in integer arithmetic until the end.

``tv_upper_bound`` gives a sound rational upper bound on the depth-d gap for
every depth at once, via the product of per-coordinate Bhattacharyya
affinities: the gap can never exceed ``sqrt(1 - affinity**2)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import comb, isqrt, log, prod
from operator import gt, lt, mul, sub

from .dyadic import sqrt_bounds
from .errors import BudgetExceeded

MIM_MAX_CELLS = 1 << 22  # cells per half, as for 44 differing coordinates
MIM_MAX_BITS = 1 << 33  # bits of cell numerators per half: enough for any ks pair at depth 44


def _build_half(classes):
    """Cell numerators for a block of coordinate classes, plus the two common
    denominators.  A class ``((a, b), c)`` of ``c`` coordinates gives one
    cell per zero count ``k``, weighted by ``comb(c, k)`` in both measures."""
    mu, nu = [1], [1]
    mu_den = nu_den = 1
    for (a, b), c in classes:
        a0, a1 = a.numerator, a.denominator - a.numerator
        b0, b1 = b.numerator, b.denominator - b.numerator
        ks = range(c, -1, -1)
        mu = [x * w for w in [comb(c, k) * a0**k * a1 ** (c - k) for k in ks] for x in mu]
        nu = [x * w for w in [comb(c, k) * b0**k * b1 ** (c - k) for k in ks] for x in nu]
        mu_den *= a.denominator**c
        nu_den *= b.denominator**c
    return mu, nu, mu_den, nu_den


def _ratio_sort(nu, mu, reverse=False):
    """The cells ``(nu, mu)`` in exact order of ``nu / mu``, ascending unless
    ``reverse``, as two lists.

    The float ``log(nu) - log(mu)`` only presorts; ``nu / mu`` as a float
    would overflow at deep levels.  Every adjacent pair is then confirmed by
    one exact cross-multiplication, and if any pair is out of order an exact
    insertion pass moves the misplaced cells, so the float never decides the
    order.
    """
    key = list(map(sub, map(log, nu), map(log, mu)))
    order = sorted(range(len(nu)), key=key.__getitem__, reverse=reverse)
    nu = list(map(nu.__getitem__, order))
    mu = list(map(mu.__getitem__, order))
    misplaced = lt if reverse else gt
    if any(map(misplaced, map(mul, nu, mu[1:]), map(mul, nu[1:], mu))):
        for k in range(1, len(nu)):
            n, m = nu[k], mu[k]
            j = k
            while j and misplaced(nu[j - 1] * m, n * mu[j - 1]):
                nu[j], mu[j] = nu[j - 1], mu[j - 1]
                j -= 1
            nu[j], mu[j] = n, m
    return nu, mu


def mim_masses(aprobs, bprobs, d):
    """(mu(A), nu(A)) by meet-in-the-middle over the first ``d`` coordinates,
    grouped by their probability pair ``(a_n, b_n)``.  The probabilities may
    be iterators; they are read no further than the limits need."""
    counts = {}  # (a, b) with a != b -> coordinates, in order of first appearance
    total = 1  # cells of both halves together
    for pair in islice(zip(aprobs, bprobs), d):
        if pair[0] != pair[1]:
            c = counts[pair] = counts.get(pair, 0) + 1
            total = total // c * (c + 1)
            if total > MIM_MAX_CELLS**2:
                break  # the larger half holds at least sqrt(total) cells
    classes = list(counts.items())
    # half 1 takes whole classes, in order, while it holds at most sqrt(total) cells
    limit = isqrt(total)
    half = sum(s <= limit for s in accumulate((c + 1 for _, c in classes), mul))
    halves = classes[:half], classes[half:]
    for part in halves:
        cells = prod(c + 1 for _, c in part)
        bits = sum(c * (a.denominator * b.denominator).bit_length() for (a, b), c in part)
        if cells > MIM_MAX_CELLS or cells * bits > MIM_MAX_BITS:
            raise BudgetExceeded(
                f"depth {d} needs more than {MIM_MAX_CELLS} cells or {MIM_MAX_BITS} "
                f"bits in one half of the product sweep"
            )
    mu1, nu1, mud1, nud1 = _build_half(halves[0])
    mu2, nu2, mud2, nud2 = _build_half(halves[1])

    nu2, mu2 = _ratio_sort(nu2, mu2)
    n2 = len(nu2)
    suf_mu = list(accumulate(reversed(mu2), initial=0))[::-1]
    suf_nu = list(accumulate(reversed(nu2), initial=0))[::-1]

    nu1, mu1 = _ratio_sort(nu1, mu1, reverse=True)
    mu_den = mud1 * mud2
    nu_den = nud1 * nud2
    # A cell is in A iff nu1*nu2/nu_den > mu1*mu2/mu_den.  Half-1 thresholds
    # ascend along the sorted half 1, so j, the first half-2 partner in A,
    # only advances.  Many half-1 cells share one j: they are summed per j,
    # and each suffix sum is multiplied once.
    mu_at = [0] * (n2 + 1)
    nu_at = [0] * (n2 + 1)
    j = 0
    for n1, m1 in zip(nu1, mu1):
        lhs = n1 * mu_den
        rhs = m1 * nu_den
        while j < n2 and lhs * nu2[j] <= rhs * mu2[j]:
            j += 1
        mu_at[j] += m1
        nu_at[j] += n1
    mu_num = sum(map(mul, mu_at, suf_mu))
    nu_num = sum(map(mul, nu_at, suf_nu))
    return Fraction(mu_num, mu_den), Fraction(nu_num, nu_den)


def tv_upper_bound(aprobs, bprobs, d, bits=48):
    """Rational bound: for every depth d' <= d, the depth-d' gap is at most
    the returned value."""
    bc_lo = Fraction(1)
    for a, b in islice(zip(aprobs, bprobs), d):
        l1, _ = sqrt_bounds(a * b, bits)
        l2, _ = sqrt_bounds((1 - a) * (1 - b), bits)
        bc_lo *= l1 + l2
        if bc_lo <= 0:
            return Fraction(1)
    if bc_lo >= 1:
        return Fraction(0)
    _, hi = sqrt_bounds(1 - bc_lo * bc_lo, bits)
    return min(hi, Fraction(1))
