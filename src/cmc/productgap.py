"""Factorized depth-d total-variation computations for product measures.

For two product measures and the level-d cell set ``A = {cells with nu > mu}``
these routines return the exact pair ``(mu(A), nu(A))`` without enumerating
all ``2**d`` cells:

* both schedules constant: cells group by their zero-count (binomial form);
* otherwise: split the coordinates in half, enumerate the ``2**(d/2)`` partial
  products per half as integer numerators over one common denominator, sort
  both halves by likelihood ratio, and sweep one half against the other with
  suffix sums.  The sort is a float-log presort, confirmed pair by pair in
  exact arithmetic; everything else stays in integer arithmetic until the end.

``tv_upper_bound`` gives a sound rational upper bound on the depth-d gap for
every depth at once, via the product of per-coordinate Bhattacharyya
affinities: the gap can never exceed ``sqrt(1 - affinity**2)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, log
from operator import gt, lt, mul, sub

from .dyadic import sqrt_bounds

MIM_MAX_DEPTH = 44  # 2**(d/2) partial products per half


def binomial_masses(a, b, d):
    """(mu(A), nu(A)) for constant bit-0 probabilities ``a`` and ``b``."""
    mu_a = Fraction(0)
    nu_a = Fraction(0)
    for zeros in range(d + 1):
        mu = a**zeros * (1 - a) ** (d - zeros)
        nu = b**zeros * (1 - b) ** (d - zeros)
        if nu > mu:
            n = comb(d, zeros)
            mu_a += n * mu
            nu_a += n * nu
    return mu_a, nu_a


def _build_half(aprobs, bprobs, levels):
    """Cell numerators for one block of coordinates, plus the two common
    denominators."""
    mu, nu = [1], [1]
    mu_den = nu_den = 1
    for n in levels:
        a, b = aprobs[n], bprobs[n]
        a0, a1 = a.numerator, a.denominator - a.numerator
        b0, b1 = b.numerator, b.denominator - b.numerator
        mu = [x * a0 for x in mu] + [x * a1 for x in mu]
        nu = [x * b0 for x in nu] + [x * b1 for x in nu]
        mu_den *= a.denominator
        nu_den *= b.denominator
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
    """(mu(A), nu(A)) by meet-in-the-middle over the two coordinate halves."""
    if d == 0:
        return Fraction(0), Fraction(0)
    if d > MIM_MAX_DEPTH:
        raise ValueError(f"depth {d} beyond factorized-sweep limit {MIM_MAX_DEPTH}")
    mid = d // 2
    mu1, nu1, mud1, nud1 = _build_half(aprobs, bprobs, range(mid))
    mu2, nu2, mud2, nud2 = _build_half(aprobs, bprobs, range(mid, d))

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
    for n in range(d):
        a, b = aprobs[n], bprobs[n]
        l1, _ = sqrt_bounds(a * b, bits)
        l2, _ = sqrt_bounds((1 - a) * (1 - b), bits)
        bc_lo *= l1 + l2
        if bc_lo <= 0:
            return Fraction(1)
    if bc_lo >= 1:
        return Fraction(0)
    _, hi = sqrt_bounds(1 - bc_lo * bc_lo, bits)
    return min(hi, Fraction(1))
