"""Factorized depth-d total-variation computations for product measures.

For two product measures and the level-d cell set ``A = {cells with nu > mu}``
``mim_masses`` returns the exact pair ``(mu(A), nu(A))`` without enumerating
all ``2**d`` cells, in one sweep.  Coordinates with equal bit-0 probabilities
do not change any cell's likelihood ratio, so they sum out; the rest group by
their probability pair, and a class of ``c`` coordinates enters only through
its zero count, as ``c + 1`` cells with binomial weights.  The classes are
split into two halves.  Half 1, never the larger, is enumerated as integer
numerators over one common denominator and sorted by likelihood ratio, each
run of exact ties merged into one cell; only its float keys and the suffix
sums of its numerators are kept, a cell being the difference of two suffix
sums.  Half 2 is never stored: each of its cells is an outer-table cell times
an inner-table cell, the inner table the first classes that reach ``2**10``
cells (or all of half 2).  Each block, one outer cell times the inner table,
is matched by bisection against half 1 (meet in the middle).

Ordering tests compare float keys first.  For an int ``n >= 1`` of ``b`` bits,
``math.log`` rounds ``n`` to a double, or to a 53-bit mantissa times ``2**e``
when ``n`` overflows one, and adds ``e * log(2)``; with a libm ``log`` within
one ulp its result is within ``2**-50 * (1 + b)`` of ``ln n``.  No cell
numerator is logged: a cell's key, near ``log(nu) - log(mu)``, is the seed's
key plus ``k * g0 + (c - k) * g1`` for each class ``((a0, ad), (b0, bd))`` of
``c`` coordinates, ``k`` of them 0, with ``g0 = log(b0) - log(a0)`` and ``g1 =
log(bd - b0) - log(ad - a0)``; ``shift`` logs the denominators.  There are ``G
<= 44`` classes (``total <= 2**44``), and each coordinate adds a bit or more
to ``B``, the larger denominator's bit length, so ``G < B``.  A log of ``p``
taken ``k`` times errs by ``k * (1 + bits(p)) <= bits(p**k) + 2 * k`` units of
``2**-50``; as ``b0**k * (bd - b0)**(c - k) <= bd**c``, one measure's class
logs in a key err by ``3 * (B + G)`` units at most.  With the seed's and
``shift``'s, the logs in a sweep comparison err by under ``16 * (1 + B)``
units, in a sort comparison of two half-1 keys by ``28 * (1 + B)``.  At most
271 rounded operations (``6 * G + 7``) on floats below ``16 * (1 + B)`` add
``2**-49 * (1 + B)`` each, so compared floats err by less than ``2**-40 * (1 +
B)``, ``2**-10`` of the band ``GUARD * (1 + B)``: keys further apart are in
exact order, closer ones (exact ties too) are cross-multiplied, and a float
never decides which cells are in ``A``.

``tv_upper_bound`` gives a sound rational upper bound on the depth-d gap for
every depth at once, via the product of per-coordinate Bhattacharyya
affinities: the gap can never exceed ``sqrt(1 - affinity**2)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import inf, isqrt, log, prod
from operator import le, mul, sub

from .dyadic import affinity_bounds, sqrt_bounds
from .errors import BudgetExceeded

# both halves are limited, though only half 1 is held, so the same depths answer
MIM_MAX_CELLS = 1 << 22  # cells per half, as for 44 differing coordinates
MIM_MAX_BITS = 1 << 33  # bits of cell numerators per half: enough for any ks pair at depth 44
GUARD = 2.0**-30  # float comparisons defer to exact ones within GUARD * (1 + bits)


def _weights(c, *pairs):
    """Per pair ``(p, q)``, ``comb(c, k) * p**k * q**(c - k)`` for ``k = c, ..., 0``."""
    if c == 1:
        return pairs
    cs = list(accumulate(range(c, 0, -1), lambda b, j: b * j // (c + 1 - j), initial=1))
    powers = lambda x: accumulate(repeat(x, c), mul, initial=1)
    return [list(map(mul, cs, map(mul, reversed([*powers(p)]), powers(q)))) for p, q in pairs]


def _build_half(classes, seed=(1, 1)):
    """Cell numerators for a block of coordinate classes, times ``seed``, their
    keys and the two common denominators.  A class ``((a, b), c)``, integer
    ratios, gives a cell per zero count ``k`` of its ``c`` coordinates."""
    (m0, mu_den), (n0, nu_den) = (x.as_integer_ratio() for x in seed)
    mu, nu, key = [m0], [n0], [log(n0) - log(m0)]
    for ((a0, ad), (b0, bd)), c in classes:
        wa, wb = _weights(c, (a0, ad - a0), (b0, bd - b0))
        mu = [x * w for w in wa for x in mu]
        nu = [x * w for w in wb for x in nu]
        g0, g1 = log(b0) - log(a0), log(bd - b0) - log(ad - a0)  # comb(c, k) cancels
        key = [x + g for g in [k * g0 + (c - k) * g1 for k in range(c, -1, -1)] for x in key]
        mu_den, nu_den = mu_den * ad**c, nu_den * bd**c
    return mu, nu, key, mu_den, nu_den


def _ratio_sort(nu, mu, key, band):
    """The cells ``(nu, mu)`` in ascending exact order of ``nu / mu``, as two
    lists, and their keys ``key``, ascending too, as a third; each run of
    exactly tied cells is merged into one, which holds their sums.

    The float key only presorts; ``nu / mu`` as a float would overflow at
    deep levels.  Adjacent keys further apart than the guard band ``band``
    (module docstring) are in exact order; the adjacent pairs within it are
    confirmed by one exact cross-multiplication each.  If one is out of
    order, an exact insertion pass moves the misplaced cells, their keys with
    them, so the float never decides the order.  A repair can leave the keys
    out of float order by less than their error; a running maximum makes them
    ascend again and keeps each within its error of its exact value, since
    the exact keys are sorted.  The pairs are then checked again, and the
    same cross-multiplications find the exact ties: tied cells have one
    ratio, so they are in ``A`` together or not at all.
    """
    order = sorted(range(len(nu)), key=key.__getitem__)
    nu = list(map(nu.__getitem__, order))
    mu = list(map(mu.__getitem__, order))
    key = list(map(key.__getitem__, order))
    del order
    while True:
        ahead = islice(key, 1, None)
        near = bytes(map(le, map(sub, ahead, key), repeat(band)))  # pairs the keys cannot order
        lhs = map(mul, compress(nu, near), compress(islice(mu, 1, None), near))
        rhs = map(mul, compress(islice(nu, 1, None), near), compress(mu, near))
        step = list(map(sub, lhs, rhs))  # > 0 where a pair is out of order, 0 where it ties
        if not any(map((0).__lt__, step)):
            break
        for k in range(1, len(nu)):
            n, m, x = nu[k], mu[k], key[k]
            j = k
            while j and nu[j - 1] * m > n * mu[j - 1]:
                nu[j], mu[j], key[j] = nu[j - 1], mu[j - 1], key[j - 1]
                j -= 1
            nu[j], mu[j], key[j] = n, m, x
        key = list(accumulate(key, max))
    if 0 in step:
        keep = bytearray([1]) * len(nu)
        for k in compress(compress(range(1, len(nu)), near), map((0).__eq__, step)):
            nu[k] += nu[k - 1]
            mu[k] += mu[k - 1]
            keep[k - 1] = 0
        nu, mu, key = (list(compress(x, keep)) for x in (nu, mu, key))
    return nu, mu, key


def mim_masses(aprobs, bprobs, d, seed=(1, 1)):
    """(mu(A), nu(A)) by meet-in-the-middle over the first ``d`` coordinates,
    grouped by their probability pair ``(a_n, b_n)``.  The probabilities may
    be iterators; they are read no further than the limits need.  Every cell
    carries the factor ``seed``, the masses of the cylinder ``N_s`` they follow."""
    counts = {}  # integer ratios (a, b), a != b -> coordinates, in order of first appearance
    total = 1  # cells of both halves together
    for a, b in islice(zip(aprobs, bprobs), d):
        a, b = a.as_integer_ratio(), b.as_integer_ratio()
        if a != b:
            c = counts[a, b] = counts.get((a, b), 0) + 1
            total = total // c * (c + 1)
            # The larger half holds at least sqrt(total) cells, and the half
            # holding this class at least its c + 1 cells of c * bits bits.
            if total > MIM_MAX_CELLS**2 or c * (c + 1) * (a[1] * b[1]).bit_length() > MIM_MAX_BITS:
                break
    classes = list(counts.items())
    # half 1, whole classes in order up to sqrt(total) cells, is never the larger
    limit = isqrt(total)
    half = sum(s <= limit for s in accumulate((c + 1 for _, c in classes), mul))
    halves = classes[:half], classes[half:]
    for part in halves:
        cells = prod(c + 1 for _, c in part)
        bits = sum(c * (ad * bd).bit_length() for ((_, ad), (_, bd)), c in part)
        if cells > MIM_MAX_CELLS or cells * bits > MIM_MAX_BITS:
            raise BudgetExceeded(
                f"depth {d} needs more than {MIM_MAX_CELLS} cells or {MIM_MAX_BITS} "
                f"bits in one half of the product sweep"
            )
    mu1, nu1, key1, mud1, nud1 = _build_half(halves[0], seed)
    part = halves[1]  # streamed: the first classes to reach 2**10 cells times the rest
    cut = min(1 + sum(s < 1 << 10 for s in accumulate((c + 1 for _, c in part), mul)), len(part))
    mui, nui, key_i, mdi, ndi = _build_half(part[:cut])
    muo, nuo, key_o, mdo, ndo = _build_half(part[cut:])
    mu_den, nu_den = mud1 * mdi * mdo, nud1 * ndi * ndo
    band = GUARD * (1 + max(mu_den, nu_den).bit_length())
    shift = log(nu_den) - log(mu_den)
    nu1, mu1, key1 = _ratio_sort(nu1, mu1, key1, band)
    suf_mu = list(accumulate(reversed(mu1), initial=0))[::-1]
    del mu1
    suf_nu = list(accumulate(reversed(nu1), initial=0))[::-1]
    del nu1  # a half-1 cell is now suf[m] - suf[m + 1]
    key1.append(inf)  # key1[j] exists for every j that bisection returns
    # A cell is in A iff nu1*nu2/nu_den > mu1*mu2/mu_den, iff its half-1 key
    # exceeds t = shift - (outer key + inner key); its partners in A are the
    # sorted half 1 from j on.  Float bisection finds j unless a key lies in
    # the band around t, and then exact bisection finds it among those keys.
    lo_i = list(map(band.__add__, key_i))  # t - band is base - lo_i
    hi_i = list(map((-band).__add__, key_i))  # t + band is base - hi_i
    mu_num = nu_num = 0
    for no, mo, ko in zip(nuo, muo, key_o):
        base = shift - ko
        js = list(map(bisect_left, repeat(key1), map(base.__sub__, lo_i)))
        near = bytes(map(le, map(key1.__getitem__, js), map(base.__sub__, hi_i)))
        for i in compress(range(len(js)), near):
            j = js[i]
            hi = bisect_right(key1, base - hi_i[i], j)
            x, y = mu_den * no * nui[i], nu_den * mo * mui[i]
            above = lambda m: (suf_nu[m] - suf_nu[m + 1]) * x > (suf_mu[m] - suf_mu[m + 1]) * y
            js[i] = bisect_left(range(hi), True, j, key=above)
        mu_num += mo * sum(map(mul, mui, map(suf_mu.__getitem__, js)))
        nu_num += no * sum(map(mul, nui, map(suf_nu.__getitem__, js)))
    return Fraction(mu_num, mu_den), Fraction(nu_num, nu_den)


def tv_upper_bound(aprobs, bprobs, d):
    """Rational bound: for every depth d' <= d, the depth-d' gap is at most
    the returned value."""
    bits = 48  # precision of each square-root bound
    bc_lo = 1
    for a, b in islice(zip(aprobs, bprobs), d):
        if not (bc_lo := bc_lo * affinity_bounds(a, b, bits)[0]):
            break  # a zero floor settles the bound at 1
    _, hi = sqrt_bounds(1 - bc_lo * bc_lo, bits)
    return min(hi, Fraction(1))
