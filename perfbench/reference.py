"""Answers computed apart from ``cmc``, and the checks that compare them.

Nothing here imports ``cmc``.  Measures are described by small specs
(tuples), evaluated top-down with plain ``Fraction`` or integer arithmetic:

    ("uniform",)
    ("dirac", w)                      point mass on w000...
    ("finite", ((leaf, weight), ...)) weight carried on leaf000...
    ("convex", ((weight, spec), ...))
    ("product", ("const", a))         bit-0 probability a at every coordinate
    ("product", ("ks", prefix, period))
    ("table", depth, ((leaf, mass), ...))  every depth-`depth` leaf listed
    ("coded", base_spec, payload_bits)

Each ``check_*`` function returns a list of problems (empty when the answer
is right), so one wrong answer names itself in the benchmark's report.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from math import isqrt

TWO_THIRDS = Fraction(2, 3)
ONE_THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# Schedules and specs


def ks_alpha(prefix, period, n):
    """Bit-0 probability at coordinate n of product(ks(prefix(period)*)).

    ``r_n`` is ``1/sqrt(n+1)`` truncated to ``2n+4`` binary digits; here it is
    found as ``isqrt(4**p // (n+1))``, the largest m with ``m*m*(n+1) <= 4**p``.
    """
    bit = prefix[n] if n < len(prefix) else period[(n - len(prefix)) % len(period)]
    if bit == "0":
        return Fraction(1, 4)
    p = 2 * n + 4
    r = Fraction(isqrt((1 << (2 * p)) // (n + 1)), 1 << p)
    return (1 + r) / 4


def block_bit(word, n):
    """Bit n of the block-indicator sequence of a family codeword: positions
    ``[2**k, 2**(k+1))`` carry ``word[k mod len(word)]``; position 0 is 0."""
    if n == 0:
        return "0"
    return word[(n.bit_length() - 1) % len(word)]


def alphas(schedule, d):
    kind = schedule[0]
    if kind == "const":
        return [schedule[1]] * d
    if kind == "ks":
        return [ks_alpha(schedule[1], schedule[2], n) for n in range(d)]
    if kind == "block":
        return [
            Fraction(1, 4) if block_bit(schedule[1], n) == "0" else ks_alpha("", "1", n)
            for n in range(d)
        ]
    raise ValueError(f"unknown schedule {schedule!r}")


class Ref:
    """Cylinder masses of one spec, memoized top-down."""

    def __init__(self, spec):
        self.spec = spec
        self.kind = spec[0]
        self._memo = {"": Fraction(1)}
        self._alphas = []
        if self.kind == "convex":
            self.terms = [(w, Ref(s)) for w, s in spec[1]]
        elif self.kind == "table":
            self.depth = spec[1]
            self.leaves = dict(spec[2])
        elif self.kind == "coded":
            self.base = Ref(spec[1])
            self.payload = spec[2]
            self._spine = None

    def mass(self, s):
        v = self._memo.get(s)
        if v is None:
            v = self._compute(s)
            self._memo[s] = v
        return v

    def _compute(self, s):
        kind = self.kind
        if kind == "uniform":
            return Fraction(1, 1 << len(s))
        if kind == "dirac":
            w = self.spec[1]
            branch = w + "0" * max(0, len(s) - len(w))
            return Fraction(1) if branch.startswith(s) else Fraction(0)
        if kind == "finite":
            total = Fraction(0)
            for leaf, w in self.spec[1]:
                ext = leaf + "0" * max(0, len(s) - len(leaf))
                if ext.startswith(s):
                    total += w
            return total
        if kind == "convex":
            return sum((w * r.mass(s) for w, r in self.terms), Fraction(0))
        if kind == "product":
            n = len(s) - 1
            if n >= len(self._alphas):
                self._alphas = alphas(self.spec[1], 2 * n + 8)
            a = self._alphas[n]
            return self.mass(s[:-1]) * (a if s[-1] == "0" else 1 - a)
        if kind == "table":
            if len(s) >= self.depth:
                return self.leaves[s[: self.depth]] / (1 << (len(s) - self.depth))
            return self.mass(s + "0") + self.mass(s + "1")
        if kind == "coded":
            return self._coded(s)
        raise ValueError(f"unknown spec {self.spec!r}")

    # The encoded measure, straight from its definition: at the k-th spine
    # node of the base the children get exactly 2/3 and 1/3 of the parent
    # (child 0 gets 2/3 when payload bit k is 1); elsewhere the conditional
    # masses are the base's.
    def spine_nodes(self, max_len):
        """Base spine nodes of length <= max_len."""
        if self._spine is None or self._spine[0] < max_len:
            need = max(max_len, 32)
            self._spine = (need, spine_of(self.base, need))
        return [t for t in self._spine[1] if len(t) <= max_len]

    def _coded(self, s):
        parent, child = s[:-1], s[-1]
        gp = self.mass(parent)
        fp = self.base.mass(parent)
        if gp == 0 or fp == 0:
            return Fraction(0)
        nodes = self.spine_nodes(len(parent))
        if parent in nodes:
            k = nodes.index(parent)
            if k < len(self.payload):
                side = "0" if self.payload[k] == "1" else "1"
                return gp * (TWO_THIRDS if child == side else ONE_THIRD)
        return gp * self.base.mass(s) / fp


def spine_of(ref, max_len):
    """Splitting spine of a measure: t_0 is the shortlex-least string whose
    children both have positive mass, t_{k+1} the least such string
    extending t_k + '0'.  Nodes of length <= max_len."""
    nodes = []
    start = ""
    while True:
        found = None
        level = [start] if ref.mass(start) > 0 else []
        while level and len(level[0]) <= max_len and found is None:
            for t in level:
                if ref.mass(t + "0") > 0 and ref.mass(t + "1") > 0:
                    found = t
                    break
            level = [t + b for t in level for b in "01" if ref.mass(t + b) > 0]
        if found is None:
            return nodes
        nodes.append(found)
        start = found + "0"


def strings_of_length(n):
    return [format(i, "b").zfill(n) if n else "" for i in range(1 << n)]


def shortlex_prefix(count):
    """The first ``count`` binary strings in shortlex order."""
    out = []
    n = 0
    while len(out) < count:
        out.extend(strings_of_length(n))
        n += 1
    return out[:count]


# ---------------------------------------------------------------------------
# Gaps


def brute_gap_masses(mu, nu, d):
    """(mu(A), nu(A)) for A = {level-d cells with nu > mu}, by enumeration."""
    mu_a = nu_a = Fraction(0)
    for s in strings_of_length(d):
        m, v = mu.mass(s), nu.mass(s)
        if v > m:
            mu_a += m
            nu_a += v
    return mu_a, nu_a


def _product_cells(probs):
    """Integer cell numerators of a product measure over one common
    denominator, one cell per string in lex order."""
    cells = [1]
    den = 1
    for a in probs:
        p0, p1 = a.numerator, a.denominator - a.numerator
        cells = [x * p for x in cells for p in (p0, p1)]
        den *= a.denominator
    return cells, den


def product_gap_masses(sched_mu, sched_nu, d):
    """Exact (mu(A), nu(A)) for two product measures: an integer sum over all
    2**d level-d cells."""
    mu, mu_den = _product_cells(alphas(sched_mu, d))
    nu, nu_den = _product_cells(alphas(sched_nu, d))
    mu_a = nu_a = 0
    for m, v in zip(mu, nu):
        if v * mu_den > m * nu_den:
            mu_a += m
            nu_a += v
    return Fraction(mu_a, mu_den), Fraction(nu_a, nu_den)


def const_gap(a, b, d):
    """Exact depth-d gap of two constant-schedule products, summed by the
    number of zeros (cells with the same count have the same masses)."""
    mu_a = nu_a = Fraction(0)
    for zeros in range(d + 1):
        m = a**zeros * (1 - a) ** (d - zeros)
        v = b**zeros * (1 - b) ** (d - zeros)
        if v > m:
            mu_a += math.comb(d, zeros) * m
            nu_a += math.comb(d, zeros) * v
    return nu_a - mu_a


def float_mim_gap(sched_mu, sched_nu, d):
    """Floating-point meet-in-the-middle estimate of the depth-d gap.

    Cells whose two masses tie or nearly tie may land on either side, but
    they add (almost) nothing to the gap, so the estimate is good to about
    1e-12 at the depths used here."""
    am = [float(a) for a in alphas(sched_mu, d)]
    an = [float(a) for a in alphas(sched_nu, d)]
    mid = d // 2

    def half(lo, hi):
        cells = [(1.0, 1.0)]
        for n in range(lo, hi):
            cells = [
                (m * pm, v * pv)
                for m, v in cells
                for pm, pv in ((am[n], an[n]), (1 - am[n], 1 - an[n]))
            ]
        return cells

    left, right = half(0, mid), half(mid, d)
    right.sort(key=lambda c: c[1] / c[0])
    ratios = [v / m for m, v in right]
    suf_m = [0.0] * (len(right) + 1)
    suf_v = [0.0] * (len(right) + 1)
    for i in range(len(right) - 1, -1, -1):
        suf_m[i] = suf_m[i + 1] + right[i][0]
        suf_v[i] = suf_v[i + 1] + right[i][1]
    total = 0.0
    for m, v in left:
        j = bisect_right(ratios, m / v)  # right cells with v2/m2 > m1/v1
        total += v * suf_v[j] - m * suf_m[j]
    return total


def affinity_bound(sched_mu, sched_nu, d):
    """Float upper bound on every gap up to depth d: sqrt(1 - BC**2) with
    BC the product of per-coordinate Bhattacharyya coefficients."""
    bc = 1.0
    for a, b in zip(alphas(sched_mu, d), alphas(sched_nu, d)):
        a, b = float(a), float(b)
        bc *= math.sqrt(a * b) + math.sqrt((1 - a) * (1 - b))
    return math.sqrt(max(0.0, 1 - bc * bc))


def check_exact(what, got, want):
    return [] if got == want else [f"{what}: got {got}, want {want}"]


def check_near(what, got, want, tol=1e-9):
    return [] if abs(float(got) - want) <= tol else [f"{what}: got {float(got)!r}, want {want!r}"]


def check_pair_gaps(what, gaps):
    """Gaps recorded for one pair in both orders: ``{(order, depth): value}``
    with order 0 or 1.  Symmetric, nondecreasing in depth, within [0, 1]."""
    problems = []
    for (order, d), g in gaps.items():
        if not 0 <= g <= 1:
            problems.append(f"{what}: gap {g} at depth {d} outside [0, 1]")
        other = gaps.get((1 - order, d))
        if other is not None and other != g:
            problems.append(f"{what}: gap at depth {d} not symmetric")
    by_depth = sorted((d, g) for (_, d), g in gaps.items())
    for (d1, g1), (d2, g2) in zip(by_depth, by_depth[1:]):
        if d1 < d2 and g1 > g2:
            problems.append(f"{what}: gap falls from depth {d1} to {d2}")
    return problems


# ---------------------------------------------------------------------------
# Certificates, moduli, refutations, brackets


def check_no_certificate(what, masses_by_depth, epsilon):
    """No scanned depth has mu(A) < epsilon and nu(A) > 1 - epsilon."""
    return [
        f"{what}: a certificate exists at depth {d}"
        for d, (m, v) in masses_by_depth.items()
        if m < epsilon and v > 1 - epsilon
    ]


def check_inconclusive(what, best_gap, at_depth, max_depth, gap_at):
    """An honest Inconclusive: its best gap is the exact gap at its depth."""
    if at_depth is None or not 0 <= at_depth <= max_depth:
        return [f"{what}: depth {at_depth} outside [0, {max_depth}]"]
    return check_exact(f"{what} best gap at depth {at_depth}", best_gap, gap_at(at_depth))


def check_certificate(what, mu, nu, epsilon, depth, cells, mu_mass, nu_mass):
    """A certificate at the least depth where one exists: its cells are the
    level-depth cells where nu exceeds mu, and its masses are theirs."""
    problems = []
    want = {s for s in strings_of_length(depth) if nu.mass(s) > mu.mass(s)}
    if set(cells) != want or len(cells) != len(want):
        problems.append(f"{what}: {len(cells)} cells, want the {len(want)} with nu > mu")
    m = sum((mu.mass(s) for s in want), Fraction(0))
    v = sum((nu.mass(s) for s in want), Fraction(0))
    problems += check_exact(f"{what} mu mass", mu_mass, m)
    problems += check_exact(f"{what} nu mass", nu_mass, v)
    if not (m < epsilon and v > 1 - epsilon):
        problems.append(f"{what}: masses {m}, {v} do not certify at {epsilon}")
    for d in range(1, depth):
        dm, dv = brute_gap_masses(mu, nu, d)
        if dm < epsilon and dv > 1 - epsilon:
            problems.append(f"{what}: a certificate already exists at depth {d}")
            break
    return problems


def check_modulus(what, mu, epsilon, n):
    """n is the least level at which every cylinder has mass < epsilon."""
    problems = []
    if any(mu.mass(s) >= epsilon for s in strings_of_length(n)):
        problems.append(f"{what}: level {n} has a cylinder of mass >= {epsilon}")
    if n > 0 and all(mu.mass(s) < epsilon for s in strings_of_length(n - 1)):
        problems.append(f"{what}: level {n - 1} already has all masses < {epsilon}")
    return problems


def check_atom_witness(what, mu, epsilon, max_depth, prefix, mass):
    problems = []
    if len(prefix) != max_depth:
        problems.append(f"{what}: witness {prefix!r} is not at depth {max_depth}")
    problems += check_exact(f"{what} witness mass", mass, mu.mass(prefix))
    if not mass > epsilon:
        problems.append(f"{what}: witness mass {mass} not above {epsilon}")
    return problems


def check_refutation(what, mu, nu, epsilon, stages, got_stages):
    """Stage j packs cells of nu-mass < 2**-j and mu-mass >= epsilon."""
    if len(got_stages) != stages:
        return [f"{what}: {len(got_stages)} stages, want {stages}"]
    problems = []
    for j, (delta, cells) in enumerate(got_stages, start=1):
        problems += check_exact(f"{what} stage {j} delta", delta, Fraction(1, 1 << j))
        if len(set(cells)) != len(cells):
            problems.append(f"{what} stage {j}: repeated cells")
        if any(a != b and b.startswith(a) for a in cells for b in cells):
            problems.append(f"{what} stage {j}: nested cells")
        m = sum((mu.mass(s) for s in cells), Fraction(0))
        v = sum((nu.mass(s) for s in cells), Fraction(0))
        if not v < delta:
            problems.append(f"{what} stage {j}: nu mass {v} not below {delta}")
        if not m >= epsilon:
            problems.append(f"{what} stage {j}: mu mass {m} below {epsilon}")
    return problems


def check_bracket(what, f, g, n, lo, hi):
    """The exact partial sum of the code metric over the first n strings,
    and a bracket exactly 2**-n wide."""
    want = sum(
        (
            Fraction(1, 1 << (i + 1)) * abs(f.mass(s) - g.mass(s))
            for i, s in enumerate(shortlex_prefix(n))
        ),
        Fraction(0),
    )
    problems = check_exact(f"{what} lower end", lo, want)
    problems += check_exact(f"{what} width", hi - lo, Fraction(1, 1 << n))
    return problems


# ---------------------------------------------------------------------------
# Codes


def rational_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def payload_text(bits):
    if bits and len(bits) % 4 == 0:
        return "0x" + "".join(format(int(bits[i : i + 4], 2), "x") for i in range(0, len(bits), 4))
    return bits


def canonical_text(spec):
    """The canonical DSL text of a spec, by the README's printing rules."""
    kind = spec[0]
    if kind == "uniform":
        return "uniform"
    if kind == "dirac":
        return f"dirac({spec[1].rstrip('0')})"
    if kind == "finite":
        pairs = sorted(spec[1], key=lambda p: (len(p[0]), p[0]))
        return "finite(" + ", ".join(f"{s}: {rational_text(w)}" for s, w in pairs) + ")"
    if kind == "convex":
        return "convex(" + ", ".join(
            f"{rational_text(w)}: {canonical_text(s)}" for w, s in spec[1]
        ) + ")"
    if kind == "product":
        sched = spec[1]
        if sched[0] == "const":
            return f"product(const({rational_text(sched[1])}))"
        raise ValueError("only constant schedules are printed here")
    if kind == "table":
        ref = Ref(spec)
        nodes = [s for n in range(1, spec[1] + 1) for s in strings_of_length(n)]
        body = ", ".join(f"{s} = {rational_text(ref.mass(s))}" for s in nodes)
        return f"table({spec[1]}; {body})"
    if kind == "coded":
        return f"coded({canonical_text(spec[1])}; {payload_text(spec[2])})"
    raise ValueError(f"unknown spec {spec!r}")


def check_spine_splits(what, coded, masses, count):
    """Each of the first ``count`` base spine nodes carries the exact 2/3-1/3
    split of its payload bit; ``masses`` maps strings to the program's masses."""
    problems = []
    nodes = coded.spine_nodes(count + 1)
    if len(nodes) < count:
        return [f"{what}: base spine has only {len(nodes)} nodes"]
    for k, t in enumerate(nodes[:count]):
        heavy = "0" if coded.payload[k] == "1" else "1"
        light = "1" if heavy == "0" else "0"
        g = masses(t)
        if not (3 * masses(t + heavy) == 2 * g and 3 * masses(t + light) == g):
            problems.append(f"{what}: spine node {t!r} lacks the 2/3-1/3 split of bit {k}")
    return problems
