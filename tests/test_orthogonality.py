import random
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate, count, islice, repeat
from math import comb, log

import pytest

from cmc import (
    AtomWitness,
    Convex,
    CylinderFamily,
    Dirac,
    Failure,
    FamilyBuildResult,
    FiniteSupport,
    Inconclusive,
    Modulus,
    OrthoCertificate,
    ProductCode,
    RefutationWitness,
    TableCode,
    Uniform,
    ZEROS,
    build_family,
    continuity_modulus,
    encode,
    extend_family,
    gap,
    ks_schedule,
    measure_of_family,
    ortho_certificate,
    parse,
    perfect_family,
    product_code,
    refute_abs_continuity,
)
from cmc.bits import PeriodicBits, all_strings_of_length
from cmc.errors import BudgetExceeded, CmcError
from cmc import orthogonality, productgap
from cmc.measures import ExactSum
from cmc.productgap import GUARD, _ratio_sort, mim_masses, tv_upper_bound
from cmc.schedules import ConstantSchedule, ExplicitSchedule, Schedule


def _brute_gap(mu, nu, d):
    return sum(
        max(nu.mass(s) - mu.mass(s), F(0)) for s in all_strings_of_length(d)
    )


def test_gap_dirac_uniform_closed_form():
    mu, nu = Dirac("0"), Uniform()
    for d in range(1, 13):
        assert gap(mu, nu, d) == 1 - F(1, 1 << d) == _brute_gap(mu, nu, d)


def test_gap_symmetric_and_monotone():
    rng = random.Random(3)
    entries = {}
    frontier = {"": F(1)}
    for _ in range(3):
        nxt = {}
        for s, m in frontier.items():
            num = rng.randrange(1, 8)
            nxt[s + "0"] = entries[s + "0"] = m * F(num, 8)
            nxt[s + "1"] = entries[s + "1"] = m * F(8 - num, 8)
        frontier = nxt
    a = TableCode(3, entries)
    b = Uniform()
    prev = F(0)
    for d in range(0, 6):
        g = gap(a, b, d)
        assert g == gap(b, a, d) == _brute_gap(a, b, d)
        assert g >= prev
        prev = g


def test_gap_of_products_counts_the_root_mass():
    # a depth-0 table is uniform below its root mass 1/2: its gap is the cell
    # sum over its own masses, as for a deeper table with the same masses
    # below the root
    half, split = parse("table(0; =1/2)"), parse("table(1; 0=1/4, 1=1/4)")
    third = parse("product(const(1/3))")
    assert gap(half, third, 3) == F(227, 432)
    for d in range(8):
        for mu, nu in ((half, third), (third, half), (half, Uniform()), (Uniform(), half)):
            assert gap(mu, nu, d) == _brute_gap(mu, nu, d), d
    assert [gap(half, third, d) for d in range(1, 8)] == [gap(split, third, d) for d in range(1, 8)]


def test_gap_zero_for_identical():
    assert gap(Uniform(), Uniform(), 10) == 0


def _level_walk_masses(mu, nu, d):
    """Reference for ``_masses_above``: the level walk it replaced, which
    visits every level-d cell of positive nu-mass unless mu vanishes above it,
    product codes included."""

    def cells(code, whole):
        stack = [""]
        while stack:
            s = stack.pop()
            if code.mass(s) == 0:
                continue
            if len(s) == d or whole(s):
                yield s
            else:
                stack += (s + "1", s + "0")

    mu_a, nu_a = ExactSum(), ExactSum()
    for s in cells(nu, lambda s: mu.mass(s) == 0):
        mn, md = mu.mass(s).as_integer_ratio()
        vn, vd = nu.mass(s).as_integer_ratio()
        if vn * md > mn * vd:
            mu_a.add(mn, md)
            nu_a.add(vn, vd)
    return mu_a.value(), nu_a.value()


class _SureThenFair(Schedule):
    """Bit 0 for certain on the first three coordinates, then fair: the
    spine of its product starts at ``'000'``, below levels that do not split."""

    def alpha(self, n):
        return F(1) if n < 3 else F(1, 2)


def _frontier_codes():
    """Every code kind, fresh: products below the root, below a table's
    depth, below off-spine cells of coded codes and where a mixture's terms
    share ``UNIFORM_SCHEDULE``; mixtures of distinct products; dead spines;
    a coded product whose first spine node lies below cells that are
    products for its base."""
    t2 = TableCode(2, {"0": F(1, 3), "00": F(1, 4), "10": F(1, 2)})
    t3 = TableCode(3, {"0": F(3, 5), "01": F(1, 5), "101": F(1, 7)})
    third = ProductCode(ConstantSchedule(F(1, 3)))
    dead = TableCode(1, {"0": F(0), "1": F(0)})
    return [
        Uniform(),
        Dirac("0110"),
        FiniteSupport([("00", F(1, 2)), ("101", F(1, 4)), ("11", F(1, 4))]),
        third,
        ProductCode(ks_schedule(PeriodicBits("01", "011"))),
        t2,
        t3,
        encode(t3, "1011"),
        encode(ProductCode(ConstantSchedule(F(1, 3))), "1011"),
        encode(encode(Uniform(), "10"), "011"),
        encode(Uniform(), ""),
        encode(TableCode(2, {"1": F(1, 4)}), PeriodicBits("", "10")),
        Convex([(F(1, 2), t3), (F(1, 2), Uniform())]),
        Convex([(F(1, 2), Dirac("0110")), (F(1, 2), t2)]),
        Convex([(F(1, 3), Uniform()), (F(2, 3), third), (F(0), Dirac("1"))]),
        dead,
        encode(dead, "1"),
        encode(Dirac("01"), "1", budget=4),
        encode(ProductCode(_SureThenFair()), "1"),
    ]


def _walk_outcome(walk, mu, nu, d):
    try:
        return walk(mu, nu, d)
    except CmcError as exc:
        return type(exc), str(exc)


def test_frontier_walk_matches_level_walk():
    # exact pairs, or exception type and text, on every ordered pair
    new, old = _frontier_codes(), _frontier_codes()
    kinds = set()
    for i in range(len(new)):
        for j in range(len(new)):
            for d in range(11):
                got = _walk_outcome(orthogonality._masses_above, new[i], new[j], d)
                want = _walk_outcome(_level_walk_masses, old[i], old[j], d)
                assert got == want, (i, j, d)
                kinds.add(type(got[0]))
    assert kinds == {F, type}  # both answers and budget exceptions occur


def test_finite_support_gap_reads_no_point_masses():
    # a finite support is never a product below a cell: the walk takes the
    # mixture's own masses, and its point masses memoize nothing
    pair = ("finite(00: 1/2, 101: 1/4, 11: 1/4)", "uniform")
    for x, y in (pair, pair[::-1]):
        mu, nu = parse(x), parse(y)
        assert gap(mu, nu, 22) == F(4194301, 4194304)
        support = mu if isinstance(mu, FiniteSupport) else nu
        assert [point._memo for _, point in support.terms] == [{}] * 3


class _Same(Schedule):
    """An equal schedule that is not the same object."""

    def __init__(self, inner):
        self.inner = inner

    def alpha(self, n):
        return self.inner.alpha(n)


def test_shared_schedule_cells_match_the_sweep(monkeypatch):
    # a frontier cell where both codes share one schedule is settled by its
    # own masses; an equal but distinct schedule sends it to mim_masses
    calls = []
    sweep = orthogonality.mim_masses
    monkeypatch.setattr(orthogonality, "mim_masses", lambda *a: calls.append(a) or sweep(*a))
    pairs = [
        ("table(2; 0=1/3, 00=1/4, 10=1/2)", "table(3; 0=3/5, 01=1/5, 101=1/7)"),
        ("convex(1/2: uniform, 1/2: dirac(0))", "uniform"),
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            for d in range(13):
                calls.clear()
                got = orthogonality._masses_above(parse(x), parse(y), d)
                assert calls == []
                mu = parse(x)
                below = mu.product_below
                mu.product_below = lambda s: None if below(s) is None else _Same(below(s))
                assert orthogonality._masses_above(mu, parse(y), d) == got, (x, y, d)
                assert calls or d <= 3, (x, y, d)


def test_ratio_sort_exact_where_float_keys_tie():
    # the log keys all read 0.0; only the exact check tells the ratios apart
    mu = [10**30] * 3
    nu = [10**30 + 1, 10**30, 10**30 + 2]
    key = [log(n) - log(m) for n, m in zip(nu, mu)]
    assert key == [0.0] * 3
    band = GUARD * (1 + (10**30 + 2).bit_length())
    assert _ratio_sort(nu, mu, key, band)[:2] == ([10**30, 10**30 + 1, 10**30 + 2], mu)


def _sweep_matches_brute(sa, sb, depths):
    a, b = ProductCode(sa), ProductCode(sb)
    for d in depths:
        pa = [sa.alpha(n) for n in range(d)]
        pb = [sb.alpha(n) for n in range(d)]
        mu_a, nu_a = mim_masses(pa, pb, d)
        assert nu_a - mu_a == _brute_gap(a, b, d), d
        assert mu_a == sum(a.mass(s) for s in all_strings_of_length(d) if b.mass(s) > a.mass(s))


def test_sweep_constant_pair_matches_brute():
    # one class of coordinates: cells by zero count, binomial weights
    _sweep_matches_brute(ConstantSchedule(F(1, 3)), ConstantSchedule(F(2, 3)), range(0, 11))


def test_sweep_explicit_pair_matches_brute():
    _sweep_matches_brute(
        ExplicitSchedule([F(1, 3), F(1, 2), F(2, 5)], "cycle"),
        ExplicitSchedule([F(1, 4)], ("const", F(3, 5))),
        range(0, 13),
    )


def test_mim_ks_pattern_against_complement():
    _sweep_matches_brute(
        ks_schedule(PeriodicBits("01", "011")), ks_schedule(PeriodicBits("10", "100")), range(1, 13)
    )


def _exact_sweep(pa, pb, d):
    """Reference for ``mim_masses``: the meet-in-the-middle sweep in
    ``Fraction`` arithmetic, without floats, one cell per bit string of each
    half, both halves sorted by exact likelihood ratio."""

    def half(pairs):
        cells = [(F(1), F(1))]
        for a, b in pairs:
            cells = [(m * x, n * y) for m, n in cells for x, y in ((a, b), (1 - a, 1 - b))]
        return cells

    h1 = sorted(half(zip(pa[: d // 2], pb[: d // 2])), key=lambda c: c[1] / c[0], reverse=True)
    h2 = sorted(half(zip(pa[d // 2 : d], pb[d // 2 : d])), key=lambda c: c[1] / c[0])
    suf_mu = list(accumulate((m for m, _ in reversed(h2)), initial=F(0)))[::-1]
    suf_nu = list(accumulate((n for _, n in reversed(h2)), initial=F(0)))[::-1]
    mu_a = nu_a = F(0)
    j = 0
    for m1, n1 in h1:
        while j < len(h2) and n1 * h2[j][1] <= m1 * h2[j][0]:
            j += 1
        mu_a += m1 * suf_mu[j]
        nu_a += n1 * suf_nu[j]
    return mu_a, nu_a


@pytest.mark.parametrize("prefix, period", [("01", "011"), ("10", "000"), ("1", "0110"), ("0", "0001")])
def test_sweep_matches_exact_reference_on_ks_pairs(prefix, period):
    flip = str.maketrans("01", "10")
    sa = ks_schedule(PeriodicBits(prefix, period))
    sb = ks_schedule(PeriodicBits(prefix.translate(flip), period.translate(flip)))
    pa = [sa.alpha(n) for n in range(20)]
    pb = [sb.alpha(n) for n in range(20)]
    for d in range(0, 21):
        assert mim_masses(pa, pb, d) == _exact_sweep(pa, pb, d), d
        assert mim_masses(pb, pa, d) == _exact_sweep(pb, pa, d), d


def test_sweep_near_ties_inside_the_guard_band():
    # distinct cells' log ratios differ by about 1e-15 per coordinate, far
    # inside the guard band and below a float's resolution at these sizes:
    # every order and every membership in A is settled exactly
    a = F(10**15, 2 * 10**15 + 1)
    sa, sb = ConstantSchedule(a), ConstantSchedule(F(1, 2))
    _sweep_matches_brute(sa, sb, range(0, 13))
    c = F(10**15 + 2, 2 * 10**15 + 1)
    # with four classes the sorted half holds runs of exact ties (its cells'
    # ratios depend on k1 - k2 only) next to near ties
    for cycle in [a, 1 - a, c], [a, 1 - a, c, 1 - c]:
        sc = ExplicitSchedule(cycle, "cycle")
        _sweep_matches_brute(sc, sb, range(0, 13))
        pc = [sc.alpha(n) for n in range(20)]
        pb = [sb.alpha(n) for n in range(20)]
        for d in (16, 20):
            assert mim_masses(pc, pb, d) == _exact_sweep(pc, pb, d)
            assert mim_masses(pb, pc, d) == _exact_sweep(pb, pc, d)


def test_sweep_bisects_near_ties_inside_the_band(monkeypatch):
    # every half-1 key lies within the band around every half-2 threshold: a
    # walk that steps cell by cell would take about n1 / 2 exact comparisons
    # per half-2 cell, the exact bisection at most n1.bit_length()
    a = F(10**15, 2 * 10**15 + 1)
    pc = [a, 1 - a, F(10**15 + 2, 2 * 10**15 + 1)] * 20
    pb = [F(1, 2)] * 60
    products = []

    class Counted(int):
        # sums and differences of sorted half-1 cells stay counted, so the
        # exact comparisons, which read a cell as a suffix-sum difference,
        # count each product they take; the sweep's sums multiply a plain
        # int by a suffix sum and are not counted
        def __mul__(self, other):
            products.append(1)
            return int(self) * other

        def __add__(self, other):
            return Counted(int(self) + other)

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - other)

    sort = productgap._ratio_sort
    half1 = []

    def counted_sort(nu, mu, key, band):
        half1.append(len(nu))
        nu, mu, key = sort(nu, mu, key, band)
        return list(map(Counted, nu)), list(map(Counted, mu)), key

    want = mim_masses(pc, pb, 60)
    monkeypatch.setattr(productgap, "_ratio_sort", counted_sort)
    assert mim_masses(pc, pb, 60) == want
    n1 = half1[0]
    n2 = 21**3 // n1  # three classes of 20 coordinates
    assert (n1, n2) == (21, 441)
    assert 0 < len(products) <= 2 * n2 * n1.bit_length()


def _power_of_two_pairs():
    """Probability pairs ``(a, b)`` whose two cell ratios ``b / a`` and
    ``(1 - b) / (1 - a)`` are ``2**i`` and ``2**-j`` (or the inverses, for
    ``(b, a)``): distinct classes whose cells tie exactly across classes."""
    out = []
    for i in range(1, 5):
        for j in range(1, 5):
            a = (1 - F(1, 2**j)) / (2**i - F(1, 2**j))
            out += [(a, 2**i * a), (2**i * a, a)]
    return out


def test_streamed_half_matches_exact_reference():
    # 24 distinct classes: half 2 holds 2**12 cells, streamed in four blocks
    # of an inner table of 2**10 cells; with power-of-two ratios, exact ties
    # fall in different blocks, and on the thresholds
    pairs = _power_of_two_pairs()
    random.Random(7).shuffle(pairs)
    assert len(set(pairs)) == 32
    assert (F(1, 3), F(2, 3)) in pairs[:24] and (F(1, 5), F(4, 5)) in pairs[:24]
    pa, pb = [a for a, _ in pairs[:24]], [b for _, b in pairs[:24]]
    sa, sb = ks_schedule(PeriodicBits("01", "011")), ks_schedule(PeriodicBits("10", "100"))
    ka, kb = [sa.alpha(n) for n in range(24)], [sb.alpha(n) for n in range(24)]
    for xa, xb in ((pa, pb), (ka, kb)):
        assert mim_masses(xa, xb, 24) == _exact_sweep(xa, xb, 24)
        assert mim_masses(xb, xa, 24) == _exact_sweep(xb, xa, 24)


def test_sweep_exact_ties_across_classes():
    # each class has cell ratios 2**i and 2**-j (or their inverses), so cells
    # built from different classes tie exactly, while their keys, summed per
    # class from the logs of unequal weights, may differ by rounding
    pairs = _power_of_two_pairs()
    random.Random(5).shuffle(pairs)
    pa, pb = [a for a, _ in pairs[:24]], [b for _, b in pairs[:24]]
    classes = [((a.as_integer_ratio(), b.as_integer_ratio()), 1) for a, b in zip(pa, pb)]
    mu, nu, _, _, _ = productgap._build_half(classes[:16])
    assert len(set(map(F, nu, mu))) < len(nu) // 8
    _sweep_matches_brute(ExplicitSchedule(pa, "cycle"), ExplicitSchedule(pb, "cycle"), range(0, 13))
    _sweep_matches_brute(ExplicitSchedule(pb, "cycle"), ExplicitSchedule(pa, "cycle"), range(0, 13))
    for d in (20, 24):
        assert mim_masses(pa, pb, d) == _exact_sweep(pa, pb, d), d
        assert mim_masses(pb, pa, d) == _exact_sweep(pb, pa, d), d


def test_sweep_single_class_beyond_one_block():
    # one class of 1,100 coordinates: half 1 is the seed alone and half 2 one
    # inner table of 1,101 cells, as for const pairs
    a, b, c = F(1, 3), F(2, 5), 1100
    for m0, n0 in (F(1), F(1)), (F(1, 7), F(2, 9)):
        want_mu = want_nu = F(0)
        for k in range(c + 1):  # k zeros
            m = m0 * comb(c, k) * a**k * (1 - a) ** (c - k)
            n = n0 * comb(c, k) * b**k * (1 - b) ** (c - k)
            if n > m:
                want_mu, want_nu = want_mu + m, want_nu + n
        assert mim_masses(repeat(a), repeat(b), c, (m0, n0)) == (want_mu, want_nu)


def test_sweep_traced_peak_of_a_depth_28_gap():
    # only half 1 (2**14 cells) is held; half 2 streams from two tables
    a, b = parse("product(ks(01(101)*))"), parse("product(ks(10(010)*))")
    tracemalloc.start()
    try:
        gap(a, b, 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_mim_many_exact_ties():
    # every half-cell ratio is a power of 2 or 1: large groups of exact ties
    _sweep_matches_brute(
        ExplicitSchedule([F(1, 3), F(2, 3)], "cycle"), ConstantSchedule(F(1, 2)), range(1, 13)
    )
    # four classes: half 1 holds two, whose cells form runs of exact ties
    sa = ExplicitSchedule([F(1, 3), F(2, 3), F(1, 5), F(4, 5)], "cycle")
    sb = ExplicitSchedule([F(2, 3), F(1, 3), F(4, 5), F(1, 5)], "cycle")
    _sweep_matches_brute(sa, sb, range(0, 13))
    pa = [sa.alpha(n) for n in range(24)]
    pb = [sb.alpha(n) for n in range(24)]
    for d in (16, 20, 24):
        assert mim_masses(pa, pb, d) == _exact_sweep(pa, pb, d)
        assert mim_masses(pb, pa, d) == _exact_sweep(pb, pa, d)


def _tie_pair_masses(c, sign):
    """Reference for the tie pair of ``test_sweep_merges_exact_tie_runs``
    with ``c`` coordinates per class: ``(mu(A), nu(A))`` by zero counts.  A
    cell's log2 likelihood ratio is ``2 (k1 - k2) + 4 (k3 - k4)``, so ``A`` is
    where ``sign * ((k1 - k2) + 2 (k3 - k4)) > 0``."""

    def law(p, q):
        # numerators over (p.den * q.den)**c of k - k' for zero counts k ~ p, k' ~ q
        out = {}
        for k in range(c + 1):
            w = comb(c, k) * p.numerator**k * (p.denominator - p.numerator) ** (c - k)
            for k2 in range(c + 1):
                w2 = comb(c, k2) * q.numerator**k2 * (q.denominator - q.numerator) ** (c - k2)
                out[k - k2] = out.get(k - k2, 0) + w * w2
        return out

    def mass(a1, a2, a3, a4):
        x, y = law(a1, a2), law(a3, a4)
        num = sum(wx * wy for i, wx in x.items() for j, wy in y.items() if sign * (i + 2 * j) > 0)
        return F(num, (a1.denominator * a2.denominator * a3.denominator * a4.denominator) ** c)

    return mass(F(1, 3), F(2, 3), F(1, 5), F(4, 5)), mass(F(2, 3), F(1, 3), F(4, 5), F(1, 5))


def test_sweep_merges_exact_tie_runs(monkeypatch):
    # the sorted half holds the classes (1/3, 2/3) and (2/3, 1/3), whose cells
    # have ratio 4**(k1 - k2): each run of exact ties becomes one cell
    sa = ExplicitSchedule([F(1, 3), F(2, 3), F(1, 5), F(4, 5)], "cycle")
    sb = ExplicitSchedule([F(2, 3), F(1, 3), F(4, 5), F(1, 5)], "cycle")
    sort = productgap._ratio_sort
    sizes = []

    def recorded_sort(nu, mu, key, band):
        out = sort(nu, mu, key, band)
        sizes.append((len(nu), len(out[0])))
        return out

    monkeypatch.setattr(productgap, "_ratio_sort", recorded_sort)
    a, b = ProductCode(sa), ProductCode(sb)
    above = [s for s in all_strings_of_length(12) if b.mass(s) > a.mass(s)]
    pa = [sa.alpha(n) for n in range(400)]
    pb = [sb.alpha(n) for n in range(400)]
    assert mim_masses(pa, pb, 12) == (sum(map(a.mass, above)), sum(map(b.mass, above)))
    assert sizes == [(16, 7)]
    del sizes[:]
    assert mim_masses(pa, pb, 400) == _tie_pair_masses(100, 1)
    assert mim_masses(pb, pa, 400) == _tie_pair_masses(100, -1)[::-1]
    assert sizes == [(101**2, 201)] * 2


def test_sweep_sums_out_equal_coordinates():
    # coordinates 1, 3 and 4 of each cycle carry equal probabilities
    _sweep_matches_brute(
        ExplicitSchedule([F(1, 3), F(1, 2), F(2, 5), F(1, 2), F(1, 4)], "cycle"),
        ExplicitSchedule([F(1, 2), F(1, 2), F(3, 5), F(1, 2), F(1, 4)], "cycle"),
        range(0, 13),
    )


def test_sweep_perfect_family_pair_at_depth_48():
    # members 0 and 6 differ on 6 of their first 48 coordinates
    x, y = perfect_family(16)[0], perfect_family(16)[6]
    sx, sy = ks_schedule(x), ks_schedule(y)
    differ = [n for n in range(48) if x[n] != y[n]]
    assert len(differ) == 6
    mu, nu = ProductCode(sx), ProductCode(sy)
    short_mu = ProductCode(ExplicitSchedule([sx.alpha(n) for n in differ], "cycle"))
    short_nu = ProductCode(ExplicitSchedule([sy.alpha(n) for n in differ], "cycle"))
    assert gap(mu, nu, 48) == _brute_gap(short_mu, short_nu, 6)


def test_sweep_cycle_against_const_at_depth_200():
    # a cell's masses depend only on its zero counts i, j on the even and
    # the odd coordinates
    mu = ProductCode(ExplicitSchedule([F(1, 3), F(2, 3)], "cycle"))
    nu = ProductCode(ConstantSchedule(F(1, 2)))
    h = 100
    want = sum(
        comb(h, i) * comb(h, j) * max(F(1, 4**h) - F(2 ** (h - i + j), 9**h), F(0))
        for i in range(h + 1)
        for j in range(h + 1)
    )
    assert gap(mu, nu, 2 * h) == want


def test_sweep_limits():
    # every coordinate differs: 45 of them put 2**23 cells in one half, and
    # the probabilities past them are never read
    with pytest.raises(BudgetExceeded):
        mim_masses((F(1, n + 3) for n in count()), repeat(F(1, 2)), 10**9)
    # one class of c coordinates: c + 1 cells of 6c bits each
    with pytest.raises(BudgetExceeded):
        mim_masses(repeat(F(1, 7)), repeat(F(3, 7)), 37837)
    # that class alone refuses the depth, so the read stops once it is full
    # (the counting iterator ends after 10**5 coordinates, reading them all
    # refuses too)
    read = []
    with pytest.raises(BudgetExceeded, match="^depth 1000000000 needs more than"):
        mim_masses((read.append(n) or F(1, 7) for n in range(10**5)), repeat(F(3, 7)), 10**9)
    assert len(read) < 10**5


def test_tv_upper_bound_is_sound():
    sa, sb = ConstantSchedule(F(1, 3)), ConstantSchedule(F(1, 2))
    pa = [sa.alpha(n) for n in range(14)]
    pb = [sb.alpha(n) for n in range(14)]
    bound = tv_upper_bound(pa, pb, 14)
    a, b = ProductCode(sa), ProductCode(sb)
    for d in (1, 7, 14):
        assert gap(a, b, d) <= bound


def test_ortho_certificate_dirac_uniform():
    cert = ortho_certificate(Dirac("0"), Uniform(), F(1, 20), 10)
    assert isinstance(cert, OrthoCertificate)
    assert cert.depth == 5
    assert cert.mu_mass == 0 and cert.nu_mass == F(31, 32)
    # re-validate the cell family against both measures
    assert measure_of_family(Dirac("0"), cert.cells) == cert.mu_mass
    assert measure_of_family(Uniform(), cert.cells) == cert.nu_mass


def test_ortho_certificate_leaves_out_cells_of_equal_mass():
    # at depth 2 the cell 01 has mass 1/10 under both, so it is not in {nu > mu}
    mu = TableCode(2, {"00": F(1, 5), "01": F(1, 10), "10": F(2, 5), "11": F(3, 10)})
    nu = TableCode(2, {"00": F(4, 5), "01": F(1, 10), "10": F(1, 20), "11": F(1, 20)})
    cert = ortho_certificate(mu, nu, F(1, 4), 4)
    assert cert == OrthoCertificate(F(1, 4), 2, CylinderFamily(["00"]), F(1, 5), F(4, 5))
    assert measure_of_family(nu, cert.cells) == cert.nu_mass


def test_ortho_certificate_inconclusive_shallow():
    out = ortho_certificate(Uniform(), ProductCode(ConstantSchedule(F(1, 3))), F(1, 20), 12)
    assert isinstance(out, Inconclusive)
    assert 0 < out.best_gap < F(9, 10)
    assert out.at_depth == 12


def test_ortho_certificate_affinity_prefilter():
    # deep sweep over product measures short-circuits via the affinity bound
    out = ortho_certificate(Uniform(), ProductCode(ConstantSchedule(F(1, 3))), F(1, 20), 48)
    assert isinstance(out, Inconclusive)
    assert out.detail == "affinity bound excludes a certificate"


def test_tv_upper_bound_of_equal_and_of_disjoint_coins():
    quarter = [F(1, 4)] * 20
    assert tv_upper_bound(quarter, quarter, 20) == 0  # every affinity floor is exactly 1
    tiny = F(1, 1 << 100)  # both roots of each affinity are about 2**-50: 48-bit floors of 0
    assert tv_upper_bound(repeat(tiny), repeat(1 - tiny), 20) == 1
    code = ProductCode(ConstantSchedule(F(1, 4)))
    out = ortho_certificate(code, code, F(1, 20), 20)
    assert out == Inconclusive(0, 12, "affinity bound excludes a certificate")


def test_affinity_prefilter_stops_at_a_zero_floor(monkeypatch):
    # the first floor is 0, so the bound is 1 whatever the other coordinates;
    # the search then finds the depth-1 certificate
    tiny = F(1, 1 << 100)
    calls, bounds = [], productgap.affinity_bounds

    def counted(*args):
        calls.append(args)
        return bounds(*args)

    monkeypatch.setattr(productgap, "affinity_bounds", counted)
    mu, nu = ProductCode(ConstantSchedule(tiny)), ProductCode(ConstantSchedule(1 - tiny))
    out = ortho_certificate(mu, nu, F(1, 20), 100000)
    assert len(calls) == 1
    assert (out.depth, out.cells.strings, out.mu_mass, out.nu_mass) == (1, ("0",), tiny, 1 - tiny)


def test_ortho_certificate_refuses_a_cell_family_over_the_limit(monkeypatch):
    monkeypatch.setattr(orthogonality, "_CELL_LIMIT", 16)
    with pytest.raises(BudgetExceeded) as err:
        ortho_certificate(Dirac("0"), Uniform(), F(1, 20), 10)
    assert str(err.value) == (
        "certificate exists at depth 5 but its cell family is too large to materialize"
    )


def test_ortho_certificate_epsilon_range():
    with pytest.raises(ValueError):
        ortho_certificate(Uniform(), Uniform(), F(1, 2), 4)


def test_continuity_modulus_uniform():
    for k in range(1, 11):
        assert continuity_modulus(Uniform(), F(1, 1 << k), 32) == Modulus(k + 1)


def test_continuity_modulus_product():
    out = continuity_modulus(ProductCode(ConstantSchedule(F(1, 3))), F(1, 2), 16)
    assert out == Modulus(2)


def test_continuity_modulus_atom():
    out = continuity_modulus(Dirac("10"), F(1, 2), 16)
    assert isinstance(out, AtomWitness)
    assert out.mass == 1 and out.prefix.startswith("10")


def test_continuity_modulus_of_a_point_mass_keeps_no_memo():
    # a point mass reads each cell by a prefix test; a memo of the 4,000
    # cells on its branch would hold 8 MB of strings
    point = Dirac("0")
    tracemalloc.start()
    try:
        out = continuity_modulus(point, F(1, 2), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == AtomWitness("0" * 4000, F(1, 2), F(1))
    assert point._memo == {} and peak < 2**20


def test_refute_abs_continuity_dirac_vs_uniform():
    out = refute_abs_continuity(Dirac("0"), Uniform(), F(1, 2), 5, 20)
    assert isinstance(out, RefutationWitness)
    assert len(out.stages) == 5
    for j, (delta, family) in enumerate(out.stages, start=1):
        assert delta == F(1, 1 << j)
        assert measure_of_family(Uniform(), family) < delta
        assert measure_of_family(Dirac("0"), family) >= F(1, 2)


def test_refute_abs_continuity_inconclusive():
    out = refute_abs_continuity(Uniform(), Uniform(), F(3, 4), 1, 8)
    assert isinstance(out, Inconclusive)


def test_refute_abs_continuity_deep_scan():
    # a point mass against itself: 1200 levels scanned without recursion
    out = refute_abs_continuity(Dirac("0"), Dirac("0"), F(1, 2), 1, 1200)
    assert isinstance(out, Inconclusive)


def _refutation_mass_calls(max_depth):
    class CountingDirac(Dirac):
        calls = 0

        def _read(self, s):
            CountingDirac.calls += 1
            return super()._read(s)

    out = refute_abs_continuity(CountingDirac("0"), CountingDirac("0"), F(1, 2), 1, max_depth)
    assert isinstance(out, Inconclusive)
    return CountingDirac.calls


def test_refute_abs_continuity_scan_is_linear():
    # each depth extends the cells of the one before instead of walking
    # again from the root
    assert _refutation_mass_calls(200) <= 2.2 * _refutation_mass_calls(100)


def _stage_mass_calls(stages):
    class CountingUniform(Uniform):
        calls = 0

        def _read(self, s):
            CountingUniform.calls += 1
            return super()._read(s)

    out = refute_abs_continuity(CountingUniform(), Dirac("0"), F(1, 2), stages, 12)
    assert isinstance(out, RefutationWitness) and len(out.stages) == stages
    return CountingUniform.calls


def test_refute_abs_continuity_stages_share_levels():
    # the root and level 1 are walked (3 calls) and level 1 ranked (1) once;
    # each stage then packs it, reading the mass of the one cell it takes.
    # Walking again from the root in every stage makes 4, 12 and 24 calls.
    assert [_stage_mass_calls(n) for n in (1, 3, 6)] == [5, 7, 10]


def test_refute_abs_continuity_refuses_a_level_part_built(monkeypatch):
    # a level over the cell limit is read only up to one cell past the limit
    monkeypatch.setattr(orthogonality, "_CELL_LIMIT", 8)
    seen = []

    class Recording(Uniform):
        def _read(self, s):
            seen.append(s)
            return super()._read(s)

    out = refute_abs_continuity(Recording(), Uniform(), F(3, 4), 1, 6)
    assert out == Inconclusive(detail="stage delta=2**-1 failed within depth 6")
    assert sum(len(s) == 4 for s in seen) == 9  # of 16 level-4 cells
    assert max(map(len, seen)) == 4


def test_levels_finish_a_level_read_in_part():
    code = TableCode(2, {"0": F(1, 3), "00": F(1, 4), "10": F(1, 2)})
    full = [list(level) for level in islice(orthogonality._levels(code, bool), 5)]
    assert full[2] == [s for s in all_strings_of_length(2) if code.mass(s)]
    levels = orthogonality._levels(code, bool)
    for n in range(5):  # read one cell of each level
        level = next(levels)
        assert next(level) == full[n][0]
    assert list(level) == full[4][1:]
    assert list(next(islice(orthogonality._levels(code, bool), 4, None))) == full[4]


def test_refute_abs_continuity_needs_a_stage():
    with pytest.raises(ValueError):
        refute_abs_continuity(Dirac("0"), Uniform(), F(1, 2), 0, 8)


def test_certificate_implies_refutation_stage():
    # consistency: an ortho certificate yields a stage-1 refutation family
    cert = ortho_certificate(Dirac("0"), Uniform(), F(1, 20), 10)
    out = refute_abs_continuity(Uniform(), Dirac("0"), F(9, 10), 1, 10)
    assert isinstance(out, RefutationWitness)


def test_extend_family_from_empty():
    out = extend_family([], perfect_family(4), F(1, 20), 8)
    assert out.certificates == ()
    assert out.candidate_index == 0


def test_extend_family_failure_reports_gaps():
    first = product_code(ks_schedule(perfect_family(4)[0]))
    out = extend_family([first], perfect_family(4)[1:], F(1, 100), 10, recheck=False)
    assert isinstance(out, Failure)
    assert len(out.best_gaps) == 3
    for _, best_gap, at_depth in out.best_gaps:
        assert 0 <= best_gap < F(49, 50)
        assert at_depth >= 1


def test_extend_family_recheck():
    with pytest.raises(ValueError):
        extend_family([Uniform(), Uniform()], [], F(1, 20), 8)


def test_build_family_small_epsilon_large():
    result = build_family(3, F(9, 20), 16)
    assert result.failure is None
    assert len(result.measures) == 3
    assert len(result.certificates) == 3  # 0+1+2 pairwise checks
    for cert in result.certificates:
        assert isinstance(cert, OrthoCertificate)


def _build_by_rescans(count, epsilon, max_depth, candidates):
    """The family build that rescans every unused candidate after each new
    member, as ``build_family`` once did."""
    pool, measures, certificates = list(candidates), [], []
    while len(measures) < count:
        result = extend_family(measures, pool, epsilon, max_depth, recheck=False)
        if isinstance(result, Failure):
            return FamilyBuildResult(tuple(measures), tuple(certificates), result)
        measures.append(result.code)
        certificates += result.certificates
        del pool[result.candidate_index]
    return FamilyBuildResult(tuple(measures), tuple(certificates), None)


def test_build_family_takes_each_candidate_once(monkeypatch):
    calls = []
    search = orthogonality.ortho_certificate
    monkeypatch.setattr(
        orthogonality, "ortho_certificate", lambda *args: calls.append(args) or search(*args)
    )
    out = build_family(6, F(9, 20), 10)
    assert len(calls) == 22
    calls.clear()
    rescanned = _build_by_rescans(6, F(9, 20), 10, perfect_family(16))
    assert len(calls) == 29  # candidates passed over are searched again after each member
    assert repr(out) == repr(rescanned)


@pytest.mark.parametrize("epsilon, max_depth", [(F(9, 20), 8), (F(2, 5), 12)])
def test_build_family_matches_the_rescanning_build(epsilon, max_depth):
    candidates = perfect_family(12)
    random.Random(24).shuffle(candidates)
    candidates.insert(4, candidates[1])  # a duplicate is refused against its twin
    out = build_family(8, epsilon, max_depth, candidates)
    assert repr(out) == repr(_build_by_rescans(8, epsilon, max_depth, candidates))
    assert out.failure is not None
    assert len(out.failure.best_gaps) == len(candidates) - len(out.measures)
