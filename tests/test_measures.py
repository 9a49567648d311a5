import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from cmc import (
    Convex,
    CylinderFamily,
    Dirac,
    FiniteSupport,
    ProductCode,
    SemanticError,
    TableCode,
    Uniform,
    Violation,
    enumerate_dense,
    eval_cylinder,
    measure_of_family,
    metric_bracket,
    parse,
    validate_additivity,
)
from cmc import measures
from cmc.bits import PeriodicBits, all_strings_of_length, shortlex_key, shortlex_string, sibling
from cmc.measures import UNIFORM_SCHEDULE, ExactSum
from cmc.schedules import ConstantSchedule, ExplicitSchedule


def test_uniform_masses():
    u = Uniform()
    assert u.mass("") == 1
    assert u.mass("01") == F(1, 4)
    assert u.mass("0110") == F(1, 16)


def test_dirac_masses():
    d = Dirac("01")  # the branch 0,1,0,0,...
    assert d.mass("") == 1
    assert d.mass("0") == 1
    assert d.mass("01") == 1
    assert d.mass("0100") == 1
    assert d.mass("1") == 0
    assert d.mass("011") == 0


def test_dirac_long_cylinders():
    # a point mass is 1 on the prefixes of its branch and 0 off them
    branch = PeriodicBits("110", "10")
    on = "".join(str(branch[k]) for k in range(100_000))
    d = Dirac(branch)
    assert d.mass(on[:10]) == 1  # a short prefix first, then a longer one
    assert d.mass(on) == 1
    assert d.mass(on[:-1] + str(1 - branch[99_999])) == 0
    assert d.mass(str(1 - branch[0]) + on[1:]) == 0
    assert d.mass(on[:50_000] + str(1 - branch[50_000]) + on[50_001:]) == 0
    assert Dirac(branch).mass(on[:-1] + str(1 - branch[99_999])) == 0  # cold


def test_finite_support_masses():
    f = FiniteSupport([("0", F(2, 3)), ("1", F(1, 3))])
    assert f.mass("0") == F(2, 3)
    assert f.mass("00") == F(2, 3)  # weight rides the all-zeros extension
    assert f.mass("01") == 0
    assert f.mass("10") == F(1, 3)
    assert f.mass("11") == 0


def test_finite_support_weight_check():
    # leaves and weights are checked pair by pair in input order, then the sum
    with pytest.raises(SemanticError, match="^finite-support weights sum to 7/6, not 1$"):
        FiniteSupport([("0", F(2, 3)), ("1", F(1, 2))])
    with pytest.raises(SemanticError, match=r"^weight 3/2 outside \[0, 1\]$"):
        FiniteSupport([("0", F(3, 2))])
    with pytest.raises(SemanticError, match=r"^weight 2 outside \[0, 1\]$"):
        FiniteSupport([("1", 2), ("0", 3)])
    with pytest.raises(SemanticError, match="^finite-support weights sum to 5/6, not 1$"):
        FiniteSupport([("0", F(1, 2)), ("1", F(1, 3))])
    with pytest.raises(SemanticError, match="^convex weights sum to 5/6, not 1$"):
        Convex([(F(1, 2), Uniform()), (F(1, 3), Uniform())])
    with pytest.raises(SemanticError, match=r"^weight 3/2 outside \[0, 1\]$"):
        FiniteSupport([("0", F(3, 2)), ("2", F(1))])
    with pytest.raises(ValueError, match="^not a bitstring: '2'$"):
        FiniteSupport([("2", F(1)), ("0", F(3, 2))])
    with pytest.raises(ValueError, match="^not a bitstring: 5$"):
        FiniteSupport([(5, F(1))])


def _leaf_rule_mass(pairs, s):
    """Reference: the rule finite supports had before they were mixtures of
    point masses.  A leaf's weight counts where ``s`` and the leaf agree on
    their common part and ``s`` has only zeros past the leaf."""
    total = F(0)
    for leaf, w in pairs:
        head, tail = s[: len(leaf)], s[len(leaf) :]
        if leaf.startswith(head) and tail.strip("0") == "":
            total += w
    return total


_LEAF_SHAPES = {
    "empty-leaf": [("", F(1, 3)), ("1", F(2, 3))],
    "duplicate": [("01", F(1, 4)), ("1", F(1, 4)), ("01", F(1, 2))],
    "nested": [("00", F(1, 3)), ("0", F(1, 3)), ("1", F(1, 3))],
    "zero-weight": [("1", F(0)), ("011", F(1, 2)), ("0", F(1, 2))],
    "three": [("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))],
}


@pytest.mark.parametrize("name", _LEAF_SHAPES)
def test_finite_support_matches_leaf_rule(name):
    pairs = _LEAF_SHAPES[name]
    f = FiniteSupport(pairs)
    assert isinstance(f, Convex) and all(type(point) is Dirac for _, point in f.terms)
    assert f.pairs == tuple(sorted(pairs, key=lambda p: (len(p[0]), p[0])))
    long = ["0" * 3000] + [leaf + "0" * 2000 + tail for leaf, _ in pairs for tail in ("", "1")]
    for s in [s for n in range(9) for s in all_strings_of_length(n)] + long:
        assert f.mass(s) == _leaf_rule_mass(pairs, s), s
    for s in long:
        assert FiniteSupport(pairs).mass(s) == _leaf_rule_mass(pairs, s), s  # cold


def test_convex_eval():
    c = Convex([(F(1, 2), Uniform()), (F(1, 2), Dirac("0"))])
    assert c.mass("0") == F(3, 4)
    assert c.mass("1") == F(1, 4)
    with pytest.raises(SemanticError):
        Convex([(F(1, 2), Uniform()), (F(1, 3), Uniform())])


def test_product_masses():
    p = ProductCode(ConstantSchedule(F(1, 3)))
    assert p.mass("0") == F(1, 3)
    assert p.mass("01") == F(2, 9)
    q = ProductCode(ExplicitSchedule([F(1, 4), F(1, 2)], "cycle"))
    assert q.mass("11") == F(3, 8)
    assert q.mass("110") == F(3, 32)  # coordinate 2 cycles back to 1/4


def test_table_masses():
    t = TableCode(2, {"0": F(1, 3)})
    assert t.mass("1") == F(2, 3)  # sibling derived from the parent
    assert t.mass("00") == F(1, 6)  # even split where no entry constrains
    assert t.mass("000") == F(1, 12)  # uniform below the stored depth
    with pytest.raises(SemanticError):
        TableCode(1, {"00": F(1, 4)})


def _entry_rule_mass(table, s):
    """Reference: the table rule as it was read at query time, from the root.
    Within the depth a cell takes its entry, else its parent's mass less its
    sibling's entry, else half its parent's; below the depth it halves."""
    entries, d = table.entries, min(len(s), table.depth)
    v = entries.get("", F(1))
    for i in range(1, d + 1):
        t, sib = s[:i], sibling(s[:i])
        v = entries[t] if t in entries else v - entries[sib] if sib in entries else v / 2
    return v / 2 ** (len(s) - d)


def _random_table(rng, kind):
    """A ``sparse`` table (up to three entries anywhere), a ``nested`` one
    (entries along one branch), one with a ``root`` entry other than 1, or an
    ``inconsistent`` one (an entry above its parent's, so its sibling's
    derived mass is negative)."""
    depth = rng.randrange(2, 8)
    word = lambda n: "".join(rng.choice("01") for _ in range(n))
    if kind == "nested":
        branch = word(depth)
        keys = [branch[:n] for n in range(1, depth + 1) if rng.random() < 0.6]
    else:
        keys = [word(rng.randrange(1, depth + 1)) for _ in range(rng.randrange(4))]
    entries = {key: F(rng.randrange(9), 8) for key in keys}
    if kind == "root":
        entries[""] = F(rng.randrange(8), 8)
    if kind == "inconsistent":
        t = word(rng.randrange(2, depth + 1))
        entries[t[:-1]], entries[t] = F(1, 4), F(3, 4)
        entries.pop(sibling(t), None)
    return TableCode(depth, entries)


@pytest.mark.parametrize("kind", ["sparse", "nested", "root", "inconsistent", "edge"])
def test_table_matches_entry_rule(kind):
    rng = random.Random(kind)
    if kind == "edge":
        tables = [Uniform(), TableCode(0, {}), TableCode(0, {"": F(1, 2)})]
        tables.append(TableCode(1, {"1": F(1, 3)}))
    else:
        tables = [_random_table(rng, kind) for _ in range(8)]
    for table in tables:
        strings = [s for n in range(table.depth + 4) for s in all_strings_of_length(n)]
        strings.append("".join(rng.choice("01") for _ in range(600)))
        want = [_entry_rule_mass(table, s) for s in strings]
        assert kind != "inconsistent" or min(want) < 0
        assert [TableCode(table.depth, table.entries).mass(s) for s in strings] == want  # cold
        for _ in range(2):  # the first pass fills the memo, the second reads it
            assert [table.mass(s) for s in strings] == want
        # wherever the table gives a conditional ratio, it is the masses' ratio
        long = strings[-1]
        for s, i in [(s, len(s)) for s in strings[1:-1]] + [(long, i) for i in range(1, 601)]:
            rule = table._split(s, i)
            if rule is not None:
                p, q = rule
                assert _entry_rule_mass(table, s[:i]) * q == _entry_rule_mass(table, s[: i - 1]) * p


def test_product_below_per_code_kind():
    u = UNIFORM_SCHEDULE
    assert Uniform().product_below("") is u and Uniform().product_below("0101") is u
    third = ConstantSchedule(F(1, 3))
    assert ProductCode(third).product_below("11") is third
    assert Dirac("01").product_below("0") is None
    assert FiniteSupport([("0", F(1))]).product_below("1") is None
    t = TableCode(2, {"0": F(1, 3)})
    assert [t.product_below(s) for s in ("", "1", "10", "101")] == [None, None, u, u]
    # a mixture is a product where its terms of positive weight and mass
    # share one schedule object
    mix = Convex([(F(1, 2), t), (F(1, 2), Uniform()), (F(0), ProductCode(third))])
    assert mix.product_below("1") is None and mix.product_below("10") is u
    point = Convex([(F(1, 2), Dirac("0")), (F(1, 2), Uniform())])
    assert point.product_below("0") is None and point.product_below("10") is u
    equal = Convex([(F(1, 2), ProductCode(ConstantSchedule(F(1, 2)))), (F(1, 2), Uniform())])
    assert equal.product_below("0") is None
    assert Convex([(F(1, 2), Uniform()), (F(1, 2), ProductCode(third))]).product_below("0") is None


def test_cold_deep_cylinders():
    # a cold length-5000 cylinder is derived parent by parent, without
    # recursing once per level
    s = "01" * 2500
    p = ProductCode(ConstantSchedule(F(1, 3)))
    assert p.mass(s) == F(1, 3) ** 2500 * F(2, 3) ** 2500
    c = Convex([(F(1, 2), ProductCode(ConstantSchedule(F(1, 3)))), (F(1, 2), Uniform())])
    assert c.mass(s) == (F(1, 3) ** 2500 * F(2, 3) ** 2500 + F(1, 2**5000)) / 2
    t = TableCode(5000, {"1": F(1, 4)})
    assert t.mass("0" * 5000) == F(3, 4) / 2**4999


class _CountingDict(dict):
    """A dict that counts its lookups by key."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_deep_table_with_shallow_entries_reads_in_linear_time():
    # a table reads no prefix longer than its deepest named cell, so a cold
    # length-5000 read and the conditional ratios at every level each look
    # up a bounded number of cells, not one per level of the stored depth
    t = TableCode(5000, {"0": F(1, 2)})
    s = "0" * 5000
    cells = t._cells = _CountingDict(t._cells)
    assert t.mass(s) == F(1, 2**5000)
    assert cells.lookups <= 2
    cells.lookups = 0
    assert [t._split(s, i) for i in range(2, 5001)] == [(1, 2)] * 4999
    assert cells.lookups == 0


def test_cold_read_of_a_fresh_code_looks_up_no_prefix():
    # with nothing memoized the descent starts at the root: it does not look
    # up each of the string's prefixes first
    p = ProductCode(ConstantSchedule(F(1, 3)))
    memo = p._memo = _CountingDict()
    assert p.mass("01" * 2500) == F(2, 9) ** 2500
    assert memo.lookups <= 2


def test_validate_additivity_reports_first_violation():
    bad = TableCode(2, {"0": F(1, 3), "00": F(1, 2), "01": F(1, 2)})
    v = validate_additivity(bad, 3)
    assert v == Violation("0", F(1, 3), F(1, 1))
    assert validate_additivity(TableCode(2, {"0": F(1, 3)}), 6) == "ok"


def test_validate_normalization():
    bad = TableCode(0, {"": F(1, 2)})
    assert validate_additivity(bad, 2) == Violation("", F(1, 2), F(1))


def test_shortlex_string():
    assert [shortlex_string(n) for n in range(7)] == [
        "",
        "0",
        "1",
        "00",
        "01",
        "10",
        "11",
    ]


def test_cylinder_family_canonical():
    fam = CylinderFamily(["10", "0", "00", "10", "1"])
    assert fam.canonical() == ("0", "1")


def _quadratic_canonical(strings):
    """The canonical antichain by testing each string against every kept one."""
    keep = []
    for s in sorted(set(strings), key=shortlex_key):
        if not any(s.startswith(t) for t in keep):
            keep.append(s)
    return tuple(keep)


def test_cylinder_family_canonical_matches_quadratic_reference():
    rng = random.Random(51)
    for _ in range(300):
        pool = ["".join(rng.choice("01") for _ in range(rng.randrange(9))) for _ in range(12)]
        strings = [rng.choice(pool) for _ in range(rng.randrange(25))]  # duplicates
        strings += [s + "".join(rng.choice("01") for _ in range(3)) for s in strings[:4]]  # nested
        if rng.random() < 0.1:
            strings.append("")
        rng.shuffle(strings)
        assert CylinderFamily(strings).canonical() == _quadratic_canonical(strings)
    assert CylinderFamily(["01", "", "1"]).canonical() == ("",)


def test_measure_of_family_order_and_overlap_invariant():
    u = Uniform()
    assert measure_of_family(u, ["0", "1"]) == 1
    assert measure_of_family(u, ["0", "00", "01", "10"]) == F(3, 4)
    assert measure_of_family(u, ["10", "01", "0", "0"]) == F(3, 4)


def test_metric_bracket_width_and_monotonicity():
    u, d = Uniform(), Dirac("0")
    lo1, hi1 = metric_bracket(u, d, 8)
    lo2, hi2 = metric_bracket(u, d, 16)
    assert hi1 - lo1 == F(1, 256)
    assert hi2 - lo2 == F(1, 65536)
    assert lo1 <= lo2 and hi2 <= hi1 + F(1, 256)
    assert lo2 <= hi1 and lo1 <= hi2  # brackets intersect


def test_metric_bracket_first_terms():
    # independent hand computation over the shortlex strings '', 0, 1:
    # |1-1|/2 + |1/2-1|/4 + |1/2-0|/8 = 1/8 + 1/16
    lo, hi = metric_bracket(Uniform(), Dirac("0"), 3)
    assert lo == F(3, 16)
    assert hi == F(3, 16) + F(1, 8)


def test_metric_of_identical_codes():
    lo, hi = metric_bracket(Uniform(), Uniform(), 10)
    assert lo == 0 and hi == F(1, 1024)


# reduced terms of mixed denominators, and unreduced ones over a few shared ones
_ratio_pairs = st.one_of(
    st.fractions(max_denominator=10**9).map(F.as_integer_ratio),
    st.tuples(st.integers(-(10**30), 10**30), st.sampled_from([1, 2, 6, 2**40, 3**30])),
)


@given(st.lists(_ratio_pairs, max_size=30))
@example([])
@settings(max_examples=100, deadline=None)
def test_exact_sum_equals_fraction_sum(pairs):
    pairs += pairs[: len(pairs) // 2]  # repeated terms
    total = ExactSum()
    for n, d in pairs:
        total.add(n, d)
    assert type(total.value()) is F
    assert total.value() == sum((F(n, d) for n, d in pairs), F(0))


def _per_term_bracket(f, g, N):
    lo = F(0)
    for n in range(N):
        s = shortlex_string(n)
        lo += F(1, 1 << (n + 1)) * abs(f.mass(s) - g.mass(s))
    return lo, lo + F(1, 1 << N)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 6, 7, 8, 300, 2047])
def test_metric_bracket_matches_per_term_sum(N):
    table = "table(2; 0=1/3, 00=1/4, 10=1/2)"
    texts = [
        (table, "table(3; 0=3/5, 01=1/5, 101=1/7)"),
        ("convex(1/3: uniform, 2/3: dirac(01))", "finite(000: 1/2, 001: 1/4, 1: 1/4)"),
        (table, f"coded({table}; 101)"),
        ("dirac(0110)", table),  # a point mass keeps no memo
    ]
    for x, y in texts:
        f, g = parse(x), parse(y)
        assert metric_bracket(f, g, N) == _per_term_bracket(f, g, N)
        assert metric_bracket(g, f, N) == metric_bracket(f, g, N)
        for code in (f, g):
            assert metric_bracket(code, code, N) == (0, F(1, 1 << N))


@pytest.mark.parametrize("N", [0, 1, 2, 3, 6, 7, 8, 300])
def test_metric_bracket_reads_each_string_once_in_shortlex_order(N):
    for x, y in [
        ("table(2; 0=1/3, 00=1/4, 10=1/2)", "coded(uniform; 101)"),
        ("dirac(01)", "finite(0: 1/2, 11: 1/2)"),
    ]:
        f, g = parse(x), parse(y)
        reads = [], []
        for code, log in zip((f, g), reads):
            code._read = lambda s, read=code._read, log=log: log.append(s) or read(s)
        metric_bracket(f, g, N)
        assert reads == ([shortlex_string(n) for n in range(N)],) * 2


def test_enumerate_dense_first_members():
    first = enumerate_dense(0)
    assert first.mass("") == 1 and first.mass("0") == 1
    seen = set()
    for i in range(40):
        m = enumerate_dense(i)
        assert validate_additivity(m, 4) == "ok"
        seen.add(tuple(m.pairs))
    assert len(seen) > 10  # genuinely many distinct members


def test_enumerate_dense_stable():
    assert enumerate_dense(3).pairs == enumerate_dense(3).pairs


def _recursive_compositions(total, parts):
    """The vectors of ``parts`` naturals summing to ``total``, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_recursive_reference():
    for total in range(9):
        for parts in range(1, 9):
            got = list(measures._compositions(total, parts))
            assert got == list(_recursive_compositions(total, parts))


def test_dense_family_unchanged_by_compositions(monkeypatch):
    # the first 3000 members, against the family built on the recursive form
    got = list(islice(measures._dense_units(), 3000))
    monkeypatch.setattr(measures, "_compositions", _recursive_compositions)
    assert got == list(islice(measures._dense_units(), 3000))
    assert [enumerate_dense(i).pairs for i in range(3000)] == [
        FiniteSupport(pairs).pairs for pairs in got
    ]


def _random_code(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Uniform()
    if kind == 1:
        denom = rng.randrange(2, 9)
        return ProductCode(ConstantSchedule(F(rng.randrange(1, denom), denom)))
    if kind == 2:
        leaves = all_strings_of_length(rng.randrange(1, 3))
        cuts = sorted(rng.randrange(0, 13) for _ in range(len(leaves) - 1))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [12])]
        return FiniteSupport(
            [(l, F(w, 12)) for l, w in zip(leaves, weights) if w]
        )
    entries = {}
    for s in all_strings_of_length(1):
        entries[s] = F(rng.randrange(1, 8), 8) if s == "0" else None
    return TableCode(2, {"0": entries["0"]})


@given(st.integers(0, 2**32 - 1), st.integers(0, 62))
@settings(max_examples=60, deadline=None)
def test_additivity_property(seed, strindex):
    code = _random_code(random.Random(seed))
    s = shortlex_string(strindex)
    assert code.mass(s) == code.mass(s + "0") + code.mass(s + "1")
    assert 0 <= code.mass(s) <= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_family_mass_shuffle_property(seed):
    rng = random.Random(seed)
    code = _random_code(rng)
    strings = [shortlex_string(rng.randrange(1, 31)) for _ in range(6)]
    base = measure_of_family(code, strings)
    rng.shuffle(strings)
    assert measure_of_family(code, strings + strings[:2]) == base
