import copy
import gc
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest

from cmc import (
    BudgetExceeded,
    Convex,
    Dirac,
    FiniteSupport,
    NOT_YET_STABLE,
    NotInCodingDomain,
    ProductCode,
    SemanticError,
    TableCode,
    Uniform,
    ZeroMass,
    decode,
    density,
    density_limit,
    encode,
    eval_cylinder,
    in_coding_domain,
    measure_of_family,
    offspine_decomposition,
    spine,
    validate_additivity,
)
from cmc import codec, measures, parse, print_measure
from cmc.codec import CodedMeasure, Stabilized
from cmc.bits import ZEROS, PeriodicBits, all_strings_of_length
from cmc.measures import UNIFORM_SCHEDULE, MeasureCode, Violation
from cmc.schedules import ConstantSchedule, ExplicitSchedule, Schedule, ks_schedule


def _mixed_base():
    # positive mass everywhere, but far from uniform
    return Convex(
        [(F(1, 2), Uniform()), (F(1, 2), ProductCode(ConstantSchedule(F(1, 5))))]
    )


def _random_table(rng, depth=6):
    entries = {}
    frontier = {"": F(1)}
    for _ in range(depth):
        nxt = {}
        for s, m in frontier.items():
            num = rng.randrange(1, 8)
            entries[s + "0"] = m * F(num, 8)
            entries[s + "1"] = m * F(8 - num, 8)
            nxt[s + "0"] = entries[s + "0"]
            nxt[s + "1"] = entries[s + "1"]
        frontier = nxt
    return TableCode(depth, entries)


def test_spine_basics():
    assert spine(Uniform(), 0, budget=4).nodes == ("",)
    with pytest.raises(BudgetExceeded):
        spine(Dirac("0"), 0, budget=8)  # a point mass never splits


def test_spine_skips_non_splitting_levels():
    # all mass below '0' rides one branch until depth 2, then splits
    pairs = [("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))]
    assert spine(FiniteSupport(pairs), 1, budget=8).nodes == ("", "00")
    with pytest.raises(BudgetExceeded):
        # '00' lies a level below the search start '0'
        spine(FiniteSupport(pairs), 1, budget=0)


def test_spine_of_uniform():
    assert spine(Uniform(), 3).nodes == ("", "0", "00", "000")


def test_spine_follows_zero_child():
    f = FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))])
    assert spine(f, 1, budget=16).nodes == ("", "00")
    with pytest.raises(BudgetExceeded):
        spine(f, 2, budget=16)  # below '000' the support is a single branch


def test_encode_requires_normalized_base():
    with pytest.raises(ZeroMass):
        encode(TableCode(0, {"": F(1, 2)}), "1")


def test_encode_stamps_exact_ratios():
    g = encode(Uniform(), "10")
    # spine node '' stamped with bit 1: child 0 gets 2/3
    assert g.mass("0") == F(2, 3)
    assert g.mass("1") == F(1, 3)
    # spine node '0' stamped with bit 0: child 1 gets 2/3
    assert g.mass("00") == F(2, 9)
    assert g.mass("01") == F(4, 9)
    # beyond the payload the base conditionals return
    assert g.mass("000") == F(1, 9)
    assert validate_additivity(g, 6) == "ok"


def test_decode_round_trip_small():
    base = _mixed_base()
    payload = "1011001"
    assert decode(encode(base, payload), len(payload)) == payload


def test_decode_round_trip_table():
    rng = random.Random(7)
    base = _random_table(rng)
    payload = "".join(rng.choice("01") for _ in range(32))
    g = encode(base, payload)
    assert decode(g, 32) == payload
    assert in_coding_domain(g, 32) is True


def test_not_in_coding_domain():
    result = in_coding_domain(Uniform(), 1)
    assert result == (False, 0, "")
    with pytest.raises(NotInCodingDomain) as exc:
        decode(Uniform(), 1)
    assert exc.value.index == 0 and exc.value.node == ""


def test_decode_budget_exhaustion():
    with pytest.raises(BudgetExceeded):
        decode(Dirac("0"), 1, budget=16)


def test_density_scaling_off_spine():
    g = encode(Uniform(), "1")
    # theta is constant below the off-spine root '1'
    theta = density(g, "1")
    assert theta == F(2, 3)
    for u in ["10", "11", "101", "1101"]:
        assert g.mass(u) == theta * Uniform().mass(u)
    assert density(g, "0") == F(4, 3)


def test_density_rejects_plain_codes():
    with pytest.raises(TypeError):
        density(Uniform(), "0")


def test_density_limit():
    g = encode(Uniform(), "11")
    assert density_limit(g, "0") is NOT_YET_STABLE
    assert density_limit(g, "00") is NOT_YET_STABLE
    out = density_limit(g, "1")
    assert isinstance(out, Stabilized) and out.theta == F(2, 3)
    assert density_limit(g, "01") == Stabilized(F(4, 3) * F(2, 3) / F(1, 2) * F(1, 4) / F(1, 2))


def test_offspine_decomposition_uniform():
    assert offspine_decomposition(Uniform(), 3) == ["1", "01", "001"]
    assert offspine_decomposition(Uniform(), 0) == []


def test_offspine_covers_level():
    parts = offspine_decomposition(Uniform(), 4)
    from cmc import measure_of_family

    g = encode(Uniform(), "1010")
    total = sum(g.mass(s) for s in parts) + g.mass("0000")
    assert total == 1
    assert measure_of_family(g, parts + ["0000"]) == 1


def test_zero_sets_preserved():
    base = FiniteSupport([("00", F(1, 2)), ("01", F(1, 4)), ("1", F(1, 4))])
    g = encode(base, "101")
    for s in all_strings_of_length(4):
        assert (g.mass(s) == 0) == (base.mass(s) == 0)


def test_spine_preserved_by_encoding():
    base = _mixed_base()
    g = encode(base, "110010")
    assert spine(g, 6).nodes == spine(base, 6).nodes


def test_cold_deep_coded_cylinder():
    # the base's spine runs down the zeros: "", "0", "00", ...; the payload
    # stamps the first three nodes, the base's 1/3 takes over below
    g = encode(ProductCode(ConstantSchedule(F(1, 3))), "101")
    assert g.mass("0" * 5000) == F(2, 3) * F(1, 3) * F(2, 3) * F(1, 3) ** 4997


def test_coded_product_below():
    u = UNIFORM_SCHEDULE
    # the uniform spine is "", "0", "00", ...; the payload stamps "" and "0"
    g = encode(Uniform(), "10")
    assert [g.product_below(s) for s in ("", "0", "1", "00", "01", "0010")] == [
        None, None, u, u, u, u
    ]
    # an infinite payload stamps every node, so the zeros never turn product
    h = encode(Uniform(), PeriodicBits("", "1"))
    assert [h.product_below(s) for s in ("000", "001", "1")] == [None, u, u]
    third = ConstantSchedule(F(1, 3))
    assert encode(ProductCode(third), "101").product_below("001") is third
    assert encode(ProductCode(third), "").product_below("") is third
    # a table base is a product below its depth only; a coded base below its
    # own stamped nodes too
    t = encode(TableCode(2, {"1": F(1, 4)}), "1")
    assert [t.product_below(s) for s in ("1", "01", "10")] == [None, u, u]
    cc = encode(encode(Uniform(), "101"), "1")
    assert [cc.product_below(s) for s in ("0", "00", "000", "01", "1")] == [None, None, u, u, u]
    dead = TableCode(1, {"0": F(0), "1": F(0)})
    assert [encode(dead, "1").product_below(s) for s in ("", "0")] == [None, u]
    # bit 0 is certain on three coordinates, so the base's first spine node
    # is '000', still ahead of the cursor when '0' is asked about
    class SureThenFair(Schedule):
        def alpha(self, n):
            return F(1) if n < 3 else F(1, 2)

    sure = SureThenFair()
    late = encode(ProductCode(sure), "1")
    assert [late.product_below(s) for s in ("0", "00", "0001")] == [None, None, sure]


def _descent_cases():
    """Codes given by conditional ratios, and coded codes over bases with and
    without them, by name."""
    bases = {
        "uniform": Uniform,
        "const": lambda: ProductCode(ConstantSchedule(F(1, 3))),
        "ks": lambda: ProductCode(ks_schedule(PeriodicBits("0", "1"))),
        "list": lambda: ProductCode(ExplicitSchedule([F(1, 3), F(2, 5), F(3, 4)], "cycle")),
        "table": lambda: TableCode(3, {"0": F(1, 3), "00": F(1, 4), "10": F(1, 2), "101": F(1, 7)}),
        # queries up to length 64 lie within its depth, the long ones below it
        "deep-table": lambda: TableCode(70, {"1": F(1, 4), "01": F(1, 2), "0" * 40: F(1, 9)}),
        "convex": _mixed_base,
        "finite": lambda: FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))]),
    }
    cases = {k: v for k, v in bases.items() if k not in ("convex", "finite")}
    for name in ("uniform", "const", "table", "convex", "finite"):
        for payload in ("", "101", "1011001110001011"):
            cases[f"coded-{name}-{payload}"] = lambda b=bases[name], p=payload: encode(b(), p)
    return cases


DESCENT_CASES = _descent_cases()


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_cold_descent_matches_parent_first_chain(name):
    make = DESCENT_CASES[name]
    rng = random.Random(name)
    queries = ["".join(rng.choice("01") for _ in range(rng.randrange(65))) for _ in range(40)]
    queries += ["0" * 600, "1" * 600, "01" * 300]
    chain = make()
    for n in range(7):
        for s in all_strings_of_length(n):
            chain.mass(s)
    for s in queries:
        for k in range(len(s)):
            chain.mass(s[:k])
        assert make().mass(s) == chain.mass(s), s


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_cold_query_memoizes_no_ancestors(name):
    for pattern in ("01", "1", "0"):
        sizes = []
        for n in (60, 600):
            g = DESCENT_CASES[name]()
            g.mass((pattern * n)[:n])
            base = getattr(g, "base", g)
            # a mixture (a finite support too) as a base gets one cylinder per level
            mixed = isinstance(base, Convex)
            sizes.append((len(g._memo), 0 if mixed else len(base._memo)))
        assert sizes[0] == sizes[1] and sizes[0][0] == 1, (pattern, sizes)


def test_decode_budget_leaves_the_memo_alone():
    # the spine cursor walks the zeros below '000' and memoizes nothing
    f = FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))])
    with pytest.raises(BudgetExceeded, match="^no splitting node extending '000' within 2048 levels$"):
        decode(f, 3, budget=2048)
    assert len(f._memo) < 16


def test_decode_budget_leaves_the_point_masses_alone():
    # a finite support's cursor reads its point masses without their memos
    f = FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))])
    text = "^no splitting node extending '000' within 512 levels$"
    with pytest.raises(BudgetExceeded, match=text):
        decode(f, 3, budget=512)
    assert [len(point._memo) for _, point in f.terms] == [0, 0, 0]


def test_decode_leaves_a_mixtures_point_masses_alone():
    # a user-written mixture's cursor reads its point masses by prefix tests
    f = Convex([(F(1, 2), Dirac("0")), (F(1, 2), Dirac("1"))])
    text = "^no splitting node extending '0' within 8192 levels$"
    with pytest.raises(BudgetExceeded, match=text):
        decode(f, 2, budget=8192)
    assert [point._memo for _, point in f.terms] == [{}, {}]


def test_coded_table_memoizes_only_named_cells():
    # the named cells of table(8; 0=1/2) are '', '0' and '1'; a coded descent
    # takes every other conditional ratio from the table's even split
    for s in ("0" * 600, "1" * 600, "01" * 300):
        g = encode(TableCode(8, {"0": F(1, 2)}), "1011")
        assert g.mass(s) > 0
        assert set(g.base._memo) <= {"", "0", "1"}, s


def test_finite_payload_then_base():
    g = encode(Uniform(), "1")
    # only the root is stamped; '0' keeps uniform conditionals
    assert g.mass("00") == g.mass("01") == F(1, 3)


class _FrontierSpine:
    """Reference spine search: a level-by-level frontier of the strings of
    positive mass below the search start, scanned in lex order for the first
    splitting node.  A search capped at length ``cap`` stops quietly there,
    where the frontier dies, or, given ``within``, where no frontier string
    is a prefix of ``within``: a string off the frontier's branch is not a
    node yet to be found.  An uncapped one raises."""

    def __init__(self):
        self.nodes = []
        self.index = {}
        self.start = ""
        self.frontier = None

    def step(self, code, cap, budget, within=None):
        if self.frontier is None:
            self.frontier = [self.start]
        while True:
            if not self.frontier:
                return "dead"
            cur_len = len(self.frontier[0])
            if cur_len > cap:
                return "over-limit"
            if within is not None and not any(within.startswith(t) for t in self.frontier):
                return "off-branch"
            if cur_len - len(self.start) > budget:
                raise BudgetExceeded(
                    f"no splitting node extending {self.start!r} within {budget} levels"
                )
            for t in self.frontier:
                if code.mass(t + "0") > 0 and code.mass(t + "1") > 0:
                    self.index[t] = len(self.nodes)
                    self.nodes.append(t)
                    self.start = t + "0"
                    self.frontier = None
                    return "found"
            self.frontier = [t + b for t in self.frontier for b in "01" if code.mass(t + b) > 0]

    def extend(self, code, budget, count=0, length=None, cap=float("inf"), within=None):
        nodes = self.nodes
        while len(nodes) < count or (length is not None and (not nodes or len(nodes[-1]) < length)):
            if self.step(code, cap, budget, within) != "found":
                if cap == float("inf"):
                    raise BudgetExceeded("spine ended: no further splitting node")
                return

    # the cursor cache's views, which ``spine`` and ``decode`` read: every
    # node is a prefix of the last one
    @property
    def path(self):
        return self.nodes[-1] if self.nodes else ""

    @property
    def depths(self):
        return [len(t) for t in self.nodes]


def _frontier_spine(code):
    # encoding keeps the zero sets, so a coded code's spine is its base's
    if isinstance(code, CodedMeasure):
        return _frontier_spine(code.base)
    if "_frontier" not in vars(code):
        code._frontier = _FrontierSpine()
    return code, code._frontier


class _FrontierCoded(CodedMeasure):
    def _spine_index_of(self, s):
        root, cache = _frontier_spine(self.base)
        cache.extend(root, self.budget, length=len(s) + 1, cap=len(s), within=s)
        k = cache.index.get(s)
        return k if k is not None and k < len(self.payload) else None


def _frontier_offspine(code, depth, budget):
    if depth == 0:
        return []
    root, cache = _frontier_spine(code)
    cache.extend(root, budget, length=depth)
    path = cache.path[:depth]
    return [path[: j - 1] + ("1" if path[j - 1] == "0" else "0") for j in range(1, depth + 1)]


def _sparse_table(rng, depth, additive):
    # children of zero mass, single branches and, when not additive, child
    # masses that do not sum to the parent's (possibly both zero)
    entries, frontier = {}, {"": F(1)}
    for _ in range(depth):
        nxt = {}
        for s, m in frontier.items():
            num = rng.choice([0, 8, rng.randrange(9)])
            a, b = m * F(num, 8), m * F(8 - num, 8)
            if not additive and rng.random() < 0.3:
                a, b = F(rng.randrange(3), 4), F(rng.randrange(3), 4)
            entries[s + "0"] = nxt[s + "0"] = a
            entries[s + "1"] = nxt[s + "1"] = b
        frontier = nxt
    return TableCode(depth, entries)


def _finite_support(rng):
    strings = []
    for _ in range(rng.randrange(1, 5)):
        t = "".join(rng.choice("01") for _ in range(rng.randrange(9)))
        if not any(t.startswith(u) or u.startswith(t) for u in strings):
            strings.append(t)
    weights = [rng.randrange(1, 5) for _ in strings]
    return FiniteSupport([(t, F(w, sum(weights))) for t, w in zip(strings, weights)])


def _outcome(fn):
    try:
        return fn()
    except (BudgetExceeded, NotInCodingDomain) as err:
        return (type(err).__name__, str(err))


def _spine_queries(make, budget, reference):
    """Outcomes of one sequence of spine queries on fresh codes from
    ``make``; the queries share each code's spine, so the searches resume."""
    code, base = make(), make()
    coded = (_FrontierCoded if reference else CodedMeasure)(base, "101", max(budget, 1))
    offspine = _frontier_offspine if reference else offspine_decomposition
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(codec, "_spine_cache", _frontier_spine)
        out = [_outcome(lambda: coded.mass(s)) for n in range(6) for s in all_strings_of_length(n)]
        for n in range(4):
            out.append(_outcome(lambda: spine(code, n, budget).nodes))
            out.append(_outcome(lambda: offspine(code, 2 * n + 1, budget)))
        out.append(_outcome(lambda: offspine(code, 0, budget)))
        out += [_outcome(lambda: decode(code, k, budget)) for k in range(4)]
        out += [_outcome(lambda: decode(coded, k, budget)) for k in range(4)]
    return out


def _spine_cases():
    rng = random.Random(11)
    cases = [("dead", lambda: TableCode(1, {"0": F(0), "1": F(0)})), ("dirac", lambda: Dirac("01"))]
    for i in range(8):
        seed = rng.random()
        cases.append((f"table{i}", lambda seed=seed: _sparse_table(random.Random(seed), 5, True)))
        cases.append(
            (f"nonadd{i}", lambda seed=seed: _sparse_table(random.Random(seed), 4, False))
        )
        cases.append((f"finite{i}", lambda seed=seed: _finite_support(random.Random(seed))))
    return cases


@pytest.mark.parametrize("budget", [0, 1, 2, 5])
def test_spine_cursor_matches_frontier_search(budget):
    for name, make in _spine_cases():
        expected = _spine_queries(make, budget, reference=True)
        assert _spine_queries(make, budget, reference=False) == expected, name


def test_dead_spine_texts():
    dead = TableCode(1, {"0": F(0), "1": F(0)})
    with pytest.raises(BudgetExceeded, match="^spine ended: no further splitting node$"):
        spine(dead, 0, budget=4)
    # a coded cylinder stops quietly where the base's spine ends
    assert encode(dead, "1").mass("0") == 0
    assert decode(dead, 0) == ""
    f = FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))])
    with pytest.raises(BudgetExceeded, match="^no splitting node extending '000' within 2 levels$"):
        spine(f, 2, budget=2)


def _counted_steps(monkeypatch):
    """The cursor's length at each ``_SpineCache._step`` call from now on."""
    steps, step = [], codec._SpineCache._step

    def counted(self, *args):
        steps.append(len(self.path))
        return step(self, *args)

    monkeypatch.setattr(codec._SpineCache, "_step", counted)
    return steps


def test_off_branch_read_stops_the_cursor(monkeypatch):
    # the uniform spine runs down the zeros; a read down the ones leaves it
    # below the root, so the cursor steps once, not once per level
    steps = _counted_steps(monkeypatch)
    g = parse("coded(uniform; 0x5)")
    assert eval_cylinder(g, "1" * 600) == F(2, 3) / 2**599  # payload bit 0 is 0
    assert len(steps) <= 2


def test_off_branch_reads_answer_within_a_small_budget():
    # the spine of f splits at the root and then runs down 0111000... without
    # splitting, so a budget of 1 ends every search below the root
    f = FiniteSupport([("0111", F(1, 2)), ("1101", F(1, 2))])
    assert encode(f, "1", 1).mass("1101") == encode(f, "1", 64).mass("1101") == F(1, 3)
    # a one-bit payload stamps the root only, so no read searches below it;
    # a second bit needs the next node, which the budget refuses
    assert encode(f, "1", 1).mass("01110") == encode(f, "1", 64).mass("01110") == F(2, 3)
    with pytest.raises(BudgetExceeded, match="^no splitting node extending '0' within 1 levels$"):
        encode(f, "11", 1).mass("01110")
    # the point mass's branch never splits; the table side is uniform
    base = parse("convex(1/2: dirac(0), 1/2: table(1; 0=0))")
    assert encode(base, "1", 1).product_below("1000") is UNIFORM_SCHEDULE
    assert encode(base, "1", 64).product_below("1000") is UNIFORM_SCHEDULE
    assert encode(base, "1", 1).product_below("0000") is None
    assert encode(base, "1", 64).product_below("0000") is None
    with pytest.raises(BudgetExceeded, match="^no splitting node extending '0' within 1 levels$"):
        encode(base, "11", 1).product_below("0000")


def test_finite_payload_stops_the_cursor_at_its_last_stamped_node(monkeypatch):
    # every cylinder of the table splits, so its spine runs down the zeros
    # one node per level; a one-bit payload stamps the root only, so a long
    # read down that branch steps the cursor past the root and no further
    steps = _counted_steps(monkeypatch)
    g = parse("coded(table(40000; 0=1/2); 1)")
    assert g.mass("0" * 40000) == F(2, 3) / 2**39999
    assert g.base._spine.depths == [0]
    assert len(steps) <= 2


def _traced_peak_mib(fn):
    """``fn()`` and the peak of the memory traced while it ran, in MiB."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


LONG_PAYLOAD = "".join(random.Random(20000).choice("01") for _ in range(20000))


@pytest.mark.parametrize(
    "read, want, limit",
    [
        (lambda g: decode(g, 20000), LONG_PAYLOAD, 60),
        # each stamped node gives child 0 one third
        (lambda g: encode(Uniform(), ZEROS).mass("0" * 20000), F(1, 3**20000), 30),
        (lambda g: density_limit(encode(Uniform(), "1"), "0" * 20000), NOT_YET_STABLE, 30),
    ],
    ids=["decode", "zeros-mass", "density-limit"],
)
def test_spine_memory_is_linear_in_its_length(read, want, limit):
    # the spine holds its branch once, as one path and the node depths, and
    # decode memoizes no node; one string per node would hold 2 * 10**8
    # characters for 20,000 nodes
    g = encode(Uniform(), LONG_PAYLOAD)
    out, peak = _traced_peak_mib(lambda: read(g))
    assert out == want and peak < limit


@pytest.mark.parametrize("budget", [1, 2])
def test_small_budget_answers_as_a_large_one_or_refuses(budget):
    # a small budget may refuse a read, but never changes an answer
    for name, make in _spine_cases():
        small, large = encode(make(), "101", budget), encode(make(), "101", 64)
        for s in (s for n in range(7) for s in all_strings_of_length(n)):
            for read in ("mass", "product_below"):
                got = _outcome(lambda: getattr(small, read)(s))
                if not (isinstance(got, tuple) and got[0] == "BudgetExceeded"):
                    assert got == getattr(large, read)(s), (name, read, s)


def test_coded_layers_share_one_spine_and_one_cursor(monkeypatch):
    # encoding keeps the base's spine, so a coded code steps its base's
    # cursor once per level, not once for itself and once for its base
    steps = _counted_steps(monkeypatch)
    g = encode(Uniform(), LONG_PAYLOAD[:2000])
    assert decode(g, 2000) == LONG_PAYLOAD[:2000]
    assert len(steps) <= 2001
    assert g._spine is g.base._spine and encode(g, "1")._spine is g.base._spine


def test_codes_are_freed_without_the_cycle_collector():
    # a spine holds no code, so reference counting alone frees a code once
    # its last reference goes
    gc.disable()
    try:
        g = parse("coded(convex(1/2: uniform, 1/2: product(const(1/3))); 0110)")
        assert validate_additivity(g, 8) == "ok"
        assert decode(g, 4) == "0110"
        assert spine(g.base, 4).nodes == ("", "0", "00", "000", "0000")
        refs = weakref.ref(g), weakref.ref(g.base)
        del g
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_coded_codes_survive_pickling_and_deep_copies():
    g = parse("coded(convex(1/2: uniform, 1/2: product(const(1/3))); 0110)")
    assert decode(g, 4) == "0110"
    for h in [pickle.loads(pickle.dumps(g, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [
        copy.deepcopy(g)
    ]:
        assert h._spine is h.base._spine is not g._spine
        assert decode(h, 4) == "0110" and h.mass("0110") == g.mass("0110")
        assert spine(h, 5).nodes == spine(g, 5).nodes


def test_a_shallow_copy_steps_the_spine_after_the_original_is_freed():
    # a copy shares its original's spine, which holds no code, so the copy
    # walks it on once the original is gone
    u = Uniform()
    assert spine(u, 3).nodes == ("", "0", "00", "000")
    v = copy.copy(u)
    del u
    assert spine(v, 5).nodes == ("", "0", "00", "000", "0000", "00000")


def test_a_long_decode_leaves_a_small_spine():
    # the spine holds the branch and one depth per node, and no map from
    # depth to node index
    payload = "".join(random.Random(40000).choice("01") for _ in range(40000))
    g = encode(Uniform(), payload)
    tracemalloc.start()
    try:
        assert decode(g, 40000) == payload
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3 * 2**20


def test_a_coded_code_stamps_only_its_own_nodes_of_a_shared_spine():
    # a layer coded over g1 grows the shared spine to 4 nodes; g1 still
    # stamps the root only and reads its base's ratios below it
    g1 = encode(Uniform(), "1")
    assert decode(encode(g1, "0110"), 4) == "0110"
    assert g1._spine.depths == [0, 1, 2, 3]
    assert g1.mass("00") == F(1, 3)
    assert g1.product_below("0") is UNIFORM_SCHEDULE
    with pytest.raises(NotInCodingDomain) as err:
        decode(g1, 2)
    assert (err.value.index, err.value.node) == (1, "0")


def test_a_root_of_zero_mass_has_no_spine():
    for z in (parse("table(0; =0)"), TableCode(2, {"": F(0), "01": F(1, 2)})):
        for read in (spine, decode, offspine_decomposition):
            with pytest.raises(BudgetExceeded, match="^spine ended: no further splitting node$"):
                read(z, 1)
        g = CodedMeasure(z, "1", 4)
        assert [g.mass(s) for s in ("", "0", "01", "011")] == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# Integer paths against their Fraction forms: additivity checks, mixtures and
# densities combine masses as integer pairs; these are the forms they replace.


def _fraction_validate_additivity(code, depth):
    root = code._read("")
    if root != 1:
        return Violation("", root, F(1))
    for n in range(depth):
        for s in all_strings_of_length(n):
            lhs = code._read(s)
            rhs = code._read(s + "0") + code._read(s + "1")
            if lhs != rhs:
                return Violation(s, lhs, rhs)
    return "ok"


def _fraction_convex_mass(code, s):
    return sum((w * child._read(s) for w, child in code.terms), F(0))


def _fraction_density(g, s):
    fs = g.base._read(s)
    if fs == 0:
        return F(0)
    return g._read(s) / fs


def _integer_path_cases():
    """Plain codes of each kind (tables non-additive or with negative derived
    masses among them, mixtures with a zero-weight term) and coded codes over
    each, by name."""
    table = lambda: TableCode(3, {"0": F(1, 3), "00": F(1, 4), "10": F(1, 2), "101": F(1, 7)})
    plain = {
        "uniform": Uniform,
        "const": lambda: ProductCode(ConstantSchedule(F(2, 7))),
        "ks": lambda: ProductCode(ks_schedule(PeriodicBits("0", "1"))),
        "table": table,
        "random-table": lambda: _random_table(random.Random(5), 4),
        "nonadd": lambda: TableCode(2, {"0": F(1, 3), "00": F(1, 2), "01": F(1, 2)}),
        "nonadd-sparse": lambda: _sparse_table(random.Random(3), 4, False),
        "negative": lambda: TableCode(2, {"0": F(1, 2), "00": F(3, 4)}),
        "negative-deep": lambda: TableCode(3, {"1": F(1, 4), "10": F(1, 2), "101": F(1, 3)}),
        "convex": _mixed_base,
        "convex-zero": lambda: Convex(
            [(F(1, 3), Uniform()), (F(0), _mixed_base()), (F(2, 3), table())]
        ),
        "convex-dirac": lambda: Convex([(F(1, 2), Dirac("01")), (F(1, 2), table())]),
    }
    cases = dict(plain)
    for name, make in plain.items():
        cases[f"coded-{name}"] = lambda make=make: encode(make(), "1011001110001011")
    return cases


INTEGER_PATH_CASES = _integer_path_cases()


def _mass_calls(monkeypatch, fn):
    """The outcome of ``fn()`` and the ``(code kind, string)`` of every
    cylinder read (``_read``, a point mass's too) it makes, in order."""
    calls = []

    def recorder(read):
        def record(self, s):
            calls.append((type(self).__name__, s))
            return read(self, s)

        return record

    with monkeypatch.context() as mp:
        for cls in (MeasureCode, Dirac):
            mp.setattr(cls, "_read", recorder(cls._read))
        out = _outcome(fn)
    return repr(out), calls


@pytest.mark.parametrize("name", INTEGER_PATH_CASES)
def test_validate_additivity_matches_fraction_form(monkeypatch, name):
    make = INTEGER_PATH_CASES[name]
    for depth in range(8):
        got = _mass_calls(monkeypatch, lambda: validate_additivity(make(), depth))
        want = _mass_calls(monkeypatch, lambda: _fraction_validate_additivity(make(), depth))
        assert got == want, depth


def test_validate_additivity_violations_field_for_field():
    cases = {
        "nonadd": (INTEGER_PATH_CASES["nonadd"], Violation("0", F(1, 3), F(1))),
        "nonadd-sparse": (INTEGER_PATH_CASES["nonadd-sparse"], None),
        # '01' is derived as 1/2 - 3/4 = -1/4: the first table fails at '00',
        # the second at '01' itself, with a negative parent mass
        "negative-parent": (
            lambda: TableCode(3, {"0": F(1, 2), "00": F(3, 4), "000": F(1, 2), "001": F(1, 2)}),
            Violation("00", F(3, 4), F(1)),
        ),
        "negative-lhs": (
            lambda: TableCode(3, {"0": F(1, 2), "00": F(3, 4), "010": F(1, 2), "011": F(1, 2)}),
            Violation("01", F(-1, 4), F(1)),
        ),
    }
    for name, (make, expected) in cases.items():
        v, w = validate_additivity(make(), 5), _fraction_validate_additivity(make(), 5)
        assert isinstance(v, Violation) and (v.s, v.lhs, v.rhs) == (w.s, w.lhs, w.rhs), name
        assert all(type(x) is F for x in (v.lhs, v.rhs)), name
        assert expected is None or v == expected, name


@pytest.mark.parametrize("name", [n for n in INTEGER_PATH_CASES if "convex" in n])
def test_convex_mass_matches_fraction_form(monkeypatch, name):
    make = INTEGER_PATH_CASES[name]
    strings = [s for n in range(7) for s in all_strings_of_length(n)]
    strings += ["01" * 40, "0" * 100, "1" * 100]
    mixture = lambda: make() if name.startswith("convex") else make().base
    for s in strings:
        code, ref = mixture(), mixture()
        got = _mass_calls(monkeypatch, lambda: code._mass_raw(s))
        want = _mass_calls(monkeypatch, lambda: _fraction_convex_mass(ref, s))
        assert got == want, s
        assert type(code._mass_raw(s)) is F


@pytest.mark.parametrize("name", [n for n in INTEGER_PATH_CASES if n.startswith("coded-")])
def test_density_matches_fraction_form(monkeypatch, name):
    make = INTEGER_PATH_CASES[name]
    g, ref = make(), make()
    for n in range(8):
        for s in all_strings_of_length(n):
            got = _mass_calls(monkeypatch, lambda: density(g, s))
            want = _mass_calls(monkeypatch, lambda: _fraction_density(ref, s))
            assert got == want, s


def test_density_skips_the_coded_mass_where_the_base_vanishes():
    # the coded code's own mass would run out of budget on the Dirac's spine
    g = encode(Dirac("0"), "1", budget=4)
    assert density(g, "0" * 10 + "1") == 0
    with pytest.raises(BudgetExceeded):
        g.mass("0" * 10)


def test_zero_weight_term_raises_as_the_fraction_form():
    def mixture():
        return Convex([(F(1), Uniform()), (F(0), encode(Dirac("0"), "1", budget=4))])

    text = "^no splitting node extending '' within 4 levels$"
    with pytest.raises(BudgetExceeded, match=text):
        mixture().mass("0" * 10)
    with pytest.raises(BudgetExceeded, match=text):
        _fraction_convex_mass(mixture(), "0" * 10)


# ---------------------------------------------------------------------------
# Where a string is checked: once, where it enters the library


def _warm(code):
    """``code`` after public reads of every string of length up to 2."""
    for n in range(3):
        for s in all_strings_of_length(n):
            code.mass(s)
    return code


def _string_entry_points():
    kinds = {
        "uniform": Uniform,
        "table": lambda: TableCode(2, {"0": F(1, 3), "01": F(1, 4)}),
        "product": lambda: ProductCode(ConstantSchedule(F(1, 3))),
        "dirac": lambda: Dirac("01"),
        "finite": lambda: FiniteSupport([("0", F(1, 2)), ("11", F(1, 2))]),
        "convex": lambda: Convex([(F(1, 2), Uniform()), (F(1, 2), Dirac("1"))]),
        "coded": lambda: encode(Uniform(), "10"),
    }
    entries = {}
    for kind, make in kinds.items():
        entries[f"mass-{kind}-cold"] = lambda s, make=make: make().mass(s)
        entries[f"mass-{kind}-warm"] = lambda s, make=make: _warm(make()).mass(s)
    entries["eval_cylinder"] = lambda s: eval_cylinder(Uniform(), s)
    entries["density"] = lambda s: density(encode(Uniform(), "10"), s)
    entries["density_limit"] = lambda s: density_limit(encode(Uniform(), "10"), s)
    entries["encode-payload"] = lambda s: encode(Uniform(), s)
    entries["measure_of_family"] = lambda s: measure_of_family(Uniform(), ["0", s])
    return entries


STRING_ENTRY_POINTS = _string_entry_points()


@pytest.mark.parametrize("bad", ["2", "0a", 5, None, ["0"], (2,)], ids=repr)
@pytest.mark.parametrize("name", STRING_ENTRY_POINTS)
def test_public_entry_points_reject_a_non_bitstring(name, bad):
    with pytest.raises(ValueError) as err:
        STRING_ENTRY_POINTS[name](bad)
    assert str(err.value) == f"not a bitstring: {bad!r}"


def test_tuple_payload_is_stored_as_int_bits():
    # the DSL builds tuples of 0s and 1s; a library caller may pass bools
    assert print_measure(encode(Uniform(), (True, False))) == "coded(uniform; 10)"


@pytest.mark.parametrize(
    "text", ["finite(000: 1/2, 001: 1/4, 1: 1/4)", "convex(1/2: dirac(0), 1/2: dirac(1))"]
)
def test_decode_checks_no_string(monkeypatch, text):
    # the spine cursor and the ratio reads build their strings from checked
    # ones; a check per read would scan strings up to the budget long
    def checks(budget):
        calls = []
        g = parse(text)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "check_bitstring", lambda s: calls.append(s) or s)
            with pytest.raises(BudgetExceeded):
                decode(g, 3, budget)
        return len(calls)

    assert checks(512) == checks(2048) == 0


def test_nesting_bound_in_the_library():
    # mixtures and coded codes nest at most MAX_NESTING deep, so a code that
    # exists reads under the default recursion limit
    assert measures.MAX_NESTING == 64
    code = Uniform()
    for _ in range(64):
        code = Convex([(F(1), code)])
    assert code.nesting == 64 and code.mass("01") == F(1, 4)
    with pytest.raises(SemanticError, match="^mixtures and coded measures nest at most 64 deep$"):
        Convex([(F(1, 2), Uniform()), (F(1, 2), code)])
    with pytest.raises(SemanticError, match="^mixtures and coded measures nest at most 64 deep$"):
        encode(code, "1")
    coded = Uniform()
    for _ in range(64):
        coded = encode(coded, "1")
    assert coded.nesting == 64
    assert (coded.mass("01"), decode(coded, 1)) == (F(1, 3), "1")
    with pytest.raises(SemanticError, match="^mixtures and coded measures nest at most 64 deep$"):
        encode(coded, "1")
    # a finite support is a mixture of point masses: one level
    assert FiniteSupport([("0", F(1))]).nesting == 1
