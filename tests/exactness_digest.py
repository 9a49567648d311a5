"""Digests of exact results, one per group, to compare two trees of ``cmc``.

Run from the repository root as

    PYTHONPATH=src python tests/exactness_digest.py
    PYTHONPATH=src python tests/exactness_digest.py metrics gaps
    PYTHONPATH=src python tests/exactness_digest.py --dump spines spines.tsv

Each group hashes the ``repr`` of every result (``Fraction``, ``Violation``,
tuple, string) or, where a call raises, the exception's type and text, each
after a label naming the code and the query.  Two trees that print the same
line for a group give the same exact results there.  Each line is compared
with the one recorded in ``EXPECTED``; the script exits 1 and names every
group that differs, so this one command is the exactness gate.  A change
that alters exact results on purpose records the new lines there.  Group
names on the command line check only those groups; with none, every group
runs.  With
``--dump GROUP FILE`` only that group runs, and it also writes each entry
to FILE as one ``label<TAB>outcome`` line, exactly the text it hashes, so
the entries of two trees can be compared with ``diff``.  Pytest
does not collect this file; it imports its codes from the test modules and the
``cell-walk`` codes from ``perfbench/workloads.py``.

- ``gaps``: ``_masses_above`` over every ordered pair of the 7 ``cell-walk``
  codes of seeds 1-5 and both orders of six golden pairs, d = 0..12.
- ``masses``: cold and warm (shortlex-filled to level 6) masses of the
  descent-test codes, of finite supports with an empty leaf, duplicate
  leaves, nested leaves and a zero weight, and of sparse and inconsistent
  tables, ``uniform`` and ``table(0; = 1)``, on 60 random strings up to
  length 64 and three strings of length 600; of the finite supports also on
  strings along and just off their leaves' branches, and of the tables on
  every string to level 5.
- ``spines``: coded masses to level 6, ``spine``, ``decode``,
  ``offspine_decomposition``, ``density_limit`` and ``product_below`` on the
  spine-test codes, mixtures, coded codes over coded codes and the finite
  supports above, at budgets 0, 1, 2, 3, 5, 8.
- ``classes``: ``validate_additivity`` to depths 0..8 and ``density`` at
  every string to level 8, on the integer-path test codes, on the
  acceptance test's bases encoded with 16-bit payloads, and on the tables
  of ``masses`` and those of root mass 1 encoded with one 16-bit payload.
- ``scans``: ``ortho_certificate`` at epsilon 1/20 and 1/4 and
  ``refute_abs_continuity`` at epsilon 1/2 with 1 to 3 stages, over every
  ordered pair of the 7 ``cell-walk`` codes of seeds 1-3 and both orders of
  the golden pairs, and ``continuity_modulus`` at four epsilons on each of
  those codes, all at max depths 0, 1, 2, 3, 5, 8 and 12.
- ``families``: ``build_family`` for counts 0..8 at epsilon 9/20, 2/5 and
  1/4 and max depths 0, 8, 10, 12 and 16, on the default candidates and on
  a shuffled ``perfect_family(16)`` that holds one candidate twice;
  ``extend_family`` with and without ``recheck`` from prefixes of a built
  family and from a family of two equal members; and ``ortho_certificate``
  at max depths 17..24, where product pairs meet the affinity bound, on
  both orders of the golden ks pair and on ``product(const(1/4))`` against
  itself.  The builds share one cache of certificate searches keyed by the
  ``repr`` of both codes, epsilon and depth, so each pair is searched once
  in the group; a build still makes its own choices.
- ``metrics``: ``metric_bracket`` over every ordered pair of the 7
  ``cell-walk`` codes of seeds 1-3 and both orders of the golden pairs, at
  N = 0, 1, 2, 3, 6, 7, 8, 100, 1023 and 2047.
- ``branches``: deep spine reads.  Six bases (``uniform``, a constant
  product, ``table(300; 0=1/2)``, a coded code over a coded one, a mixture
  with a point mass and a finite support whose branch turns) each encoded
  with payloads of 1, 16 and 64 bits, ``ZEROS`` and ``PeriodicBits("", "10")``
  at budgets 1, 8 and 64: coded masses and ``product_below`` of each prefix
  of the base's leftmost branch of positive mass and of its sibling, at every
  level to 300, ``decode`` for k = 0..64, ``spine`` of both codes at 64,
  ``density_limit`` of those prefixes and siblings and
  ``offspine_decomposition`` of the base, to depth 300.
"""

import argparse
import hashlib
import random
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import cmc  # noqa: E402
import workloads  # noqa: E402
from cmc import (  # noqa: E402
    Convex,
    Dirac,
    FiniteSupport,
    ProductCode,
    TableCode,
    Uniform,
    build_family,
    continuity_modulus,
    decode,
    density,
    density_limit,
    encode,
    extend_family,
    ks_schedule,
    metric_bracket,
    offspine_decomposition,
    ortho_certificate,
    parse,
    perfect_family,
    product_code,
    refute_abs_continuity,
    spine,
    validate_additivity,
)
from cmc.bits import ZEROS, PeriodicBits, all_strings_of_length  # noqa: E402
from cmc import orthogonality  # noqa: E402
from cmc.codec import CodedMeasure  # noqa: E402
from cmc.orthogonality import _masses_above  # noqa: E402
from cmc.schedules import ConstantSchedule  # noqa: E402
from test_acceptance import _bases  # noqa: E402
from test_codec import DESCENT_CASES, INTEGER_PATH_CASES, _mixed_base, _spine_cases  # noqa: E402

GOLDEN_PAIRS = [
    ("dirac(0)", "uniform"),
    ("product(ks(01(011)*))", "product(ks(10(100)*))"),
    ("product(const(1/7))", "product(const(3/7))"),
    ("product(list(1/3, 2/3; cycle))", "product(const(1/2))"),
    ("table(2; 0=1/3, 00=1/4, 10=1/2)", "table(3; 0=3/5, 01=1/5, 101=1/7)"),
    ("coded(product(const(1/3)); 1011)", "product(const(1/2))"),
]


FINITE_CASES = {
    "finite-empty-leaf": lambda: FiniteSupport([("", F(1, 3)), ("1", F(2, 3))]),
    "finite-duplicate": lambda: FiniteSupport([("01", F(1, 4)), ("1", F(1, 4)), ("01", F(1, 2))]),
    "finite-nested": lambda: FiniteSupport([("0", F(1, 3)), ("00", F(1, 3)), ("", F(1, 3))]),
    "finite-zero-weight": lambda: FiniteSupport([("1", F(0)), ("011", F(1, 2)), ("0", F(1, 2))]),
}
# sparse tables, inconsistent ones (children that do not add up to their
# parent, negative derived masses, a root entry other than 1) and the empty
# table, spelled both ways
TABLE_CASES = {
    "table-sparse": lambda: TableCode(8, {"0": F(1, 2)}),
    "table-sparse-deep": lambda: TableCode(
        12, {"110": F(1, 5), "0000000": F(1, 9), "0101": F(1, 3)}
    ),
    "table-nonadd": lambda: TableCode(
        4, {"0": F(1, 3), "00": F(1, 2), "01": F(1, 2), "0110": F(1, 7)}
    ),
    "table-negative": lambda: TableCode(
        5, {"0": F(1, 2), "00": F(3, 4), "001": F(1, 8), "1111": F(1, 3)}
    ),
    "table-root": lambda: TableCode(3, {"": F(1, 2), "1": F(3, 4), "011": F(1, 5)}),
    "table-root-only": lambda: TableCode(6, {"": F(2, 3)}),
    "dsl-uniform": lambda: parse("uniform"),
    "dsl-empty-table": lambda: parse("table(0; = 1)"),
}
# along each leaf's all-zeros branch, and one bit off it
LEAF_QUERIES = [
    leaf + "0" * n + tail
    for leaf in ("", "1", "01", "011")
    for n in (0, 1, 2, 7, 2000)
    for tail in ("", "1")
]


def _strings(level):
    return [s for n in range(level + 1) for s in all_strings_of_length(n)]


class Digest:
    dump = None  # a text file that receives every hashed line, when set

    def __init__(self):
        self.sha, self.count = hashlib.sha256(), 0

    def add(self, label, fn):
        try:
            out = repr(fn())
        except Exception as err:  # noqa: BLE001 - an exception is a result here
            out = f"{type(err).__name__}: {err}"
        line = f"{label}\t{out}\n"
        self.sha.update(line.encode())
        self.count += 1
        if self.dump is not None:
            self.dump.write(line)

    def line(self, name):
        return f"{name}: {self.count} results, sha256 {self.sha.hexdigest()[:16]}"


def _pairs(seeds):
    """Every ordered pair of the ``cell-walk`` codes of the seeds, then both
    orders of the golden pairs, each after its label."""
    pairs = []
    for seed in seeds:
        codes = workloads.CellWalk(cmc, random.Random(seed)).codes
        pairs += [(f"{seed}:{x}/{y}", codes[x], codes[y]) for x in codes for y in codes]
    for a, b in GOLDEN_PAIRS:
        pairs += [(f"{a}/{b}", parse(a), parse(b)), (f"{b}/{a}", parse(b), parse(a))]
    return pairs


def gaps():
    out = Digest()
    for label, mu, nu in _pairs(range(1, 6)):
        for d in range(13):
            out.add(f"{label}@{d}", lambda: _masses_above(mu, nu, d))
    return out


def masses():
    out = Digest()
    for name, make in {**DESCENT_CASES, **FINITE_CASES, **TABLE_CASES}.items():
        rng = random.Random(f"digest-{name}")
        queries = ["".join(rng.choice("01") for _ in range(rng.randrange(65))) for _ in range(60)]
        queries += ["0" * 600, "1" * 600, "01" * 300]
        queries += LEAF_QUERIES if name in FINITE_CASES else []
        queries += _strings(5) if name in TABLE_CASES else []
        warm = make()
        for s in _strings(6):
            warm.mass(s)
        for s in queries:
            out.add(f"{name} cold {s}", lambda: make().mass(s))
            out.add(f"{name} warm {s}", lambda: warm.mass(s))
    return out


def _more_spine_cases():
    table = lambda: TableCode(2, {"0": F(1, 3), "00": F(1, 4), "10": F(1, 2)})
    finite = lambda: FiniteSupport([("000", F(1, 2)), ("001", F(1, 4)), ("1", F(1, 4))])
    fifth = lambda: ProductCode(ConstantSchedule(F(1, 5)))
    return [
        ("uniform", Uniform),
        ("const", lambda: ProductCode(ConstantSchedule(F(1, 3)))),
        ("mixed", _mixed_base),
        ("mix-dirac", lambda: Convex([(F(1, 2), Dirac("01")), (F(1, 2), table())])),
        ("mix-finite", lambda: Convex([(F(1, 3), finite()), (F(2, 3), Uniform())])),
        ("coded-coded", lambda: encode(encode(Uniform(), "101"), "1")),
        ("coded-coded-table", lambda: encode(encode(table(), "0110"), "11")),
        (
            "coded-mix-coded",
            lambda: encode(Convex([(F(1, 2), encode(Uniform(), "10")), (F(1, 2), fifth())]), "101"),
        ),
        (
            "mix-zero-coded",
            lambda: Convex([(F(1), Uniform()), (F(0), encode(Dirac("0"), "1", budget=4))]),
        ),
        *FINITE_CASES.items(),
    ]


def spines():
    out = Digest()
    for name, make in _spine_cases() + _more_spine_cases():
        for budget in (0, 1, 2, 3, 5, 8):
            code, label = make(), f"{name}@{budget}"
            coded = encode(make(), "101", max(budget, 1))  # a coded code's budget is positive
            for s in _strings(6):
                out.add(f"{label} coded {s}", lambda: coded.mass(s))
            for s in _strings(4):
                out.add(f"{label} density_limit {s}", lambda: density_limit(coded, s))
                out.add(f"{label} coded product_below {s}", lambda: coded.product_below(s))
                out.add(f"{label} product_below {s}", lambda: code.product_below(s))
            for k in range(4):
                out.add(f"{label} decode coded {k}", lambda: decode(coded, k, budget))
            for n in range(4):
                out.add(f"{label} spine {n}", lambda: spine(code, n, budget).nodes)
            for d in range(7):
                out.add(f"{label} offspine {d}", lambda: offspine_decomposition(code, d, budget))
            for k in range(4):
                out.add(f"{label} decode {k}", lambda: decode(code, k, budget))
    return out


def classes():
    out = Digest()
    rng = random.Random(16)
    cases = list(INTEGER_PATH_CASES.items()) + list(TABLE_CASES.items())
    for i in range(len(_bases())):
        payload = "".join(rng.choice("01") for _ in range(16))
        cases.append((f"acceptance-{i}", lambda i=i: _bases()[i]))
        cases.append((f"acceptance-{i}-{payload}", lambda i=i, p=payload: encode(_bases()[i], p)))
    for name, make in TABLE_CASES.items():
        if make().mass("") == 1:
            payload = "".join(rng.choice("01") for _ in range(16))
            cases.append((f"{name}-{payload}", lambda make=make, p=payload: encode(make(), p)))
    for name, make in cases:
        for depth in range(9):
            out.add(f"{name} validate {depth}", lambda: validate_additivity(make(), depth))
        g = make()
        if isinstance(g, CodedMeasure):
            for s in _strings(8):
                out.add(f"{name} density {s}", lambda: density(g, s))
    return out


SCAN_DEPTHS = (0, 1, 2, 3, 5, 8, 12)
METRIC_LENGTHS = (0, 1, 2, 3, 6, 7, 8, 100, 1023, 2047)

EXPECTED = {
    "gaps": "gaps: 3341 results, sha256 31b9ee4659e3c19a",
    "masses": "masses: 5486 results, sha256 fac7e459595087b6",
    "spines": "spines: 55926 results, sha256 e30e44ca683aefc5",
    "classes": "classes: 20649 results, sha256 1aca7d038f5ca4b3",
    "scans": "scans: 6461 results, sha256 a390963562ab8ac5",
    "families": "families: 438 results, sha256 c6dcf70166b8d53c",
    "metrics": "metrics: 1590 results, sha256 bef364c23343b6cb",
    "branches": "branches: 195390 results, sha256 bb7c16a1d8e1ff98",
}


def scans():
    out = Digest()
    for label, mu, nu in _pairs(range(1, 4)):
        for d in SCAN_DEPTHS:
            for eps in (F(1, 20), F(1, 4)):
                out.add(f"{label} certify {eps}@{d}", lambda: ortho_certificate(mu, nu, eps, d))
            for n in (1, 2, 3):
                out.add(
                    f"{label} refute {n}@{d}", lambda: refute_abs_continuity(mu, nu, F(1, 2), n, d)
                )
    codes = [
        (f"{seed}:{x}", code)
        for seed in range(1, 4)
        for x, code in workloads.CellWalk(cmc, random.Random(seed)).codes.items()
    ]
    codes += [(text, parse(text)) for text in dict.fromkeys(t for p in GOLDEN_PAIRS for t in p)]
    for label, mu in codes:
        for d in SCAN_DEPTHS:
            for eps in (F(1, 64), F(1, 8), F(1, 4), F(3, 2)):
                out.add(f"{label} modulus {eps}@{d}", lambda: continuity_modulus(mu, eps, d))
    return out


def families():
    out = Digest()
    shuffled = perfect_family(16)
    random.Random(24).shuffle(shuffled)
    shuffled.insert(6, shuffled[2])
    lists = {"default": None, "shuffled": shuffled}
    seen, search = {}, orthogonality.ortho_certificate

    def cached(mu, nu, epsilon, max_depth):
        key = (repr(mu), repr(nu), epsilon, max_depth)
        if key not in seen:
            seen[key] = search(mu, nu, epsilon, max_depth)
        return seen[key]

    orthogonality.ortho_certificate = cached
    try:
        for name, candidates in lists.items():
            for eps in (F(9, 20), F(2, 5), F(1, 4)):
                for d in (0, 8, 10, 12, 16):
                    for n in range(9):
                        out.add(
                            f"{name} build {n} {eps}@{d}",
                            lambda: build_family(n, eps, d, candidates),
                        )
    finally:
        orthogonality.ortho_certificate = search
    built = build_family(4, F(9, 20), 10).measures
    twin = product_code(ks_schedule(shuffled[2]))
    for k, family in enumerate([built[:k] for k in range(5)] + [(twin, twin)]):
        for name, candidates in (("default", perfect_family(16)), ("shuffled", shuffled)):
            for eps in (F(9, 20), F(1, 4)):
                for d in (8, 12):
                    for recheck in (False, True):
                        out.add(
                            f"extend {k} {name} {eps}@{d} {recheck}",
                            lambda: extend_family(family, candidates, eps, d, recheck),
                        )
    ks = GOLDEN_PAIRS[1]
    quarter = ("product(const(1/4))",) * 2
    for a, b in (ks, ks[::-1], quarter):
        mu, nu = parse(a), parse(b)
        for d in range(17, 25):
            for eps in (F(1, 20), F(1, 4), F(9, 20)):
                out.add(f"{a}/{b} certify {eps}@{d}", lambda: ortho_certificate(mu, nu, eps, d))
    return out


def metrics():
    out = Digest()
    for label, f, g in _pairs(range(1, 4)):
        for n in METRIC_LENGTHS:
            out.add(f"{label} metric {n}", lambda: metric_bracket(f, g, n))
    return out


BRANCH_DEPTH = 300
BRANCH_CASES = {
    "uniform": Uniform,
    "const": lambda: ProductCode(ConstantSchedule(F(1, 3))),
    "table": lambda: parse("table(300; 0=1/2)"),
    "coded-coded": lambda: encode(encode(Uniform(), "1101"), "01"),
    "mix-dirac": lambda: parse("convex(1/2: uniform, 1/2: dirac(0))"),
    "finite": lambda: FiniteSupport([("0111", F(1, 2)), ("1101", F(1, 4)), ("01100", F(1, 4))]),
}


def _branch(code, depth):
    """The first ``depth`` bits of the leftmost branch of positive mass of
    ``code``, padded with zeros where it ends."""
    s = ""
    while len(s) < depth:
        s += "0" if code.mass(s + "0") > 0 or not code.mass(s + "1") else "1"
    return s


def branches():
    out = Digest()
    rng = random.Random(28)
    payloads = {n: "".join(rng.choice("01") for _ in range(n)) for n in (1, 16, 64)}
    payloads |= {"zeros": ZEROS, "10*": PeriodicBits("", "10")}
    for name, make in BRANCH_CASES.items():
        branch = _branch(make(), BRANCH_DEPTH)
        cells = [branch[:n] for n in range(BRANCH_DEPTH + 1)]
        cells += [s[:-1] + ("1" if s[-1] == "0" else "0") for s in cells[1:]]  # the siblings
        for key, payload in payloads.items():
            for budget in (1, 8, 64):
                label = f"{name} {key}@{budget}"
                coded = encode(make(), payload, budget)
                for s in cells:
                    out.add(f"{label} coded {s}", lambda: coded.mass(s))
                    out.add(f"{label} coded product_below {s}", lambda: coded.product_below(s))
                for k in range(65):
                    out.add(f"{label} decode {k}", lambda: decode(coded, k, budget))
                for code in (coded, coded.base):
                    out.add(f"{label} spine {code is coded}", lambda: spine(code, 64, budget).nodes)
                for s in cells:
                    out.add(f"{label} density_limit {s}", lambda: density_limit(coded, s))
                for d in range(BRANCH_DEPTH + 1):
                    out.add(
                        f"{label} offspine {d}",
                        lambda: offspine_decomposition(coded.base, d, budget),
                    )
    return out


GROUPS = (gaps, masses, spines, classes, scans, families, metrics, branches)


def _check(groups):
    differ = []
    for group in groups:
        line = group().line(group.__name__)
        print(line, flush=True)
        if line != EXPECTED[group.__name__]:
            differ.append(group.__name__)
    if differ:
        print(f"differs from the recorded digest: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare exact results with the recorded digest.")
    parser.add_argument(
        "--dump",
        nargs=2,
        metavar=("GROUP", "FILE"),
        help="run only GROUP and write each of its entries to FILE as label<TAB>outcome",
    )
    parser.add_argument("groups", nargs="*", metavar="GROUP", help="check only these groups")
    args = parser.parse_args(argv)
    names = args.groups
    if args.dump is not None:
        if names:
            parser.error("--dump runs one group; give no other group names with it")
        names = args.dump[:1]
    for name in names:
        if name not in EXPECTED:
            parser.error(f"unknown group {name!r}; the groups are {', '.join(EXPECTED)}")
    groups = [group for group in GROUPS if not names or group.__name__ in names]
    if args.dump is None:
        return _check(groups)
    with open(args.dump[1], "w", encoding="utf-8") as Digest.dump:
        return _check(groups)


if __name__ == "__main__":
    sys.exit(main())
