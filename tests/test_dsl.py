import collections
import hashlib
import random
from fractions import Fraction as F

import pytest

from cmc import (
    CallableBits,
    Diagnostic,
    Dirac,
    NotSerializable,
    SemanticError,
    Uniform,
    encode,
    ks_schedule,
    parse,
    parse_pattern,
    parse_schedule,
    print_measure,
    print_schedule,
    product_code,
)
from cmc.bits import PeriodicBits, all_strings_of_length
from cmc.dsl import parse_payload

from corpusgen import MALFORMED, corpus


def test_parse_basic_examples():
    assert isinstance(parse("uniform"), Uniform)
    m = parse("convex(1/2: uniform, 1/2: dirac(0))")
    assert m.mass("0") == F(3, 4)
    assert parse("finite(0: 2/3, 10: 1/3)").mass("10") == F(1, 3)


def test_parse_semantic_error():
    with pytest.raises(SemanticError):
        parse("finite(0: 2/3, 1: 1/2)")
    with pytest.raises(SemanticError):
        parse("product(const(3/2))")
    with pytest.raises(SemanticError):
        parse("table(1; 00 = 1/4)")


def test_parse_whitespace_insensitive():
    a = parse("convex(1/2:uniform,1/2:dirac(0))")
    b = parse("convex( 1/2 : uniform ,\n  1/2 : dirac( 0 ) )")
    assert print_measure(a) == print_measure(b)


def test_parse_trailing_comma_tolerated():
    assert parse("finite(0: 1/2, 1: 1/2,)").mass("1") == F(1, 2)


def test_print_canonical_examples():
    assert print_measure(Uniform()) == "uniform"
    coded = encode(Uniform(), "10100101")
    assert print_measure(coded) == "coded(uniform; 0xa5)"
    assert print_measure(parse("coded(uniform; 0xa5)")) == "coded(uniform; 0xa5)"
    assert print_measure(encode(Uniform(), "101")) == "coded(uniform; 101)"


def test_ks_pattern_canonicalization():
    assert print_schedule(parse_schedule("ks(10*)")) == "ks(1)"
    assert print_schedule(parse_schedule("ks(1*)")) == "ks(1*)"
    assert print_schedule(parse_schedule("ks(10(110)*)")) == "ks((101)*)"
    assert print_schedule(parse_schedule("ks(110110(110)*)")) == "ks((110)*)"
    assert print_schedule(parse_schedule("ks()")) == "ks()"
    assert print_schedule(parse_schedule("ks(1(00)*)")) == "ks(1)"


def test_pattern_semantics():
    x = parse_pattern("10(110)*")
    assert [x[n] for n in range(8)] == [1, 0, 1, 1, 0, 1, 1, 0]
    y = parse_pattern("01*")
    assert [y[n] for n in range(4)] == [0, 1, 1, 1]


def test_payload_hex_bit_order():
    assert parse_payload("0xa5") == (1, 0, 1, 0, 0, 1, 0, 1)
    assert parse_payload("10") == (1, 0)


def test_not_serializable():
    with pytest.raises(NotSerializable):
        print_measure(Dirac(CallableBits(lambda n: 0)))
    with pytest.raises(NotSerializable):
        print_measure(product_code(ks_schedule(CallableBits(lambda n: 0))))


def test_diagnostic_positions():
    d = parse("convex(1/2: uniform 1/2: dirac(0))")
    assert isinstance(d, Diagnostic)
    assert (d.line, d.column) == (1, 21)
    d = parse("convex(1/2: uniform,\n 1/2: diracc(0))")
    assert isinstance(d, Diagnostic)
    assert d.line == 2
    assert d.expected  # expected-token list is populated


def test_corpus_round_trips_byte_stable():
    cases = corpus(200)
    assert len(cases) == 200
    for source, code in cases:
        reparsed = parse(source)
        assert not isinstance(reparsed, Diagnostic), source
        assert print_measure(reparsed) == source
        # extensional agreement on all cylinders of depth <= 6
        for n in range(7):
            for s in all_strings_of_length(n):
                assert reparsed.mass(s) == code.mass(s), (source, s)


def test_malformed_corpus_positioned():
    assert len(MALFORMED) >= 30
    for source in MALFORMED:
        out = parse(source)
        assert isinstance(out, Diagnostic), source
        assert out.line >= 1 and out.column >= 1
        assert out.expected


def test_dirac_trailing_zeros_canonical():
    assert print_measure(parse("dirac(0100)")) == "dirac(01)"
    assert print_measure(parse("dirac(0)")) == "dirac()"


def test_schedule_list_round_trip():
    text = "list(1/3, 1/2; const(2/5))"
    assert print_schedule(parse_schedule(text)) == text
    assert print_schedule(parse_schedule("list(1/3; cycle)")) == "list(1/3; cycle)"


@pytest.mark.parametrize(
    "text, column",
    [("product(const(1/0))", 17), ("convex(1/0: uniform)", 10), ("table(2; 0 = 1/0)", 16)],
)
def test_zero_denominator_is_syntax_error(text, column):
    d = parse(text)
    assert isinstance(d, Diagnostic)
    assert (d.line, d.column) == (1, column)
    assert d.expected == ("positive integer",)


# One outcome line per text and entry point, hashed: the printed result, the
# Diagnostic's fields, or the type and text of what was raised.  The texts are
# the corpus, MALFORMED and seeded mutations of them; the recorded digest pins
# every outcome, error position and error order of the parser.
_TOKENS = [
    "(", ")", ",", ";", ":", "=", "/", "*", "-", " ", "\n", "0", "1", "2", "9", "0x",
    "f", "()", ",)", ";)", "1/2", "1/0", "0/3", "uniform", "dirac(", "finite(", "convex(",
    "product(", "table(", "coded(", "const(", "ks(", "list(", "cycle", "x",
]

# well-formed texts whose constructors refuse them
_SEMANTIC = [
    "finite(0: 2/3, 1: 1/2)",
    "convex(1/2: uniform, 1/3: dirac(1))",
    "product(const(3/2))",
    "product(list(1/2, 5/4; const(-1)))",
    "table(1; 00 = 1/4)",
    "table(2; 0 = 1/2, 1 = 1/2, 0 = 1/4)",
    "table(2; 01 = 3/2)",
]


def _arguments(text):
    """The text inside each pair of parentheses and after each ';' within one,
    so the schedule, pattern and payload entry points see their own forms."""
    out, opened = [], []
    for i, c in enumerate(text):
        if c == "(":
            opened.append(i)
        elif c == ";" and opened:
            opened.append(i)
        elif c == ")" and opened:
            while text[opened[-1]] == ";":
                out.append(text[opened.pop() + 1 : i].strip())
            out.append(text[opened.pop() + 1 : i])
    return out


def _mutations(texts, count, seed=20261020):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = rng.choice(texts)
        for _ in range(rng.randrange(1, 4)):
            i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
            kind = rng.randrange(4)
            if kind == 0:
                text = text[:i] + text[i + 1 :]
            elif kind == 1:
                text = text[:i] + rng.choice(_TOKENS) + text[i:]
            elif kind == 2:
                text = text[:i] + text[j:]
            else:
                text = text[:i]
        out.append(text)
    return out


_SHOW = {
    parse: print_measure,
    parse_schedule: print_schedule,
    parse_pattern: lambda x: f"{x.prefix_bits}|{x.period_bits}",
    parse_payload: lambda t: "".join(map(str, t)),
}


def _outcome(entry, text):
    try:
        out = entry(text)
        if isinstance(out, Diagnostic):
            return f"D {out.message!r} {out.line}:{out.column} {out.expected!r}"
        return "= " + _SHOW[entry](out)
    except Exception as err:  # the outcome being pinned, whatever it is
        return f"! {type(err).__name__}: {err}"


def test_parser_outcomes_pinned():
    base = [source for source, _ in corpus(200)] + MALFORMED + _SEMANTIC
    args = sorted({arg for text in base for arg in _arguments(text)})
    texts = base + args + _mutations(base, 4000) + _mutations(args, 2000)
    sha, kinds = hashlib.sha256(), collections.Counter()
    for text in texts:
        for entry in _SHOW:
            line = _outcome(entry, text)
            kinds[entry.__name__, line[0]] += 1
            sha.update(f"{entry.__name__} {text!r} {line}\n".encode())
    assert len(texts) == 6575
    # every entry point both parses and diagnoses; parse also raises
    assert all(kinds[e.__name__, k] for e in _SHOW for k in "=D") and kinds["parse", "!"]
    assert sha.hexdigest()[:16] == "9d211b4b238039e6"


@pytest.mark.parametrize("form, close", [("convex(1: ", ")"), ("coded(", "; 1)")])
def test_nesting_bound_is_a_positioned_diagnostic(form, close):
    # at the bound a text parses and prints under the default recursion
    # limit; one level deeper (or far deeper) the innermost form is refused
    at = form * 64 + "uniform" + close * 64
    assert print_measure(parse(at)) == at
    for n in (65, 250):
        deeper = parse(form * n + "uniform" + close * n)
        assert isinstance(deeper, Diagnostic)
        assert (deeper.line, deeper.column) == (1, 1 + 64 * len(form))
        assert deeper.message == "mixtures and coded measures nest at most 64 deep"
        assert deeper.expected == ("uniform", "dirac", "product", "table")
    # a finite support is a mixture of point masses, so it counts as a level
    assert not isinstance(parse(form * 63 + "finite(0: 1)" + close * 63), Diagnostic)
    assert isinstance(parse(form * 64 + "finite(0: 1)" + close * 64), Diagnostic)
