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
