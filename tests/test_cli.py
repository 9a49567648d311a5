import contextlib
import io
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmc import parse, print_measure
from cmc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_eval(capsys):
    code, out = run(capsys, "eval", "uniform", "01")
    assert (code, out) == (0, "1/4\n")


def test_eval_prints_answers_of_any_length(capsys):
    # 2**-15000 has 4,516 decimal digits in its denominator, past Python's
    # default limit on int-to-str conversion; the limit is back afterwards
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "eval", "uniform", "0" * 15000)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = f"1/{1 << 15000}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (0, want)


def test_dsl_numerals_keep_the_digit_limit(capsys):
    numeral = "1" + "0" * 4400
    code, out = run(capsys, "eval", f"product(const(1/{numeral}))", "0")
    assert code == 2 and out.startswith("error: invalid-argument\n")
    assert "Exceeds the limit (4300 digits)" in out


def test_encode_decode_round_trip(capsys):
    code, out = run(capsys, "encode", "uniform", "10")
    assert code == 0 and out == "coded(uniform; 10)\n"
    code, out = run(capsys, "decode", out.strip(), "2")
    assert (code, out) == (0, "10\n")


def test_gap(capsys):
    code, out = run(capsys, "gap", "dirac(0)", "uniform", "2")
    assert (code, out) == (0, "3/4\n")


def test_certify_success(capsys):
    code, out = run(capsys, "certify", "dirac(0)", "uniform", "1/20", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "result: certificate"
    assert "depth: 5" in lines
    assert "mu_mass: 0" in lines


def test_certify_inconclusive(capsys):
    code, out = run(capsys, "certify", "uniform", "product(const(1/3))", "1/20", "10")
    assert code == 1
    assert out.startswith("result: inconclusive\n")
    assert "best_gap:" in out and "at_depth:" in out


def test_modulus(capsys):
    code, out = run(capsys, "modulus", "uniform", "1/4", "32")
    assert (code, out) == (0, "result: modulus\nn: 3\n")
    code, out = run(capsys, "modulus", "dirac(0)", "1/2", "8")
    assert code == 0 and out.startswith("result: atom-witness\n")


def test_refute_ac(capsys):
    code, out = run(capsys, "refute-ac", "dirac(0)", "uniform", "1/2", "2", "20")
    assert code == 0
    assert out.startswith("result: refutation\n")
    assert out.count("stage:") == 2
    assert "  delta: 1/4" in out
    code, out = run(capsys, "refute-ac", "uniform", "uniform", "3/4", "1", "8")
    assert code == 1


def test_ei_sum_and_classify(capsys):
    code, out = run(capsys, "ei-sum", "", "1*", "4")
    assert (code, out) == (0, "25/12\n")
    code, out = run(capsys, "classify", "0101", "01", "1000")
    assert code == 0 and out.startswith("result: equivalent\n")
    code, out = run(capsys, "classify", "", "1*", "10000")
    assert code == 0 and out.startswith("result: orthogonal\n")
    code, out = run(capsys, "classify", "", "1", "100")
    assert code == 0 and out == "result: equivalent\nlast_diff: 0\n"
    # sparse infinite differences: partial sum cannot reach the target in budget
    code, out = run(capsys, "classify", "", "(000000000001)*", "100")
    assert code == 1 and out.startswith("result: inconclusive\n")


def test_hellinger(capsys):
    code, out = run(capsys, "hellinger", "const(1/4)", "const(1/4)", "5", "10")
    assert code == 0
    keys = [line.split(":")[0] for line in out.splitlines()]
    assert keys == ["N", "lo", "hi", "precision_bits"]


def test_metric(capsys):
    code, out = run(capsys, "metric", "uniform", "uniform", "10")
    assert (code, out) == (0, "lo: 0\nhi: 1/1024\n")


def test_family_build(capsys):
    code, out = run(capsys, "family", "build", "2", "9/20", "16")
    assert code == 0
    assert out.startswith("result: family\ncount: 2\n")
    assert out.count("member:") == 2
    assert out.count("certificate:") == 1
    code, out = run(capsys, "family", "build", "2", "1/100", "10")
    assert code == 1
    assert out.startswith("result: partial\n")


def test_syntax_error_document(capsys):
    code, out = run(capsys, "eval", "unifrm", "01")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "error: syntax-error"
    assert lines[1] == "line: 1" and lines[2] == "column: 1"


def test_semantic_error_exit(capsys):
    code, out = run(capsys, "eval", "finite(0: 2/3, 1: 1/2)", "0")
    assert code == 2
    assert out.startswith("error: semantic-error\n")


def test_not_in_coding_domain_exit(capsys):
    code, out = run(capsys, "decode", "uniform", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "error: not-in-coding-domain"
    assert "index: 0" in lines


def test_budget_exceeded_exit(capsys):
    code, out = run(capsys, "decode", "dirac(0)", "1", "--budget", "8")
    assert code == 2
    assert out.startswith("error: budget-exceeded\n")


def test_gap_past_depth_44_on_few_differing_coordinates(capsys):
    # the pair differs on every other coordinate: 30 of the first 60
    code, out = run(capsys, "gap", "product(ks(0(1)*))", "product(ks(0(10)*))", "60")
    assert code == 0
    assert re.fullmatch(r"\d+/\d+\n", out)


def test_gap_beyond_sweep_limit_is_budget_exceeded(capsys):
    # every coordinate differs: 2**23 cells in one half at depth 45
    code, out = run(capsys, "gap", "product(ks(0*))", "product(ks(1*))", "45")
    assert code == 2
    assert out.startswith("error: budget-exceeded\n")


def test_gap_walk_without_products_stops_at_level_22(capsys):
    # the mixture of two distinct products is a product below no cell: the
    # walk refuses at its first level-22 cell instead of splitting 2**23
    code, out = run(
        capsys, "gap", "convex(1/2: uniform, 1/2: product(const(1/3)))", "product(const(1/4))", "23"
    )
    assert code == 2
    assert out.startswith("error: budget-exceeded\n")


def test_at_file_input(tmp_path, capsys):
    p = tmp_path / "m.dsl"
    p.write_text("convex(1/2: uniform, 1/2: dirac(0))")
    code, out = run(capsys, "eval", f"@{p}", "0")
    assert (code, out) == (0, "3/4\n")


@pytest.mark.parametrize("name", ["missing.dsl", ""], ids=["missing-file", "directory"])
def test_unreadable_at_file_is_invalid_argument(tmp_path, capsys, name):
    path = str(tmp_path / name)
    code, out = run(capsys, "eval", f"@{path}", "0")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "error: invalid-argument"
    assert lines[1].startswith("message: cannot read ") and path in lines[1]


def test_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("CMC_DEFAULT_BUDGET", "4")
    code, out = run(capsys, "decode", "dirac(0)", "1")
    assert code == 2 and "within 4 levels" in out
    monkeypatch.setenv("CMC_DEFAULT_BUDGET", "-3")
    code, out = run(capsys, "decode", "uniform", "0")
    assert code == 2 and out.startswith("error: invalid-argument\n")


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2


def test_output_deterministic(capsys):
    first = run(capsys, "certify", "dirac(0)", "uniform", "1/20", "10")
    second = run(capsys, "certify", "dirac(0)", "uniform", "1/20", "10")
    assert first == second


# every numeric argument of every subcommand, by position in argv
_NUMERIC_ARGS = [
    (("encode", "uniform", "10", "--budget", "8"), [4]),
    (("decode", "coded(uniform; 10)", "2", "--budget", "8"), [2, 4]),
    (("gap", "dirac(0)", "uniform", "2"), [3]),
    (("certify", "dirac(0)", "uniform", "1/20", "10"), [3, 4]),
    (("modulus", "uniform", "1/4", "32"), [2, 3]),
    (("refute-ac", "dirac(0)", "uniform", "1/2", "3", "20"), [3, 4, 5]),
    (("ei-sum", "", "1*", "4"), [3]),
    (("classify", "0101", "01", "1000"), [3]),
    (("hellinger", "const(1/4)", "const(1/2)", "10", "20"), [3, 4]),
    (("metric", "uniform", "dirac(0)", "8"), [3]),
    (("family", "build", "2", "9/20", "16"), [2, 3, 4]),
]


def _negated():
    for argv, positions in _NUMERIC_ARGS:
        for i in positions:
            # argparse takes "-1/20" for an option unless "--" precedes it
            sep = ("--",) if "/" in argv[i] else ()
            yield argv[:i] + sep + ("-" + argv[i],) + argv[i + 1 :]


@pytest.mark.parametrize("argv", list(_negated()), ids=" ".join)
def test_negative_numeric_argument_is_invalid(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[0] == "error: invalid-argument"


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "dirac(0)", "uniform", "1/0", "10"),
        ("modulus", "uniform", "1/0", "32"),
        ("refute-ac", "dirac(0)", "uniform", "1/0", "3", "20"),
        ("family", "build", "2", "1/0", "16"),
    ],
    ids=" ".join,
)
def test_zero_denominator_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid Fraction value: '1/0'" in err and "Traceback" not in err


# DSL fragments, bad ones included: zero denominators and negative numbers.
# ``coded`` is left out: a coded single-branch base searches its spine up to
# the default budget, which takes minutes and gigabytes.
_RATIONAL = st.sampled_from(["0", "1", "2", "-1", "1/2", "1/3", "2/3", "-1/2", "1/0", "0/0", "3/2"])
_BITS = st.sampled_from(["", "0", "1", "01", "110"])
_SCHEDULE = st.one_of(
    st.builds("const({})".format, _RATIONAL),
    st.builds("ks({})".format, st.sampled_from(["", "0", "1*", "01(10)*", "(1)*", "0*"])),
    st.builds(
        "list({}; {})".format,
        st.lists(_RATIONAL, min_size=1, max_size=3).map(", ".join),
        st.one_of(st.just("cycle"), st.builds("const({})".format, _RATIONAL)),
    ),
)
# half of the weight lists sum to one, so that many texts are accepted
_PAIRS = st.one_of(
    st.sampled_from([[("", "1")], [("0", "1/2"), ("1", "1/2")], [("1", "1/3"), ("0", "2/3")]]),
    st.lists(st.tuples(_BITS, _RATIONAL), min_size=1, max_size=3),
)
_MEASURE = st.recursive(
    st.one_of(
        st.just("uniform"),
        st.builds("dirac({})".format, _BITS),
        st.builds("product({})".format, _SCHEDULE),
        _PAIRS.map(lambda ps: "finite({})".format(", ".join(f"{b}: {r}" for b, r in ps))),
        st.builds(
            "table({}; {})".format,
            st.sampled_from(["1", "1", "2", "-1"]),
            _PAIRS.map(lambda ps: ", ".join(f"{b} = {r}" for b, r in ps)),
        ),
    ),
    lambda inner: st.tuples(_PAIRS, st.lists(inner, min_size=3, max_size=3)).map(
        lambda t: "convex({})".format(", ".join(f"{w}: {m}" for (_, w), m in zip(*t)))
    ),
    max_leaves=4,
)
_TOKENS = st.sampled_from(["(", ")", ",", ";", ":", "=", "/", "/0", "-", "*", "0", "1", " ", "uniform"])


@st.composite
def _dsl_text(draw):
    text = draw(_MEASURE)
    if draw(st.booleans()):  # damage it: splice a token in
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_TOKENS) + text[at:]
    return text


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_dsl_text())
def test_fuzz_dsl_text_through_main(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["eval", text, "01"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        printed = print_measure(parse(text))
        assert print_measure(parse(printed)) == printed


def test_nesting_at_the_bound_and_one_deeper(capsys):
    # 64 nested forms answer as they did before the bound, under the default
    # recursion limit; 65 give the syntax-error document, not a traceback
    mixture = "convex(1: " * 64 + "uniform" + ")" * 64
    coded = "coded(" * 64 + "uniform" + "; 1)" * 64
    assert run(capsys, "eval", mixture, "01") == (0, "1/4\n")
    assert run(capsys, "gap", mixture, "dirac(0)", "8") == (0, "255/256\n")
    assert run(capsys, "eval", coded, "01") == (0, "1/3\n")
    assert run(capsys, "decode", coded, "1") == (0, "1\n")
    for text, column in (("convex(1: " + mixture + ")", 641), ("coded(" + coded + "; 1)", 385)):
        code, out = run(capsys, "eval", text, "01")
        assert code == 2
        assert out.splitlines() == [
            "error: syntax-error",
            "line: 1",
            f"column: {column}",
            "expected: uniform, dirac, product, table",
            "message: mixtures and coded measures nest at most 64 deep",
        ]
    # encoding a code at the bound would print a text one level too deep
    code, out = run(capsys, "encode", coded, "1")
    assert code == 2
    assert out == "error: semantic-error\nmessage: mixtures and coded measures nest at most 64 deep\n"
