"""The benchmark's own checks must reject wrong answers.

    python3 -m pytest perfbench/test_checks.py -q

Kept out of the project's test suite (which collects ``tests/`` only).  Each
test feeds a check a right answer, which must pass, and a deliberately wrong
one, which must not.
"""

import os
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cmc  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

KS_A, KS_B = ("ks", "01", "101"), ("ks", "10", "010")
KS_TEXT_A, KS_TEXT_B = "product(ks(01(101)*))", "product(ks(10(010)*))"


def _ulp(q):
    """The next rational with the same denominator."""
    return F(q.numerator + 1, q.denominator)


def test_shallow_gap_rejects_one_ulp():
    g = cmc.gap(cmc.parse(KS_TEXT_A), cmc.parse(KS_TEXT_B), 8)
    want = ref.product_gap_masses(KS_A, KS_B, 8)
    assert ref.check_exact("gap", g, want[1] - want[0]) == []
    assert ref.check_exact("gap", _ulp(g), want[1] - want[0])


def test_const_gap_rejects_one_ulp():
    a, b = F(2, 7), F(5, 7)
    g = cmc.gap(cmc.parse("product(const(2/7))"), cmc.parse("product(const(5/7))"), 60)
    assert ref.check_exact("gap", g, ref.const_gap(a, b, 60)) == []
    assert ref.check_exact("gap", _ulp(g), ref.const_gap(a, b, 60))


def test_deep_gap_float_estimate():
    g = cmc.gap(cmc.parse(KS_TEXT_A), cmc.parse(KS_TEXT_B), 20)
    est = ref.float_mim_gap(KS_A, KS_B, 20)
    assert ref.check_near("gap", g, est) == []
    assert ref.check_near("gap", g + F(1, 10**6), est)
    assert float(g) <= ref.affinity_bound(KS_A, KS_B, 20)


def test_pair_gaps_symmetric_and_monotone():
    assert ref.check_pair_gaps("p", {(0, 4): F(1, 3), (1, 4): F(1, 3), (0, 6): F(1, 2)}) == []
    assert ref.check_pair_gaps("p", {(0, 4): F(1, 3), (1, 4): F(1, 4)})
    assert ref.check_pair_gaps("p", {(0, 4): F(1, 2), (0, 6): F(1, 3)})


def test_certificate_rejects_a_dropped_cell():
    mu, nu = ref.Ref(("dirac", "0")), ref.Ref(("uniform",))
    cert = cmc.ortho_certificate(cmc.Dirac("0"), cmc.Uniform(), F(1, 20), 10)
    cells = list(cert.cells.strings)
    args = (F(1, 20), cert.depth)
    assert ref.check_certificate("c", mu, nu, *args, cells, cert.mu_mass, cert.nu_mass) == []
    assert ref.check_certificate("c", mu, nu, *args, cells[:-1], cert.mu_mass, cert.nu_mass)
    assert ref.check_certificate("c", mu, nu, *args, cells, cert.mu_mass, _ulp(cert.nu_mass))


def test_bracket_rejects_a_wrong_width():
    f, g = cmc.Uniform(), cmc.Dirac("0")
    lo, hi = cmc.metric_bracket(f, g, 8)
    rf, rg = ref.Ref(("uniform",)), ref.Ref(("dirac", "0"))
    assert ref.check_bracket("m", rf, rg, 8, lo, hi) == []
    assert ref.check_bracket("m", rf, rg, 8, lo, hi + F(1, 1 << 8))
    assert ref.check_bracket("m", rf, rg, 8, lo, lo + F(1, 1 << 9))
    assert ref.check_bracket("m", rf, rg, 8, _ulp(lo), _ulp(lo) + F(1, 1 << 8))


def test_modulus_rejects_off_by_one():
    u = ref.Ref(("uniform",))
    assert ref.check_modulus("m", u, F(1, 4), 3) == []
    assert ref.check_modulus("m", u, F(1, 4), 2)
    assert ref.check_modulus("m", u, F(1, 4), 4)


def test_refutation_rejects_a_dropped_cell():
    mu = ref.Ref(("finite", (("000", F(1, 4)), ("010", F(1, 4)), ("100", F(1, 2)))))
    nu = ref.Ref(("uniform",))
    good = [(F(1, 2), ["010", "100"])]
    assert ref.check_refutation("r", mu, nu, F(3, 4), 1, good) == []
    assert ref.check_refutation("r", mu, nu, F(3, 4), 1, [(F(1, 2), ["100"])])
    assert ref.check_refutation("r", mu, nu, F(3, 4), 1, [(F(1, 4), ["010", "100"])])


def test_coded_class_rejects_a_flipped_payload_bit():
    op = workloads.CodedClass(cmc, random.Random(3)).ops()[2]  # the table base
    out = op.run()
    assert op.check(out) == []
    decoded = out["decoded"]
    out["decoded"] = ("1" if decoded[0] == "0" else "0") + decoded[1:]
    assert op.check(out)


def test_checker_process_rejects_a_flipped_payload_bit():
    ops = workloads.CodedClass(cmc, random.Random(3)).ops()
    checker = worker.Checker(lambda: ops)
    try:
        out = ops[2].run()
        assert checker.check(2, ops[2], out) == []
        decoded = out["decoded"]
        out["decoded"] = ("1" if decoded[0] == "0" else "0") + decoded[1:]
        assert checker.check(2, ops[2], out)
    finally:
        checker.close()


def test_coded_masses_follow_the_spec():
    base = ("table", 2, (("00", F(1, 4)), ("01", F(1, 8)), ("10", F(1, 2)), ("11", F(1, 8))))
    coded = ref.Ref(("coded", base, "1011"))
    g = cmc.encode(cmc.parse(ref.canonical_text(base)), "1011")
    strings = [s for n in range(8) for s in ref.strings_of_length(n)]
    assert all(g.mass(s) == coded.mass(s) for s in strings)
    assert ref.check_spine_splits("s", coded, g.mass, 4) == []
    flipped = cmc.encode(cmc.parse(ref.canonical_text(base)), "0011")
    assert ref.check_spine_splits("s", coded, flipped.mass, 4)
    assert ref.canonical_text(("coded", base, "1011")) == cmc.print_measure(g)


@pytest.mark.parametrize("seed", [1, 2])
def test_cell_walk_round_checks_pass(seed):
    walk = workloads.CellWalk(cmc, random.Random(seed))
    for op in walk.ops():
        try:
            answer = op.run()
        except RecursionError:  # the deep cylinders, while MeasureCode.mass recurses
            assert op.name.startswith("deep-"), op.name
            continue
        assert op.check(answer) == [], op.name


def test_cell_walk_rejects_changed_answers():
    ops = {op.name: op for op in workloads.CellWalk(cmc, random.Random(5)).ops()}
    cert_op = ops["certify-DT1"]
    cert = cert_op.run()
    wrong = cmc.OrthoCertificate(
        cert.epsilon, cert.depth, cmc.CylinderFamily(cert.cells.strings[1:]), cert.mu_mass, cert.nu_mass
    )
    assert cert_op.check(wrong)
    assert cert_op.check(cert) == []
    gap_op = ops["gap-T1T2-12"]
    assert gap_op.check(_ulp(gap_op.run()))


def test_document_parser_rejects_malformed_output():
    items = workloads._doc("result: refutation\nstage:\n  index: 1\n  cells: 00\n")
    assert items == [("result", "refutation"), ("stage", [("index", "1"), ("cells", "00")])]
    for bad in ("result refutation\n", "stage:\n   index: 1\n", "result: x", "result:  x\n"):
        with pytest.raises(ValueError):
            workloads._doc(bad)


def test_self_time_excludes_child_spans():
    spans = [
        ["productgap.mim_masses", 0.0, 0.010, -1],
        ["productgap._build_half", 0.001, 0.003, 0],
        ["productgap._build_half", 0.004, 0.006, 0],
        ["orthogonality._masses_above", 0.020, 0.025, -1],
    ]
    m = tracing.layer_metrics(spans, Counter(mass_calls=4, mass_misses=1))
    assert m["productgap.mim_ms"] == pytest.approx(10.0)
    assert m["productgap.mim_build_ms"] == pytest.approx(4.0)
    assert m["productgap.mim_sort_sweep_ms"] == pytest.approx(6.0)
    assert (m["orthogonality.walk_calls"], m["orthogonality.walk_ms"]) == (1, pytest.approx(5.0))
    assert m["measures.memo_hit_ratio"] == 0.75
