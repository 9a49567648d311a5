import random
from fractions import Fraction as F

import pytest

from cmc import (
    AtomWitness,
    Dirac,
    Failure,
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
    extend_family,
    gap,
    ks_schedule,
    measure_of_family,
    ortho_certificate,
    perfect_family,
    product_code,
    refute_abs_continuity,
)
from cmc.bits import PeriodicBits, all_strings_of_length
from cmc.productgap import _ratio_sort, binomial_masses, mim_masses, tv_upper_bound
from cmc.schedules import ConstantSchedule, ExplicitSchedule


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


def test_gap_zero_for_identical():
    assert gap(Uniform(), Uniform(), 10) == 0


def test_binomial_path_matches_recursion():
    a = ProductCode(ConstantSchedule(F(1, 3)))
    b = ProductCode(ConstantSchedule(F(2, 3)))
    mu_a, nu_a = binomial_masses(F(1, 3), F(2, 3), 10)
    assert nu_a - mu_a == _brute_gap(a, b, 10)


def test_mim_path_matches_recursion():
    sa = ExplicitSchedule([F(1, 3), F(1, 2), F(2, 5)], "cycle")
    sb = ExplicitSchedule([F(1, 4)], ("const", F(3, 5)))
    a, b = ProductCode(sa), ProductCode(sb)
    d = 12
    pa = [sa.alpha(n) for n in range(d)]
    pb = [sb.alpha(n) for n in range(d)]
    mu_a, nu_a = mim_masses(pa, pb, d)
    assert nu_a - mu_a == _brute_gap(a, b, d)


def test_ratio_sort_exact_where_float_keys_tie():
    # the log keys all read 0.0; only the exact check tells the ratios apart
    mu = [10**30] * 3
    nu = [10**30 + 1, 10**30, 10**30 + 2]
    assert _ratio_sort(nu, mu) == ([10**30, 10**30 + 1, 10**30 + 2], mu)
    assert _ratio_sort(nu, mu, reverse=True) == ([10**30 + 2, 10**30 + 1, 10**30], mu)


def _mim_matches_brute(sa, sb, depths):
    a, b = ProductCode(sa), ProductCode(sb)
    for d in depths:
        pa = [sa.alpha(n) for n in range(d)]
        pb = [sb.alpha(n) for n in range(d)]
        mu_a, nu_a = mim_masses(pa, pb, d)
        assert nu_a - mu_a == _brute_gap(a, b, d), d
        assert mu_a == sum(a.mass(s) for s in all_strings_of_length(d) if b.mass(s) > a.mass(s))


def test_mim_ks_pattern_against_complement():
    _mim_matches_brute(
        ks_schedule(PeriodicBits("01", "011")), ks_schedule(PeriodicBits("10", "100")), range(1, 13)
    )


def test_mim_many_exact_ties():
    # every half-cell ratio is a power of 2 or 1: large groups of exact ties
    _mim_matches_brute(
        ExplicitSchedule([F(1, 3), F(2, 3)], "cycle"), ConstantSchedule(F(1, 2)), range(1, 13)
    )


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
