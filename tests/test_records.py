"""The result records: fields, construction, equality, hashing, repr,
immutability and round trips through pickle and copy, pinned per class."""

import copy
import pickle
from fractions import Fraction as F
from itertools import combinations

import pytest

from cmc.codec import SplittingSpine, Stabilized
from cmc.kakutani import (
    DivergenceCertificate,
    EquivalentFiniteDifference,
    HellingerReport,
    Inconclusive,
    OrthogonalEvidence,
)
from cmc.measures import CylinderFamily, Violation
from cmc.orthogonality import (
    AtomWitness,
    Extension,
    FamilyBuildResult,
    Failure,
    Modulus,
    OrthoCertificate,
    RefutationWitness,
)

CERT = DivergenceCertificate(3, F(11, 6), F(3))

# (class, its fields in order with one value each, the record's repr)
CASES = [
    (
        DivergenceCertificate,
        {"N": 3, "partial_sum": F(11, 6), "target": F(3)},
        "DivergenceCertificate(N=3, partial_sum=Fraction(11, 6), target=Fraction(3, 1))",
    ),
    (
        Inconclusive,
        {"best_gap": F(1, 2), "at_depth": 4, "detail": "depth 4"},
        "Inconclusive(best_gap=Fraction(1, 2), at_depth=4, detail='depth 4')",
    ),
    (
        EquivalentFiniteDifference,
        {"last_diff": 3},
        "EquivalentFiniteDifference(last_diff=3)",
    ),
    (
        OrthogonalEvidence,
        {"cert": CERT},
        "OrthogonalEvidence(cert=DivergenceCertificate(N=3, partial_sum=Fraction(11, 6), "
        "target=Fraction(3, 1)))",
    ),
    (
        HellingerReport,
        {"N": 2, "sum_interval": (F(1, 8), F(1, 4)), "precision_bits": 8},
        "HellingerReport(N=2, sum_interval=(Fraction(1, 8), Fraction(1, 4)), precision_bits=8)",
    ),
    (
        SplittingSpine,
        {"nodes": ("", "0"), "base": "uniform"},
        "SplittingSpine(nodes=('', '0'), base='uniform')",
    ),
    (Stabilized, {"theta": F(2, 3)}, "Stabilized(theta=Fraction(2, 3))"),
    (
        Violation,
        {"s": "0", "lhs": F(1, 2), "rhs": F(3, 4)},
        "Violation(s='0', lhs=Fraction(1, 2), rhs=Fraction(3, 4))",
    ),
    (CylinderFamily, {"strings": ("01", "1")}, "CylinderFamily(strings=('01', '1'))"),
    (
        OrthoCertificate,
        {
            "epsilon": F(1, 20),
            "depth": 5,
            "cells": CylinderFamily(["1"]),
            "mu_mass": F(1, 32),
            "nu_mass": F(1),
        },
        "OrthoCertificate(epsilon=Fraction(1, 20), depth=5, "
        "cells=CylinderFamily(strings=('1',)), mu_mass=Fraction(1, 32), nu_mass=Fraction(1, 1))",
    ),
    (Modulus, {"n": 3}, "Modulus(n=3)"),
    (
        AtomWitness,
        {"prefix": "00", "epsilon": F(1, 2), "mass": F(1)},
        "AtomWitness(prefix='00', epsilon=Fraction(1, 2), mass=Fraction(1, 1))",
    ),
    (
        RefutationWitness,
        {"epsilon": F(1, 2), "stages": ((F(1, 2), CylinderFamily(["0"])),)},
        "RefutationWitness(epsilon=Fraction(1, 2), "
        "stages=((Fraction(1, 2), CylinderFamily(strings=('0',))),))",
    ),
    (
        Failure,
        {"best_gaps": (("01", F(1, 2), 4),)},
        "Failure(best_gaps=(('01', Fraction(1, 2), 4),))",
    ),
    (
        Extension,
        {"code": "uniform", "certificates": (), "candidate_index": 2},
        "Extension(code='uniform', certificates=(), candidate_index=2)",
    ),
    (
        FamilyBuildResult,
        {"measures": (), "certificates": (), "failure": None},
        "FamilyBuildResult(measures=(), certificates=(), failure=None)",
    ),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_record_fields_construction_and_repr(cls, fields, text):
    r = cls(*fields.values())
    assert list(vars(r)) == list(fields)  # the fields, in order
    assert tuple(getattr(r, name) for name in fields) == tuple(fields.values())
    assert cls(**dict(reversed(fields.items()))) == r
    assert repr(r) == text
    assert not isinstance(r, tuple)  # the CLI reads a bare tuple as a bracket


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_record_equality_and_hash(cls, fields, text):
    r = cls(*fields.values())
    twin = cls(*fields.values())
    assert r == twin and not r != twin
    assert hash(r) == hash(twin) == hash(tuple(fields.values()))
    assert r != tuple(fields.values())
    first, value = next(iter(fields.items()))
    if cls is not CylinderFamily:  # it keeps its own constructor
        assert cls(**{**fields, first: (value, "other")}) != r


def test_records_of_different_classes_with_equal_fields_differ():
    for (a, fa, _), (b, fb, _) in combinations(CASES, 2):
        if len(fa) == len(fb) and CylinderFamily not in (a, b):
            values = tuple(fa.values())
            assert a(*values) != b(*values)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_record_is_immutable(cls, fields, text):
    r = cls(*fields.values())
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(vars(r).values()) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_record_round_trips(cls, fields, text):
    r = cls(*fields.values())
    copies = [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(r), copy.deepcopy(r)]
    for c in copies:
        assert type(c) is cls and c == r and hash(c) == hash(r) and repr(c) == text
        with pytest.raises(AttributeError):
            setattr(c, next(iter(fields)), 0)


def test_record_constructor_rejects_bad_arguments():
    with pytest.raises(TypeError):
        Modulus()
    with pytest.raises(TypeError):
        Modulus(1, 2)
    with pytest.raises(TypeError):
        Modulus(m=1)
    with pytest.raises(TypeError):
        Modulus(1, n=1)
    with pytest.raises(TypeError):
        AtomWitness("0", F(1, 2))


def test_inconclusive_defaults():
    assert Inconclusive() == Inconclusive(None, None, "")
    assert repr(Inconclusive()) == "Inconclusive(best_gap=None, at_depth=None, detail='')"
    r = Inconclusive(detail="stage failed")
    assert (r.best_gap, r.at_depth, r.detail) == (None, None, "stage failed")
    assert Inconclusive(F(1, 2), 7) == Inconclusive(best_gap=F(1, 2), at_depth=7, detail="")
    assert list(vars(Inconclusive())) == ["best_gap", "at_depth", "detail"]
