"""The record contract of holoconf's value types: repr, equality, hashing,
immutability, construction and copying, pinned for each of the 16 records."""

import copy
import math
import pickle
from typing import NamedTuple

import pytest

from holoconf.algebra import MinkowskiResult, SignLedger, TaylorField, VectorField
from holoconf.bicomplex import Bicomplex, HopfTriple
from holoconf.charts import ChartId, ChartPoint, ConformalVector
from holoconf.laplace import SolutionFamily
from holoconf.projective import ChartTransition, ProjectivePoint, Ring, S3Point, SpinMatrix
from holoconf.report import CheckResult, SuiteConfig, VerificationReport


class Case(NamedTuple):
    cls: type
    fields: dict  # every field, in order
    repr: str
    frozen: bool
    other: dict  # one field changed: the record differs


CASES = [
    Case(
        ChartPoint,
        {"chart": ChartId.POLAR, "y0": 1.5, "y1": 0.25},
        "ChartPoint(chart=<ChartId.POLAR: 'polar'>, y0=1.5, y1=0.25)",
        True,
        {"y1": 0.5},
    ),
    Case(
        ConformalVector,
        {"u0": 0.0, "u1": 1.0, "u2": 0.0, "u3": 1.0},
        "ConformalVector(u0=0.0, u1=1.0, u2=0.0, u3=1.0)",
        True,
        {"u3": -1.0},
    ),
    Case(
        Bicomplex,
        {"re": 1.0, "im_i": 2.0, "im_j": -0.5, "im_ij": 0.0},
        "Bicomplex(re=1.0, im_i=2.0, im_j=-0.5, im_ij=0.0)",
        True,
        {"im_ij": 3.0},
    ),
    Case(
        HopfTriple,
        {"xi1": 0.0, "xi2": 0.6, "xi3": 0.8, "len_sq": 1.0},
        "HopfTriple(xi1=0.0, xi2=0.6, xi3=0.8, len_sq=1.0)",
        True,
        {"len_sq": 2.0},
    ),
    Case(
        SolutionFamily,
        {"alpha": 2.5, "chart": ChartId.HOLOGRAPHIC, "conjugate_branch": True},
        "SolutionFamily(alpha=2.5, chart=<ChartId.HOLOGRAPHIC: 'holographic'>, conjugate_branch=True)",
        True,
        {"conjugate_branch": False},
    ),
    Case(
        VectorField,
        {"realization": ChartId.CARTESIAN, "coeffs": math.cos},
        "VectorField(realization=<ChartId.CARTESIAN: 'cartesian'>, coeffs=<built-in function cos>)",
        True,
        {"coeffs": math.sin},
    ),
    Case(
        TaylorField,
        {"v": 1.0, "g": (2.0, 3.0), "h": None},
        "TaylorField(v=1.0, g=(2.0, 3.0), h=None)",
        True,
        {"h": 4.0},
    ),
    Case(
        SpinMatrix,
        {"ring": Ring.REAL, "a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0},
        "SpinMatrix(ring=<Ring.REAL: 'real'>, a=1.0, b=2.0, c=3.0, d=4.0)",
        True,
        {"ring": Ring.COMPLEX},
    ),
    Case(
        S3Point,
        {"s1": 0.6, "s2": 0.0, "s3": 0.0, "s4": 0.8},
        "S3Point(s1=0.6, s2=0.0, s3=0.0, s4=0.8)",
        True,
        {"s2": 1.0},
    ),
    Case(
        ProjectivePoint,
        {"v1": 1 + 2j, "v2": 3j},
        "ProjectivePoint(v1=(1+2j), v2=3j)",
        True,
        {"v2": 0j},
    ),
    Case(
        ChartTransition,
        {"affine0": (0.5j, 1 + 0j), "affine1": None, "transition": None},
        "ChartTransition(affine0=(0.5j, (1+0j)), affine1=None, transition=None)",
        True,
        {"transition": 1j},
    ),
    Case(
        SuiteConfig,
        {"seed": 7, "samples": 20, "tol": 1e-09, "suites": ("charts", "algebra")},
        "SuiteConfig(seed=7, samples=20, tol=1e-09, suites=('charts', 'algebra'))",
        True,
        {"seed": 8},
    ),
    Case(
        SignLedger,
        {"realization": "polar", "signs": {"B,P0": 1, "B,P1": -1}, "max_defect": 2.5e-15},
        "SignLedger(realization='polar', signs={'B,P0': 1, 'B,P1': -1}, max_defect=2.5e-15)",
        False,
        {"signs": {"B,P0": 1, "B,P1": 1}},
    ),
    Case(
        MinkowskiResult,
        {
            "realization": "polar",
            "ledger": SignLedger("polar", {"B,P0": 1, "B,P1": -1}, 2.5e-15),
            "passing_metrics": [(1, 1, 1, -1)],
            "metric_forced": True,
        },
        "MinkowskiResult(realization='polar', ledger=SignLedger(realization='polar', signs={'B,P0': 1,"
        " 'B,P1': -1}, max_defect=2.5e-15), passing_metrics=[(1, 1, 1, -1)], metric_forced=True)",
        False,
        {"metric_forced": False},
    ),
    Case(
        CheckResult,
        {
            "suite": "charts",
            "name": "roundtrip[polar]",
            "identity": "x == f(g(x))",
            "passed": False,
            "max_defect": None,
            "sign_ledger": {"a": 1},
            "message": "ValueError: bad",
        },
        "CheckResult(suite='charts', name='roundtrip[polar]', identity='x == f(g(x))', passed=False,"
        " max_defect=None, sign_ledger={'a': 1}, message='ValueError: bad')",
        False,
        {"passed": True},
    ),
    Case(
        VerificationReport,
        {
            "config": SuiteConfig(seed=3, samples=5, suites=("charts",)),
            "checks": [CheckResult("charts", "roundtrip[polar]", "x == f(g(x))", True, 1e-15)],
        },
        "VerificationReport(config=SuiteConfig(seed=3, samples=5, tol=1e-10, suites=('charts',)),"
        " checks=[CheckResult(suite='charts', name='roundtrip[polar]', identity='x == f(g(x))',"
        " passed=True, max_defect=1e-15, sign_ledger=None, message=None)])",
        False,
        {"checks": []},
    ),
]

IDS = [case.cls.__name__ for case in CASES]


def _build(case: Case, **changes):
    return case.cls(*{**case.fields, **changes}.values())


def test_every_record_type_has_a_case():
    assert len({case.cls for case in CASES}) == 16


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr(case):
    assert repr(_build(case)) == case.repr


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_by_type_and_fields(case):
    rec = _build(case)
    assert rec == _build(case) and not rec != _build(case)
    assert rec != _build(case, **case.other) and not rec == _build(case, **case.other)
    assert rec.__eq__(tuple(case.fields.values())) is NotImplemented
    assert rec != tuple(case.fields.values())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_hash(case):
    rec = _build(case)
    if case.frozen:
        assert hash(rec) == hash(_build(case)) == hash(tuple(getattr(rec, name) for name in case.fields))
    else:
        # unhashable by type, not only through a list or dict field
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(rec)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_of_frozen_records_are_read_only(case):
    rec = _build(case)
    name, value = next(iter(case.other.items()))
    if case.frozen:
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert rec == _build(case)
    else:
        setattr(rec, name, value)
        assert rec == _build(case, **case.other)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_construction_by_keyword(case):
    assert case.cls(**case.fields) == _build(case)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(case):
    rec = _build(case)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is case.cls and twin == rec and repr(twin) == case.repr


def test_defaults():
    assert HopfTriple(xi1=0.0, xi2=0.0, xi3=1.0, len_sq=1.0) == HopfTriple(0.0, 0.0, 1.0, 1.0)
    assert Bicomplex() == Bicomplex(0.0, 0.0, 0.0, 0.0)
    assert Bicomplex(im_j=1.0) == Bicomplex(0.0, 0.0, 1.0, 0.0)
    assert TaylorField(1.0) == TaylorField(1.0, None, None)
    assert SolutionFamily(2.0, ChartId.POLAR).conjugate_branch is False
    all_suites = ("bicomplex", "charts", "laplace", "algebra", "projective")
    assert SuiteConfig() == SuiteConfig(1, 50, 1e-10, all_suites)
    ledger = SignLedger("x")
    assert ledger.signs == {} and ledger.max_defect == 0.0
    assert SignLedger("x").signs is not ledger.signs
    result = CheckResult("s", "n", "i", True, 0.0)
    assert result.sign_ledger is None and result.message is None
    report = VerificationReport(SuiteConfig())
    assert report.checks == [] and VerificationReport(SuiteConfig()).checks is not report.checks
