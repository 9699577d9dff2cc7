"""Generators, brackets, eigenactions, rotation packaging, substitutions."""

import cmath
import math
import random

import numpy as np
import pytest

from holoconf import algebra, dual
from holoconf.algebra import (
    B,
    EXPECTED_FIELD_SIGNS,
    GENERATORS,
    MINKOWSKI_FIELD_SIGNS,
    MINKOWSKI_METRIC,
    P0,
    P1,
    Q0,
    Q1,
    S01,
    UPSILON_LINE,
    RealizationMismatchError,
    UnmatchedBracketError,
    act,
    angular_tensor,
    apply_to_function,
    bracket,
    cn,
    default_points,
    eigenaction_expected,
    field_values,
    generator,
    generator_by_transport,
    match_sign,
    minkowski_check,
    paravector_substitute,
    pair_label,
    sn,
    so31_pack,
    structure_table,
    tangent_curve,
)
from holoconf.charts import ChartId, ChartPoint
from holoconf.laplace import SolutionFamily, solve
from holoconf.sampling import chart_points, scale_dimensions, upsilon_points

FIELD_REALIZATIONS = (
    ChartId.CARTESIAN,
    ChartId.HOLOGRAPHIC,
    ChartId.CONFORMAL,
    UPSILON_LINE,
)


def vf_defect(x, y, pts):
    return float(np.max(np.abs(field_values(x, pts) - field_values(y, pts))))


def test_generator_examples():
    b = generator(B, ChartId.HOLOGRAPHIC)
    t, f = 0.6, 1.1
    assert b.coeffs[0](t, f) == pytest.approx(math.tan(t))
    assert b.coeffs[1](t, f) == 0.0

    q0 = generator(Q0, UPSILON_LINE)
    u = 0.3 + 0.7j
    assert q0.coeffs[0](u) == pytest.approx(u * u)

    p1 = generator(P1, ChartId.CARTESIAN)
    assert p1.coeffs[0](0.4, -0.9) == 0.0
    assert p1.coeffs[1](0.4, -0.9) == 1.0


def test_generators_match_transport_from_flat():
    # closed-form chart tables vs pushforward through the mixed Jacobian
    rng = random.Random(41)
    for chart in (ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL):
        pts = chart_points(chart, 25, rng)
        for g in GENERATORS:
            assert vf_defect(generator(g, chart), generator_by_transport(g, chart), pts) <= 1e-10


def test_bracket_examples():
    pts = default_points(ChartId.CARTESIAN)
    b = generator(B, ChartId.CARTESIAN)
    p0 = generator(P0, ChartId.CARTESIAN)
    lhs = bracket(b, p0)
    minus_p0 = algebra.lincomb([(-1.0, p0)], ChartId.CARTESIAN)
    assert vf_defect(lhs, minus_p0, pts) <= 1e-12

    s01 = generator(S01, ChartId.CARTESIAN)
    q0 = generator(Q0, ChartId.CARTESIAN)
    got = bracket(s01, q0)
    for p in pts[:10]:
        x0, x1 = p.y0, p.y1
        assert complex(dual.value(got.coeffs[0](x0, x1))) == pytest.approx(
            -2 * x0 * x1, abs=1e-12
        )
        assert complex(dual.value(got.coeffs[1](x0, x1))) == pytest.approx(
            x0 * x0 - x1 * x1, abs=1e-12
        )

    upts = default_points(UPSILON_LINE)
    qp = bracket(generator(Q0, UPSILON_LINE), generator(P0, UPSILON_LINE))
    minus_2b = algebra.lincomb([(-2.0, generator(B, UPSILON_LINE))], UPSILON_LINE)
    assert vf_defect(qp, minus_2b, upts) <= 1e-12


def test_bracket_realization_mismatch():
    with pytest.raises(RealizationMismatchError):
        bracket(generator(B, ChartId.POLAR), generator(B, ChartId.CONFORMAL))


def test_match_sign():
    assert match_sign("[b,p0]", 1e-9, 2.0, 1e-6) == (1, 1e-9)
    assert match_sign("[b,p0]", 2.0, 1e-9, 1e-6) == (-1, 1e-9)
    # a zero right-hand side fits both signs and is recorded as +1
    assert match_sign("[p0,p1]", 0.0, 0.0, 1e-6) == (1, 0.0)
    for d_plus, d_minus in ((1.0, 1.0), (math.nan, math.nan)):
        with pytest.raises(UnmatchedBracketError, match=r"^\[b,p0\] in x: defects "):
            match_sign("[b,p0] in x", d_plus, d_minus, 1e-6)


def test_structure_tables_all_realizations():
    ledgers = {}
    for r in FIELD_REALIZATIONS + (ChartId.POLAR,):
        led = structure_table(r)
        assert led.max_defect <= 1e-10
        for (g1, g2), sign in EXPECTED_FIELD_SIGNS.items():
            assert led.signs[pair_label(g1, g2)] == sign
        ledgers[led.realization] = led.signs
    # identical ledger across realizations
    base = ledgers["cartesian"]
    for signs in ledgers.values():
        assert signs == base


def test_act_examples():
    p = ChartPoint(ChartId.HOLOGRAPHIC, 0.8, 2.1)
    u = solve(3.0, ChartId.HOLOGRAPHIC, p)
    assert act(B, 3.0, p) == pytest.approx(3.0 * u, abs=1e-10)

    q = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.2)
    u2 = solve(2.0, ChartId.HOLOGRAPHIC, q)
    assert act(Q1, 1.0, q) == pytest.approx(-1j * u2, abs=1e-10)

    assert act(P0, 0.0, q) == pytest.approx(0.0, abs=1e-12)


def test_eigenactions_all_transported_realizations():
    rng = random.Random(42)
    for chart in (ChartId.HOLOGRAPHIC, ChartId.CARTESIAN, ChartId.CONFORMAL, ChartId.POLAR):
        pts = chart_points(chart, 50, rng)
        alphas = scale_dimensions(50, rng)
        for g in GENERATORS:
            for p, alpha in zip(pts, alphas):
                expected = eigenaction_expected(g, alpha, p)
                assert abs(act(g, alpha, p) - expected) <= 1e-10 * (1 + abs(expected))


def test_degree_shift_on_monomials():
    rng = random.Random(43)
    us = upsilon_points(10, rng)
    p0 = generator(P0, UPSILON_LINE)
    q0 = generator(Q0, UPSILON_LINE)
    for n in range(9):
        mono = lambda u, n=n: u**n
        for u in us:
            expected_p = n * u ** (n - 1) if n else 0.0
            assert apply_to_function(p0, mono, u) == pytest.approx(expected_p, abs=1e-10)
            assert apply_to_function(q0, mono, u) == pytest.approx(
                n * u ** (n + 1), abs=1e-10
            )


def test_jacobi_identity():
    rng = random.Random(44)
    for r in FIELD_REALIZATIONS:
        pts = default_points(r, n=4, seed=7)
        for _ in range(8):
            gx, gy, gz = rng.sample(GENERATORS, 3)
            x, y, z = (generator(g, r) for g in (gx, gy, gz))
            total = algebra.lincomb(
                [
                    (1.0, bracket(bracket(x, y), z)),
                    (1.0, bracket(bracket(y, z), x)),
                    (1.0, bracket(bracket(z, x), y)),
                ],
                r,
            )
            assert float(np.max(np.abs(field_values(total, pts)))) <= 1e-10


def test_so31_pack_coefficients():
    pack = so31_pack(UPSILON_LINE)
    for u in (0.7 + 0.2j, -0.4 + 1.1j):
        s02 = complex(dual.value(pack[(0, 2)].coeffs[0](u)))
        assert s02 == pytest.approx((u * u - 1) / 2, abs=1e-13)
        s13 = complex(dual.value(pack[(1, 3)].coeffs[0](u)))
        assert s13 == pytest.approx(1j * (u * u - 1) / 2, abs=1e-13)
        s23 = complex(dual.value(pack[(2, 3)].coeffs[0](u)))
        assert s23 == pytest.approx(u, abs=1e-13)


def test_minkowski_check_flat_examples():
    pts = default_points(ChartId.CARTESIAN, n=20)
    res = minkowski_check(ChartId.CARTESIAN, points=pts)
    # [s01, s02] = -s12 as written; [s02, s03] = +b, negated vs -s23
    assert res.ledger.signs["[s01,s02]"] == 1
    assert res.ledger.signs["[s02,s03]"] == -1
    assert res.ledger.max_defect <= 1e-10


def test_minkowski_metric_forced_everywhere():
    for r in FIELD_REALIZATIONS:
        res = minkowski_check(r, points=default_points(r, n=15))
        for key, sign in res.ledger.signs.items():
            assert sign == MINKOWSKI_FIELD_SIGNS.get(key, 1)
        assert res.metric_forced
        assert res.passing_metrics == [MINKOWSKI_METRIC]


def test_cn_sn():
    assert cn(1.0) == pytest.approx(1.0)
    assert sn(1.0) == pytest.approx(0.0)
    phi = 0.7
    u = cmath.exp(1j * phi)
    assert cn(u) == pytest.approx(math.cos(phi), abs=1e-14)
    assert sn(u) == pytest.approx(math.sin(phi), abs=1e-14)
    assert cn(0.5) ** 2 + sn(0.5) ** 2 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ZeroDivisionError):
        cn(0)
    with pytest.raises(ZeroDivisionError):
        sn(0)


def test_angular_tensor():
    m = angular_tensor(1.0)
    assert m[2, 3] == pytest.approx(1.0)
    assert m[0, 3] == pytest.approx(-cn(1.0))
    u = 0.3 + 0.4j
    m = angular_tensor(u)
    assert np.max(np.abs(m + m.T)) <= 1e-14
    # entries reproduce the packed coefficients over the common factor u d/du
    pack = so31_pack(UPSILON_LINE)
    for (a, b), fld in pack.items():
        coeff = complex(dual.value(fld.coeffs[0](u)))
        assert m[a, b] * u == pytest.approx(coeff, abs=1e-13)
    with pytest.raises(ZeroDivisionError):
        angular_tensor(0)


def test_paravector_substitution_reproduces_generators():
    rng = random.Random(45)
    pts = chart_points(ChartId.HOLOGRAPHIC, 50, rng)
    # real/imaginary parts of the solution give q0 (with cos phi in the real part)
    sub_q0 = paravector_substitute(
        lambda t, f: dual.cos(f) * dual.sin(t), lambda t, f: dual.sin(f) * dual.sin(t)
    )
    assert vf_defect(sub_q0, generator(Q0, ChartId.HOLOGRAPHIC), pts) <= 1e-12
    # parts of the inverse solution give p0
    sub_p0 = paravector_substitute(
        lambda t, f: dual.cos(f) / dual.sin(t), lambda t, f: -dual.sin(f) / dual.sin(t)
    )
    assert vf_defect(sub_p0, generator(P0, ChartId.HOLOGRAPHIC), pts) <= 1e-12
    # the constant paravector 1 gives the dilation
    sub_b = paravector_substitute(lambda t, f: 1.0, lambda t, f: 0.0)
    assert vf_defect(sub_b, generator(B, ChartId.HOLOGRAPHIC), pts) <= 1e-12


def test_tangent_curve():
    p = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 3, 0.0)
    u = solve(1.0, ChartId.HOLOGRAPHIC, p)
    assert tangent_curve(0.0, p) == pytest.approx(u, abs=1e-14)

    # derivative at 0 equals (tan t d_t u)(p) = u(p) for unit scale dimension
    flow = apply_to_function(
        generator(B, ChartId.HOLOGRAPHIC), SolutionFamily(1.0, ChartId.HOLOGRAPHIC), p
    )
    assert flow == pytest.approx(u, abs=1e-12)
    eps = 1e-6
    numeric = (tangent_curve(eps, p) - tangent_curve(-eps, p)) / (2 * eps)
    assert numeric == pytest.approx(flow, abs=1e-8)

    q = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.0)
    eps = 1e-3
    approx = math.sin(q.y0 + eps * math.tan(q.y0)) * cmath.exp(1j * q.y1)
    assert abs(tangent_curve(eps, q) - approx) <= 1e-5
    with pytest.raises(ValueError):
        tangent_curve(0.1, ChartPoint(ChartId.POLAR, 1.0, 0.0))
