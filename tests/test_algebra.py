"""Generators, brackets, eigenactions, rotation packaging, substitutions."""

import cmath
import itertools
import math
import random
import re

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
    REALIZATIONS,
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
    field_values,
    generator,
    match_sign,
    minkowski_check,
    sn,
    so31_pack,
    structure_table,
    substituted_rows,
    tangent_curve,
)
from holoconf.charts import ChartId, ChartPoint, DomainError
from holoconf.laplace import SolutionFamily, conjugate_derivative, solve
from holoconf.sampling import chart_points, scale_dimensions, upsilon_points


def vf_defect(x, y, pts):
    return float(np.max(np.abs(field_values(x, pts) - field_values(y, pts))))


def test_generator_examples():
    b = generator(B, ChartId.HOLOGRAPHIC)
    t, f = 0.6, 1.1
    assert b.coeffs(t, f)[0] == pytest.approx(math.tan(t))
    assert b.coeffs(t, f)[1] == 0.0

    q0 = generator(Q0, UPSILON_LINE)
    u = 0.3 + 0.7j
    assert q0.coeffs(u)[0] == pytest.approx(u * u)

    p1 = generator(P1, ChartId.CARTESIAN)
    assert p1.coeffs(0.4, -0.9)[0] == 0.0
    assert p1.coeffs(0.4, -0.9)[1] == 1.0


def test_generators_match_transport_from_flat():
    # every closed-form chart row vs the flat upsilon-line field c(u) d/du
    # carried into the chart by its solution coordinate u (substituted_rows)
    rng = random.Random(41)
    for chart in ChartId:
        pts = chart_points(chart, 25, rng)
        rows = substituted_rows(chart, pts)
        assert rows.shape == (len(GENERATORS), 2, 25)
        for g, row in zip(GENERATORS, rows):
            assert np.max(np.abs(field_values(generator(g, chart), pts).T - row)) <= 1e-12


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
        assert complex(dual.value(got.coeffs(x0, x1)[0])) == pytest.approx(
            -2 * x0 * x1, abs=1e-12
        )
        assert complex(dual.value(got.coeffs(x0, x1)[1])) == pytest.approx(
            x0 * x0 - x1 * x1, abs=1e-12
        )

    upts = default_points(UPSILON_LINE)
    qp = bracket(generator(Q0, UPSILON_LINE), generator(P0, UPSILON_LINE))
    minus_2b = algebra.lincomb([(-2.0, generator(B, UPSILON_LINE))], UPSILON_LINE)
    assert vf_defect(qp, minus_2b, upts) <= 1e-12


def constructed_fields(realization) -> dict:
    """A field of each VectorField constructor in the realization, by name."""
    g = {gid: generator(gid, realization) for gid in GENERATORS}
    fields = {
        "generator": g[Q0],
        "bracket": bracket(g[Q0], g[P1]),
        "nested bracket": bracket(bracket(g[Q0], g[P0]), g[Q1]),
        "lincomb": algebra.lincomb([(2.0, g[B]), (-0.5, g[Q1])], realization),
        **{f"so31_pack {ab}": f for ab, f in so31_pack(realization).items()},
    }
    return fields


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_every_field_returns_all_its_coefficients_from_one_call(realization):
    pts = default_points(realization, n=4, seed=3)
    array = algebra.point_args(realization, pts)
    inputs = {
        "plain": [a.item() for a in algebra.point_args(realization, pts[1])],
        "array": array,
        "jet": [dual.Jet(a, 1.0, None) for a in array],
    }
    for name, field in constructed_fields(realization).items():
        assert field.arity == len(array)
        for kind, ys in inputs.items():
            out = field.coeffs(*ys)
            assert type(out) is tuple and len(out) == field.arity, (name, kind)
        # the plain point's coefficients are the array's at that sample
        plain, arr = field.coeffs(*inputs["plain"]), field.coeffs(*array)
        for c, a in zip(plain, arr):
            assert complex(c) == pytest.approx(complex(np.broadcast_to(a, np.shape(array[0]))[1]), abs=1e-13)


def counted(x: algebra.VectorField, calls: list) -> algebra.VectorField:
    """x, recording the arguments of each call of its coefficients."""
    def coeffs(*ys):
        calls.append(ys)
        return x.coeffs(*ys)

    return algebra.VectorField(x.realization, coeffs)


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_bracket_and_lincomb_call_each_operand_once_per_evaluation(realization):
    # an evaluation calls a bracket's operand once for its values and once
    # per coordinate for its partials, and a combination's terms once each,
    # however many coefficients they have
    pts = default_points(realization, n=4, seed=3)
    array = algebra.point_args(realization, pts)
    n = len(array)
    for ys in ([a.item() for a in algebra.point_args(realization, pts[2])], array, [dual.Jet(a, 1.0, None) for a in array]):
        cx, cy, cz = [], [], []
        x, y, z = (counted(generator(g, realization), c) for g, c in ((Q0, cx), (P1, cy), (B, cz)))
        bracket(x, y).coeffs(*ys)
        assert (len(cx), len(cy)) == (1 + n, 1 + n)
        assert cx[0] == cy[0] == tuple(ys)
        cx.clear()
        algebra.lincomb([(2.0, x), (-0.5, z), (1.0, x)], realization).coeffs(*ys)
        assert len(cx) == 2 and len(cz) == 1


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
    for r in REALIZATIONS:
        led = structure_table(r)
        assert led.max_defect <= 1e-10
        assert led.signs == EXPECTED_FIELD_SIGNS
        ledgers[led.realization] = led.signs
    # identical ledger across realizations
    base = ledgers["cartesian"]
    for signs in ledgers.values():
        assert signs == base


def test_act_examples():
    p = ChartPoint(ChartId.HOLOGRAPHIC, 0.8, 2.1)
    u = solve(3.0, p)
    assert act(B, 3.0, p) == pytest.approx(3.0 * u, abs=1e-10)

    q = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.2)
    u2 = solve(2.0, q)
    assert act(Q1, 1.0, q) == pytest.approx(-1j * u2, abs=1e-10)

    assert act(P0, 0.0, q) == pytest.approx(0.0, abs=1e-12)


# the paper's eigen-action table: g u^alpha = factor * alpha * u^(alpha + shift)
EIGENACTION_TABLE = {B: (1, 0), S01: (1j, 0), P0: (1, -1), P1: (1j, -1), Q0: (1, 1), Q1: (-1j, 1)}


def table_action(g, alpha, p):
    factor, shift = EIGENACTION_TABLE[g]
    return factor * alpha * solve(alpha + shift, p)


def test_eigenactions_all_transported_realizations():
    rng = random.Random(42)
    for chart in ChartId:
        pts = chart_points(chart, 50, rng)
        alphas = scale_dimensions(50, rng)
        for g in GENERATORS:
            for p, alpha in zip(pts, alphas):
                expected = table_action(g, alpha, p)
                assert abs(act(g, alpha, p) - expected) <= 1e-10 * (1 + abs(expected))


def line_action(g, alpha, p):
    """alpha * c_g(u) * u^(alpha - 1), c_g g's upsilon-line coefficient at
    the solution u, in the order eigenactions multiplies it."""
    (c,) = generator(g, UPSILON_LINE).coeffs(solve(1.0, p))
    return c * (alpha * solve(alpha - 1, p))


def assert_table_value(expected, g, alpha, p):
    want = table_action(g, alpha, p)
    assert np.all(np.abs(expected - want) <= 1e-10 * (1 + np.abs(want)))


def test_eigenactions_are_act_and_the_table_value():
    rng = random.Random(44)
    for chart in ChartId:
        pts = chart_points(chart, 50, rng)
        alphas = scale_dimensions(50, rng)
        got = algebra.eigenactions(alphas, pts)
        assert len(got) == len(GENERATORS)
        for g, (acted, expected) in zip(GENERATORS, got):
            assert np.array_equal(acted, act(g, alphas, pts))
            assert np.array_equal(expected, line_action(g, alphas, pts))
            assert_table_value(expected, g, alphas, pts)


def test_eigenaction_values_pair_every_shift_with_every_sample():
    # a scalar alpha on a 3-sample point and a 3-sample alpha on a single
    # point both give 3 expected values: the upsilon-line value bitwise, and
    # the paper's table value, alpha shifted by -1, 0 or +1, to 1e-10
    rng = random.Random(45)
    for chart in ChartId:
        pts = chart_points(chart, 3, rng)
        alphas = scale_dimensions(3, rng)
        for alpha, p in ((complex(alphas[0]), pts), (alphas, pts[1])):
            got = algebra.eigenactions(alpha, p)
            for g, (_, expected) in zip(GENERATORS, got):
                want = line_action(g, alpha, p)
                assert np.shape(expected) == np.shape(want) == (3,)
                assert np.asarray(expected).tobytes() == np.asarray(want).tobytes()
                assert_table_value(expected, g, alpha, p)


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


@pytest.mark.parametrize("g, expected", [(P1, 1.0), (P0, 1j), (B, 1.3 + 0.7j)])
def test_a_derivative_of_a_conjugate_derivative_is_exact(g, expected):
    # conjugate_derivative differentiates inside apply_to_function's jets:
    # (d0 + i d1)(x0 x1) = x1 + i x0, so d1 of it is 1, d0 is i and
    # b = x0 d0 + x1 d1 gives x0 i + x1 at (0.7, 1.3)
    f = lambda x0, x1: x0 * x1
    p = ChartPoint(ChartId.CARTESIAN, 0.7, 1.3)
    got = apply_to_function(generator(g, ChartId.CARTESIAN), lambda y0, y1: conjugate_derivative(f, y0, y1), p)
    assert got == pytest.approx(expected, abs=1e-15)


def test_a_bracket_of_a_field_that_differentiates_is_exact():
    # v = (x1 + i x0) d0, its coefficient a conjugate derivative of x0 x1:
    # [p1, v] = (d1 (x1 + i x0)) d0 = d0
    f = lambda x0, x1: x0 * x1
    v = algebra.VectorField(ChartId.CARTESIAN, lambda y0, y1: (conjugate_derivative(f, y0, y1), 0.0))
    got = field_values(bracket(generator(P1, ChartId.CARTESIAN), v), ChartPoint(ChartId.CARTESIAN, 0.7, 1.3))
    assert got.tolist() == [[1.0, 0.0]]


def test_jacobi_identity():
    rng = random.Random(44)
    for r in REALIZATIONS:
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
        s02 = complex(dual.value(pack[(0, 2)].coeffs(u)[0]))
        assert s02 == pytest.approx((u * u - 1) / 2, abs=1e-13)
        s13 = complex(dual.value(pack[(1, 3)].coeffs(u)[0]))
        assert s13 == pytest.approx(1j * (u * u - 1) / 2, abs=1e-13)
        s23 = complex(dual.value(pack[(2, 3)].coeffs(u)[0]))
        assert s23 == pytest.approx(u, abs=1e-13)


def test_minkowski_check_flat_examples():
    pts = default_points(ChartId.CARTESIAN, n=20)
    res = minkowski_check(ChartId.CARTESIAN, points=pts)
    # [s01, s02] = -s12 as written; [s02, s03] = +b, negated vs -s23
    assert res.ledger.signs["[s01,s02]"] == 1
    assert res.ledger.signs["[s02,s03]"] == -1
    assert res.ledger.max_defect <= 1e-10


def test_minkowski_metric_forced_everywhere():
    for r in REALIZATIONS:
        res = minkowski_check(r, points=default_points(r, n=15))
        assert res.ledger.signs == MINKOWSKI_FIELD_SIGNS
        assert res.metric_forced
        assert res.passing_metrics == [MINKOWSKI_METRIC]


@pytest.mark.parametrize(
    "realization, empty",
    [
        (ChartId.CARTESIAN, ChartPoint(ChartId.CARTESIAN, [], [])),
        (UPSILON_LINE, np.array([], dtype=complex)),
    ],
)
def test_empty_point_sets_raise(realization, empty):
    # with no sample every defect reads 0: structure_table would record all
    # 15 signs +1, although the fields negate the four [q, p] brackets
    key = algebra.realization_key(realization)
    with pytest.raises(ValueError, match=f"no sample points to check in {key}"):
        structure_table(realization, points=empty)
    with pytest.raises(ValueError, match=f"no sample points to check in {key}"):
        minkowski_check(realization, points=empty)


@pytest.mark.parametrize(
    "realization, point, one",
    [
        (ChartId.POLAR, ChartPoint(ChartId.POLAR, 1.0, 0.5), ChartPoint(ChartId.POLAR, np.array([1.0]), np.array([0.5]))),
        (UPSILON_LINE, 0.6 + 0.3j, np.array([0.6 + 0.3j])),
    ],
    ids=["polar", "upsilon-line"],
)
def test_a_single_point_is_one_sample(realization, point, one):
    # counted from the broadcast coordinates, as generator_tensors counts them
    assert structure_table(realization, points=point) == structure_table(realization, points=one)
    assert minkowski_check(realization, points=point) == minkowski_check(realization, points=one)
    values = field_values(generator(Q0, realization), point)
    assert values.shape == (1, len(algebra.COORDINATE_NAMES[algebra.realization_key(realization)]))
    # a single u is computed as a 0-d array, so it rounds as its array sample
    assert values.tobytes() == field_values(generator(Q0, realization), one).tobytes()
    got = apply_to_function(generator(Q0, realization), lambda *ys: ys[-1] * ys[-1], point)
    assert type(got) is complex


@pytest.mark.parametrize(
    "y0, y1, n",
    [
        (1.0, 0.5, 1),
        (1.0, np.array([0.1, 0.2]), 2),
        (np.array([1.0, 2.0, 3.0]), 0.5, 3),
        (np.array([1.0, 2.0]), np.array([0.1, 0.2]), 2),
        (np.array([]), np.array([]), 0),
    ],
    ids=["single", "broadcast-y0", "broadcast-y1", "array", "empty"],
)
def test_len_of_a_point_counts_its_broadcast_samples(y0, y1, n):
    assert len(ChartPoint(ChartId.POLAR, y0, y1)) == n


@pytest.mark.parametrize("chart", ChartId, ids=str)
@pytest.mark.parametrize("scalar_y0", (True, False), ids=("scalar-y0", "scalar-y1"))
def test_a_point_with_one_scalar_coordinate_is_its_broadcast_point(chart, scalar_y0):
    # the sample shape is that of both coordinates, not of y0 alone
    y0, y1 = np.array([0.1, 0.4, 0.7]), np.array([0.2, 1.1, 3.0])
    if scalar_y0:
        p, y0 = ChartPoint(chart, 0.5, y1), np.full(3, 0.5)
    else:
        p, y1 = ChartPoint(chart, y0, 0.5), np.full(3, 0.5)
    q = ChartPoint(chart, y0, y1)
    assert len(p) == 3
    for k in range(3):
        assert p[k] == q[k]
    got, want = algebra.generator_tensors(chart, p, order=2), algebra.generator_tensors(chart, q, order=2)
    for a, b in ((got.v, want.v), (got.g, want.g), (got.h, want.h)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert structure_table(chart, points=p) == structure_table(chart, points=q)
    assert minkowski_check(chart, points=p) == minkowski_check(chart, points=q)


# every algebra path that takes sample points, as a call on (realization, points)
POINT_PATHS = {
    "structure_table": lambda r, pts: structure_table(r, points=pts),
    "minkowski_check": lambda r, pts: minkowski_check(r, points=pts),
    "generator_tensors": algebra.generator_tensors,
    "field_values": lambda r, pts: field_values(generator(Q0, r), pts),
    "apply_to_function": lambda r, pts: apply_to_function(generator(Q0, r), lambda *ys: ys[0], pts),
}


@pytest.mark.parametrize("path", POINT_PATHS.values(), ids=POINT_PATHS)
def test_points_of_another_realization_raise(path):
    # polar points read as holographic ones would pass the bracket table
    polar = chart_points(ChartId.POLAR, 20, random.Random(7))
    with pytest.raises(RealizationMismatchError, match="polar point given in holographic"):
        path(ChartId.HOLOGRAPHIC, polar)
    with pytest.raises(RealizationMismatchError, match="polar point given in upsilon-line"):
        path(UPSILON_LINE, polar)
    with pytest.raises(RealizationMismatchError, match="upsilon-line point given in cartesian"):
        path(ChartId.CARTESIAN, upsilon_points(20, random.Random(7)))


@pytest.mark.parametrize("path", POINT_PATHS.values(), ids=POINT_PATHS)
@pytest.mark.parametrize(
    "chart, y0, y1, fragment",
    [
        (ChartId.POLAR, -1.0, 0.5, "radius -1.0 outside [1e-08, inf]"),
        (ChartId.POLAR, 1.0, 7.0, "angle 7.0 outside [0, 2*pi)"),
        (ChartId.HOLOGRAPHIC, math.pi / 2 - 1e-12, 0.5, f"theta {math.pi / 2 - 1e-12} outside"),
        (ChartId.CARTESIAN, math.nan, 0.5, "coordinate y0 = nan is not finite"),
    ],
    ids=["negative-radius", "angle", "theta-at-boundary", "nan"],
)
def test_points_outside_the_chart_domain_raise(path, chart, y0, y1, fragment):
    # rather than pass, or fail as an unmatched bracket with defects nan/nan
    pts = chart_points(chart, 5, random.Random(9))
    y0s, y1s = pts.y0.copy(), pts.y1.copy()
    y0s[3], y1s[3] = y0, y1
    with pytest.raises(DomainError, match=re.escape(fragment) + ".* at sample 3$"):
        path(chart, ChartPoint(chart, y0s, y1s))


@pytest.mark.parametrize("path", POINT_PATHS.values(), ids=POINT_PATHS)
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=repr)
def test_upsilon_points_that_are_not_finite_raise(path, bad):
    # the upsilon line has no point type: point_args checks u itself, rather
    # than let the bracket fail as unmatched or the values read NaN
    u = upsilon_points(5, random.Random(9))
    u[3] = complex(bad, 0.0)
    with pytest.raises(DomainError, match=re.escape(f"coordinate u = {u[3]} is not finite at sample 3") + "$"):
        path(UPSILON_LINE, u)


def four_term_rhs(a, b, metric):
    """[s_ab, s_cd] = g_ad s_bc - g_ac s_bd - g_bd s_ac + g_bc s_ad, with s_xy
    for x > y read as -s_yx and s_xx = 0, as signed index pairs."""
    (mu, nu), (rho, sig) = a, b
    raw = [
        (metric[mu] if mu == sig else 0.0, (nu, rho)),
        (-(metric[mu] if mu == rho else 0.0), (nu, sig)),
        (-(metric[nu] if nu == sig else 0.0), (mu, rho)),
        (metric[nu] if nu == rho else 0.0, (mu, sig)),
    ]
    terms = []
    for c, (x, y) in raw:
        if c == 0.0 or x == y:
            continue
        if x > y:
            c, (x, y) = -c, (y, x)
        terms.append((c, (x, y)))
    return terms


def test_shared_index_rule_is_the_four_term_formula():
    pairs = list(itertools.permutations(algebra.SO31_INDEX_PAIRS, 2))
    assert len(pairs) == 30
    for metric in itertools.product((1.0, -1.0), repeat=4):
        for a, b in pairs:
            got = algebra._so31_rhs_terms(a, b, metric)
            assert got == four_term_rhs(a, b, metric)
            assert all(type(c) is float for c, _ in got)


def ref_minkowski_scan(realization, points):
    """minkowski_check's ledger and scan with every right-hand side
    recomputed for every metric and every bracket (no early stop)."""
    pack = algebra.generator_tensors(realization, points).combine(algebra.SO31_PACK_MATRIX)
    vals = dict(zip(algebra.SO31_INDEX_PAIRS, pack.v))
    pairs = list(itertools.combinations(algebra.SO31_INDEX_PAIRS, 2))
    labels = [f"[s{a[0]}{a[1]},s{b[0]}{b[1]}]" for a, b in pairs]
    bras = [algebra.taylor_bracket(pack[i], pack[j]).v for i, j in itertools.combinations(range(6), 2)]

    def rhs(a, b, metric):
        terms = algebra._so31_rhs_terms(a, b, metric)
        return sum((c * vals[ab] for c, ab in terms), np.zeros_like(pack.v[0]))

    minkowski = [rhs(a, b, MINKOWSKI_METRIC) for a, b in pairs]
    ledger = algebra.SignLedger.matched(
        algebra.realization_key(realization),
        labels,
        [np.max(np.abs(bra - r)) for bra, r in zip(bras, minkowski)],
        [np.max(np.abs(bra + r)) for bra, r in zip(bras, minkowski)],
        algebra.MATCH_TOL,
    )
    passing = []
    for metric in itertools.product((1.0, -1.0), repeat=4):
        metric = metric[::-1]  # bit k of the scan's counter is index k
        defects = [
            np.max(np.abs(bra - ledger.signs[label] * rhs(a, b, metric)))
            for bra, label, (a, b) in zip(bras, labels, pairs)
        ]
        if not any(d > algebra.SCAN_TOL for d in defects):
            passing.append(metric)
    return ledger, passing


@pytest.mark.parametrize("scan_tol", [None, math.inf, 0.0])
def test_minkowski_scan_equals_the_full_scan(scan_tol, monkeypatch):
    if scan_tol is not None:
        monkeypatch.setattr(algebra, "SCAN_TOL", scan_tol)
    for r in algebra.REALIZATIONS:
        for seed in (0, 1, 2):
            pts = default_points(r, n=30, seed=seed)
            res = minkowski_check(r, points=pts)
            ledger, passing = ref_minkowski_scan(r, pts)
            assert res.ledger == ledger
            assert res.passing_metrics == passing
            assert res.metric_forced == (passing == [MINKOWSKI_METRIC])
            if scan_tol == math.inf:
                assert len(passing) == 16
            elif scan_tol is None:
                assert passing == [MINKOWSKI_METRIC]


def test_cn_sn():
    assert cn(1.0) == pytest.approx(1.0)
    assert sn(1.0) == pytest.approx(0.0)
    phi = 0.7
    u = cmath.exp(1j * phi)
    assert cn(u) == pytest.approx(math.cos(phi), abs=1e-14)
    assert sn(u) == pytest.approx(math.sin(phi), abs=1e-14)
    assert cn(0.5) ** 2 + sn(0.5) ** 2 == pytest.approx(1.0, abs=1e-14)
    for fn in (cn, sn):
        name = fn.__name__
        with pytest.raises(ZeroDivisionError, match=rf"^{name} undefined at u = 0$"):
            fn(0)
        # 1/u of a subnormal u overflows, as undefined as at 0 (cn gave inf+nanj)
        with pytest.raises(ZeroDivisionError, match=rf"^{name} undefined at u = \(1e-320\+0j\): 1/u overflows$"):
            fn(1e-320 + 0j)
        for bad in (math.nan, complex(math.inf, 1.0)):
            with pytest.raises(ValueError, match=rf"^{name} argument .* is not finite$"):
                fn(bad)
        # the smallest normal u still inverts
        assert math.isfinite(abs(fn(2.3e-308)))


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
        coeff = complex(dual.value(fld.coeffs(u)[0]))
        assert m[a, b] * u == pytest.approx(coeff, abs=1e-13)
    with pytest.raises(ZeroDivisionError):
        angular_tensor(0)


def test_paravector_substitution_reproduces_generators():
    rng = random.Random(45)
    pts = chart_points(ChartId.HOLOGRAPHIC, 50, rng)
    # the rule's rows: (1, i) -> (tan theta d_theta, d_phi) in c(u)/u
    rows = dict(zip(GENERATORS, substituted_rows(ChartId.HOLOGRAPHIC, pts)))
    theta, phi = pts.y0, pts.y1
    # real/imaginary parts of the solution give q0 (with cos phi in the real part)
    sub_q0 = (np.cos(phi) * np.sin(theta) * np.tan(theta), np.sin(phi) * np.sin(theta))
    # parts of the inverse solution give p0
    sub_p0 = (np.cos(phi) / np.sin(theta) * np.tan(theta), -np.sin(phi) / np.sin(theta))
    # the constant paravector 1 gives the dilation
    sub_b = (np.tan(theta), 0.0 * theta)
    for g, sub in ((Q0, sub_q0), (P0, sub_p0), (B, sub_b)):
        assert np.max(np.abs(rows[g] - sub)) <= 1e-12
        assert np.max(np.abs(field_values(generator(g, ChartId.HOLOGRAPHIC), pts).T - rows[g])) <= 1e-12


def test_tangent_curve():
    p = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 3, 0.0)
    u = solve(1.0, p)
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
