"""Spin matrices, Mobius action, one-parameter subgroups, sphere map."""

import cmath
import math
import operator
import random

import numpy as np
import pytest

from holoconf import bicomplex as bc
from holoconf import projective
from holoconf.algebra import (
    B,
    P0,
    P1,
    Q0,
    Q1,
    S01,
    GENERATORS,
    UPSILON_LINE,
    structure_table,
)
from holoconf.bicomplex import Bicomplex, involution_projections
from holoconf.projective import (
    EXPECTED_MATRIX_SIGNS,
    NullLinePoleError,
    PoleError,
    ProjectivePoint,
    Ring,
    S3Point,
    SpinMatrix,
    UnsupportedGeneratorError,
    chart_transition,
    commutator,
    exp_one_param,
    flow_consistency,
    hopf,
    hopf_raw,
    identity,
    matrix_bracket_table,
    matrix_rep,
    mobius_apply,
    projectively_equal,
    supported_generators,
)


def test_matrix_rep_examples():
    b = matrix_rep(B, Ring.REAL)
    assert b.entries() == (0.5, 0.0, 0.0, -0.5)
    s01 = matrix_rep(S01, Ring.COMPLEX)
    assert s01.entries() == (0.5j, 0j, 0j, -0.5j)
    p0 = matrix_rep(P0, Ring.BICOMPLEX)
    o, obar = bc.null_plane_units()
    assert p0.a == bc.ZERO and p0.d == bc.ZERO
    assert p0.b == o
    assert p0.c == -1 * obar
    q0 = matrix_rep(Q0, Ring.BICOMPLEX)
    assert q0.b == obar and q0.c == -1 * o


def test_matrix_rep_unsupported():
    for g in (S01, P1, Q1):
        with pytest.raises(UnsupportedGeneratorError):
            matrix_rep(g, Ring.REAL)


def test_bicomplex_brackets_exact():
    led = matrix_bracket_table(Ring.BICOMPLEX)
    assert led.signs == EXPECTED_MATRIX_SIGNS[Ring.BICOMPLEX]
    assert led.max_defect == 0.0
    # [q0, p0] = ij * diag(1, -1) = 2b
    q0 = matrix_rep(Q0, Ring.BICOMPLEX)
    p0 = matrix_rep(P0, Ring.BICOMPLEX)
    got = commutator(q0, p0)
    assert got.a == bc.UNIT_IJ
    assert got.d == -1 * bc.UNIT_IJ
    assert got.b == bc.ZERO and got.c == bc.ZERO
    twice_b = matrix_rep(B, Ring.BICOMPLEX).scaled(2.0)
    assert got.max_abs_diff(twice_b) == 0.0


def test_max_abs_diff_propagates_nan():
    nan = math.nan
    assert math.isnan(
        SpinMatrix(Ring.REAL, 0.0, 1.0, 0.0, 0.0).max_abs_diff(SpinMatrix(Ring.REAL, 0.0, nan, 0.0, 0.0))
    )
    assert math.isnan(identity(Ring.COMPLEX).max_abs_diff(SpinMatrix(Ring.COMPLEX, 1.0, 0.0, 0.0, complex(1.0, nan))))
    one = identity(Ring.BICOMPLEX)
    assert math.isnan(one.max_abs_diff(one.scaled(Bicomplex(1.0, 0.0, nan, 0.0))))


def test_real_ledger_negates_field_ledger():
    led = matrix_bracket_table(Ring.REAL)
    assert led.signs == {"[b,p0]": -1, "[b,q0]": -1, "[q0,p0]": 1}
    field_led = structure_table(UPSILON_LINE)
    for key, sign in led.signs.items():
        assert sign == -field_led.signs[key]


def test_complex_ledger():
    led = matrix_bracket_table(Ring.COMPLEX)
    assert led.signs == EXPECTED_MATRIX_SIGNS[Ring.COMPLEX]
    assert led.max_defect <= 1e-15


def test_generator_matrices_traceless():
    for ring in Ring:
        gens = (B, P0, Q0) if ring is Ring.REAL else GENERATORS
        for g in gens:
            tr = matrix_rep(g, ring).trace()
            if isinstance(tr, Bicomplex):
                assert tr.max_abs() == 0.0
            else:
                assert abs(tr) == 0.0


def test_mobius_examples():
    ident = identity(Ring.COMPLEX)
    assert mobius_apply(ident, 0.37 + 0.2j) == pytest.approx(0.37 + 0.2j)
    m = SpinMatrix(Ring.COMPLEX, 1 + 0j, 0j, -0.01 + 0j, 1 + 0j)
    assert mobius_apply(m, 0.5 + 0j) == pytest.approx(0.5 / (1 - 0.005), abs=1e-14)
    m = SpinMatrix(Ring.COMPLEX, 0j, 1 + 0j, -1 + 0j, 0j)
    assert mobius_apply(m, 2.0 + 0j) == pytest.approx(-0.5)


def test_mobius_pole():
    m = SpinMatrix(Ring.COMPLEX, 1 + 0j, 0j, 1 + 0j, -2 + 0j)
    with pytest.raises(PoleError):
        mobius_apply(m, 2.0 + 0j)


@pytest.mark.parametrize(
    "m, v",
    [
        # c v + d = v - 2 vanishes exactly at 2; 4e-15 off it is within
        # POLE_TOL, 4e-14 off it is not
        (SpinMatrix(Ring.REAL, 1.0, 0.5, 1.0, -2.0), np.array([0.5, 2.0, 2.0 + 4e-15, 2.0 + 4e-14, -1.0])),
        # c v + d = 2 v - (0.5 + 1j) vanishes exactly at 0.25 + 0.5j
        (
            SpinMatrix(Ring.COMPLEX, 1 + 0j, 0j, 2 + 0j, -(0.5 + 1j)),
            np.array([1j, 0.25 + 0.5j, 0.25 + 3e-15 + 0.5j, 0.25 + (0.5 + 3e-14) * 1j, 0.3 + 0j]),
        ),
    ],
    ids=["real", "complex"],
)
def test_mobius_apply_raises_exactly_where_on_pole_holds(m, v):
    pole = projective.on_pole(m, v)
    assert pole.tolist() == [False, True, True, False, False]
    for x, at_pole in zip(v.tolist(), pole.tolist()):
        assert projective.on_pole(m, x) == at_pole
        if at_pole:
            with pytest.raises(PoleError, match="^denominator vanished$"):
                mobius_apply(m, x)
        else:
            assert np.isfinite(mobius_apply(m, x))
    with pytest.raises(PoleError, match="^denominator vanished at sample 1$"):
        mobius_apply(m, v)
    assert np.isfinite(mobius_apply(m, v[~pole])).all()


@pytest.mark.parametrize(
    "ring, bad, fragment",
    [
        (Ring.REAL, 0.5 + 0.3j, "real arguments"),
        (Ring.REAL, complex(math.inf, 0), "not finite"),
        (Ring.COMPLEX, complex(math.inf, 0), "not finite"),
        (Ring.COMPLEX, complex(0, math.nan), "not finite"),
        (Ring.BICOMPLEX, Bicomplex(math.nan, 0, 0, 0), "not finite"),
        (Ring.BICOMPLEX, Bicomplex(0.1, 0, -math.inf, 0), "not finite"),
    ],
)
def test_mobius_rejects_bad_arguments(ring, bad, fragment):
    # the real ring would drop the imaginary part, every ring returned NaN
    m = exp_one_param(P0, 1.0, ring)
    with pytest.raises(ValueError, match=fragment):
        mobius_apply(m, bad)
    if ring is Ring.BICOMPLEX:
        arr = Bicomplex(*(np.array([0.5, c]) for c in bad.components()))
    else:
        arr = np.array([0.5 + 0j, bad])
    with pytest.raises(ValueError, match=fragment + ".* at sample 1"):
        mobius_apply(m, arr)


@pytest.mark.parametrize("ring", list(Ring), ids=str)
@pytest.mark.parametrize(
    "entries, v",
    [((1e200, 0.0, 1e200, 1.0), 1e200), ((1.0, 0.0, 1e200, 1.0), 1e200), ((1e300, 0.0, 0.0, 1e-5), 1e10)],
    ids=["numerator-and-denominator", "denominator", "quotient"],
)
def test_mobius_apply_raises_overflow_error_where_the_image_overflows(ring, entries, v):
    # a finite matrix and argument whose image overflows: before, the complex
    # ring gave nan+nanj, the real ring nan, inf or 0.0 (after a RuntimeWarning),
    # and the bicomplex ring "ValueError: cannot invert Bicomplex(re=inf, ...)"
    m = SpinMatrix(ring, *(projective._ring_scalar(ring, e) for e in entries))
    with pytest.raises(OverflowError, match="^Mobius image of .* overflows$"):
        mobius_apply(m, projective._ring_scalar(ring, v))
    with pytest.raises(OverflowError, match="^Mobius image of .* overflows at sample 1$"):
        mobius_apply(m, projective._ring_scalar(ring, np.array([0.5, v, v])))
    assert np.isfinite(projective.absval(mobius_apply(m, projective._ring_scalar(ring, np.array([0.5, 2.0]))))).all()


@pytest.mark.parametrize("ring", list(Ring), ids=str)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_exp_one_param_rejects_non_finite_parameters(ring, bad):
    # a NaN gave NaN entries silently, inf warned first
    for g in supported_generators(ring):
        with pytest.raises(ValueError, match="not finite"):
            exp_one_param(g, bad, ring)
        with pytest.raises(ValueError, match="not finite at sample 1"):
            exp_one_param(g, np.array([0.3, bad, 0.2]), ring)


def _with_entry(m: SpinMatrix, k: int, value) -> SpinMatrix:
    entries = list(m.entries())
    entries[k] = value
    return SpinMatrix(m.ring, *entries)


@pytest.mark.parametrize("ring", list(Ring), ids=str)
@pytest.mark.parametrize("k", range(4))
def test_mobius_rejects_non_finite_matrix_entries(ring, k):
    # mobius_apply returned nan+nanj
    m = exp_one_param(P0, 0.5, ring)
    if ring is Ring.BICOMPLEX:
        bad = Bicomplex(0.0, math.nan, 0.0, 0.0)
        arr = lambda e: Bicomplex(*(np.array([c, d]) for c, d in zip(e.components(), bad.components())))
    else:
        bad = math.nan if ring is Ring.REAL else complex(0.0, math.nan)
        arr = lambda e: np.array([e, bad])
    with pytest.raises(ValueError, match="matrix entries .* not finite"):
        mobius_apply(_with_entry(m, k, bad), 0.25)
    with pytest.raises(ValueError, match="matrix entries .* not finite at sample 1"):
        mobius_apply(_with_entry(m, k, arr(m.entries()[k])), 0.25)


def test_mobius_real_ring_accepts_zero_imaginary_parts():
    m = exp_one_param(P0, 1.0, Ring.REAL)
    assert mobius_apply(m, 0.5 + 0j) == mobius_apply(m, 0.5) == 1.5
    assert mobius_apply(m, np.array([0.5 + 0j, complex(-1.0, -0.0)])).tolist() == [1.5, 0.0]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
def test_spin_matrices_of_two_rings_do_not_combine(op):
    with pytest.raises(ValueError, match="ring mismatch"):
        op(matrix_rep(B, Ring.REAL), matrix_rep(B, Ring.COMPLEX))
    eps = np.array([0.3, -0.2])
    with pytest.raises(ValueError, match="ring mismatch"):
        op(exp_one_param(P0, eps, Ring.COMPLEX), exp_one_param(P0, eps, Ring.REAL))


def test_mobius_bicomplex_and_null_pole():
    # scale flow with the hyperbolic unit in the exponent
    eps = 0.4
    m = exp_one_param(B, eps, Ring.BICOMPLEX)
    v = Bicomplex(0.7, 0.1, -0.2, 0.05)
    moved = mobius_apply(m, v)
    expected = (eps * bc.UNIT_IJ).exp() * v
    assert (moved - expected).max_abs() <= 1e-13

    o, _ = bc.null_plane_units()
    null_den = SpinMatrix(Ring.BICOMPLEX, bc.ONE, bc.ZERO, bc.ZERO, o)
    with pytest.raises(NullLinePoleError):
        mobius_apply(null_den, Bicomplex(0.3))
    zero_den = SpinMatrix(Ring.BICOMPLEX, bc.ONE, bc.ZERO, bc.ZERO, bc.ZERO)
    with pytest.raises(PoleError):
        mobius_apply(zero_den, Bicomplex(0.3))


def test_mobius_group_action():
    rng = random.Random(51)
    for _ in range(40):
        g1, g2 = rng.sample(GENERATORS, 2)
        m = exp_one_param(g1, rng.uniform(-0.7, 0.7), Ring.COMPLEX)
        n = exp_one_param(g2, rng.uniform(-0.7, 0.7), Ring.COMPLEX)
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            lhs = mobius_apply(m @ n, v)
            rhs = mobius_apply(m, mobius_apply(n, v))
        except PoleError:
            continue
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_exp_one_param_closed_forms():
    eps = 0.52
    m = exp_one_param(S01, eps, Ring.COMPLEX)
    assert m.a == pytest.approx(cmath.exp(1j * eps / 2))
    assert m.d == pytest.approx(cmath.exp(-1j * eps / 2))
    assert m.b == 0j and m.c == 0j

    mb = exp_one_param(B, eps, Ring.BICOMPLEX)
    want = Bicomplex(math.cosh(eps / 2), 0, 0, math.sinh(eps / 2))
    assert (mb.a - want).max_abs() <= 1e-14
    assert (mb.d - want.conjugate()).max_abs() <= 1e-14

    mp = exp_one_param(P0, eps, Ring.REAL)
    assert mp.entries() == (1.0, eps, 0.0, 1.0)

    with pytest.raises(UnsupportedGeneratorError):
        exp_one_param(S01, eps, Ring.REAL)


def test_exp_determinant_is_one():
    for ring in Ring:
        gens = (B, P0, Q0) if ring is Ring.REAL else GENERATORS
        for g in gens:
            for eps in (0.3, -1.1, 1e-4):
                det = exp_one_param(g, eps, ring).det()
                if isinstance(det, Bicomplex):
                    assert (det - bc.ONE).max_abs() <= 1e-13
                else:
                    assert abs(det - 1.0) <= 1e-13


def test_flow_consistency_values():
    # defect for the quadratic generator is eps^2 v0^3 to leading order
    d = flow_consistency(Q0, 0.5 + 0j, 1e-3)
    assert d == pytest.approx(1.25e-7, abs=1e-10)
    assert flow_consistency(B, 1.0 + 0j, 0.0) == 0.0
    # translations are exact at every order
    assert flow_consistency(P0, 0.8 + 0.1j, 1e-3) <= 1e-15
    assert flow_consistency(P1, 0.8 + 0.1j, 1e-3) <= 1e-15


def test_flow_consistency_richardson():
    rng = random.Random(52)
    for g in GENERATORS:
        for _ in range(10):
            v0 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
            d1 = flow_consistency(g, v0, 1e-3)
            d2 = flow_consistency(g, v0, 5e-4)
            if d1 <= 1e-13 and d2 <= 1e-13:
                continue  # exact flow
            assert 3.8 <= d1 / d2 <= 4.2


@pytest.mark.parametrize(
    "parts", [(math.nan, 0, 0, 0), (math.inf, 1, 0, 0), (0, 0, -math.inf, 0)]
)
def test_sphere_point_rejects_non_finite_input(parts):
    # normalizing would give an all-NaN point, or NaN beside zeros
    with pytest.raises(ValueError, match="norm not finite"):
        S3Point(*parts)


@pytest.mark.parametrize(
    "parts, unit",
    [
        ((1e200, 0, 0, 0), (1, 0, 0, 0)),  # the squares overflow
        ((0, -1e300, 0, 1e300), (0, -math.sqrt(0.5), 0, math.sqrt(0.5))),
        ((1e-200, 0, 0, 0), (1, 0, 0, 0)),  # the squares underflow to 0
        ((0, 3e-170, 4e-170, 0), (0, 0.6, 0.8, 0)),
    ],
)
def test_sphere_point_accepts_finite_input_beyond_the_squares_range(parts, unit):
    s = S3Point(*parts)
    assert s.components() == pytest.approx(unit, abs=1e-15)
    # the same sample among ordinary ones in an array, which keep their value
    arr = S3Point(*(np.array([c, 1.0]) for c in parts))
    assert [c[0] for c in arr.components()] == pytest.approx(unit, abs=1e-15)
    assert [c[1] for c in arr.components()] == [0.5, 0.5, 0.5, 0.5]


def test_sphere_point_rescaling_leaves_ordinary_input_unchanged():
    # bitwise the plain normalization, for scalars and for arrays
    rng = random.Random(54)
    raw = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(200)]
    arr = S3Point(*np.array(raw).T)
    for k, parts in enumerate(raw):
        n = math.sqrt(sum(c**2 for c in parts))
        assert S3Point(*parts).components() == tuple(c / n for c in parts)
        assert [float(c[k]) for c in arr.components()] == [c / n for c in parts]


@pytest.mark.parametrize("v1, v2", [(complex(math.nan, 0), 1 + 0j), (1 + 0j, complex(0, math.inf))])
def test_projective_point_rejects_non_finite_input(v1, v2):
    with pytest.raises(ValueError, match="not finite"):
        ProjectivePoint(v1, v2)


def test_hopf_examples():
    t = hopf(S3Point(1, 0, 0, 0))
    assert (t.xi1, t.xi2, t.xi3) == pytest.approx((0, 0, 1))
    t = hopf(S3Point(0, 0, 1, 0))
    assert (t.xi1, t.xi2, t.xi3) == pytest.approx((0, 0, -1))
    t = hopf(S3Point(1, 0, 1, 0))  # constructor normalizes
    assert (t.xi1, t.xi2, t.xi3) == pytest.approx((1, 0, 0))
    with pytest.raises(ValueError):
        S3Point(0, 0, 0, 0)


def test_hopf_norm_and_fiber():
    rng = random.Random(53)
    for _ in range(100):
        raw = [rng.uniform(-2, 2) for _ in range(4)]
        if sum(abs(c) for c in raw) < 0.1:
            continue
        xi = hopf_raw(*raw)
        nsq = sum(c * c for c in raw)
        # squared input length, not the length itself
        assert math.sqrt(sum(x * x for x in xi)) == pytest.approx(nsq, abs=1e-12 * (1 + nsq))
        s = S3Point(*raw)
        base = hopf(s)
        lam = rng.uniform(0, 2 * math.pi)
        rotated = hopf(s.phase_rotated(lam))
        assert (rotated.xi1, rotated.xi2, rotated.xi3) == pytest.approx(
            (base.xi1, base.xi2, base.xi3), abs=1e-12
        )


def test_hopf_agrees_with_involution_projections():
    rng = random.Random(54)
    for _ in range(100):
        raw = [rng.uniform(-2, 2) for _ in range(4)]
        t = involution_projections(Bicomplex(*raw))
        xi = hopf_raw(*raw)
        assert (t.xi1, t.xi2, t.xi3) == pytest.approx(xi, abs=1e-12)
        assert t.len_sq == pytest.approx(sum(c * c for c in raw), abs=1e-12)


def test_chart_transition():
    tr = chart_transition(ProjectivePoint(1 + 0j, 1 + 0j))
    assert tr.in_overlap
    assert tr.transition == pytest.approx(1.0)
    tr = chart_transition(ProjectivePoint(1j, 1 + 0j))
    assert tr.transition == pytest.approx(1j)
    assert tr.affine0 == (1j, 1 + 0j)
    tr = chart_transition(ProjectivePoint(2 + 0j, 0j))
    assert not tr.in_overlap
    assert tr.affine0 is None
    assert tr.affine1 == (1 + 0j, 0j)
    with pytest.raises(ValueError):
        ProjectivePoint(0j, 0j)


def test_transition_unit_modulus_random():
    rng = random.Random(55)
    for _ in range(50):
        v1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v1) < 1e-2 or abs(v2) < 1e-2:
            continue
        tr = chart_transition(ProjectivePoint(v1, v2))
        assert abs(tr.transition) == pytest.approx(1.0, abs=1e-13)


def test_projective_equality():
    p = ProjectivePoint(1 + 2j, 3 - 1j)
    q = ProjectivePoint((1 + 2j) * (0.3 - 0.9j), (3 - 1j) * (0.3 - 0.9j))
    assert projectively_equal(p, q)
    assert not projectively_equal(p, ProjectivePoint(1 + 0j, 1 + 0j))
