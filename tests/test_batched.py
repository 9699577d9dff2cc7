"""Array evaluation against the per-point scalar path it replaces.

Every function that accepts an array point (coordinates stacked over the
samples) must give, sample by sample, what the same function gives at each
plain point.  The scalar references below are the per-point loops the
suites used before they were batched.
"""

import math
import random

import numpy as np
import pytest

from holoconf import algebra, charts, dual, laplace, projective
from holoconf import bicomplex as bc
from holoconf.algebra import GENERATORS, P0, Q0, Q1, UPSILON_LINE
from holoconf.bicomplex import Bicomplex
from holoconf.charts import ChartId, ChartPoint, DomainError
from holoconf.projective import ProjectivePoint, Ring, S3Point, SpinMatrix
from holoconf.sampling import bicomplex_batch, bicomplex_values, chart_points, scale_dimensions

ALL_CHARTS = (ChartId.CARTESIAN, ChartId.POLAR, ChartId.HOLOGRAPHIC, ChartId.CONFORMAL)
REALIZATIONS = ALL_CHARTS + (UPSILON_LINE,)


def assert_close(batched, scalar, tol=1e-14):
    batched, scalar = np.asarray(batched), np.asarray(scalar)
    assert batched.shape == scalar.shape
    assert np.all(np.abs(batched - scalar) <= tol * (1.0 + np.abs(scalar)))


def scalar_field_values(x, pts):
    rows = []
    for p in pts:
        args = algebra.point_args(x.realization, p)
        rows.append([complex(dual.value(c(*args))) for c in x.coeffs])
    return np.array(rows)


def test_jet_defers_to_array_operands():
    arr = np.array([1.0, 2.0, 3.0])
    j = dual.seed(0.5)
    for out in (arr * j, arr + j, arr - j, arr / j):
        assert isinstance(out, dual.Jet)
    assert np.all((arr * j).f == arr * 0.5)
    assert np.all(dual.sin(dual.seed(arr)).d1 == np.cos(arr))


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_field_values_match_per_point_evaluation(realization):
    pts = algebra.default_points(realization, n=30, seed=5)
    g = {gid: algebra.generator(gid, realization) for gid in GENERATORS}
    one = algebra.bracket(g[Q0], g[P0])
    nested = algebra.bracket(one, g[Q1])
    for field in (*g.values(), one, nested):
        assert_close(algebra.field_values(field, pts), scalar_field_values(field, pts))


def closure_gradient(x, pts):
    """d_j of each coefficient of x by jet-lifting the stacked arguments,
    shape (arity, arity, npts) as TaylorField.g."""
    args = algebra.point_args(x.realization, algebra.stack_points(x.realization, pts))
    return np.array(
        [
            [
                np.broadcast_to(
                    dual.d1(c(*(dual.Jet(a, float(i == j), 0.0) for i, a in enumerate(args)))),
                    np.shape(args[0]),
                )
                for j in range(x.arity)
            ]
            for c in x.coeffs
        ]
    )


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_taylor_brackets_match_the_closure_path(realization):
    pts = algebra.default_points(realization, n=30, seed=7)
    g = {gid: algebra.generator(gid, realization) for gid in GENERATORS}
    tensors = algebra.generator_tensors(realization, pts, hessian=True)
    t = {gid: tensors[i] for i, gid in enumerate(GENERATORS)}
    for gid in GENERATORS:
        assert_close(t[gid].v.T, algebra.field_values(g[gid], pts), tol=1e-13)
        assert_close(t[gid].g, closure_gradient(g[gid], pts), tol=1e-13)
    for g1, g2 in algebra.BRACKET_PAIRS:
        ref = algebra.bracket(g[g1], g[g2])
        got = algebra.taylor_bracket(t[g1], t[g2])
        assert_close(got.v.T, algebra.field_values(ref, pts), tol=1e-13)
        assert_close(got.g, closure_gradient(ref, pts), tol=1e-13)
    nested = algebra.bracket(algebra.bracket(g[Q0], g[P0]), g[Q1])
    got = algebra.taylor_bracket(algebra.taylor_bracket(t[Q0], t[P0]), t[Q1])
    assert_close(got.v.T, algebra.field_values(nested, pts), tol=1e-13)


@pytest.mark.parametrize("realization", (ChartId.HOLOGRAPHIC, UPSILON_LINE), ids=algebra.realization_key)
def test_structure_table_in_chunks_equals_one_pass(realization, monkeypatch):
    pts = algebra.default_points(realization, n=50, seed=3)
    whole = algebra.structure_table(realization, points=pts)
    monkeypatch.setattr(algebra, "STRUCTURE_CHUNK", 7)
    chunked = algebra.structure_table(realization, points=pts)
    assert (chunked.signs, chunked.max_defect) == (whole.signs, whole.max_defect)


def test_taylor_structure_table_covers_polar():
    ledger = algebra.structure_table(ChartId.POLAR, points=algebra.default_points(ChartId.POLAR, n=200))
    assert ledger.signs == {
        algebra.pair_label(g1, g2): sign for (g1, g2), sign in algebra.EXPECTED_FIELD_SIGNS.items()
    }
    assert ledger.max_defect <= 1e-12


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_act_solve_laplacian_with_array_alpha(chart):
    rng = random.Random(6)
    pts = chart_points(chart, 20, rng)
    alphas = scale_dimensions(20, rng)
    p, alpha = ChartPoint.stack(pts), np.array(alphas)
    assert_close(
        laplace.solve(alpha, chart, p),
        [laplace.solve(a, chart, q) for a, q in zip(alphas, pts)],
    )
    # the solutions' Laplacians vanish to roundoff, so compare on a function
    # whose Laplacian does not
    f = lambda y0, y1: dual.exp(0.3 * y0) * dual.cos(y1) * y0
    assert_close(laplace.laplacian(chart, f, p), [laplace.laplacian(chart, f, q) for q in pts])
    u = laplace.solve(alpha, chart, p)
    assert np.all(laplace.residual(alpha, chart, p) <= 1e-10 * (1.0 + np.abs(u)))
    for g in GENERATORS:
        assert_close(
            algebra.act(g, alpha, p), [algebra.act(g, a, q) for a, q in zip(alphas, pts)]
        )
        assert_close(
            algebra.eigenaction_expected(g, alpha, p),
            [algebra.eigenaction_expected(g, a, q) for a, q in zip(alphas, pts)],
        )


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_chart_tensors_on_array_points(chart):
    pts = chart_points(chart, 25, random.Random(7))
    p = ChartPoint.stack(pts)
    for fn in (charts.basis, charts.basis_closed_form):
        batched = fn(p)
        for k in (0, 1):
            assert batched[k].shape == (2, len(pts))
            assert_close(batched[k], np.stack([fn(q)[k] for q in pts], axis=-1))
    for fn in (
        charts.metric,
        charts.jacobian_lower,
        charts.jacobian_mixed,
        charts.jacobian_mixed_closed_form,
    ):
        batched = fn(p)
        assert batched.shape == (2, 2, len(pts))
        assert_close(batched, np.stack([fn(q) for q in pts], axis=-1))
    q = charts.invert(chart, *charts.embed(p))
    scalar = [charts.invert(chart, *charts.embed(r)) for r in pts]
    assert_close(q.y0, [r.y0 for r in scalar])
    assert_close(q.y1, [r.y1 for r in scalar])


def test_scalar_points_keep_their_shapes():
    p = ChartPoint(ChartId.POLAR, 1.5, 0.4)
    assert charts.basis(p)[0].shape == (2,)
    assert charts.metric(p).shape == (2, 2)
    assert charts.jacobian_mixed(p).shape == (2, 2)
    assert charts.jacobian_mixed_closed_form(ChartPoint(ChartId.CARTESIAN, 0.1, 0.2)).shape == (2, 2)


@pytest.mark.parametrize(
    "chart, y0, y1, fragment",
    [
        (ChartId.POLAR, [1.0, 0.0, 2.0], [0.1, 0.2, 0.3], "radius 0.0"),
        (ChartId.HOLOGRAPHIC, [0.5, 0.6, 1.6], [0.1, 0.2, 0.3], "theta 1.6"),
        (ChartId.CONFORMAL, [0.5, 0.6, 0.7], [0.1, 7.0, 0.3], "angle 7.0"),
    ],
)
def test_validate_rejects_one_bad_sample(chart, y0, y1, fragment):
    with pytest.raises(DomainError, match=fragment):
        charts.validate(ChartPoint(chart, np.array(y0), np.array(y1)))
    with pytest.raises(DomainError):
        charts.basis(ChartPoint(chart, np.array(y0), np.array(y1)))


def test_stack_rejects_mixed_charts():
    with pytest.raises(ValueError):
        ChartPoint.stack([ChartPoint(ChartId.POLAR, 1.0, 0.0), ChartPoint(ChartId.CONFORMAL, 1.0, 0.0)])


# --- bicomplex and projective -------------------------------------------------


def assert_bitwise(batched: Bicomplex, scalars: list):
    """Every component of every sample equals the scalar path's, bit for bit."""
    for k, x in enumerate(scalars):
        assert batched[k] == x, (k, batched[k], x)


def test_bicomplex_batch_makes_the_draws_of_bicomplex_values():
    for n, scale in ((0, 2.0), (1, 2.0), (257, 0.8)):
        rng_values, rng_batch = random.Random(9), random.Random(9)
        values = bicomplex_values(n, rng_values, scale)
        batch = bicomplex_batch(n, rng_batch, scale)
        assert rng_batch.getstate() == rng_values.getstate()
        assert batch.re.shape == (n,)
        assert_bitwise(batch, values)


def test_bicomplex_arithmetic_is_bitwise_the_scalar_path():
    rng = random.Random(10)
    a_list, b_list = bicomplex_values(300, rng), bicomplex_values(300, rng, scale=0.8)
    rng = random.Random(10)
    a, b = bicomplex_batch(300, rng), bicomplex_batch(300, rng, scale=0.8)
    pairs = list(zip(a_list, b_list))
    assert_bitwise(a * b, [x * y for x, y in pairs])
    assert_bitwise(a + b - a * 2.5, [x + y - x * 2.5 for x, y in pairs])
    assert_bitwise(a.conjugate() * b.reverse(), [x.conjugate() * y.reverse() for x, y in pairs])
    assert_bitwise(b.exp(), [y.exp() for y in b_list])
    assert_bitwise(a.inverse(), [x.inverse() for x in a_list])
    assert_bitwise(b / a, [y / x for x, y in pairs])
    assert np.array_equal(a.max_abs(), [x.max_abs() for x in a_list])
    assert np.array_equal(a.squared_length(), [x.squared_length() for x in a_list])


def test_involution_projections_on_arrays():
    rng = random.Random(11)
    values = bicomplex_values(200, rng)
    t = bc.involution_projections(bicomplex_batch(200, random.Random(11)))
    for name in ("xi1", "xi2", "xi3", "len_sq"):
        want = [getattr(bc.involution_projections(s), name) for s in values]
        assert np.array_equal(getattr(t, name), want)


def test_max_abs_keeps_nan_per_sample():
    x = Bicomplex(np.array([1.0, -3.0, 0.5]), np.array([0.0, math.nan, 2.0]))
    got = x.max_abs()
    assert got[0] == 1.0 and math.isnan(got[1]) and got[2] == 2.0


@pytest.mark.parametrize("ring", list(Ring), ids=str)
def test_exp_one_param_on_array_eps(ring):
    eps = np.array([0.3, -0.7, 1e-3, 0.0, 0.55])
    for g in projective.supported_generators(ring):
        batched = projective.exp_one_param(g, eps, ring)
        for k, e in enumerate(eps):
            scalar = projective.exp_one_param(g, float(e), ring)
            for got, want in zip(batched.entries(), scalar.entries()):
                if isinstance(want, Bicomplex):
                    got = got[k] if np.ndim(got.re) else got
                    assert (got - want).max_abs() <= 1e-15 * (1.0 + want.max_abs())
                else:
                    got = got[k] if np.ndim(got) else got
                    assert abs(got - want) <= 1e-15 * (1.0 + abs(want))


def test_mobius_apply_complex_on_arrays():
    rng = random.Random(12)
    eps = np.array([rng.uniform(-0.8, 0.8) for _ in range(40)])
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)])
    for g in GENERATORS:
        m = projective.exp_one_param(g, eps, Ring.COMPLEX)
        m0 = projective.exp_one_param(g, 0.4, Ring.COMPLEX)
        assert_close(
            projective.mobius_apply(m, v),
            [projective.mobius_apply(projective.exp_one_param(g, e, Ring.COMPLEX), z) for e, z in zip(eps, v)],
        )
        assert_close(projective.mobius_apply(m0, v), [projective.mobius_apply(m0, z) for z in v])


def test_mobius_apply_bicomplex_on_arrays():
    rng = random.Random(13)
    v_list = bicomplex_values(40, rng, scale=0.5)
    v = bicomplex_batch(40, random.Random(13), scale=0.5)
    eps = np.linspace(-0.6, 0.6, 40)
    for g in GENERATORS:
        m = projective.exp_one_param(g, eps, Ring.BICOMPLEX)
        got = projective.mobius_apply(m, v)
        for k, (e, z) in enumerate(zip(eps, v_list)):
            want = projective.mobius_apply(projective.exp_one_param(g, float(e), Ring.BICOMPLEX), z)
            assert (got[k] - want).max_abs() <= 1e-14 * (1.0 + want.max_abs())


def test_sphere_map_on_arrays():
    rng = random.Random(14)
    raw = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(50)]
    lam = [rng.uniform(0, 2 * math.pi) for _ in range(50)]
    s = S3Point(*np.array(raw).T)
    rot = s.phase_rotated(np.array(lam))
    base, moved = projective.hopf(s), projective.hopf(rot)
    for k, (c, angle) in enumerate(zip(raw, lam)):
        p = S3Point(*c)
        assert_close([x[k] for x in s.components()], p.components())
        assert_close([x[k] for x in rot.components()], p.phase_rotated(angle).components())
        want_base, want_moved = projective.hopf(p), projective.hopf(p.phase_rotated(angle))
        for name in ("xi1", "xi2", "xi3", "len_sq"):
            assert_close(getattr(base, name)[k], getattr(want_base, name))
            assert_close(getattr(moved, name)[k], getattr(want_moved, name))


def test_chart_transition_on_arrays():
    rng = random.Random(15)
    v1 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(30)] + [2.0 + 0j, 0j]
    v2 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(30)] + [0j, 1.5j]
    tr = projective.chart_transition(ProjectivePoint(np.array(v1), np.array(v2)))
    overlap = tr.in_overlap
    assert list(overlap) == [True] * 30 + [False, False]

    def entries(t):
        # the scalar path's None becomes NaN in the array fields
        nan2 = (complex(math.nan, math.nan),) * 2
        return [*(t.affine0 or nan2), *(t.affine1 or nan2), complex(math.nan, math.nan) if t.transition is None else t.transition]

    for k, (a, b) in enumerate(zip(v1, v2)):
        want = np.array(entries(projective.chart_transition(ProjectivePoint(a, b))))
        got = np.array([tr.affine0[0][k], tr.affine0[1][k], tr.affine1[0][k], tr.affine1[1][k], tr.transition[k]])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert_close(got[ok], want[ok])
    p = ProjectivePoint(np.array(v1[:30]), np.array(v2[:30]))
    scaled = ProjectivePoint(1.7j * p.v1, 1.7j * p.v2)
    assert projective.projectively_equal(p, scaled).all()
    other = ProjectivePoint(p.v1, p.v2[::-1])
    assert list(projective.projectively_equal(p, other)) == [
        projective.projectively_equal(ProjectivePoint(a, b), ProjectivePoint(a, c))
        for a, b, c in zip(v1[:30], v2[:30], v2[:30][::-1])
    ]


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: S3Point(np.array([1.0, 0.5, math.nan]), 0.0, 0.0, 1.0), ValueError, "sample 2"),
        (lambda: S3Point(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0, 0.0), ValueError, "zero vector at sample 1"),
        (lambda: ProjectivePoint(np.array([1j, math.inf, 1.0]), np.ones(3)), ValueError, "sample 1"),
        (lambda: ProjectivePoint(np.array([1j, 0j]), np.array([0j, 0j])), ValueError, "sample 1"),
        (
            lambda: Bicomplex(np.array([1.0, 2.0, 0.5, 1.0]), 0.0, 0.0, np.array([0.0, 0.0, 0.5, 1.0])).inverse(),
            bc.ZeroDivisorError,
            "sample 2",
        ),
        (
            lambda: projective.mobius_apply(
                SpinMatrix(Ring.COMPLEX, 1 + 0j, 0j, 1 + 0j, -2 + 0j), np.array([0.5, 1j, 2.0, 2.0])
            ),
            projective.PoleError,
            "vanished at sample 2",
        ),
        (
            lambda: projective.mobius_apply(
                SpinMatrix(Ring.BICOMPLEX, bc.ONE, bc.ZERO, bc.ZERO, bc.null_plane_units()[0]),
                Bicomplex(np.array([0.3, 0.1])),
            ),
            projective.NullLinePoleError,
            "sample 0",
        ),
    ],
)
def test_bad_sample_is_reported_by_index(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()
