"""Chart embeddings, tensors, compactification, special conformal maps."""

import functools
import math
import random

import numpy as np
import pytest

from holoconf import charts
from holoconf.charts import (
    ChartId,
    ChartPoint,
    DomainError,
    PoleCrossingError,
    compactify,
    embed,
    invert,
    special_conformal,
)
from holoconf.laplace import solve
from holoconf.sampling import chart_points

ALL = tuple(ChartId)


def test_embed_examples():
    assert embed(ChartPoint(ChartId.POLAR, 1.0, 0.0)) == pytest.approx((1.0, 0.0))
    # near the disk boundary the holographic image has magnitude ~ 1
    x0, x1 = embed(ChartPoint(ChartId.HOLOGRAPHIC, 1.5707, 0.4))
    assert math.hypot(x0, x1) == pytest.approx(1.0, abs=1e-8)
    assert embed(ChartPoint(ChartId.CONFORMAL, 0.0, math.pi / 2)) == pytest.approx(
        (0.0, 1.0), abs=1e-12
    )
    p = ChartPoint(ChartId.CARTESIAN, -0.3, 0.8)
    assert embed(p) == (-0.3, 0.8)


def test_domain_guards():
    with pytest.raises(DomainError):
        embed(ChartPoint(ChartId.POLAR, 0.0, 0.0))
    with pytest.raises(DomainError):
        embed(ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 2, 0.0))
    with pytest.raises(DomainError):
        embed(ChartPoint(ChartId.HOLOGRAPHIC, 0.0, 0.0))
    with pytest.raises(DomainError):
        embed(ChartPoint(ChartId.POLAR, 1.0, 7.0))  # angle outside [0, 2*pi)
    with pytest.raises(DomainError):
        embed(ChartPoint(ChartId.POLAR, 1.0, -0.1))
    # conformal scale coordinate is unrestricted
    embed(ChartPoint(ChartId.CONFORMAL, -25.0, 0.0))


@pytest.mark.parametrize("y0", (1.0, -5.0))
def test_a_chart_that_is_not_a_chart_id_is_rejected(y0):
    # the chart's name is not the chart: its domain and every later lookup
    # are keyed by the ChartId
    with pytest.raises(ValueError, match=r"^unknown chart 'polar'$") as info:
        ChartPoint("polar", y0, 0.5)
    assert info.type is ValueError


@pytest.mark.parametrize("chart", ALL, ids=str)
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=repr)
@pytest.mark.parametrize("which", ("y0", "y1"))
def test_non_finite_coordinates_are_rejected(chart, bad, which):
    good = {"y0": 0.5, "y1": 1.0}
    for fn in (embed, charts.basis, lambda p: solve(1.5, p)):
        with pytest.raises(DomainError, match=f"coordinate {which} = {bad} is not finite"):
            fn(ChartPoint(chart, **{**good, which: bad}))
    arrays = {name: np.full(3, y) for name, y in good.items()}
    arrays[which][1] = bad
    with pytest.raises(DomainError, match=f"coordinate {which} = {bad} is not finite at sample 1"):
        embed(ChartPoint(chart, **arrays))


def test_basis_examples():
    b0, b1 = charts.basis(ChartPoint(ChartId.POLAR, 2.0, 0.0))
    assert b0 == pytest.approx([1.0, 0.0])
    assert b1 == pytest.approx([0.0, 2.0])
    b0, b1 = charts.basis(ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.0))
    assert b0 == pytest.approx([math.cos(math.pi / 4), 0.0])
    assert b1 == pytest.approx([0.0, math.sin(math.pi / 4)])
    b0, b1 = charts.basis(ChartPoint(ChartId.CONFORMAL, 0.0, 0.0))
    assert b0 == pytest.approx([1.0, 0.0])
    assert b1 == pytest.approx([0.0, 1.0])


def test_basis_matches_closed_forms_random():
    rng = random.Random(21)
    for chart in ALL:
        for p in chart_points(chart, 100, rng):
            b0, b1 = charts.basis(p)
            c0, c1 = charts.basis_closed_form(p)
            assert np.max(np.abs(b0 - c0)) <= 1e-12
            assert np.max(np.abs(b1 - c1)) <= 1e-12


def test_metric_examples():
    g = charts.metric(ChartPoint(ChartId.POLAR, 3.0, 1.234))
    assert g == pytest.approx(np.diag([1.0, 9.0]), abs=1e-12)
    g = charts.metric(ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.5))
    assert g == pytest.approx(np.diag([0.5, 0.5]), abs=1e-12)
    g = charts.metric(ChartPoint(ChartId.CONFORMAL, math.log(2.0), 2.0))
    assert g == pytest.approx(np.diag([4.0, 4.0]), abs=1e-12)


def test_jacobian_examples():
    a = charts.jacobian_mixed(ChartPoint(ChartId.POLAR, 2.0, 0.0))
    assert a == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.5]]), abs=1e-12)
    a = charts.jacobian_mixed(ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.0))
    s2 = math.sqrt(2.0)
    assert a == pytest.approx(np.array([[s2, 0.0], [0.0, s2]]), abs=1e-12)
    a = charts.jacobian_mixed(ChartPoint(ChartId.CONFORMAL, 0.0, 0.0))
    assert a == pytest.approx(np.eye(2), abs=1e-12)


def test_jacobian_inverse_relation_random():
    rng = random.Random(22)
    for chart in ALL:
        for p in chart_points(chart, 50, rng):
            prod = charts.jacobian_lower(p) @ charts.jacobian_mixed(p).T
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-10
            diff = charts.jacobian_mixed(p) - charts.jacobian_mixed_closed_form(p)
            assert np.max(np.abs(diff)) <= 1e-10


def test_jacobian_mixed_is_mixed_from_lower():
    rng = random.Random(24)
    for chart in ALL:
        p = chart_points(chart, 50, rng)
        for q in (p, p[3]):
            want = charts.jacobian_mixed(q)
            got = charts.mixed_from_lower(charts.jacobian_lower(q))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert charts.gram(charts.jacobian_lower(q)).tobytes() == charts.metric(q).tobytes()


def test_embed_invert_roundtrip():
    rng = random.Random(23)
    for chart in ALL:
        for p in chart_points(chart, 50, rng):
            x0, x1 = embed(p)
            q = invert(chart, x0, x1)
            z0, z1 = embed(q)
            assert math.hypot(x0 - z0, x1 - z1) <= 1e-10
    with pytest.raises(DomainError):
        invert(ChartId.HOLOGRAPHIC, 1.2, 0.0)  # outside the unit disk
    with pytest.raises(DomainError):
        invert(ChartId.POLAR, 0.0, 0.0)


@pytest.mark.parametrize("chart", charts.ANGULAR_CHARTS, ids=str)
def test_invert_just_below_the_cut_stays_in_the_domain(chart):
    # -1e-17 + 2*pi rounds to 2*pi, which ChartPoint rejects; the angle must
    # stay below 2*pi, on the lower side of the positive x0 axis
    q = invert(chart, 0.5, -1e-17)
    assert q.y1 < charts.TWO_PI
    assert q.y1 == np.nextafter(charts.TWO_PI, 0.0)
    x0, x1 = embed(q)
    assert x0 == pytest.approx(0.5) and x1 <= 0.0


@pytest.mark.parametrize("chart", charts.ANGULAR_CHARTS, ids=str)
def test_invert_array_just_below_the_cut_stays_in_the_domain(chart):
    q = invert(chart, np.array([0.5, 0.5, 0.5]), np.array([-1e-17, 0.0, -0.25]))
    assert list(q.y1[:2]) == [np.nextafter(charts.TWO_PI, 0.0), 0.0]
    assert q.y1[2] == pytest.approx(charts.TWO_PI - math.atan2(0.25, 0.5))
    x0, x1 = embed(q)
    assert np.all(x1 <= 0.0)


def test_compactify_examples():
    u = compactify(0.0, 0.0)
    assert u.as_array() == pytest.approx([0.0, 0.0, 0.5, 0.5])
    u = compactify(0.0, 0.0, rescaled=True)
    assert u.as_array() == pytest.approx([0.0, 0.0, 1.0, 1.0])
    u = compactify(1.0, 0.0, rescaled=True)
    assert u.as_array() == pytest.approx([1.0, 0.0, 0.0, 1.0])


def test_compactify_null_random():
    rng = random.Random(24)
    for _ in range(1000):
        x0, x1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        u = compactify(x0, x1)
        assert abs(u.null_defect()) <= 1e-12 * (1 + u.u3**2)
        v = compactify(x0, x1, rescaled=True)
        assert abs(v.null_defect()) <= 1e-12
        assert v.u0**2 + v.u1**2 + v.u2**2 == pytest.approx(1.0, abs=1e-12)
        assert v.u3 == 1.0


def test_special_conformal_identity_and_value():
    assert special_conformal((0.7, -0.4), (0.0, 0.0)) == pytest.approx((0.7, -0.4))
    # hand evaluation of invert -> translate -> invert
    assert special_conformal((0.0, 2.0), (0.0, -0.25)) == pytest.approx((0.0, 4.0))


def test_special_conformal_first_order_is_minus_quadratic_field():
    # x' = x - (c . q)(x) + O(|c|^2), with q0 = (x0^2 - x1^2, 2 x0 x1) and
    # q1 = (2 x0 x1, x1^2 - x0^2); Richardson with c and c/2
    rng = random.Random(25)
    for _ in range(25):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.5, 2.0)
        x = (r * math.cos(ang), r * math.sin(ang))
        cang = rng.uniform(0, 2 * math.pi)

        def defect(scale):
            c = (scale * math.cos(cang), scale * math.sin(cang))
            y = special_conformal(x, c)
            q0 = (x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1])
            q1 = (2 * x[0] * x[1], x[1] ** 2 - x[0] ** 2)
            ex = (x[0] - c[0] * q0[0] - c[1] * q1[0], x[1] - c[0] * q0[1] - c[1] * q1[1])
            return math.hypot(y[0] - ex[0], y[1] - ex[1])

        ratio = defect(1e-3) / defect(5e-4)
        assert 3.8 <= ratio <= 4.2


def test_special_conformal_pole_reported():
    # inversion of x lands on -c, so the translated point is the origin
    with pytest.raises(PoleCrossingError):
        special_conformal((1.0, 0.0), (-1.0, 0.0))
    with pytest.raises(PoleCrossingError):
        special_conformal((0.0, 0.0), (0.3, 0.0))


# every map of plane points, as a call on the point (x0, x1)
PLANE_MAPS = {
    "invert_point": lambda x0, x1: charts.invert_point((x0, x1)),
    "special_conformal-point": lambda x0, x1: special_conformal((x0, x1), (0.1, -0.2)),
    "special_conformal-shift": lambda x0, x1: special_conformal((0.4, 0.3), (x0, x1)),
    "compactify": compactify,
    "compactify-rescaled": lambda x0, x1: compactify(x0, x1, rescaled=True),
    **{f"invert-{chart}": functools.partial(invert, chart) for chart in ALL},
}


@pytest.mark.parametrize("fn", PLANE_MAPS.values(), ids=PLANE_MAPS)
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=repr)
def test_plane_maps_reject_non_finite_points(fn, bad):
    # rather than return NaN, or report a NaN as the origin
    with pytest.raises(DomainError, match=f"^coordinate y0 = {bad} is not finite$"):
        fn(bad, 0.5)
    x1 = np.array([0.5, -0.3, bad, 0.8])
    with pytest.raises(DomainError, match=f"^coordinate y1 = {bad} is not finite at sample 2$"):
        fn(np.array([0.4, 0.6, 0.7, -0.2]), x1)


# the maps of a plane point x that square |x|, as a call on the point (x0, x1)
SQUARING_MAPS = {
    "invert_point": PLANE_MAPS["invert_point"],
    "special_conformal-identity": lambda x0, x1: special_conformal((x0, x1), (0.0, 0.0)),
    "special_conformal-shift": PLANE_MAPS["special_conformal-shift"],
    "compactify": compactify,
    "compactify-rescaled": PLANE_MAPS["compactify-rescaled"],
}


@pytest.mark.parametrize("fn", SQUARING_MAPS.values(), ids=SQUARING_MAPS)
def test_plane_maps_reject_a_point_whose_squared_norm_overflows(fn):
    # |x| = 1e200 is finite but |x|^2 is not: rather than invert to 0 (not
    # 1e-200), call the identity map a pole, lift to infinite components or
    # warn, each map raises OverflowError naming the first bad sample
    with pytest.raises(OverflowError, match=r"^\|x\|\^2 of \(1e\+200, .*\) overflows$"):
        fn(1e200, 0.0)
    with pytest.raises(OverflowError, match=r"^\|x\|\^2 of \(1e\+200, .*\) overflows at sample 1$"):
        fn(np.array([0.4, 1e200, -1e200]), np.array([0.5, 0.0, 0.0]))


def test_a_large_point_whose_squared_norm_is_finite_is_mapped():
    assert charts.invert_point((1e150, 0.0)) == pytest.approx((1e-150, 0.0), rel=1e-15)
    assert compactify(1e150, 0.0, rescaled=True).as_array() == pytest.approx([2e-150, 0.0, -1.0, 1.0], rel=1e-15)
    # the identity inverts x near, not onto, the pole (1/|x|^2 is a normal
    # float), and the second inversion maps it back
    for size in (1.5e8, 1e150):
        assert special_conformal((size, 0.0), (0.0, 0.0)) == pytest.approx((size, 0.0), rel=1e-15)


def test_inversion_pole_is_where_the_squared_norm_stops_being_normal():
    # |x|^2 = 1e-200 is a normal float, so x inverts to full precision;
    # 1e-320 is subnormal and 0 is the origin, both on the pole
    assert charts.invert_point((1e-100, 0.0)) == pytest.approx((1e100, 0.0), rel=1e-15)
    for x in ((1e-160, 0.0), (0.0, 0.0)):
        with pytest.raises(PoleCrossingError, match="^inversion pole at the origin$"):
            charts.invert_point(x)
    with pytest.raises(PoleCrossingError, match="^inversion pole at the origin at sample 1$"):
        charts.invert_point((np.array([1e-100, 1e-160, 0.0]), np.zeros(3)))


def test_conformal_vector_fields_and_point_types():
    v = compactify(0.3, -0.8)
    assert isinstance(v.u0, float)
    p = ChartPoint(ChartId.POLAR, 1.0, 2.0)
    assert p.chart is ChartId.POLAR
    assert str(ChartId.HOLOGRAPHIC) == "holographic"
