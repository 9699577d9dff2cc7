"""Rescaled operators, solution residuals, harmonic correspondence."""

import cmath
import math
import random
import re

import numpy as np
import pytest

from holoconf import algebra, laplace
from holoconf.charts import ANGULAR_CHARTS, ChartId, ChartPoint, DomainError, embed, embed_coords, invert
from holoconf.laplace import (
    SolutionFamily,
    conjugate_derivative,
    laplacian,
    residual,
    solve,
    ylm,
    ylm_ratio,
)
from holoconf.sampling import chart_points, scale_dimensions

RNG = random.Random(31)


ORIGIN_PATHS = {
    "solve": lambda p: solve(-1.0, p),
    "residual": lambda p: residual(1.0, p),
    "eigenactions": lambda p: algebra.eigenactions(0.5 + 0.25j, p),
}


@pytest.mark.parametrize("path", ORIGIN_PATHS.values(), ids=ORIGIN_PATHS)
def test_solution_family_at_the_cartesian_origin_raises(path):
    # r^alpha e^{i alpha phi} is singular at the origin, which the cartesian
    # chart contains: a clean DomainError, not inf+nanj or ZeroDivisionError
    with pytest.raises(DomainError, match="singular at the origin$"):
        path(ChartPoint(ChartId.CARTESIAN, 0.0, 0.0))
    x0, x1 = np.array([0.5, -1.0, 0.0, 1.2]), np.array([0.3, 0.4, 0.0, -0.7])
    with pytest.raises(DomainError, match="singular at the origin at sample 2$"):
        path(ChartPoint(ChartId.CARTESIAN, x0, x1))


def test_laplacian_examples():
    harmonic = lambda x0, x1: x0 * x0 - x1 * x1
    p = ChartPoint(ChartId.CARTESIAN, 0.7, -1.2)
    assert abs(laplacian(harmonic, p)) <= 1e-13

    # (r d/dr)^2 r^2 = 4 r^2 = 16 at r = 2
    f = lambda r, phi: r * r
    p = ChartPoint(ChartId.POLAR, 2.0, 0.0)
    assert laplacian(f, p) == pytest.approx(16.0, abs=1e-12)

    p = ChartPoint(ChartId.HOLOGRAPHIC, math.pi / 4, 0.3)
    u2 = SolutionFamily(2.0, ChartId.HOLOGRAPHIC)
    assert abs(laplacian(u2, p)) <= 1e-12


def test_solve_examples():
    v = solve(1.0, ChartPoint(ChartId.HOLOGRAPHIC, 1.5707, 0.0))
    assert v == pytest.approx(1.0, abs=1e-7)
    v = solve(2.0, ChartPoint(ChartId.POLAR, 2.0, math.pi / 2))
    assert v == pytest.approx(-4.0, abs=1e-12)
    v = solve(1.0, ChartPoint(ChartId.CONFORMAL, 0.0, math.pi))
    assert v == pytest.approx(-1.0, abs=1e-12)


def test_functions_of_a_point_read_its_chart():
    # the polar point (r, phi) = (1, 0.5) is e^{0.5 i}, not 1 + 0.5i
    p = ChartPoint(ChartId.POLAR, 1.0, 0.5)
    assert solve(1.0, p) == pytest.approx(cmath.exp(0.5j), abs=1e-15)
    assert laplace.rescale_factor(ChartPoint(ChartId.POLAR, 2.0, 0.5)) == 4.0
    with pytest.raises(DomainError, match=re.escape("radius -1.0 outside [1e-08, inf]")):
        laplace.rescale_factor(ChartPoint(ChartId.POLAR, -1.0, 0.5))


@pytest.mark.parametrize(
    "alpha, where",
    [(math.nan, ""), (math.inf, ""), (np.array([0.5, 1.0 + 1j, math.nan, 2.0]), " at sample 2")],
    ids=["nan", "inf", "one-bad-sample"],
)
def test_non_finite_scale_dimension_raises(alpha, where):
    # instead of a NaN solution, or an overflow warning for inf
    p = chart_points(ChartId.HOLOGRAPHIC, 4, random.Random(38))
    bad = np.ravel(alpha)[2 if where else 0]
    for fn in (solve, residual, algebra.eigenactions):
        with pytest.raises(ValueError, match=re.escape(f"scale dimension {bad} is not finite{where}") + "$"):
            fn(alpha, p)


def test_residual_examples():
    p = chart_points(ChartId.HOLOGRAPHIC, 1, RNG)[0]
    u = solve(3.0, p)
    assert residual(3.0, p) <= 1e-10 * (1 + abs(u))

    q = chart_points(ChartId.POLAR, 1, RNG)[0]
    alpha = 0.5 + 0.25j
    u = solve(alpha, q)
    assert residual(alpha, q) <= 1e-10 * (1 + abs(u))

    for chart in ChartId:
        r = chart_points(chart, 1, RNG)[0]
        assert residual(0.0, r) == 0.0


def test_residual_random_alphas_all_charts():
    rng = random.Random(32)
    for chart in ChartId:
        pts = chart_points(chart, 3, rng)
        for alpha in scale_dimensions(25, rng):
            for p in pts:
                u = solve(alpha, p)
                assert residual(alpha, p) <= 1e-10 * (1 + abs(u))


def test_conjugate_branch_solution():
    # e^{-i a phi} r^a solves the equation too (m = -l branch for integers)
    rng = random.Random(33)
    for p in chart_points(ChartId.HOLOGRAPHIC, 5, rng):
        f = SolutionFamily(2.0, ChartId.HOLOGRAPHIC, conjugate_branch=True)
        assert abs(laplacian(f, p)) <= 1e-11
        expected = cmath.exp(-2j * p.y1) * math.sin(p.y0) ** 2
        assert f(p.y0, p.y1) == pytest.approx(expected, abs=1e-13)


def test_rescaled_vs_standard_factor():
    # polar operator = r^2 * flat Laplacian (similarly sin^2 theta, e^{2 rho})
    rng = random.Random(34)
    poly = lambda x0, x1: x0**3 - 2 * x0 * x1 * x1 + 0.5 * x0 * x1 + x1 * x1
    for chart in ANGULAR_CHARTS:
        for p in chart_points(chart, 20, rng):
            pulled = lambda y0, y1, c=chart: poly(*embed_coords(c, y0, y1))
            lhs = laplacian(pulled, p)
            x0, x1 = embed(p)
            flat = laplacian(poly, ChartPoint(ChartId.CARTESIAN, x0, x1))
            rhs = laplace.rescale_factor(p) * flat
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_chart_consistency_of_solutions():
    rng = random.Random(35)
    pts = chart_points(ChartId.HOLOGRAPHIC, 25, rng)
    alphas = scale_dimensions(25, rng)
    for p, alpha in zip(pts, alphas):
        x0, x1 = embed(p)
        ref = solve(alpha, p)
        for chart in (ChartId.CARTESIAN, ChartId.POLAR, ChartId.CONFORMAL):
            q = invert(chart, x0, x1)
            assert solve(alpha, q) == pytest.approx(ref, abs=1e-10 * (1 + abs(ref)))


def test_ylm_ratio_constants():
    rng = random.Random(36)
    grid = chart_points(ChartId.HOLOGRAPHIC, 20, rng)
    # closed forms: Y_1^1 = -sqrt(3/8pi) sin(t) e^{i p}, Y_2^2 = (1/4) sqrt(15/2pi) sin^2 ...
    assert ylm_ratio(1, grid) == pytest.approx(-math.sqrt(3 / (8 * math.pi)), abs=1e-12)
    assert ylm_ratio(2, grid) == pytest.approx(
        0.25 * math.sqrt(15 / (2 * math.pi)), abs=1e-12
    )
    assert ylm_ratio(3, grid) == pytest.approx(
        -0.125 * math.sqrt(35 / math.pi), abs=1e-12
    )
    assert ylm_ratio(4, grid) == pytest.approx(
        (3 / 16) * math.sqrt(35 / (2 * math.pi)), abs=1e-12
    )
    # mirror branch pairs with the m = -l harmonics
    assert ylm_ratio(1, grid, negative_branch=True) == pytest.approx(
        math.sqrt(3 / (8 * math.pi)), abs=1e-12
    )


@pytest.mark.parametrize("negative_branch", (False, True), ids=("m=l", "m=-l"))
def test_ylm_ratio_of_a_single_point_is_its_one_sample(negative_branch):
    # the README's single point is one sample: bitwise its one-element array
    for p in chart_points(ChartId.HOLOGRAPHIC, 5, random.Random(38)):
        point = ChartPoint(ChartId.HOLOGRAPHIC, float(p.y0), float(p.y1))
        one = ChartPoint(ChartId.HOLOGRAPHIC, np.array([p.y0]), np.array([p.y1]))
        for l in range(1, 5):
            got = ylm_ratio(l, point, negative_branch=negative_branch)
            want = ylm_ratio(l, one, negative_branch=negative_branch)
            assert type(got) is complex
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("negative_branch", (False, True), ids=("m=l", "m=-l"))
def test_ylm_ratio_of_a_2d_point_takes_every_sample(negative_branch):
    # a (3, 4) point is its 12 samples in row-major order: bitwise the ratio
    # of the flat 12-sample point (before, a TypeError from the mean)
    flat = chart_points(ChartId.HOLOGRAPHIC, 12, random.Random(39))
    grid = ChartPoint(ChartId.HOLOGRAPHIC, flat.y0.reshape(3, 4), flat.y1.reshape(3, 4))
    for l in range(1, 5):
        got = ylm_ratio(l, grid, negative_branch=negative_branch)
        assert got == ylm_ratio(l, flat, negative_branch=negative_branch)


def test_ylm_ratio_errors():
    rng = random.Random(37)
    grid = chart_points(ChartId.HOLOGRAPHIC, 5, rng)
    with pytest.raises(ValueError):
        ylm_ratio(0, grid)
    with pytest.raises(ValueError):
        ylm_ratio(1, [])
    with pytest.raises(ValueError):
        ylm_ratio(1, ChartPoint(ChartId.POLAR, np.array([1.0]), np.array([0.0])))


def test_ylm_values():
    # Y_0^0 is the constant normalization
    assert ylm(0, 0, 0.7, 1.1) == pytest.approx(0.5 / math.sqrt(math.pi))
    # conjugation identity between +-m
    y = ylm(3, 2, 0.9, 0.4)
    assert ylm(3, -2, 0.9, 0.4) == pytest.approx(y.conjugate(), abs=1e-14)
    with pytest.raises(ValueError):
        ylm(1, 2, 0.5, 0.5)


def _legendre_reference(mpmath, l, m, x):
    """P_l^m(x) to 40 digits: the explicit sum for P_l differentiated m times,
    with the Condon-Shortley phase (-1)^m."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for k in range((l - m) // 2 + 1):
            n = l - 2 * k
            den = math.factorial(k) * math.factorial(l - k) * math.factorial(n - m)
            total += (-1) ** k * mpmath.mpf(math.factorial(2 * l - 2 * k)) / den * x ** (n - m)
        return (-1) ** m * (1 - x * x) ** (mpmath.mpf(m) / 2) * total / 2**l


def _legendre_error(mpmath, fn):
    """Largest relative error of fn(l, m, x) for l <= 4, 0 <= m <= l, at
    x = cos(theta) of every point the ylm tests use."""
    thetas = [0.5, 0.7, 0.9]
    for seed, n in ((36, 20), (37, 5), (1031, 20)):  # the grids here and in test_acceptance
        thetas += [p.y0 for p in chart_points(ChartId.HOLOGRAPHIC, n, random.Random(seed))]
    errors = []
    for l in range(5):
        for m in range(l + 1):
            for x in map(math.cos, thetas):
                ref = _legendre_reference(mpmath, l, m, x)
                errors.append(float(abs(fn(l, m, x) - ref) / abs(ref)))
    assert not any(map(math.isnan, errors))
    return max(errors)


def test_legendre_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for l in range(5):
            for m in range(l + 1):
                ref = mpmath.legenp(l, m, mpmath.mpf(0.3), type=2)
                assert abs(_legendre_reference(mpmath, l, m, 0.3) - ref) <= 1e-35
    assert _legendre_error(mpmath, laplace.legendre) <= 1e-14


def test_legendre_no_further_from_mpmath_than_scipy():
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    scipy_error = _legendre_error(mpmath, lambda l, m, x: float(special.lpmv(m, l, x)))
    assert _legendre_error(mpmath, laplace.legendre) <= scipy_error


@pytest.mark.parametrize(
    "l, m, x",
    [(1, 2, 0.3), (2, -1, 0.3), (-1, 0, 0.3), (2, 1, 1.5), (3, 0, np.array([0.2, -1.2])), (1, 1, math.nan)],
)
def test_legendre_rejects_orders_and_arguments_outside_its_domain(l, m, x):
    with pytest.raises(ValueError):
        laplace.legendre(l, m, x)


def test_holomorphy_annihilation():
    rng = random.Random(38)
    pts = chart_points(ChartId.CARTESIAN, 20, rng)
    for alpha in scale_dimensions(20, rng):
        for p in pts[:5]:
            f = SolutionFamily(alpha, ChartId.CARTESIAN)
            d = conjugate_derivative(f, p.y0, p.y1)
            assert abs(d) <= 1e-10 * (1 + abs(alpha) * abs(f(p.y0, p.y1)))
