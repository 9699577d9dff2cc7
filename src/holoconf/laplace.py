"""Rescaled Laplace operators per chart and their separable solutions.

The operator applied here is the conformally rescaled one, chosen so that
in every chart it is a polynomial in the coordinate derivative operators:
d00 + d11 on the cartesian chart and (k d0)(k d0) + d11 = R^2 * standard
on an angular one, with k = R/R' from the chart table's R and R'
(charts.radial_scale) and k' from one first-order jet of it:

* polar:        (r dr)(r dr) + dpp            = r^2 * standard
* holographic:  (tan t dt)(tan t dt) + dpp    = sin^2(t) * standard
* conformal:    drr + dpp                     = e^{2 rho} * standard

The separable solution family with scale dimension alpha evaluates to
e^{i alpha phi} r^alpha, with r replaced by sin(theta) (holographic) or
e^rho (conformal).  For non-integer alpha the principal branch of the
logarithm is used with phi fixed to [0, 2*pi) at chart level, so all four
charts agree at coinciding plane points.

Each function of a point reads the chart from the point (p.chart); the
point is inside its chart's domain, since ChartPoint checks that when it is
built.  A non-finite scale dimension raises ValueError naming its first bad
sample.

Derivatives are taken with second-order dual numbers, never finite
differences; the residual contract |L u| <= 1e-10 * (1 + |u|) relies on
that exactness.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import dual
from ._record import Record
from .bicomplex import _complex, reject
from .charts import _RADII, GUARD, TWO_PI, ChartId, ChartPoint, DomainError, metric_closed_form, radial_scale


def _log_radius_angle(chart: ChartId, y0, y1):
    """(log r, phi) of the plane point, in chart terms; jet-aware.  The
    cartesian origin, where r^alpha is singular, raises DomainError."""
    if chart is ChartId.CARTESIAN:
        # r is tested on the values, since the jet hypot's derivative divides by r
        at_origin = np.hypot(dual.value(y0), dual.value(y1)) < GUARD
        reject(at_origin, DomainError, "the solution family is singular at the origin")
        r = dual.hypot(y0, y1)
        phi = dual.atan2(y1, y0)
        phi = phi + TWO_PI * (dual.value(phi) < 0.0)
        return dual.log(r), phi
    if chart is ChartId.CONFORMAL:
        return y0, y1  # log e^rho, exactly
    return dual.log(_RADII[chart].radius(y0)), y1


class SolutionFamily(Record, frozen=True):
    """The solution with scale dimension alpha, evaluable in one chart.

    ``conjugate_branch=True`` selects the mirror family e^{-i alpha phi} r^alpha
    (for integer alpha = l, the m = -l harmonic branch).  A non-finite
    alpha raises ValueError."""

    __slots__ = ("alpha", "chart", "conjugate_branch")

    def __init__(self, alpha: complex, chart: ChartId, conjugate_branch: bool = False):
        self._assign(alpha, chart, conjugate_branch)
        reject(~np.isfinite(self.alpha), ValueError, "scale dimension {} is not finite", self.alpha)

    def __call__(self, y0, y1):
        log_r, phi = _log_radius_angle(self.chart, y0, y1)
        sign = -1j if self.conjugate_branch else 1j
        return dual.exp(self.alpha * (log_r + sign * phi))


def solve(alpha: complex, p: ChartPoint) -> complex:
    """Value of the scale-dimension-alpha solution at p, in p's chart.

    alpha and the coordinates of p may be arrays of one sample shape."""
    return SolutionFamily(alpha, p.chart)(p.y0, p.y1)


def laplacian(f: Callable, p: ChartPoint) -> complex:
    """Apply the rescaled Laplace operator of p's chart to f at p (a plain
    or an array point)."""
    # seed one coordinate, not dual.partials' lift of both: a ChartPoint holds
    # no jets to confuse, and lifting made a verify run 2-4 % slower (at 1000
    # samples and at 50)
    j0 = f(dual.seed(p.y0), p.y1)
    j1 = f(p.y0, dual.seed(p.y1))
    f0, f00 = dual.d1(j0), dual.d2(j0)
    f11 = dual.d2(j1)
    if p.chart is ChartId.CARTESIAN:
        return f00 + f11
    # (k d0)^2 + d11, with k = R/R' and k' = dk/dy0 from the chart table's R, R'
    (k,) = dual.partials(lambda y0: radial_scale(p.chart, y0), (p.y0,))
    return k.f * k.d1 * f0 + k.f * k.f * f00 + f11


def residual(alpha: complex, p: ChartPoint) -> float:
    """|rescaled Laplacian of the alpha-solution| at p (should vanish)."""
    return abs(laplacian(SolutionFamily(alpha, p.chart), p))


def rescale_factor(p: ChartPoint) -> float:
    """Factor relating the rescaled operator of p's chart to the standard
    Laplacian at p: the metric's angular entry R^2 (1 on cartesian)."""
    return metric_closed_form(p)[1, 1]


def conjugate_derivative(f: Callable, x0: float, x1: float) -> complex:
    """(d/dx0 + i d/dx1) f in cartesian coordinates, from first-order jets
    (dual.partials, so x0 and x1 may be jets of an outer derivative)."""
    g0, g1 = dual.partials(f, (x0, x1))
    return dual.d1(g0) + 1j * dual.d1(g1)


def legendre(l: int, m: int, x: float) -> float:
    """Associated Legendre function P_l^m(x) for 0 <= m <= l and |x| <= 1,
    with the Condon-Shortley phase, by the upward recurrence in l from
    P_m^m = (-1)^m (2m-1)!! (1 - x^2)^(m/2).  x may be an array."""
    if not 0 <= m <= l:
        raise ValueError(f"order (l, m) = ({l}, {m}) outside 0 <= m <= l")
    reject(~(np.abs(x) <= 1.0), ValueError, "argument {} outside [-1, 1]", x)
    somx2 = np.sqrt((1.0 - x) * (1.0 + x))
    p_prev, p = 0.0, 1.0 + 0.0 * x  # P_0^0, shaped as x
    for k in range(1, m + 1):
        p = -(2 * k - 1) * somx2 * p
    for k in range(m + 1, l + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k + m - 1) * p_prev) / (k - m)
    return p


def _phase(angle):
    """e^{i angle} as cos + i sin, exactly those parts."""
    return _complex(np.cos(angle), np.sin(angle))


def ylm(l: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic, unit L2 norm, Condon-Shortley phase.  theta and
    phi may be arrays of one sample shape."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    if m < 0:
        return (-1) ** (-m) * np.conj(ylm(l, -m, theta, phi))
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )
    return norm * legendre(l, m, np.cos(theta)) * _phase(m * phi)


def ylm_ratio(l: int, grid: ChartPoint, negative_branch: bool = False) -> complex:
    """Common ratio Y_l^{+-l} / solution^l over a holographic point (an
    array point of any shape, or a single point as one sample).

    solution^l is SolutionFamily(l, HOLOGRAPHIC) for m = l, its conjugate_branch
    for m = -l; the ratio is a constant, and a relative spread above 1e-10
    across the grid raises ArithmeticError.  The mean is Python's sequential
    sum over all samples in row-major order, not numpy's pairwise one.
    """
    if l < 1:
        raise ValueError("ratio is defined for l >= 1")
    if not len(grid):
        raise ValueError("empty evaluation grid")
    if grid.chart is not ChartId.HOLOGRAPHIC:
        raise ValueError("grid must consist of holographic points")
    m = -l if negative_branch else l
    # every sample in row-major order (a single point is one sample)
    theta, phi = (y.ravel() for y in np.broadcast_arrays(grid.y0, grid.y1))
    ratios = ylm(l, m, theta, phi) / SolutionFamily(l, grid.chart, conjugate_branch=negative_branch)(theta, phi)
    mean = sum(ratios.tolist()) / len(ratios)
    spread = math.sqrt(np.mean(np.abs(ratios - mean) ** 2))
    if spread > 1e-10 * abs(mean):
        raise ArithmeticError(
            f"Y ratio not constant: spread {spread} vs mean {mean}"
        )
    return mean
