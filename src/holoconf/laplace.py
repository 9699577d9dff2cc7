"""Rescaled Laplace operators per chart and their separable solutions.

The operator applied here is the conformally rescaled one, chosen so that
in every chart it is a polynomial in the coordinate derivative operators:

* cartesian:    d00 + d11
* polar:        (r dr)(r dr) + dpp            = r^2 * standard
* holographic:  (tan t dt)(tan t dt) + dpp    = sin^2(t) * standard
* conformal:    drr + dpp                     = e^{2 rho} * standard

The separable solution family with scale dimension alpha evaluates to
e^{i alpha phi} r^alpha, with r replaced by sin(theta) (holographic) or
e^rho (conformal).  For non-integer alpha the principal branch of the
logarithm is used with phi fixed to [0, 2*pi) at chart level, so all four
charts agree at coinciding plane points.

Derivatives are taken with second-order dual numbers, never finite
differences; the residual contract |L u| <= 1e-10 * (1 + |u|) relies on
that exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual
from .charts import TWO_PI, ChartId, ChartPoint, validate


def _log_radius_angle(chart: ChartId, y0, y1):
    """(log r, phi) of the plane point, in chart terms; jet-aware."""
    if chart is ChartId.CARTESIAN:
        r = dual.hypot(y0, y1)
        phi = dual.atan2(y1, y0)
        phi = phi + TWO_PI * (dual.value(phi) < 0.0)
        return dual.log(r), phi
    if chart is ChartId.POLAR:
        return dual.log(y0), y1
    if chart is ChartId.HOLOGRAPHIC:
        return dual.log(dual.sin(y0)), y1
    if chart is ChartId.CONFORMAL:
        return y0, y1
    raise ValueError(chart)


@dataclass(frozen=True)
class SolutionFamily:
    """The solution with scale dimension alpha, evaluable in one chart.

    ``conjugate_branch=True`` selects the mirror family e^{-i alpha phi} r^alpha
    (for integer alpha = l, the m = -l harmonic branch)."""

    alpha: complex
    chart: ChartId
    conjugate_branch: bool = False

    def __call__(self, y0, y1):
        log_r, phi = _log_radius_angle(self.chart, y0, y1)
        sign = -1j if self.conjugate_branch else 1j
        return dual.exp(self.alpha * (log_r + sign * phi))


def solve(alpha: complex, chart: ChartId, p: ChartPoint) -> complex:
    """Value of the scale-dimension-alpha solution at p.

    alpha and the coordinates of p may be arrays of one sample shape."""
    validate(p)
    return SolutionFamily(alpha, chart)(p.y0, p.y1)


def laplacian(chart: ChartId, f: Callable, p: ChartPoint) -> complex:
    """Apply the chart's rescaled Laplace operator to f at p (a plain or an
    array point)."""
    validate(p)
    j0 = f(dual.seed(p.y0), p.y1)
    j1 = f(p.y0, dual.seed(p.y1))
    f0, f00 = dual.d1(j0), dual.d2(j0)
    f11 = dual.d2(j1)
    if chart is ChartId.CARTESIAN or chart is ChartId.CONFORMAL:
        return f00 + f11
    if chart is ChartId.POLAR:
        r = p.y0
        return r * f0 + r * r * f00 + f11
    if chart is ChartId.HOLOGRAPHIC:
        t = np.tan(p.y0)
        sec2 = 1.0 + t * t
        return t * sec2 * f0 + t * t * f00 + f11
    raise ValueError(chart)


def residual(alpha: complex, chart: ChartId, p: ChartPoint) -> float:
    """|rescaled Laplacian of the alpha-solution| at p (should vanish)."""
    return abs(laplacian(chart, SolutionFamily(alpha, chart), p))


def rescale_factor(chart: ChartId, p: ChartPoint) -> float:
    """Factor relating the rescaled operator to the standard Laplacian."""
    if chart is ChartId.CARTESIAN:
        return 1.0
    if chart is ChartId.POLAR:
        return p.y0 * p.y0
    if chart is ChartId.HOLOGRAPHIC:
        return dual.sin(p.y0) ** 2
    return dual.exp(2.0 * p.y0)


def conjugate_derivative(f: Callable, x0: float, x1: float) -> complex:
    """(d/dx0 + i d/dx1) f in cartesian coordinates."""
    g0 = f(dual.seed(x0), x1)
    g1 = f(x0, dual.seed(x1))
    return dual.d1(g0) + 1j * dual.d1(g1)


def legendre(l: int, m: int, x: float) -> float:
    """Associated Legendre function P_l^m(x) for 0 <= m <= l and |x| <= 1,
    with the Condon-Shortley phase, by the upward recurrence in l from
    P_m^m = (-1)^m (2m-1)!! (1 - x^2)^(m/2)."""
    somx2 = math.sqrt((1.0 - x) * (1.0 + x))
    p_prev, p = 0.0, 1.0
    for k in range(1, m + 1):
        p = -(2 * k - 1) * somx2 * p
    for k in range(m + 1, l + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k + m - 1) * p_prev) / (k - m)
    return p


def ylm(l: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic, unit L2 norm, Condon-Shortley phase."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    if m < 0:
        return (-1) ** (-m) * ylm(l, -m, theta, phi).conjugate()
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )
    return norm * legendre(l, m, math.cos(theta)) * complex(
        math.cos(m * phi), math.sin(m * phi)
    )


def ylm_ratio(
    l: int, grid: list[ChartPoint], negative_branch: bool = False
) -> complex:
    """Common ratio Y_l^{+-l} / solution^l over a holographic grid.

    The ratio of the extremal harmonic to the l-th power solution (or its
    conjugate branch for m = -l) is a constant; a relative spread above
    1e-10 across the grid raises ArithmeticError.
    """
    if l < 1:
        raise ValueError("ratio is defined for l >= 1")
    if not grid:
        raise ValueError("empty evaluation grid")
    ratios = []
    m = -l if negative_branch else l
    for p in grid:
        if p.chart is not ChartId.HOLOGRAPHIC:
            raise ValueError("grid must consist of holographic points")
        validate(p)
        theta, phi = p.y0, p.y1
        u = math.sin(theta) ** l * complex(math.cos(m * phi), math.sin(m * phi))
        ratios.append(ylm(l, m, theta, phi) / u)
    mean = sum(ratios) / len(ratios)
    spread = math.sqrt(sum(abs(r - mean) ** 2 for r in ratios) / len(ratios))
    if spread > 1e-10 * abs(mean):
        raise ArithmeticError(
            f"Y ratio not constant: spread {spread} vs mean {mean}"
        )
    return mean
