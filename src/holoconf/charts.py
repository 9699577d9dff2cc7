"""Coordinate charts on the Euclidean plane and their tensor data.

Four charts cover the constructions in this package: the cartesian one,
embedded by the identity, and three angular ones, which put (y0, phi) at
R(y0) (cos phi, sin phi).  One private table, _RADII, declares each angular
chart once: (R, R') in one call, R^-1 and the domain of y0.  radial_scale's
k = R/R' is the k of laplace's (k d0)^2 + d11 and of algebra.substituted_rows:

===========  ============  ================  ========  ===========  =================
chart        (y0, y1)      (R, R')(y0)       R^-1(r)   y0 in        k = R/R', derived
===========  ============  ================  ========  ===========  =================
polar        (r, phi)      (r, 1)            r         (0, inf)     (r, 1)
holographic  (theta, phi)  (sin, cos) theta  arcsin r  (0, pi/2)    (tan, sec^2)
conformal    (rho, phi)    (e^rho, e^rho)    log r     (-inf, inf)  (1, 0)
===========  ============  ================  ========  ===========  =================

Angles live in [0, 2*pi); the holographic chart covers the open unit disk
-- its metric degenerates at theta = pi/2, so a ChartPoint within GUARD of
its domain's boundary, outside it or not finite cannot be constructed
(DomainError) rather than produce huge values.  Basis vectors are
dual-number derivatives of the embedding, so of R; the closed forms read R'
from the pair, so checking them checks each R' against R.

A ChartPoint may carry 1-D arrays of coordinates, one entry per sample
point; every function below then evaluates all samples at once.  The sample
axis comes last: a vector has shape (2, n) and a matrix (2, 2, n), where a
single point gives (2,) and (2, 2).  len(p) counts the samples and p[k] is
one of them (a slice gives an array point).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple
import numpy as np

from . import dual
from ._record import Record
from .bicomplex import reject

GUARD = 1e-8
TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Chart point outside (or too close to the boundary of) its domain."""


class PoleCrossingError(ArithmeticError):
    """A conformal map hit a pole (vanishing denominator)."""


class ChartId(enum.Enum):
    CARTESIAN = "cartesian"
    POLAR = "polar"
    HOLOGRAPHIC = "holographic"
    CONFORMAL = "conformal"

    def __str__(self):
        return self.value


class ChartPoint(Record, frozen=True):
    __slots__ = ("chart", "y0", "y1")

    def __init__(self, chart: ChartId, y0: float, y1: float):
        """Raise DomainError, naming the first bad sample, unless every
        sample lies safely inside the chart's domain; ValueError for a chart
        that is not a ChartId or coordinates whose shapes do not broadcast."""
        self._assign(chart, y0, y1)
        try:
            np.broadcast(y0, y1)
        except ValueError:
            raise ValueError(f"coordinate shapes {np.shape(y0)} and {np.shape(y1)} do not broadcast") from None
        for name, y in (("y0", y0), ("y1", y1)):
            _require(np.isfinite(y), y, f"coordinate {name} = {{}} is not finite")
        if chart is ChartId.CARTESIAN:
            return
        name, lo, hi = _radius(chart).domain
        _require((0.0 <= y1) & (y1 < TWO_PI), y1, "angle {} outside [0, 2*pi)")
        _require((lo <= y0) & (y0 <= hi), y0, f"{name} {{}} outside [{lo}, {hi}]")

    def __len__(self) -> int:
        """The number of samples, of the broadcast coordinates."""
        return np.broadcast(self.y0, self.y1).size

    def __getitem__(self, index) -> "ChartPoint":
        """The samples at index of an array point, of the broadcast
        coordinates."""
        y0, y1 = np.broadcast_arrays(self.y0, self.y1)
        return ChartPoint(self.chart, y0[index], y1[index])


def _require(ok, value, message: str) -> None:
    """Raise DomainError(message.format(v)) for the first value v where ok
    fails; ok and value are scalars or arrays of one sample shape."""
    reject(np.logical_not(ok), DomainError, message, value)


def _tensor(rows, p: ChartPoint) -> np.ndarray:
    """Two rows of two entries as one float array, each entry broadcast to
    p's samples (sample axis last)."""
    out = np.empty((2, 2, *np.broadcast(p.y0, p.y1).shape))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[i, j] = entry
    return out


class _Radius(NamedTuple):
    """One angular chart: (y0, y1) lies at R(y0) (cos y1, sin y1)."""
    pair: Callable  # y0 -> (R, R'), jet-aware: basis differentiates R; the closed forms and k = R/R' read both
    inverse: Callable  # y0 = R^-1(|x|), for |x| >= GUARD
    domain: tuple  # (name, lo, hi): the y0 a ChartPoint accepts


def _disk_arcsin(r):
    _require(r <= 1.0 - GUARD, r, "|x| = {} outside the open unit disk")
    return np.arcsin(r)


_RADII = {
    ChartId.POLAR: _Radius(lambda y0: (y0, 1.0), lambda r: r, ("radius", GUARD, math.inf)),
    ChartId.HOLOGRAPHIC: _Radius(dual.sincos, _disk_arcsin, ("theta", GUARD, math.pi / 2 - GUARD)),
    ChartId.CONFORMAL: _Radius(lambda y0: (dual.exp(y0),) * 2, np.log, ("rho", -math.inf, math.inf)),
}

ANGULAR_CHARTS = tuple(_RADII)


def _radius(chart) -> _Radius:
    """chart's _RADII row, the table's one read; ValueError if it has none."""
    if chart not in _RADII:
        raise ValueError(f"unknown chart {chart!r}")
    return _RADII[chart]


def radial_scale(chart: ChartId, y0):
    """k = R/R' of an angular chart at y0, from its _RADII row; jet-aware."""
    r, dr = _radius(chart).pair(y0)
    return r / dr


def embed_coords(chart: ChartId, y0, y1):
    """The embedding R(y0) (cos y1, sin y1); floats, arrays and jets alike."""
    if chart is ChartId.CARTESIAN:
        return y0, y1
    r, (s, c) = _radius(chart).pair(y0)[0], dual.sincos(y1)
    return r * c, r * s


def embed(p: ChartPoint) -> tuple[float, float]:
    return embed_coords(p.chart, p.y0, p.y1)


def normalize_angle(phi: float) -> float:
    """phi folded into [0, 2*pi).  A tiny negative angle whose shift by 2*pi
    rounds up to 2*pi becomes the largest float below it, on the same side of
    the branch cut as the unfolded angle."""
    phi = np.fmod(phi, TWO_PI)
    return np.minimum(phi + TWO_PI * (phi < 0.0), np.nextafter(TWO_PI, 0.0))


def invert(chart: ChartId, x0: float, x1: float) -> ChartPoint:
    """Analytic inverse of the embedding (atan2 and R^-1, no iteration).
    A non-finite plane point raises DomainError before any chart is tried."""
    flat = ChartPoint(ChartId.CARTESIAN, x0, x1)
    if chart is ChartId.CARTESIAN:
        return flat
    r = np.hypot(x0, x1)
    _require(r >= GUARD, r, "origin is not covered by any angular chart")
    phi = normalize_angle(dual.atan2(x1, x0))
    return ChartPoint(chart, _radius(chart).inverse(r), phi)


def basis(p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate basis vectors d(embed)/dy_alpha, via first-order dual
    numbers (dual.partials)."""
    partials = dual.partials(lambda y0, y1: embed_coords(p.chart, y0, y1), (p.y0, p.y1))
    return tuple(_tensor([[dual.d1(x0), dual.d1(x1)] for x0, x1 in partials], p))


def basis_closed_form(p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """Basis vectors (R' cos, R' sin) and (-R sin, R cos), R' from the pair."""
    if p.chart is ChartId.CARTESIAN:
        return tuple(_tensor([[1.0, 0.0], [0.0, 1.0]], p))
    r, dr = _radius(p.chart).pair(p.y0)
    s, c = dual.sincos(p.y1)
    return tuple(_tensor([[dr * c, dr * s], [-r * s, r * c]], p))


def metric_closed_form(p: ChartPoint) -> np.ndarray:
    """The metric diag(R'^2, R^2), from the radius pair."""
    if p.chart is ChartId.CARTESIAN:
        return _tensor([[1.0, 0.0], [0.0, 1.0]], p)
    r, dr = _radius(p.chart).pair(p.y0)
    return _tensor([[dr * dr, 0.0], [0.0, r * r]], p)


def metric(p: ChartPoint) -> np.ndarray:
    """Gram matrix of the basis vectors (upper curved-index metric)."""
    return gram(jacobian_lower(p))


def gram(a: np.ndarray) -> np.ndarray:
    """The metric from a lower transformation matrix: the Gram matrix of
    its columns, the basis vectors."""
    return np.einsum("ki...,kj...->ij...", a, a)


def jacobian_lower(p: ChartPoint) -> np.ndarray:
    """Transformation matrix A[mu][alpha] = d x_mu / d y_alpha."""
    b0, b1 = basis(p)
    return np.stack([b0, b1], axis=1)


def jacobian_mixed(p: ChartPoint) -> np.ndarray:
    """A with the curved index lowered by the inverse metric.

    Flat indices are moved with the identity, curved ones with the inverse of
    metric(p); the result satisfies jacobian_lower @ jacobian_mixed.T = id.
    """
    return mixed_from_lower(jacobian_lower(p))


def mixed_from_lower(a: np.ndarray) -> np.ndarray:
    """jacobian_mixed of the point whose jacobian_lower is a: callers that
    already hold the lower matrix skip a second basis evaluation."""
    g = gram(a)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    reject(np.abs(det) < 1e-30, DomainError, "metric is singular: determinant {}", det)
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    return np.einsum("ik...,kj...->ij...", a, g_inv)


def jacobian_mixed_closed_form(p: ChartPoint) -> np.ndarray:
    """jacobian_mixed as (cos/R', -sin/R; sin/R', cos/R), from the pair."""
    if p.chart is ChartId.CARTESIAN:
        return _tensor([[1.0, 0.0], [0.0, 1.0]], p)
    r, dr = _radius(p.chart).pair(p.y0)
    s, c = dual.sincos(p.y1)
    return _tensor([[c / dr, -s / r], [s / dr, c / r]], p)


class ConformalVector(Record, frozen=True):
    """Point of the null cone in R^{3,1} representing a plane point."""

    __slots__ = ("u0", "u1", "u2", "u3")

    def __init__(self, u0: float, u1: float, u2: float, u3: float):
        self._assign(u0, u1, u2, u3)

    def null_defect(self) -> float:
        return self.u0**2 + self.u1**2 + self.u2**2 - self.u3**2

    def as_array(self) -> np.ndarray:
        return np.array([self.u0, self.u1, self.u2, self.u3])


def compactify(x0: float, x1: float, rescaled: bool = False) -> ConformalVector:
    """Lift a plane point to the null cone.

    Unrescaled: (x0, x1, (1-x^2)/2, (1+x^2)/2).  Rescaled: divided by the
    last component, so u3 = 1 and (u0, u1, u2) lies on the unit sphere.
    A non-finite point raises DomainError and one whose x^2 overflows
    OverflowError, each naming the first bad sample.
    """
    xsq = _squared_norm(x0, x1)
    u = (x0, x1, (1.0 - xsq) / 2.0, (1.0 + xsq) / 2.0)
    if rescaled:
        u = tuple(c / u[3] for c in u)
    return ConformalVector(*u)


def _squared_norm(x0, x1):
    """|x|^2 of a plane point.  A non-finite point raises DomainError and one
    whose |x|^2 overflows OverflowError, each naming the first bad sample."""
    ChartPoint(ChartId.CARTESIAN, x0, x1)
    with np.errstate(over="ignore"):
        nsq = x0 * x0 + x1 * x1
    reject(np.isinf(nsq), OverflowError, "|x|^2 of ({}, {}) overflows", x0, x1)
    return nsq


def invert_point(x: tuple[float, float]) -> tuple[float, float]:
    """Inversion x -> x/|x|^2; x may hold arrays over samples.  A non-finite
    point raises DomainError, one whose |x|^2 overflows OverflowError, and one
    whose |x|^2 is below the smallest normal float (the origin, the pole,
    among them) PoleCrossingError; so every image is finite."""
    nsq = _squared_norm(*x)
    reject(nsq < np.finfo(float).tiny, PoleCrossingError, "inversion pole at the origin")
    return (x[0] / nsq, x[1] / nsq)


def special_conformal(
    x: tuple[float, float], c: tuple[float, float]
) -> tuple[float, float]:
    """Inversion, translation by c, inversion again.

    Infinitesimally this is the flow of minus the quadratic generator
    fields: the first-order change in x is -(c0*q0 + c1*q1) evaluated at x.
    Each inversion raises as invert_point does, so c = 0 returns every point
    with |x| in about [1.5e-154, 6.7e153]; for arrays over samples an error
    names the first bad sample.
    """
    y = invert_point(x)
    y = (y[0] + c[0], y[1] + c[1])
    return invert_point(y)
