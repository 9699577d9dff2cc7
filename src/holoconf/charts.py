"""Coordinate charts on the Euclidean plane and their tensor data.

Four charts cover the constructions in this package:

===========  =====================  ==========================================
chart        coordinates (y0, y1)   embedding (x0, x1)
===========  =====================  ==========================================
cartesian    (x0, x1)               identity
polar        (r, phi)               (r cos phi, r sin phi)
holographic  (theta, phi)           (sin theta cos phi, sin theta sin phi)
conformal    (rho, phi)             (e^rho cos phi, e^rho sin phi)
===========  =====================  ==========================================

Angles live in [0, 2*pi); the holographic chart covers the open unit disk
with theta in (0, pi/2) -- its metric degenerates at theta = pi/2, so points
within GUARD of a domain boundary are rejected rather than producing huge
values.  Basis vectors are computed by dual-number differentiation of the
embedding; closed forms are kept alongside as an independent cross-check.

A ChartPoint may carry 1-D arrays of coordinates, one entry per sample
point; every function below then evaluates all samples at once.  The sample
axis comes last: a vector has shape (2, n) and a matrix (2, 2, n), where a
single point gives (2,) and (2, 2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import dual

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


@dataclass(frozen=True)
class ChartPoint:
    chart: ChartId
    y0: float
    y1: float

    @staticmethod
    def stack(pts) -> "ChartPoint":
        """One point whose coordinates are arrays over the given points."""
        if not pts:
            raise ValueError("no points to stack")
        kinds = {p.chart for p in pts}
        if len(kinds) != 1:
            raise ValueError(f"points to stack must share one chart, got {kinds}")
        return ChartPoint(
            kinds.pop(), np.array([p.y0 for p in pts]), np.array([p.y1 for p in pts])
        )


def _require(ok, value, message: str) -> None:
    """Raise DomainError(message.format(v)) for the first value v where ok
    fails; ok and value are scalars or arrays of one sample shape."""
    ok = np.asarray(ok)
    if not ok.all():
        raise DomainError(message.format(float(np.broadcast_to(value, ok.shape)[~ok][0])))


def validate(p: ChartPoint) -> None:
    """Raise DomainError unless every sample of p lies safely inside its
    chart's domain."""
    if p.chart is ChartId.CARTESIAN:
        return
    _require((0.0 <= p.y1) & (p.y1 < TWO_PI), p.y1, "angle {} outside [0, 2*pi)")
    if p.chart is ChartId.POLAR:
        _require(p.y0 >= GUARD, p.y0, f"radius {{}} below guard {GUARD}")
    elif p.chart is ChartId.HOLOGRAPHIC:
        _require(
            (GUARD <= p.y0) & (p.y0 <= math.pi / 2 - GUARD),
            p.y0,
            f"theta {{}} outside ({GUARD}, pi/2 - {GUARD})",
        )
    # conformal: y0 unrestricted


def _tensor(rows, p: ChartPoint) -> np.ndarray:
    """Nested rows as one array, scalar entries broadcast to p's samples
    (sample axis last)."""
    shape = np.broadcast_shapes(np.shape(p.y0), np.shape(p.y1))

    def fill(r):
        if isinstance(r, list):
            return np.stack([fill(e) for e in r])
        return np.broadcast_to(r, shape)

    return fill(rows)


def _embed(chart: ChartId, y0, y1):
    """Embedding coordinate functions; works on floats, arrays and jets alike."""
    if chart is ChartId.CARTESIAN:
        return y0, y1
    if chart is ChartId.POLAR:
        return y0 * dual.cos(y1), y0 * dual.sin(y1)
    if chart is ChartId.HOLOGRAPHIC:
        s = dual.sin(y0)
        return s * dual.cos(y1), s * dual.sin(y1)
    if chart is ChartId.CONFORMAL:
        e = dual.exp(y0)
        return e * dual.cos(y1), e * dual.sin(y1)
    raise ValueError(chart)


def embed(p: ChartPoint) -> tuple[float, float]:
    validate(p)
    return _embed(p.chart, p.y0, p.y1)


# jet-aware embedding for callers composing their own fields
embed_coords = _embed


def normalize_angle(phi: float) -> float:
    """phi folded into [0, 2*pi).  A tiny negative angle whose shift by 2*pi
    rounds up to 2*pi becomes the largest float below it, on the same side of
    the branch cut as the unfolded angle."""
    phi = np.fmod(phi, TWO_PI)
    return np.minimum(phi + TWO_PI * (phi < 0.0), np.nextafter(TWO_PI, 0.0))


def invert(chart: ChartId, x0: float, x1: float) -> ChartPoint:
    """Analytic inverse of the embedding (atan2 / arcsin / log, no iteration)."""
    if chart is ChartId.CARTESIAN:
        return ChartPoint(chart, x0, x1)
    r = np.hypot(x0, x1)
    _require(r >= GUARD, r, "origin is not covered by any angular chart")
    phi = normalize_angle(dual.atan2(x1, x0))
    if chart is ChartId.POLAR:
        return ChartPoint(chart, r, phi)
    if chart is ChartId.HOLOGRAPHIC:
        _require(r <= 1.0 - GUARD, r, "|x| = {} outside the open unit disk")
        return ChartPoint(chart, np.arcsin(r), phi)
    if chart is ChartId.CONFORMAL:
        return ChartPoint(chart, np.log(r), phi)
    raise ValueError(chart)


def basis(p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate basis vectors d(embed)/dy_alpha, via dual numbers."""
    validate(p)
    cols = []
    for var in (0, 1):
        args = [p.y0, p.y1]
        args[var] = dual.seed(args[var])
        x0, x1 = _embed(p.chart, *args)
        cols.append(_tensor([dual.d1(x0), dual.d1(x1)], p))
    return cols[0], cols[1]


def basis_closed_form(p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """Hand-derived basis vectors, kept separate as a cross-check."""
    validate(p)
    if p.chart is ChartId.CARTESIAN:
        return _tensor([1.0, 0.0], p), _tensor([0.0, 1.0], p)
    c, s = dual.cos(p.y1), dual.sin(p.y1)
    if p.chart is ChartId.POLAR:
        r = p.y0
        return _tensor([c, s], p), _tensor([-r * s, r * c], p)
    if p.chart is ChartId.HOLOGRAPHIC:
        ct, st = dual.cos(p.y0), dual.sin(p.y0)
        return _tensor([ct * c, ct * s], p), _tensor([-st * s, st * c], p)
    e = dual.exp(p.y0)
    return _tensor([e * c, e * s], p), _tensor([-e * s, e * c], p)


def metric(p: ChartPoint) -> np.ndarray:
    """Gram matrix of the basis vectors (upper curved-index metric)."""
    a = jacobian_lower(p)
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
    g = metric(p)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if np.any(np.abs(det) < 1e-30):
        raise DomainError("metric is singular at this point")
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    return np.einsum("ik...,kj...->ij...", jacobian_lower(p), g_inv)


def jacobian_mixed_closed_form(p: ChartPoint) -> np.ndarray:
    validate(p)
    if p.chart is ChartId.CARTESIAN:
        return _tensor([[1.0, 0.0], [0.0, 1.0]], p)
    c, s = dual.cos(p.y1), dual.sin(p.y1)
    if p.chart is ChartId.POLAR:
        r = p.y0
        return _tensor([[c, -s / r], [s, c / r]], p)
    if p.chart is ChartId.HOLOGRAPHIC:
        ct, st = dual.cos(p.y0), dual.sin(p.y0)
        return _tensor([[c / ct, -s / st], [s / ct, c / st]], p)
    e = dual.exp(-p.y0)
    return _tensor([[e * c, -e * s], [e * s, e * c]], p)


@dataclass(frozen=True)
class ConformalVector:
    """Point of the null cone in R^{3,1} representing a plane point."""

    u0: float
    u1: float
    u2: float
    u3: float

    def null_defect(self) -> float:
        return self.u0**2 + self.u1**2 + self.u2**2 - self.u3**2

    def as_array(self) -> np.ndarray:
        return np.array([self.u0, self.u1, self.u2, self.u3])


def compactify(x0: float, x1: float, rescaled: bool = False) -> ConformalVector:
    """Lift a plane point to the null cone.

    Unrescaled: (x0, x1, (1-x^2)/2, (1+x^2)/2).  Rescaled: divided by the
    last component, so u3 = 1 and (u0, u1, u2) lies on the unit sphere.
    """
    xsq = x0 * x0 + x1 * x1
    u = (x0, x1, (1.0 - xsq) / 2.0, (1.0 + xsq) / 2.0)
    if rescaled:
        u = tuple(c / u[3] for c in u)
    return ConformalVector(*u)


def invert_point(x: tuple[float, float]) -> tuple[float, float]:
    """Inversion x -> x/|x|^2; the origin maps to infinity (pole)."""
    nsq = x[0] * x[0] + x[1] * x[1]
    if nsq < GUARD * GUARD:
        raise PoleCrossingError("inversion pole at the origin")
    return (x[0] / nsq, x[1] / nsq)


def special_conformal(
    x: tuple[float, float], c: tuple[float, float]
) -> tuple[float, float]:
    """Inversion, translation by c, inversion again.

    Infinitesimally this is the flow of minus the quadratic generator
    fields: the first-order change in x is -(c0*q0 + c1*q1) evaluated at x.
    Points driven to a pole raise PoleCrossingError instead of overflowing.
    """
    y = invert_point(x)
    y = (y[0] + c[0], y[1] + c[1])
    return invert_point(y)
