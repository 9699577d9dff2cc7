"""Second-order dual numbers (truncated 2-jets) for exact differentiation.

A Jet carries (value, first derivative, second derivative) with respect to a
single scalar parameter.  Components may be float, complex, or nested Jets,
so jets of jets work; that is what makes algebra.bracket's closures of
brackets differentiable without symbolic algebra.  Components may also be
numpy arrays: one jet then carries the derivatives at a whole column of
sample points, and every elementary function below evaluates them in one
call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class Jet:
    """f, f', f'' propagated through arithmetic via the chain rule."""

    __slots__ = ("f", "d1", "d2")

    # make `ndarray * Jet` defer to Jet.__rmul__ instead of building an
    # object array of per-element jets
    __array_ufunc__ = None

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet({self.f!r}, {self.d1!r}, {self.d2!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2)
        return Jet(self.f + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.f * other.f,
                self.f * other.d1 + self.d1 * other.f,
                self.f * other.d2 + 2 * self.d1 * other.d1 + self.d2 * other.f,
            )
        return Jet(self.f * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            inv = 1.0 / other
            return Jet(self.f * inv, self.d1 * inv, self.d2 * inv)
        w = self.f / other.f
        w1 = (self.d1 - w * other.d1) / other.f
        w2 = (self.d2 - 2 * w1 * other.d1 - w * other.d2) / other.f
        return Jet(w, w1, w2)

    def __rtruediv__(self, other):
        return Jet(other) / self

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return Jet(1.0 * (self.f * 0 + 1))
            if n < 0:
                return 1.0 / (self ** (-n))
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        return exp(n * log(self))


def value(x):
    return x.f if isinstance(x, Jet) else x


def d1(x):
    return x.d1 if isinstance(x, Jet) else 0.0


def d2(x):
    return x.d2 if isinstance(x, Jet) else 0.0


def seed(x):
    """Jet representing the identity function at x (derivative 1)."""
    return Jet(x, 1.0, 0.0)


def _chain(x, f0, f1, f2):
    # f(u) for u = (u0, u1, u2):  (f0, f1*u1, f1*u2 + f2*u1^2)
    return Jet(f0, f1 * x.d1, f1 * x.d2 + f2 * x.d1 * x.d1)


def _lib(x):
    """Backend for a plain (non-jet) value: math, cmath or numpy."""
    t = type(x)
    if t is float:
        return math
    if t is complex:
        return cmath
    # arrays, subclasses and numpy scalars (np.float64 is a float, np.complex128 a complex)
    if isinstance(x, np.ndarray):
        return np
    return cmath if isinstance(x, complex) else math


def sin(x):
    if isinstance(x, Jet):
        s, c = sin(x.f), cos(x.f)
        return _chain(x, s, c, -s)
    return _lib(x).sin(x)


def cos(x):
    if isinstance(x, Jet):
        s, c = sin(x.f), cos(x.f)
        return _chain(x, c, -s, -c)
    return _lib(x).cos(x)


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.f)
        return _chain(x, e, e, e)
    return _lib(x).exp(x)


def log(x):
    if isinstance(x, Jet):
        u = x.f
        inv = 1.0 / u
        return _chain(x, log(u), inv, -inv * inv)
    return _lib(x).log(x)


def sqrt(x):
    if isinstance(x, Jet):
        r = sqrt(x.f)
        inv = 0.5 / r
        return _chain(x, r, inv, -0.5 * inv / x.f)
    return _lib(x).sqrt(x)


def hypot(x, y):
    return sqrt(x * x + y * y)


def atan2(y, x):
    """Jet-aware atan2; differentiates the smooth local branch."""
    if not isinstance(x, Jet) and not isinstance(y, Jet):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return np.arctan2(y, x)
        return math.atan2(y, x)
    xj = x if isinstance(x, Jet) else Jet(x)
    yj = y if isinstance(y, Jet) else Jet(y)
    f = atan2(yj.f, xj.f)
    den = xj.f * xj.f + yj.f * yj.f
    num = xj.f * yj.d1 - yj.f * xj.d1
    g1 = num / den
    num_d = xj.f * yj.d2 - yj.f * xj.d2
    den_d = 2 * (xj.f * xj.d1 + yj.f * yj.d1)
    g2 = (num_d * den - num * den_d) / (den * den)
    return Jet(f, g1, g2)
