"""Second-order dual numbers (truncated 2-jets) for exact differentiation.

A Jet carries (value, first derivative, second derivative) with respect to a
single scalar parameter.  Components may be float, complex, or nested Jets,
so jets of jets work; that is what makes algebra.bracket's closures of
brackets differentiable without symbolic algebra.  Components may also be
numpy arrays: one jet then carries the derivatives at a whole column of
sample points, and every elementary function below evaluates them in one
call.  The derivative parts may carry more leading axes than the value, one
per direction: a jet then differentiates along several directions at once,
and the value is computed once for all of them.

A jet whose d2 is None is first order: it carries the value and the first
derivative only, and every operation skips its second-order terms, so its f
and d1 are bitwise those of the full jet.  An operation with one first-order
operand gives a first-order jet.  Seed first-order jets where only d1 is
read; d2() of a first-order jet raises ValueError rather than return a value
that was never computed.

Plain values go through numpy whatever their shape: a Python float or
complex leaves as the numpy scalar of the same value type.  numpy's exp,
log, tan and arctan2 differ from math's in the last bit for up to a few
percent of the arguments.  Where math raised (an overflow, a log or sqrt
outside its domain), numpy warns with a RuntimeWarning and returns inf or
NaN, for one value as for an array.
"""

from __future__ import annotations

import numbers

import numpy as np


class Jet:
    """f, f', f'' propagated through arithmetic via the chain rule (d2 None
    in a first-order jet)."""

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
        if not isinstance(other, Jet):
            return Jet(self.f + other, self.d1, self.d2)
        f, d1 = self.f + other.f, self.d1 + other.d1
        if self.d2 is None or other.d2 is None:
            return Jet(f, d1, None)
        return Jet(f, d1, self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d1, None if self.d2 is None else -self.d2)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.f * other, self.d1 * other, None if self.d2 is None else self.d2 * other)
        f, d1 = self.f * other.f, self.f * other.d1 + self.d1 * other.f
        if self.d2 is None or other.d2 is None:
            return Jet(f, d1, None)
        return Jet(f, d1, self.f * other.d2 + 2 * self.d1 * other.d1 + self.d2 * other.f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            inv = 1.0 / other
            return Jet(self.f * inv, self.d1 * inv, None if self.d2 is None else self.d2 * inv)
        w = self.f / other.f
        w1 = (self.d1 - w * other.d1) / other.f
        if self.d2 is None or other.d2 is None:
            return Jet(w, w1, None)
        w2 = (self.d2 - 2 * w1 * other.d1 - w * other.d2) / other.f
        return Jet(w, w1, w2)

    def __rtruediv__(self, other):
        return Jet(other) / self

    def __pow__(self, n):
        if isinstance(n, numbers.Integral):
            if n == 0:
                return Jet(1.0 * (self.f * 0 + 1), 0.0, None if self.d2 is None else 0.0)
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
    if not isinstance(x, Jet):
        return 0.0
    if x.d2 is None:
        raise ValueError("a first-order jet carries no second derivative")
    return x.d2


def seed(x):
    """Jet representing the identity function at x (derivative 1)."""
    return Jet(x, 1.0, 0.0)


def _chain(x, f0, f1, f2):
    # f(u) for u = (u0, u1, u2):  (f0, f1*u1, f1*u2 + f2*u1^2); f2 is None
    # for a first-order u
    if x.d2 is None:
        return Jet(f0, f1 * x.d1, None)
    return Jet(f0, f1 * x.d1, f1 * x.d2 + f2 * x.d1 * x.d1)


def sin(x):
    if isinstance(x, Jet):
        s, c = sin(x.f), cos(x.f)
        return _chain(x, s, c, None if x.d2 is None else -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s, c = sin(x.f), cos(x.f)
        return _chain(x, c, -s, None if x.d2 is None else -c)
    return np.cos(x)


def tan(x):
    if not isinstance(x, Jet):
        return np.sin(x) / np.cos(x)
    s, c = sin(x.f), cos(x.f)  # once for both jets of the quotient
    return _chain(x, s, c, None if x.d2 is None else -s) / _chain(x, c, -s, None if x.d2 is None else -c)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.f)
        return _chain(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        u = x.f
        inv = 1.0 / u
        return _chain(x, log(u), inv, None if x.d2 is None else -inv * inv)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        r = sqrt(x.f)
        inv = 0.5 / r
        return _chain(x, r, inv, None if x.d2 is None else -0.5 * inv / x.f)
    return np.sqrt(x)


def hypot(x, y):
    return sqrt(x * x + y * y)


def atan2(y, x):
    """Jet-aware atan2; differentiates the smooth local branch."""
    if not isinstance(x, Jet) and not isinstance(y, Jet):
        return np.arctan2(y, x)
    xj = x if isinstance(x, Jet) else Jet(x)
    yj = y if isinstance(y, Jet) else Jet(y)
    f = atan2(yj.f, xj.f)
    den = xj.f * xj.f + yj.f * yj.f
    num = xj.f * yj.d1 - yj.f * xj.d1
    g1 = num / den
    if xj.d2 is None or yj.d2 is None:
        return Jet(f, g1, None)
    num_d = xj.f * yj.d2 - yj.f * xj.d2
    den_d = 2 * (xj.f * xj.d1 + yj.f * yj.d1)
    g2 = (num_d * den - num * den_d) / (den * den)
    return Jet(f, g1, g2)
