"""Commutative bicomplex arithmetic.

The ring is spanned by {1, i, j, ij} with two commuting imaginary units,
i^2 = j^2 = -1, and the hyperbolic unit ij with (ij)^2 = +1.  Two
involutions act on it:

* ``conjugate``: i -> -i, ij -> -ij, fixes 1 and j;
* ``reverse``:   i -> -i, j -> -j,  fixes 1 and ij.

The null-plane units o = (i+j)/2 and obar = (j-i)/2 are zero divisors
(o*obar = 0) and satisfy oo = i*o = j*o.  The pair of involutions projects
a bicomplex number onto the base coordinates of the quadratic sphere map:
s*conjugate(s) = xi3 + j*xi1 and s*reverse(s) = |s|^2 - ij*xi2.

Internally the ring splits over the idempotents e+- = (1 +- ij)/2 into two
copies of the complex plane; exp and inverse use that split, so they are
exact up to one complex exp / division per component, and recombine the
parts in real arithmetic into fresh components.

The components may also be 1-D numpy arrays over samples: one Bicomplex
then holds a whole batch, and every operation acts sample by sample.  A
single number goes through the same numpy code and leaves as Python
numbers.

Differences are componentwise (x - y is bitwise x + (-y) for non-NaN
components).  A product sums each component's four terms in the written
left-to-right order, so Python numbers and mixed or integer components keep
the types of the written expression.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from ._record import Record


def nan_max(values: tuple):
    """Largest of some non-negative values, sample by sample when any of
    them is an array; NaN where any of them is NaN.

    The builtin max keeps or drops NaN depending on argument order
    (max(0.0, nan) is 0.0), which would let a NaN defect pass; np.maximum
    keeps NaN.
    """
    return plain(functools.reduce(np.maximum, values))


def plain(x):
    """A numpy scalar or 0-d array as the Python number it holds, so that a
    single point's results print as Python numbers; anything else as is."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def reject(bad, error: type, message: str, *values) -> None:
    """Raise error(message.format(*values)) where bad holds.

    bad is a bool for one sample, or a bool array over the samples; then
    the message names the first bad sample and formats each value (a
    number, an array or an array-valued Bicomplex) as it is there.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    if bad.ndim:
        k = int(np.argmax(bad))
        values = [_at(v, k) for v in values]
        message += f" at sample {k}"
    raise error(message.format(*values))


def _at(v, k: int):
    """Sample k of v, as Python numbers; v itself when it is not an array."""
    if isinstance(v, Bicomplex):
        return Bicomplex(*(_at(c, k) for c in v.components()))
    return v[k].item() if np.ndim(v) else v


def _complex(re, im):
    """Complex array with the given real and imaginary parts, exactly."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real, out.imag = re, im
    return plain(out)


# an idempotent part this small makes a number a zero divisor, which inverse
# rejects; projective's Mobius maps read a denominator this small as a pole
POLE_TOL = 1e-14
# involution_projections' bound on an involution product's leakage, relative to 1 + |s|^2
LEAK_TOL = 1e-9


class StructureError(ArithmeticError):
    """An algebraic identity that must hold exactly was violated."""


class ZeroDivisorError(ZeroDivisionError):
    """Inversion of a bicomplex number with a vanishing idempotent part."""


class Bicomplex(Record, frozen=True):
    """re + i*im_i + j*im_j + ij*im_ij with real coefficients."""

    __slots__ = ("re", "im_i", "im_j", "im_ij")

    def __init__(self, re: float = 0.0, im_i: float = 0.0, im_j: float = 0.0, im_ij: float = 0.0):
        self._assign(re, im_i, im_j, im_ij)

    # make `ndarray * Bicomplex` defer to Bicomplex.__rmul__ instead of
    # building an object array of per-element products
    __array_ufunc__ = None

    def __getitem__(self, index) -> "Bicomplex":
        """The samples at index of an array-valued number."""
        return Bicomplex(self.re[index], self.im_i[index], self.im_j[index], self.im_ij[index])

    def components(self) -> tuple:
        return (self.re, self.im_i, self.im_j, self.im_ij)

    def __add__(self, other):
        other = _coerce(other)
        return Bicomplex(
            self.re + other.re,
            self.im_i + other.im_i,
            self.im_j + other.im_j,
            self.im_ij + other.im_ij,
        )

    __radd__ = __add__

    def __neg__(self):
        return Bicomplex(-self.re, -self.im_i, -self.im_j, -self.im_ij)

    def __sub__(self, other):
        other = _coerce(other)
        return Bicomplex(
            self.re - other.re,
            self.im_i - other.im_i,
            self.im_j - other.im_j,
            self.im_ij - other.im_ij,
        )

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        (a1, a2, a3, a4), (b1, b2, b3, b4) = self.components(), other.components()
        return Bicomplex(
            a1 * b1 - a2 * b2 - a3 * b3 + a4 * b4,
            a1 * b2 + a2 * b1 - a3 * b4 - a4 * b3,
            a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
            a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def conjugate(self) -> "Bicomplex":
        return Bicomplex(self.re, -self.im_i, self.im_j, -self.im_ij)

    def reverse(self) -> "Bicomplex":
        return Bicomplex(self.re, -self.im_i, -self.im_j, self.im_ij)

    def squared_length(self) -> float:
        return self.re * self.re + self.im_i * self.im_i + self.im_j * self.im_j + self.im_ij * self.im_ij

    def max_abs(self) -> float:
        """Largest component modulus (per sample for arrays); NaN when any
        component is NaN."""
        return nan_max((abs(self.re), abs(self.im_i), abs(self.im_j), abs(self.im_ij)))

    def idempotent_parts(self) -> tuple[complex, complex]:
        """Components (z+, z-) along e+- = (1 +- ij)/2, complex in i."""
        return (
            _complex(self.re + self.im_ij, self.im_i - self.im_j),
            _complex(self.re - self.im_ij, self.im_i + self.im_j),
        )

    @staticmethod
    def from_idempotent_parts(z_plus: complex, z_minus: complex) -> "Bicomplex":
        # each component one real sum of the parts, halved: 0.5 * x is bitwise x / 2, and faster
        p, m = z_plus, z_minus
        halves = (0.5 * (p.real + m.real), 0.5 * (p.imag + m.imag), 0.5 * (m.imag - p.imag), 0.5 * (p.real - m.real))
        return Bicomplex(*map(plain, halves))

    def inverse(self) -> "Bicomplex":
        """1 / self; ValueError for a non-finite number, ZeroDivisorError on
        the null cone."""
        reject(~np.isfinite(self.max_abs()), ValueError, "cannot invert {}: not finite", self)
        zp, zm = self.idempotent_parts()
        reject(
            np.logical_or(*vanishing_parts(zp, zm)),
            ZeroDivisorError,
            "not invertible: idempotent parts ({}, {})",
            zp,
            zm,
        )
        # np.divide, not /: one number divides as an array does, not as Python does
        return Bicomplex.from_idempotent_parts(np.divide(1, zp), np.divide(1, zm))

    def exp(self) -> "Bicomplex":
        zp, zm = self.idempotent_parts()
        return Bicomplex.from_idempotent_parts(np.exp(zp), np.exp(zm))


def vanishing_parts(zp, zm) -> tuple:
    """Per sample, whether each idempotent part is within POLE_TOL of zero:
    a number with either one there is a zero divisor."""
    return np.abs(zp) <= POLE_TOL, np.abs(zm) <= POLE_TOL


def _coerce(x) -> Bicomplex:
    if isinstance(x, Bicomplex):
        return x
    if isinstance(x, complex):
        return Bicomplex(x.real, x.imag)
    if isinstance(x, (int, float)):
        return Bicomplex(float(x))
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return Bicomplex(x.real, x.imag)
        return Bicomplex(np.asarray(x, dtype=float))
    # numpy scalars of other widths (np.float32, np.complex64, ...)
    if isinstance(x, numbers.Real):
        return Bicomplex(float(x))
    if isinstance(x, numbers.Complex):
        return Bicomplex(float(x.real), float(x.imag))
    raise TypeError(f"cannot interpret {type(x).__name__} as Bicomplex")


ZERO = Bicomplex()
ONE = Bicomplex(1.0)
UNIT_I = Bicomplex(0.0, 1.0)
UNIT_J = Bicomplex(0.0, 0.0, 1.0)
UNIT_IJ = Bicomplex(0.0, 0.0, 0.0, 1.0)


def null_plane_units() -> tuple[Bicomplex, Bicomplex]:
    """The zero-divisor pair (o, obar) with i = o - obar and j = o + obar."""
    o = Bicomplex(0.0, 0.5, 0.5, 0.0)
    obar = Bicomplex(0.0, -0.5, 0.5, 0.0)
    return o, obar


class HopfTriple(Record, frozen=True):
    """Base-sphere coordinates (xi1, xi2, xi3) with xi1^2+xi2^2+xi3^2 = len_sq^2."""

    __slots__ = ("xi1", "xi2", "xi3", "len_sq")

    def __init__(self, xi1: float, xi2: float, xi3: float, len_sq: float):
        self._assign(xi1, xi2, xi3, len_sq)


def involution_projections(s: Bicomplex) -> HopfTriple:
    """Extract the sphere-map image of s from its two involutions.

    s*conjugate(s) must land in span{1, j} and s*reverse(s) in span{1, ij};
    any leakage into other components beyond LEAK_TOL (scaled) signals a
    broken product and raises StructureError.  A non-finite number raises
    ValueError and one whose squared length overflows OverflowError, each
    naming the first bad sample.
    """
    reject(~np.isfinite(s.max_abs()), ValueError, "cannot project {}: not finite", s)
    with np.errstate(over="ignore"):
        scale = 1.0 + s.squared_length()
    reject(np.isinf(scale), OverflowError, "squared length of {} overflows", s)
    pc = s * s.conjugate()
    reject(
        (abs(pc.im_i) > LEAK_TOL * scale) | (abs(pc.im_ij) > LEAK_TOL * scale),
        StructureError,
        "s*conjugate(s) leaked outside span(1, j): {}",
        pc,
    )
    pr = s * s.reverse()
    reject(
        (abs(pr.im_i) > LEAK_TOL * scale) | (abs(pr.im_j) > LEAK_TOL * scale),
        StructureError,
        "s*reverse(s) leaked outside span(1, ij): {}",
        pr,
    )
    return HopfTriple(xi1=pc.im_j, xi2=-pr.im_ij, xi3=pc.re, len_sq=pr.re)
