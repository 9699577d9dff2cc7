"""2x2 spin representations over three rings, and the quadratic sphere map.

The generator matrices act on the projective line by fractional-linear
maps.  Over the reals only the subalgebra {b, p0, q0} is represented; the
complex ring adds the rotation and the second translation/special pair via
s01 = i b, p1 = i p0, q1 = -i q0; the bicomplex ring replaces the entries
of p0 and q0 with the null-plane units and the diagonal of b with the
hyperbolic unit, which makes the full table hold as written (ledger all
+1), unlike any vector-field realization.

The sphere map sends a unit 4-vector (the components of two complex line
coordinates) to its base point; the same three numbers fall out of the two
bicomplex involutions, which is checked in the verification suites.

Matrix entries, Mobius arguments, sphere points and projective points may be
1-D numpy arrays over samples (ring elements of arrays, for the bicomplex
ring); every function then acts sample by sample, and a bad sample raises
the function's error naming the first one.  A single point goes through the
same code and leaves as Python numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    B,
    BRACKET_PAIRS,
    BRACKET_RELATIONS,
    GENERATORS,
    P0,
    P1,
    Q0,
    QP_PAIRS,
    S01,
    UPSILON_LINE,
    GeneratorId,
    SignLedger,
    generator,
    match_sign,
    pair_label,
)
from .bicomplex import (
    Bicomplex,
    HopfTriple,
    UNIT_I,
    UNIT_IJ,
    _coerce,
    modulus,
    nan_max,
    null_plane_units,
    plain,
    pow2,
    quotient,
    reject,
)


class Ring(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"
    BICOMPLEX = "bicomplex"

    def __str__(self):
        return self.value


class PoleError(ArithmeticError):
    """Fractional-linear map evaluated at a vanishing denominator."""


class NullLinePoleError(PoleError):
    """Bicomplex denominator is a zero divisor (pole on a null line)."""


class UnsupportedGeneratorError(ValueError):
    """The requested generator has no matrix over the requested ring."""


REAL_GENERATORS = (B, P0, Q0)


def _ring_zero(ring: Ring):
    return Bicomplex() if ring is Ring.BICOMPLEX else (0j if ring is Ring.COMPLEX else 0.0)


def _ring_one(ring: Ring):
    return (
        Bicomplex(1.0)
        if ring is Ring.BICOMPLEX
        else ((1 + 0j) if ring is Ring.COMPLEX else 1.0)
    )


def _ring_exp(x):
    return x.exp() if isinstance(x, Bicomplex) else plain(np.exp(x))


def absval(x) -> float:
    """Size of a ring element: the largest component modulus of a bicomplex
    number, abs of a real or complex one."""
    return x.max_abs() if isinstance(x, Bicomplex) else abs(x)


@dataclass(frozen=True)
class SpinMatrix:
    """((a, b), (c, d)) over one of the three rings."""

    ring: Ring
    a: object
    b: object
    c: object
    d: object

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        return SpinMatrix(
            self.ring,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(
            self.ring,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c,
            self.d + other.d,
        )

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(
            self.ring,
            self.a - other.a,
            self.b - other.b,
            self.c - other.c,
            self.d - other.d,
        )

    def scaled(self, factor) -> "SpinMatrix":
        return SpinMatrix(
            self.ring,
            factor * self.a,
            factor * self.b,
            factor * self.c,
            factor * self.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def max_abs_diff(self, other: "SpinMatrix") -> float:
        return nan_max(
            tuple(absval(x - y) for x, y in zip(self.entries(), other.entries()))
        )


def identity(ring: Ring) -> SpinMatrix:
    one, zero = _ring_one(ring), _ring_zero(ring)
    return SpinMatrix(ring, one, zero, zero, one)


def commutator(m: SpinMatrix, n: SpinMatrix) -> SpinMatrix:
    return (m @ n) - (n @ m)


def matrix_rep(g: GeneratorId, ring: Ring) -> SpinMatrix:
    """Generator matrix over the ring; trace-free in every case."""
    if ring is Ring.REAL:
        if g not in REAL_GENERATORS:
            raise UnsupportedGeneratorError(
                f"{g} needs a complex unit; the real ring represents b, p0, q0"
            )
        if g is B:
            return SpinMatrix(ring, 0.5, 0.0, 0.0, -0.5)
        if g is P0:
            return SpinMatrix(ring, 0.0, 1.0, 0.0, 0.0)
        return SpinMatrix(ring, 0.0, 0.0, -1.0, 0.0)

    if ring is Ring.COMPLEX:
        base = {
            B: SpinMatrix(ring, 0.5 + 0j, 0j, 0j, -0.5 + 0j),
            P0: SpinMatrix(ring, 0j, 1 + 0j, 0j, 0j),
            Q0: SpinMatrix(ring, 0j, 0j, -1 + 0j, 0j),
        }
    else:
        o, obar = null_plane_units()
        half_ij = 0.5 * UNIT_IJ
        zero = Bicomplex()
        base = {
            B: SpinMatrix(ring, half_ij, zero, zero, -half_ij),
            P0: SpinMatrix(ring, zero, o, -obar, zero),
            Q0: SpinMatrix(ring, zero, obar, -o, zero),
        }
    if g in base:
        return base[g]
    # complexified relations: s01 = i*b, p1 = i*p0, q1 = -i*q0
    i_unit = UNIT_I if ring is Ring.BICOMPLEX else 1j
    if g is S01:
        return base[B].scaled(i_unit)
    if g is P1:
        return base[P0].scaled(i_unit)
    return base[Q0].scaled(-i_unit)


def supported_generators(ring: Ring) -> tuple:
    return REAL_GENERATORS if ring is Ring.REAL else GENERATORS


def matrix_bracket_table(ring: Ring, tol: float = 1e-12) -> SignLedger:
    """All pairwise commutators over the ring, signed against the table."""
    gens = {g: matrix_rep(g, ring) for g in supported_generators(ring)}
    ledger = SignLedger(realization=f"matrix/{ring.value}")
    worst = 0.0
    zero = identity(ring).scaled(_ring_zero(ring))
    for g1, g2 in BRACKET_PAIRS:
        if g1 not in gens or g2 not in gens:
            continue
        bra = commutator(gens[g1], gens[g2])
        rhs = zero
        for g, coeff in BRACKET_RELATIONS[(g1, g2)].items():
            rhs = rhs + gens[g].scaled(coeff)
        sign, defect = match_sign(
            f"{pair_label(g1, g2)} over {ring}",
            bra.max_abs_diff(rhs),
            bra.max_abs_diff(rhs.scaled(-1.0)),
            tol,
        )
        ledger.signs[pair_label(g1, g2)] = sign
        worst = max(worst, defect)
    ledger.max_defect = worst
    return ledger


# the real matrix ledger is the global negation of the upsilon-line field
# ledger on the shared subalgebra
EXPECTED_MATRIX_SIGNS = {
    Ring.REAL: {"[b,p0]": -1, "[b,q0]": -1, "[q0,p0]": 1},
    Ring.COMPLEX: {
        pair_label(g1, g2): (
            1 if not BRACKET_RELATIONS[(g1, g2)] or (g1, g2) in QP_PAIRS else -1
        )
        for g1, g2 in BRACKET_PAIRS
    },
    Ring.BICOMPLEX: {pair_label(g1, g2): 1 for g1, g2 in BRACKET_PAIRS},
}


# a denominator (or, over the bicomplex ring, one of its idempotent parts)
# this small is a pole
POLE_TOL = 1e-14


def mobius_apply(m: SpinMatrix, v):
    """Fractional-linear action (a v + b) / (c v + d) in the matrix's ring.

    On arrays of samples, a sample on a pole raises PoleError; over the
    bicomplex ring a full pole is reported before a null-line one."""
    if m.ring is Ring.BICOMPLEX:
        v = _coerce(v)
        den = m.c * v + m.d
        zp, zm = den.idempotent_parts()
        dead_p, dead_m = modulus(zp) <= POLE_TOL, modulus(zm) <= POLE_TOL
        reject(dead_p & dead_m, PoleError, "denominator vanished")
        reject(
            dead_p | dead_m,
            NullLinePoleError,
            "denominator is a zero divisor: idempotent parts ({}, {})",
            zp,
            zm,
        )
        return (m.a * v + m.b) * den.inverse()
    den = m.c * v + m.d
    reject(modulus(den) <= POLE_TOL, PoleError, "denominator vanished")
    out = quotient(m.a * v + m.b, den)
    return plain(out.real if m.ring is Ring.REAL else out)


def exp_one_param(g: GeneratorId, eps: float, ring: Ring) -> SpinMatrix:
    """Matrix exponential of eps * matrix_rep(g, ring); eps may be an array.

    Diagonal generators exponentiate entrywise in the ring; the translation
    and special-conformal matrices square to zero, so their series stops
    at first order."""
    m = matrix_rep(g, ring)
    if g in (B, S01):
        return SpinMatrix(
            ring,
            _ring_exp(eps * m.a),
            _ring_zero(ring),
            _ring_zero(ring),
            _ring_exp(eps * m.d),
        )
    return identity(ring) + m.scaled(eps)


def flow_consistency(g: GeneratorId, v0: complex, eps: float) -> float:
    """Defect between the exponentiated matrix action and the first-order
    field step v0 + eps * X_g(v0) on the upsilon line; O(eps^2) by
    construction (identically zero for the translation generators).  v0 may
    be an array of start points."""
    v0 = np.asarray(v0, dtype=complex)
    moved = mobius_apply(exp_one_param(g, eps, Ring.COMPLEX), v0)
    x = generator(g, UPSILON_LINE).coeffs[0](v0)
    return plain(modulus(moved - (v0 + eps * x)))


# --- the sphere map -----------------------------------------------------------

def hopf_raw(c1: float, c2: float, c3: float, c4: float) -> tuple:
    """Quadratic sphere map of an arbitrary 4-vector (no normalization)."""
    return (
        2.0 * (c1 * c3 + c2 * c4),
        2.0 * (c2 * c3 - c1 * c4),
        c1 * c1 + c2 * c2 - c3 * c3 - c4 * c4,
    )


# The norm of a sphere point is the square root of the plain sum of squares,
# whose rounding the goldens pin.  Only where that sum overflows or
# underflows are the components first divided by the largest of them (the
# math.hypot idea), so that finite nonzero input is always accepted.

_NOT_FINITE = "cannot normalize ({}, {}, {}, {}): norm not finite"


def _norm(comps) -> tuple:
    with np.errstate(over="ignore", under="ignore"):
        n = np.sqrt(sum(pow2(c) for c in comps))
        rescale = ~((n >= 1e-300) & (n < math.inf))
        if not rescale.any():
            return comps, n
        stack = np.array(np.broadcast_arrays(*comps))
        reject(~np.isfinite(stack).all(axis=0), ValueError, _NOT_FINITE, *comps)
        big = np.abs(stack).max(axis=0)
        reject(big == 0, ValueError, "cannot normalize the zero vector")
        comps = [np.where(rescale, c / big, c) for c in stack]
        return comps, np.where(rescale, np.sqrt(sum(pow2(c) for c in comps)), n)


@dataclass(frozen=True)
class S3Point:
    """Unit 4-vector; the constructor normalizes and rejects zero and
    non-finite input."""

    s1: float
    s2: float
    s3: float
    s4: float

    def __post_init__(self):
        comps, n = _norm(self.components())
        for name, v in zip(("s1", "s2", "s3", "s4"), comps):
            object.__setattr__(self, name, plain(v / n))

    def components(self) -> tuple:
        return (self.s1, self.s2, self.s3, self.s4)

    def phase_rotated(self, lam: float) -> "S3Point":
        """Joint phase action on (s1 + i s2, s3 + i s4): the fiber circle."""
        # the products by exp(i lam) = cos + i sin, written out as Python's
        # complex product rounds them
        c, s = np.cos(lam), np.sin(lam)
        return S3Point(
            self.s1 * c - self.s2 * s,
            self.s1 * s + self.s2 * c,
            self.s3 * c - self.s4 * s,
            self.s3 * s + self.s4 * c,
        )


def hopf(s: S3Point) -> HopfTriple:
    """Base point of the fiber through s."""
    c1, c2, c3, c4 = s.components()
    xi = hopf_raw(c1, c2, c3, c4)
    return HopfTriple(*xi, len_sq=c1 * c1 + c2 * c2 + c3 * c3 + c4 * c4)


# --- projective line charts ---------------------------------------------------

@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous pair (v1, v2), finite and not both zero."""

    v1: complex
    v2: complex

    def __post_init__(self):
        reject(
            ~(np.isfinite(self.v1) & np.isfinite(self.v2)),
            ValueError,
            "({}, {}) is not finite",
            self.v1,
            self.v2,
        )
        reject(
            (abs(self.v1) == 0.0) & (abs(self.v2) == 0.0),
            ValueError,
            "(0, 0) is not a projective point",
        )


def projectively_equal(p: ProjectivePoint, q: ProjectivePoint, tol: float = 1e-12) -> bool:
    """Cross-multiplication test v1*w2 == v2*w1 (no normalization needed);
    one bool per sample for array points."""
    scale = np.maximum(modulus(p.v1), modulus(p.v2)) * np.maximum(modulus(q.v1), modulus(q.v2))
    return plain(modulus(p.v1 * q.v2 - p.v2 * q.v1) <= tol * np.maximum(scale, 1e-300))


@dataclass(frozen=True)
class ChartTransition:
    """Affine representatives of a projective point in the two line charts.

    ``affine0`` normalizes the second component, ``affine1`` the first; the
    transition value has unit modulus on the chart overlap.  Off the overlap
    exactly one representative exists and ``transition`` is None.  For an
    array point every field holds arrays, NaN at the samples where the
    representative or the transition does not exist."""

    affine0: tuple | None
    affine1: tuple | None
    transition: complex | None

    @property
    def in_overlap(self) -> bool:
        # None, a single point's missing transition, reads as NaN here
        return plain(~np.isnan(np.asarray(self.transition, dtype=complex)))


def chart_transition(p: ProjectivePoint, tol: float = 1e-14) -> ChartTransition:
    v1, v2 = np.broadcast_arrays(np.asarray(p.v1, dtype=complex), np.asarray(p.v2, dtype=complex))
    scale = np.maximum(modulus(v1), modulus(v2))
    have0 = modulus(v2) > tol * scale
    have1 = modulus(v1) > tol * scale
    missing = complex(math.nan, math.nan)
    w = np.where(have0, quotient(v1, v2), missing)
    affine0 = (w, np.where(have0, 1.0 + 0j, missing))
    affine1 = (np.where(have1, 1.0 + 0j, missing), np.where(have1, quotient(v2, v1), missing))
    transition = np.where(have0 & have1, quotient(w, modulus(w)), missing)
    if v1.ndim:
        return ChartTransition(affine0, affine1, transition)
    # a single point: Python numbers, and None for what does not exist
    return ChartTransition(
        tuple(map(plain, affine0)) if have0 else None,
        tuple(map(plain, affine1)) if have1 else None,
        plain(transition) if have0 & have1 else None,
    )
