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

import numpy as np

from ._record import Record
from .algebra import (
    B,
    BRACKET_PAIRS,
    BRACKET_RELATIONS,
    EXPECTED_FIELD_SIGNS,
    GENERATORS,
    P0,
    P1,
    Q0,
    Q1,
    S01,
    UPSILON_LINE,
    GeneratorId,
    SignLedger,
    generator,
    pair_label,
)
from .bicomplex import (
    POLE_TOL,
    Bicomplex,
    HopfTriple,
    UNIT_I,
    UNIT_IJ,
    _coerce,
    nan_max,
    null_plane_units,
    plain,
    reject,
    vanishing_parts,
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


# a matrix commutator within this defect of +RHS or -RHS takes that sign
MATRIX_MATCH_TOL = 1e-12
# projectively_equal's bound on |v1 w2 - v2 w1|, relative to the points' sizes
EQUAL_TOL = 1e-12
# chart_transition's bound, relative to the larger component, below which a component is zero
CHART_TOL = 1e-14


def _ring_scalar(ring: Ring, x):
    """The real number x, or an array of them, as an element of the ring."""
    if ring is Ring.BICOMPLEX:
        return Bicomplex(x, *[plain(np.zeros_like(x))] * 3)
    return x + 0j if ring is Ring.COMPLEX else x


def _ring_exp(x):
    return x.exp() if isinstance(x, Bicomplex) else plain(np.exp(x))


def _finite(x):
    """Whether a ring element (per sample, for arrays) is finite."""
    return np.isfinite(x.max_abs() if isinstance(x, Bicomplex) else x)


def absval(x) -> float:
    """Size of a ring element: the largest component modulus of a bicomplex
    number, abs of a real or complex one."""
    return x.max_abs() if isinstance(x, Bicomplex) else abs(x)


class SpinMatrix(Record, frozen=True):
    """((a, b), (c, d)) over one of the three rings."""

    __slots__ = ("ring", "a", "b", "c", "d")

    def __init__(self, ring: Ring, a: object, b: object, c: object, d: object):
        self._assign(ring, a, b, c, d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __getitem__(self, index) -> "SpinMatrix":
        """The samples at index of a matrix of entry arrays."""
        return SpinMatrix(self.ring, *(e[index] for e in self.entries()))

    def _ring_with(self, other: "SpinMatrix") -> Ring:
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        return self.ring

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(
            self._ring_with(other),
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(self._ring_with(other), *(x + y for x, y in zip(self.entries(), other.entries())))

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(self._ring_with(other), *(x - y for x, y in zip(self.entries(), other.entries())))

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
    one, zero = _ring_scalar(ring, 1.0), _ring_scalar(ring, 0.0)
    return SpinMatrix(ring, one, zero, zero, one)


def commutator(m: SpinMatrix, n: SpinMatrix) -> SpinMatrix:
    return (m @ n) - (n @ m)


# entries (a, b, c, d) of b, p0 and q0 over the real and complex rings
_REAL_ENTRIES = {B: (0.5, 0.0, 0.0, -0.5), P0: (0.0, 1.0, 0.0, 0.0), Q0: (0.0, 0.0, -1.0, 0.0)}

REAL_GENERATORS = tuple(_REAL_ENTRIES)


def supported_generators(ring: Ring) -> tuple:
    return REAL_GENERATORS if ring is Ring.REAL else GENERATORS


def _build_matrix(g: GeneratorId, ring: Ring) -> SpinMatrix:
    i_unit = UNIT_I if ring is Ring.BICOMPLEX else 1j
    # complexified relations: s01 = i*b, p1 = i*p0, q1 = -i*q0
    base, unit = {S01: (B, i_unit), P1: (P0, i_unit), Q1: (Q0, -i_unit)}.get(g, (g, None))
    if ring is Ring.BICOMPLEX:
        o, obar = null_plane_units()
        half_ij, zero = 0.5 * UNIT_IJ, Bicomplex()
        rows = {B: (half_ij, zero, zero, -half_ij), P0: (zero, o, -obar, zero), Q0: (zero, obar, -o, zero)}
        entries = rows[base]
    else:
        entries = [_ring_scalar(ring, x) for x in _REAL_ENTRIES[base]]
    m = SpinMatrix(ring, *entries)
    return m if unit is None else m.scaled(unit)


# every generator matrix, built once: matrix_rep is called per flow and per table
_MATRICES = {(g, ring): _build_matrix(g, ring) for ring in Ring for g in supported_generators(ring)}


def matrix_rep(g: GeneratorId, ring: Ring) -> SpinMatrix:
    """Generator matrix over the ring; trace-free in every case."""
    if ring is Ring.REAL and g not in REAL_GENERATORS:
        raise UnsupportedGeneratorError(f"{g} needs a complex unit; the real ring represents b, p0, q0")
    return _MATRICES[(g, ring)]


def _stack(matrices: list) -> SpinMatrix:
    """The matrices as one matrix whose entries are arrays over them (ring
    elements of component arrays, for the bicomplex ring)."""

    def entry(values):
        if isinstance(values[0], Bicomplex):
            return Bicomplex(*map(np.array, zip(*(e.components() for e in values))))
        return np.array(values)

    return SpinMatrix(matrices[0].ring, *map(entry, zip(*(m.entries() for m in matrices))))


def matrix_bracket_table(ring: Ring) -> SignLedger:
    """All pairwise commutators over the ring, signed against the table.

    The pairs' commutators are taken at once, as one commutator of two
    stacked matrices, entry by entry in the order of one pair at a time."""
    gens = {g: matrix_rep(g, ring) for g in supported_generators(ring)}
    pairs = [(g1, g2) for g1, g2 in BRACKET_PAIRS if g1 in gens and g2 in gens]
    zero = SpinMatrix(ring, *[_ring_scalar(ring, 0.0)] * 4)
    bra = commutator(_stack([gens[g1] for g1, _ in pairs]), _stack([gens[g2] for _, g2 in pairs]))
    # every right-hand side is one term coeff * g, or none (0 * zero)
    terms = [next(iter(BRACKET_RELATIONS[pair].items()), (None, 0.0)) for pair in pairs]
    rhs = zero + _stack([gens.get(g, zero) for g, _ in terms]).scaled(np.array([c for _, c in terms]))
    return SignLedger.matched(
        f"matrix/{ring.value}",
        [pair_label(g1, g2) for g1, g2 in pairs],
        bra.max_abs_diff(rhs),
        bra.max_abs_diff(rhs.scaled(-1.0)),
        MATRIX_MATCH_TOL,
        where=f" over {ring}",
    )


# matrices and fields are anti-homomorphic: over the real and complex rings a bracket with a
# nonzero right-hand side takes minus its field sign; the bicomplex ring holds the table as written
EXPECTED_MATRIX_SIGNS = {
    ring: {
        pair_label(*pair): 1 if ring is Ring.BICOMPLEX or not BRACKET_RELATIONS[pair]
        else -EXPECTED_FIELD_SIGNS[pair_label(*pair)]
        for pair in BRACKET_PAIRS
        if set(pair) <= set(supported_generators(ring))
    }
    for ring in Ring
}


def on_pole(m: SpinMatrix, v):
    """Per sample, whether v sits on a pole of m's action over the real or
    complex ring, |c v + d| <= POLE_TOL: where mobius_apply raises PoleError."""
    return _vanishes(m.c * v + m.d)


def _vanishes(den):
    """|den| <= POLE_TOL per sample: a real or complex Mobius denominator's pole."""
    return np.abs(den) <= POLE_TOL


def mobius_apply(m: SpinMatrix, v):
    """Fractional-linear action (a v + b) / (c v + d) in the matrix's ring.

    A non-finite argument, or over the real ring one with a nonzero
    imaginary part, raises ValueError, as does a non-finite matrix entry.
    A sample on a pole raises PoleError (over the bicomplex ring a full pole
    before a null-line one), and then one whose denominator or image
    overflows OverflowError; on arrays each names the first bad sample."""
    reject(
        ~(_finite(m.a) & _finite(m.b) & _finite(m.c) & _finite(m.d)),
        ValueError,
        "Mobius matrix entries ({}, {}, {}, {}) are not finite",
        *m.entries(),
    )
    # a single real or complex point as a 0-d array, so that it rounds as its array sample
    v = _coerce(v) if m.ring is Ring.BICOMPLEX else np.asarray(v)
    reject(~_finite(v), ValueError, "Mobius argument {} is not finite", v)
    if m.ring is Ring.REAL:
        reject(np.imag(v) != 0, ValueError, "the real ring acts on real arguments, not {}", v)
    # an overflow is the one OverflowError below, not numpy's warnings and inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        den = m.c * v + m.d
        if m.ring is Ring.BICOMPLEX:
            zp, zm = den.idempotent_parts()
            dead_p, dead_m = vanishing_parts(zp, zm)
            reject(dead_p & dead_m, PoleError, "denominator vanished")
            reject(dead_p | dead_m, NullLinePoleError, "denominator is a zero divisor: idempotent parts ({}, {})", zp, zm)
            # den's inverse as Bicomplex.inverse takes it, without testing the pole again
            out = (m.a * v + m.b) * Bicomplex.from_idempotent_parts(np.divide(1, zp), np.divide(1, zm))
        else:
            reject(_vanishes(den), PoleError, "denominator vanished")
            out = (m.a * v + m.b) / den
    reject(~(_finite(den) & _finite(out)), OverflowError, "Mobius image of {} overflows", v)
    return out if m.ring is Ring.BICOMPLEX else plain(out.real if m.ring is Ring.REAL else out)


def exp_one_param(g: GeneratorId, eps: float, ring: Ring) -> SpinMatrix:
    """Matrix exponential of eps * matrix_rep(g, ring); eps may be an array.
    A non-finite eps raises ValueError.

    Diagonal generators exponentiate entrywise in the ring; the translation
    and special-conformal matrices square to zero, so their series stops
    at first order."""
    reject(~np.isfinite(eps), ValueError, "flow parameter {} is not finite", eps)
    m = matrix_rep(g, ring)
    if g in (B, S01):
        # +0.0 in eps's shape (an array for an array eps, so that m[k] indexes every entry)
        zero = _ring_scalar(ring, np.zeros(np.shape(eps)) if np.ndim(eps) else 0.0)
        return SpinMatrix(ring, _ring_exp(eps * m.a), zero, zero, _ring_exp(eps * m.d))
    return identity(ring) + m.scaled(eps)


def flow_consistency(g: GeneratorId, v0: complex, eps: float) -> float:
    """Defect between the exponentiated matrix action and the first-order
    field step v0 + eps * X_g(v0) on the upsilon line; O(eps^2) by
    construction (identically zero for the translation generators).  v0 may
    be an array of start points."""
    v0 = np.asarray(v0, dtype=complex)
    moved = mobius_apply(exp_one_param(g, eps, Ring.COMPLEX), v0)
    (x,) = generator(g, UPSILON_LINE).coeffs(v0)
    return plain(np.abs(moved - (v0 + eps * x)))


# --- the sphere map -----------------------------------------------------------

def hopf_raw(c1: float, c2: float, c3: float, c4: float) -> tuple:
    """Quadratic sphere map of an arbitrary 4-vector (no normalization)."""
    return (
        2.0 * (c1 * c3 + c2 * c4),
        2.0 * (c2 * c3 - c1 * c4),
        c1 * c1 + c2 * c2 - c3 * c3 - c4 * c4,
    )


# The norm of a sphere point is the square root of the plain sum of squares.
# Only where that sum overflows or underflows are the components first
# divided by the largest of them (the math.hypot idea), so that finite
# nonzero input is always accepted.

_NOT_FINITE = "cannot normalize ({}, {}, {}, {}): norm not finite"


def _norm(comps) -> tuple:
    with np.errstate(over="ignore", under="ignore"):
        n = np.sqrt(sum(c * c for c in comps))
        rescale = ~((n >= 1e-300) & (n < math.inf))
        if not rescale.any():
            return comps, n
        stack = np.array(np.broadcast_arrays(*comps))
        reject(~np.isfinite(stack).all(axis=0), ValueError, _NOT_FINITE, *comps)
        big = np.abs(stack).max(axis=0)
        reject(big == 0, ValueError, "cannot normalize the zero vector")
        comps = [np.where(rescale, c / big, c) for c in stack]
        return comps, np.where(rescale, np.sqrt(sum(c * c for c in comps)), n)


class S3Point(Record, frozen=True):
    """Unit 4-vector; the constructor normalizes and rejects zero and
    non-finite input."""

    __slots__ = ("s1", "s2", "s3", "s4")

    def __init__(self, s1: float, s2: float, s3: float, s4: float):
        comps, n = _norm((s1, s2, s3, s4))
        self._assign(*(plain(v / n) for v in comps))

    def components(self) -> tuple:
        return (self.s1, self.s2, self.s3, self.s4)

    def phase_rotated(self, lam: float) -> "S3Point":
        """Joint phase action on (s1 + i s2, s3 + i s4): the fiber circle."""
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

class ProjectivePoint(Record, frozen=True):
    """Homogeneous pair (v1, v2), finite and not both zero."""

    __slots__ = ("v1", "v2")

    def __init__(self, v1: complex, v2: complex):
        self._assign(v1, v2)
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


def projectively_equal(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """Cross-multiplication test v1*w2 == v2*w1 (no normalization needed);
    one bool per sample for array points."""
    scale = np.maximum(np.abs(p.v1), np.abs(p.v2)) * np.maximum(np.abs(q.v1), np.abs(q.v2))
    return plain(np.abs(p.v1 * q.v2 - p.v2 * q.v1) <= EQUAL_TOL * np.maximum(scale, 1e-300))


class ChartTransition(Record, frozen=True):
    """Affine representatives of a projective point in the two line charts.

    ``affine0`` normalizes the second component, ``affine1`` the first; the
    transition value has unit modulus on the chart overlap.  Off the overlap
    exactly one representative exists and ``transition`` is None.  For an
    array point every field holds arrays, NaN at the samples where the
    representative or the transition does not exist."""

    __slots__ = ("affine0", "affine1", "transition")

    def __init__(self, affine0: tuple | None, affine1: tuple | None, transition: complex | None):
        self._assign(affine0, affine1, transition)

    @property
    def in_overlap(self) -> bool:
        # None, a single point's missing transition, reads as NaN here
        return plain(~np.isnan(np.asarray(self.transition, dtype=complex)))


def chart_transition(p: ProjectivePoint) -> ChartTransition:
    v1, v2 = np.broadcast_arrays(np.asarray(p.v1, dtype=complex), np.asarray(p.v2, dtype=complex))
    scale = np.maximum(np.abs(v1), np.abs(v2))
    have0 = np.abs(v2) > CHART_TOL * scale
    have1 = np.abs(v1) > CHART_TOL * scale
    missing = complex(math.nan, math.nan)
    # off the overlap a divisor may be 0; np.where drops those quotients
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(have0, v1 / v2, missing)
        affine1 = (np.where(have1, 1.0 + 0j, missing), np.where(have1, v2 / v1, missing))
        transition = np.where(have0 & have1, w / np.abs(w), missing)
    affine0 = (w, np.where(have0, 1.0 + 0j, missing))
    if v1.ndim:
        return ChartTransition(affine0, affine1, transition)
    # a single point: Python numbers, and None for what does not exist
    return ChartTransition(
        tuple(map(plain, affine0)) if have0 else None,
        tuple(map(plain, affine1)) if have1 else None,
        plain(transition) if have0 & have1 else None,
    )
