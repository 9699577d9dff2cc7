"""The planar conformal Lie algebra as first-order differential operators.

Six generators act on the plane: the dilation b, the rotation s01, two
translations p0/p1 and two quadratic (special conformal) generators q0/q1.
They are realized as vector fields in each coordinate chart and, through
the solution coordinate itself, on the punctured complex line ("upsilon
line"), where every generator is c(u) d/du for a polynomial c.

The reference commutation table is::

    [s01, p0] = -p1     [s01, p1] = p0      [b, p_mu] = -p_mu
    [s01, q0] = -q1     [s01, q1] = q0      [b, q_mu] = +q_mu
    [q_mu, p_nu] = 2*(delta_mu_nu * b + s_mu_nu)

All vector-field realizations reproduce it with the four [q, p] brackets
negated (the usual antihomomorphism between matrix generators and the
fields of the induced action); structure_table records that per-bracket
sign instead of hiding it.  Packing the six generators as rotation
operators s_ab (a < b in 0..3) turns the table into a single relation
whose consistent metric is diag(1, 1, 1, -1); minkowski_check verifies
both the relation and the uniqueness of that metric among diagonal sign
patterns.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual, sampling
from .charts import ChartId, ChartPoint, validate
from .laplace import SolutionFamily, solve

UPSILON_LINE = "upsilon-line"

REALIZATIONS = (
    ChartId.CARTESIAN,
    ChartId.POLAR,
    ChartId.HOLOGRAPHIC,
    ChartId.CONFORMAL,
    UPSILON_LINE,
)

# the realizations whose bracket tables the verification suites check
FIELD_REALIZATIONS = (
    ChartId.CARTESIAN,
    ChartId.HOLOGRAPHIC,
    ChartId.CONFORMAL,
    UPSILON_LINE,
)


class RealizationMismatchError(ValueError):
    """Bracketed fields must live in the same realization."""


class UnmatchedBracketError(ArithmeticError):
    """A computed bracket matched neither +RHS nor -RHS of the table."""


class GeneratorId(enum.Enum):
    B = "b"        # dilation
    S01 = "s01"    # rotation
    P0 = "p0"      # translation along x0
    P1 = "p1"      # translation along x1
    Q0 = "q0"      # special conformal along x0
    Q1 = "q1"      # special conformal along x1

    def __str__(self):
        return self.value


B, S01, P0, P1, Q0, Q1 = (
    GeneratorId.B,
    GeneratorId.S01,
    GeneratorId.P0,
    GeneratorId.P1,
    GeneratorId.Q0,
    GeneratorId.Q1,
)

GENERATORS = (B, S01, P0, P1, Q0, Q1)


def realization_key(realization) -> str:
    if realization == UPSILON_LINE:
        return UPSILON_LINE
    if isinstance(realization, ChartId):
        return realization.value
    raise ValueError(f"unknown realization {realization!r}")


@dataclass(frozen=True)
class VectorField:
    """First-order operator sum_k coeffs[k] * d/dy_k on one realization.

    Chart realizations carry two coefficient functions of (y0, y1); the
    upsilon line carries a single holomorphic coefficient of u.
    """

    realization: object
    coeffs: tuple
    label: str = ""

    @property
    def arity(self) -> int:
        return len(self.coeffs)


def _partial(fn: Callable, var: int, args) -> object:
    # lift every argument into a fresh jet level (non-seeded ones as
    # constants) so that jets from an enclosing differentiation never share
    # a level with this one
    seeded = [
        dual.Jet(a, 1.0 if i == var else 0.0, 0.0) for i, a in enumerate(args)
    ]
    return dual.d1(fn(*seeded))


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y] with coefficients x(y_k) - y(x_k)."""
    if realization_key(x.realization) != realization_key(y.realization):
        raise RealizationMismatchError(
            f"{realization_key(x.realization)} vs {realization_key(y.realization)}"
        )
    n = x.arity

    def mk(k):
        def coeff(*ys):
            acc = 0.0
            for j in range(n):
                acc = acc + x.coeffs[j](*ys) * _partial(y.coeffs[k], j, ys)
                acc = acc - y.coeffs[j](*ys) * _partial(x.coeffs[k], j, ys)
            return acc

        return coeff

    return VectorField(
        x.realization,
        tuple(mk(k) for k in range(n)),
        label=f"[{x.label},{y.label}]",
    )


def lincomb(terms, realization, label: str = "") -> VectorField:
    """Pointwise linear combination sum_i c_i * field_i."""
    arity = 1 if realization_key(realization) == UPSILON_LINE else 2

    def mk(k):
        def coeff(*ys):
            acc = 0.0
            for c, f in terms:
                acc = acc + c * f.coeffs[k](*ys)
            return acc

        return coeff

    return VectorField(realization, tuple(mk(k) for k in range(arity)), label=label)


def point_args(realization, p):
    """Coefficient arguments of a point: (u,) on the upsilon line, (y0, y1)
    in a chart.  An array point (see stack_points) gives array arguments."""
    if realization_key(realization) == UPSILON_LINE:
        return (p,)
    return (p.y0, p.y1)


def stack_points(realization, pts):
    """One array point holding a sequence of sample points."""
    if realization_key(realization) == UPSILON_LINE:
        return np.array(pts, dtype=complex)
    return ChartPoint.stack(pts)


def field_values(x: VectorField, pts) -> np.ndarray:
    """Coefficient values at the sample points, shape (npts, arity).

    Each coefficient is evaluated once, on the stacked coordinates of all
    points; constant coefficients are broadcast."""
    args = point_args(x.realization, stack_points(x.realization, pts))
    out = np.empty((len(pts), x.arity), dtype=complex)
    for k, c in enumerate(x.coeffs):
        out[:, k] = dual.value(c(*args))
    return out


def apply_to_function(x: VectorField, f: Callable, p) -> complex:
    """Evaluate (x f) at p by differentiating f along each coordinate.

    p may be an array point (see stack_points); the result then has its
    sample shape."""
    args = point_args(x.realization, p)
    acc = 0j
    for k in range(x.arity):
        acc = acc + dual.value(x.coeffs[k](*args)) * _partial(f, k, args)
    return acc


# --- generator tables --------------------------------------------------------

def _flat_table():
    return {
        B: (lambda x0, x1: x0, lambda x0, x1: x1),
        S01: (lambda x0, x1: -x1, lambda x0, x1: x0),
        P0: (lambda x0, x1: 1.0, lambda x0, x1: 0.0),
        P1: (lambda x0, x1: 0.0, lambda x0, x1: 1.0),
        Q0: (lambda x0, x1: x0 * x0 - x1 * x1, lambda x0, x1: 2.0 * x0 * x1),
        Q1: (lambda x0, x1: 2.0 * x0 * x1, lambda x0, x1: x1 * x1 - x0 * x0),
    }


def _polar_table():
    return {
        B: (lambda r, f: r, lambda r, f: 0.0),
        S01: (lambda r, f: 0.0, lambda r, f: 1.0),
        P0: (lambda r, f: dual.cos(f), lambda r, f: -dual.sin(f) / r),
        P1: (lambda r, f: dual.sin(f), lambda r, f: dual.cos(f) / r),
        Q0: (lambda r, f: r * r * dual.cos(f), lambda r, f: r * dual.sin(f)),
        Q1: (lambda r, f: r * r * dual.sin(f), lambda r, f: -r * dual.cos(f)),
    }


def _holographic_table():
    return {
        B: (lambda t, f: dual.tan(t), lambda t, f: 0.0),
        S01: (lambda t, f: 0.0, lambda t, f: 1.0),
        P0: (
            lambda t, f: dual.cos(f) / dual.cos(t),
            lambda t, f: -dual.sin(f) / dual.sin(t),
        ),
        P1: (
            lambda t, f: dual.sin(f) / dual.cos(t),
            lambda t, f: dual.cos(f) / dual.sin(t),
        ),
        Q0: (
            lambda t, f: dual.cos(f) * dual.sin(t) * dual.tan(t),
            lambda t, f: dual.sin(f) * dual.sin(t),
        ),
        Q1: (
            lambda t, f: dual.sin(f) * dual.sin(t) * dual.tan(t),
            lambda t, f: -dual.cos(f) * dual.sin(t),
        ),
    }


def _conformal_table():
    return {
        B: (lambda r, f: 1.0, lambda r, f: 0.0),
        S01: (lambda r, f: 0.0, lambda r, f: 1.0),
        P0: (
            lambda r, f: dual.exp(-r) * dual.cos(f),
            lambda r, f: -dual.exp(-r) * dual.sin(f),
        ),
        P1: (
            lambda r, f: dual.exp(-r) * dual.sin(f),
            lambda r, f: dual.exp(-r) * dual.cos(f),
        ),
        Q0: (
            lambda r, f: dual.exp(r) * dual.cos(f),
            lambda r, f: dual.exp(r) * dual.sin(f),
        ),
        Q1: (
            lambda r, f: dual.exp(r) * dual.sin(f),
            lambda r, f: -dual.exp(r) * dual.cos(f),
        ),
    }


def _upsilon_table():
    return {
        B: (lambda u: u,),
        S01: (lambda u: 1j * u,),
        P0: (lambda u: 1.0,),
        P1: (lambda u: 1j,),
        Q0: (lambda u: u * u,),
        Q1: (lambda u: -1j * u * u,),
    }


_TABLES = {
    ChartId.CARTESIAN.value: _flat_table,
    ChartId.POLAR.value: _polar_table,
    ChartId.HOLOGRAPHIC.value: _holographic_table,
    ChartId.CONFORMAL.value: _conformal_table,
    UPSILON_LINE: _upsilon_table,
}

# printable coefficient table, one row per generator
GENERATOR_TABLE_STRINGS = {
    ChartId.CARTESIAN.value: {
        B: ("x0", "x1"),
        S01: ("-x1", "x0"),
        P0: ("1", "0"),
        P1: ("0", "1"),
        Q0: ("x0^2 - x1^2", "2 x0 x1"),
        Q1: ("2 x0 x1", "x1^2 - x0^2"),
    },
    ChartId.POLAR.value: {
        B: ("r", "0"),
        S01: ("0", "1"),
        P0: ("cos(phi)", "-sin(phi)/r"),
        P1: ("sin(phi)", "cos(phi)/r"),
        Q0: ("r^2 cos(phi)", "r sin(phi)"),
        Q1: ("r^2 sin(phi)", "-r cos(phi)"),
    },
    ChartId.HOLOGRAPHIC.value: {
        B: ("tan(theta)", "0"),
        S01: ("0", "1"),
        P0: ("cos(phi)/cos(theta)", "-sin(phi)/sin(theta)"),
        P1: ("sin(phi)/cos(theta)", "cos(phi)/sin(theta)"),
        Q0: ("cos(phi) sin(theta) tan(theta)", "sin(phi) sin(theta)"),
        Q1: ("sin(phi) sin(theta) tan(theta)", "-cos(phi) sin(theta)"),
    },
    ChartId.CONFORMAL.value: {
        B: ("1", "0"),
        S01: ("0", "1"),
        P0: ("exp(-rho) cos(phi)", "-exp(-rho) sin(phi)"),
        P1: ("exp(-rho) sin(phi)", "exp(-rho) cos(phi)"),
        Q0: ("exp(rho) cos(phi)", "exp(rho) sin(phi)"),
        Q1: ("exp(rho) sin(phi)", "-exp(rho) cos(phi)"),
    },
    UPSILON_LINE: {
        B: ("u",),
        S01: ("i u",),
        P0: ("1",),
        P1: ("i",),
        Q0: ("u^2",),
        Q1: ("-i u^2",),
    },
}


def generator(g: GeneratorId, realization) -> VectorField:
    """Closed-form vector field of generator g in the given realization."""
    key = realization_key(realization)
    return VectorField(realization, _TABLES[key]()[g], label=g.value)


def generator_by_transport(g: GeneratorId, chart: ChartId) -> VectorField:
    """Flat generator pushed to a chart through the mixed Jacobian.

    Independent of the closed-form tables above (evaluation at plain or array
    points only, not at jets); used to cross-check them.
    """
    from .charts import embed, jacobian_mixed

    flat = _flat_table()[g]

    def mk(alpha):
        def coeff(y0, y1):
            p = ChartPoint(chart, y0, y1)
            x0, x1 = embed(p)
            a = jacobian_mixed(p)
            return flat[0](x0, x1) * a[0, alpha] + flat[1](x0, x1) * a[1, alpha]

        return coeff

    return VectorField(chart, (mk(0), mk(1)), label=g.value + "~")


# --- the commutation table and sign ledgers ---------------------------------

# ordered bracket pairs and their table right-hand sides (zero when absent)
BRACKET_PAIRS: tuple = (
    (B, S01),
    (B, P0),
    (B, P1),
    (B, Q0),
    (B, Q1),
    (S01, P0),
    (S01, P1),
    (S01, Q0),
    (S01, Q1),
    (P0, P1),
    (Q0, Q1),
    (Q0, P0),
    (Q0, P1),
    (Q1, P0),
    (Q1, P1),
)

BRACKET_RELATIONS: dict = {
    (B, S01): {},
    (B, P0): {P0: -1.0},
    (B, P1): {P1: -1.0},
    (B, Q0): {Q0: 1.0},
    (B, Q1): {Q1: 1.0},
    (S01, P0): {P1: -1.0},
    (S01, P1): {P0: 1.0},
    (S01, Q0): {Q1: -1.0},
    (S01, Q1): {Q0: 1.0},
    (P0, P1): {},
    (Q0, Q1): {},
    (Q0, P0): {B: 2.0},
    (Q0, P1): {S01: 2.0},
    (Q1, P0): {S01: -2.0},
    (Q1, P1): {B: 2.0},
}

QP_PAIRS = frozenset({(Q0, P0), (Q0, P1), (Q1, P0), (Q1, P1)})

# every vector-field realization satisfies the table with exactly the
# four [q, p] brackets negated
EXPECTED_FIELD_SIGNS = {
    pair: (-1 if pair in QP_PAIRS else 1) for pair in BRACKET_PAIRS
}


def pair_label(g1: GeneratorId, g2: GeneratorId) -> str:
    return f"[{g1.value},{g2.value}]"


def match_sign(label: str, d_plus: float, d_minus: float, tol: float) -> tuple:
    """Sign under which a bracket matches its table value, and the defect.

    d_plus and d_minus are the defects of bracket - rhs and bracket + rhs.
    Returns (1, d_plus) or (-1, d_minus), preferring +1 when both fit (a zero
    right-hand side); raises UnmatchedBracketError when neither is within tol.
    """
    if d_plus <= tol:
        return 1, d_plus
    if d_minus <= tol:
        return -1, d_minus
    raise UnmatchedBracketError(f"{label}: defects {d_plus:.3e}/{d_minus:.3e}")


@dataclass
class SignLedger:
    """Per-bracket record: +1 if the table holds as written, -1 if negated."""

    realization: str
    signs: dict = field(default_factory=dict)
    max_defect: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.signs)


def default_points(realization, n: int = 50, seed: int = 0):
    rng = random.Random(seed)
    key = realization_key(realization)
    if key == UPSILON_LINE:
        return sampling.upsilon_points(n, rng)
    return sampling.chart_points(ChartId(key), n, rng)


def structure_table(realization, points=None, match_tol: float = 1e-6) -> SignLedger:
    """Match all 15 generator brackets against the table, recording signs.

    match_tol only decides which sign fits (a genuinely wrong bracket raises
    UnmatchedBracketError); the ledger records the actual worst defect for
    the caller to judge against its own tolerance.
    """
    if points is None:
        points = default_points(realization)
    gens = {g: generator(g, realization) for g in GENERATORS}
    gen_vals = {g: field_values(gens[g], points) for g in GENERATORS}
    ledger = SignLedger(realization=realization_key(realization))
    worst = 0.0
    for g1, g2 in BRACKET_PAIRS:
        bra = field_values(bracket(gens[g1], gens[g2]), points)
        rhs = np.zeros_like(bra)
        for g, c in BRACKET_RELATIONS[(g1, g2)].items():
            rhs = rhs + c * gen_vals[g]
        sign, defect = match_sign(
            f"{pair_label(g1, g2)} in {ledger.realization}",
            float(np.max(np.abs(bra - rhs))),
            float(np.max(np.abs(bra + rhs))),
            match_tol,
        )
        ledger.signs[pair_label(g1, g2)] = sign
        worst = max(worst, defect)
    ledger.max_defect = worst
    return ledger


# --- eigenactions on the solution family -------------------------------------

def act(g: GeneratorId, alpha: complex, p: ChartPoint) -> complex:
    """Apply generator g (in p's chart realization) to the alpha-solution.

    alpha and the coordinates of p may be arrays of one sample shape."""
    validate(p)
    x = generator(g, p.chart)
    return apply_to_function(x, SolutionFamily(alpha, p.chart), p)


def eigenaction_expected(g: GeneratorId, alpha: complex, p: ChartPoint) -> complex:
    """Table value of g acting on the alpha-solution: shifts of the scale
    dimension by -1 (translations) or +1 (special conformal)."""
    u = lambda beta: solve(beta, p.chart, p)
    if g is B:
        return alpha * u(alpha)
    if g is S01:
        return 1j * alpha * u(alpha)
    if g is P0:
        return alpha * u(alpha - 1)
    if g is P1:
        return 1j * alpha * u(alpha - 1)
    if g is Q0:
        return alpha * u(alpha + 1)
    return -1j * alpha * u(alpha + 1)


# --- rotation packaging in R^{3,1} -------------------------------------------

SO31_INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

MINKOWSKI_METRIC = (1.0, 1.0, 1.0, -1.0)

# brackets that reduce to a [q, p] commutator inherit its negated sign
MINKOWSKI_FIELD_SIGNS = {
    "[s02,s03]": -1,
    "[s02,s12]": -1,
    "[s03,s13]": -1,
    "[s12,s13]": -1,
}


def so31_pack(realization) -> dict:
    """The six rotation operators s_ab, a < b in 0..3, as vector fields.

    s_a2 = (q_a - p_a)/2, s_a3 = -(q_a + p_a)/2, s_23 = b, s_01 unchanged.
    """
    g = {gid: generator(gid, realization) for gid in GENERATORS}
    r = realization

    def lc(terms, label):
        return lincomb(terms, r, label)

    return {
        (0, 1): g[S01],
        (0, 2): lc([(0.5, g[Q0]), (-0.5, g[P0])], "s02"),
        (0, 3): lc([(-0.5, g[Q0]), (-0.5, g[P0])], "s03"),
        (1, 2): lc([(0.5, g[Q1]), (-0.5, g[P1])], "s12"),
        (1, 3): lc([(-0.5, g[Q1]), (-0.5, g[P1])], "s13"),
        (2, 3): g[B],
    }


def _so31_rhs_terms(a: tuple, b: tuple, metric) -> list:
    """RHS of the packed relation as signed index pairs.

    [s_ab, s_cd] = g_ad s_bc - g_ac s_bd - g_bd s_ac + g_bc s_ad, with
    s_xy for x > y read as -s_yx and s_xx = 0.
    """
    (mu, nu), (rho, sig) = a, b
    raw = [
        (metric[mu] if mu == sig else 0.0, (nu, rho)),
        (-(metric[mu] if mu == rho else 0.0), (nu, sig)),
        (-(metric[nu] if nu == sig else 0.0), (mu, rho)),
        (metric[nu] if nu == rho else 0.0, (mu, sig)),
    ]
    terms = []
    for c, (x, y) in raw:
        if c == 0.0 or x == y:
            continue
        if x > y:
            c, (x, y) = -c, (y, x)
        terms.append((c, (x, y)))
    return terms


@dataclass
class MinkowskiResult:
    """Outcome of the packed-relation check and the metric-forcing scan."""

    realization: str
    ledger: SignLedger
    passing_metrics: list
    metric_forced: bool


def minkowski_check(
    realization, points=None, match_tol: float = 1e-6, scan_tol: float = 1e-8
) -> MinkowskiResult:
    """Verify the packed relation with metric diag(1,1,1,-1) and show the
    metric is forced: with the recorded per-bracket signs held fixed, every
    other diagonal sign pattern must break at least one bracket."""
    if points is None:
        points = default_points(realization)
    pack = so31_pack(realization)
    pack_vals = {ab: field_values(f, points) for ab, f in pack.items()}
    bra_vals = {}
    for i, a in enumerate(SO31_INDEX_PAIRS):
        for b in SO31_INDEX_PAIRS[i + 1 :]:
            bra_vals[(a, b)] = field_values(bracket(pack[a], pack[b]), points)

    def rhs_values(a, b, metric):
        acc = np.zeros_like(pack_vals[(0, 1)])
        for c, ab in _so31_rhs_terms(a, b, metric):
            acc = acc + c * pack_vals[ab]
        return acc

    ledger = SignLedger(realization=realization_key(realization))
    worst = 0.0
    for (a, b), bra in bra_vals.items():
        rhs = rhs_values(a, b, MINKOWSKI_METRIC)
        key = f"[s{a[0]}{a[1]},s{b[0]}{b[1]}]"
        ledger.signs[key], defect = match_sign(
            key,
            float(np.max(np.abs(bra - rhs))),
            float(np.max(np.abs(bra + rhs))),
            match_tol,
        )
        worst = max(worst, defect)
    ledger.max_defect = worst

    passing = []
    for bits in range(16):
        metric = tuple(1.0 if bits & (1 << k) == 0 else -1.0 for k in range(4))
        ok = True
        for (a, b), bra in bra_vals.items():
            key = f"[s{a[0]}{a[1]},s{b[0]}{b[1]}]"
            rhs = rhs_values(a, b, metric)
            if float(np.max(np.abs(bra - ledger.signs[key] * rhs))) > scan_tol:
                ok = False
                break
        if ok:
            passing.append(metric)
    forced = passing == [MINKOWSKI_METRIC]
    return MinkowskiResult(
        realization=realization_key(realization),
        ledger=ledger,
        passing_metrics=passing,
        metric_forced=forced,
    )


# --- circle functions and the packed multiplier tensor -----------------------

def cn(u: complex) -> complex:
    """(u + 1/u)/2; the disk-flow (Joukowski) map, cos on the unit circle."""
    if np.any(u == 0):
        raise ZeroDivisionError("cn undefined at 0")
    return (u + 1.0 / u) / 2.0


def sn(u: complex) -> complex:
    """(u - 1/u)/(2i); sin on the unit circle."""
    if np.any(u == 0):
        raise ZeroDivisionError("sn undefined at 0")
    return (u - 1.0 / u) / 2j


def angular_tensor(u: complex) -> np.ndarray:
    """Multipliers m_ab with s_ab = m_ab(u) * (u d/du) on the upsilon line.

    Antisymmetric 4x4 complex matrix built from cn and sn; for an array u
    the sample axis comes last, shape (4, 4, n)."""
    if np.any(u == 0):
        raise ZeroDivisionError("tensor undefined at 0")
    c, s = cn(u), sn(u)
    z = 0 * c  # broadcasts the constant entries to u's shape
    return np.array(
        [
            [z, z + 1j, 1j * s, -c],
            [z - 1j, z, -1j * c, -s],
            [-1j * s, 1j * c, z, z + 1],
            [c, s, z - 1, z],
        ],
        dtype=complex,
    )


# --- tangent-vector identification -------------------------------------------

def paravector_substitute(re_part: Callable, im_part: Callable) -> VectorField:
    """Turn a paravector decomposition f = re*1 + im*i into a holographic
    field by substituting 1 -> tan(theta) d_theta and i -> d_phi."""
    return VectorField(
        ChartId.HOLOGRAPHIC,
        (
            lambda t, f: re_part(t, f) * dual.tan(t),
            lambda t, f: im_part(t, f),
        ),
        label="subst",
    )


def tangent_curve(eps: float, p: ChartPoint) -> complex:
    """Point of the dilation flow curve c(eps) = e^eps * u(p).

    Its eps-derivative at 0 equals (tan(theta) d_theta u)(p), and it agrees
    with sin(theta + eps*tan(theta)) e^{i phi} to second order in eps."""
    if p.chart is not ChartId.HOLOGRAPHIC:
        raise ValueError("flow curve is defined on the holographic chart")
    validate(p)
    return math.exp(eps) * solve(1.0, p.chart, p)
