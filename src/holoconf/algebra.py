"""The planar conformal Lie algebra as first-order differential operators.

Six generators act on the plane: the dilation b, the rotation s01, two
translations p0/p1 and two quadratic (special conformal) generators q0/q1.
They are realized as vector fields in each coordinate chart and, through
the solution coordinate itself, on the punctured complex line ("upsilon
line"), where every generator is c(u) d/du for a polynomial c: the one
statement of how it acts on the solutions, which eigenactions and substituted_rows read.

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

The checks evaluate each generator table once per point set, only to the
derivative order they read (generator_tensors): values for substituted_rows
and the angular tensor, gradients for brackets (contractions of the tensors,
taylor_bracket), Hessians for brackets of brackets.  Stacked tensors bracket
every pair of two stacks in one contraction, elementwise in the same order
as one pair at a time: the Jacobi check evaluates all its triples in one
call.  Stacking pays only where the operands are tiny; at hundreds of sample
points the per-pair loop of structure_table and minkowski_check is faster.
bracket() and lincomb() build the same fields as closures over nested jets;
they are the independent reference the tests compare the tensors against.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
import re
from typing import Callable

import numpy as np

from . import dual, sampling
from ._record import Record
from .bicomplex import plain, reject
from .charts import ChartId, ChartPoint, DomainError, radial_scale
from .laplace import SolutionFamily, solve

UPSILON_LINE = "upsilon-line"

REALIZATIONS = (*ChartId, UPSILON_LINE)  # every chart, then the upsilon line


class RealizationMismatchError(ValueError):
    """Fields or points of different realizations were combined."""


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


GENERATORS = B, S01, P0, P1, Q0, Q1 = tuple(GeneratorId)


def realization_key(realization) -> str:
    if realization == UPSILON_LINE:
        return UPSILON_LINE
    if isinstance(realization, ChartId):
        return realization.value
    raise ValueError(f"unknown realization {realization!r}")


class VectorField(Record, frozen=True):
    """First-order operator sum_k c_k * d/dy_k on one realization, where
    coeffs(*ys) returns the tuple (c_0, c_1, ...) at the coordinates ys.

    Chart realizations carry two coefficients of (y0, y1); the upsilon line
    carries a single holomorphic coefficient of u.
    """

    __slots__ = ("realization", "coeffs")

    def __init__(self, realization: object, coeffs: Callable):
        self._assign(realization, coeffs)

    @property
    def arity(self) -> int:
        return len(COORDINATE_NAMES[realization_key(self.realization)])


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator [x, y] with coefficients x(y_k) - y(x_k).

    Each evaluation calls each operand once for its values and once per
    coordinate for its partials, and sums each coefficient over j as
    taylor_bracket does."""
    if realization_key(x.realization) != realization_key(y.realization):
        raise RealizationMismatchError(
            f"{realization_key(x.realization)} vs {realization_key(y.realization)}"
        )
    n = x.arity

    def coeffs(*ys):
        xv, yv = x.coeffs(*ys), y.coeffs(*ys)
        # [j][k]: the partial along coordinate j of coefficient k
        dx, dy = ([tuple(map(dual.d1, c)) for c in dual.partials(f.coeffs, ys)] for f in (x, y))
        out = []
        for k in range(n):
            acc = 0.0
            for j in range(n):
                acc = acc + xv[j] * dy[j][k]
                acc = acc - yv[j] * dx[j][k]
            out.append(acc)
        return tuple(out)

    return VectorField(x.realization, coeffs)


def lincomb(terms, realization) -> VectorField:
    """Pointwise linear combination sum_i c_i * field_i; each evaluation
    calls each field once."""
    arity = len(COORDINATE_NAMES[realization_key(realization)])

    def coeffs(*ys):
        acc = [0.0] * arity
        for c, f in terms:
            acc = [a + c * v for a, v in zip(acc, f.coeffs(*ys))]
        return tuple(acc)

    return VectorField(realization, coeffs)


def point_args(realization, p):
    """Coefficient arguments of a point: (u,) on the upsilon line, (y0, y1)
    in a chart.  An array point (as the samplers draw) gives array
    arguments.

    Every algebra function of points takes them through here.  A ChartPoint
    of another chart, a ChartPoint on the upsilon line or a bare value in a
    chart raises RealizationMismatchError.  A ChartPoint is inside its
    chart's domain by construction; a non-finite point u on the upsilon line
    raises DomainError here, naming the first bad sample.  A single u is
    taken as a 0-d array, so that it rounds as its array sample."""
    key = realization_key(realization)
    given = p.chart.value if isinstance(p, ChartPoint) else UPSILON_LINE
    if given != key:
        raise RealizationMismatchError(f"{given} point given in {key}")
    if key == UPSILON_LINE:
        reject(~np.isfinite(p), DomainError, "coordinate u = {} is not finite", p)
        return (np.asarray(p),)
    return (p.y0, p.y1)


def field_values(x: VectorField, pts) -> np.ndarray:
    """Coefficient values at the sample points (an array point, or an array
    on the upsilon line; a single point is one sample), shape (npts, arity).

    Each coefficient is evaluated once, on the coordinates of all points;
    constant coefficients are broadcast."""
    args = point_args(x.realization, pts)
    out = np.empty((np.broadcast(*args).size, x.arity), dtype=complex)
    for k, c in enumerate(x.coeffs(*args)):
        out[:, k] = dual.value(c)
    return out


def apply_to_function(x: VectorField, f: Callable, p) -> complex:
    """Evaluate (x f) at p by differentiating f along each coordinate.

    p may be an array point; the result then has its sample shape."""
    args = point_args(x.realization, p)
    grad = [dual.d1(g) for g in dual.partials(f, args)]
    return plain(_apply_with_gradient(x.coeffs(*args), grad))


def _apply_with_gradient(coeffs, grad) -> complex:
    """sum_k coeffs[k] grad[k], for the coefficient values coeffs."""
    acc = 0j
    for c, d in zip(coeffs, grad):
        acc = acc + dual.value(c) * d
    return acc


# --- generator tables --------------------------------------------------------

# coordinate names of each realization, in coefficient order; the table
# strings below are written in these names
COORDINATE_NAMES = {
    ChartId.CARTESIAN.value: ("x0", "x1"),
    ChartId.POLAR.value: ("r", "phi"),
    ChartId.HOLOGRAPHIC.value: ("theta", "phi"),
    ChartId.CONFORMAL.value: ("rho", "phi"),
    UPSILON_LINE: ("u",),
}

# the coefficient table, one row per generator: printed by `holoconf table`
# and compiled into the fields that generator() returns
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


_COEFF_NAMESPACE = {
    "__builtins__": {},
    "sin": dual.sin,
    "cos": dual.cos,
    "tan": dual.tan,
    "exp": dual.exp,
    "i": 1j,
}


def _expression(text: str) -> str:
    """The Python expression of a table string such as "r^2 cos(phi)".

    Whitespace between two operands is a product, and `name^n` is the name
    multiplied by itself n times (not `**`, which rounds differently).
    Only the module's own table strings are compiled, never outside input.
    """
    expr = re.sub(r"(?<=[\w)])\s+(?=[\w(])", "*", text)
    return re.sub(r"(\w+)\^(\d+)", lambda m: "*".join([m[1]] * int(m[2])), expr)


def _compile(key: str) -> Callable:
    """The table function of realization key: one jet-aware function of the
    coordinates giving every coefficient, one tuple per generator in
    GENERATORS order.

    It compiles each table string's expression (_expression) and binds each
    distinct elementary call once, for all coefficients.  Polar's reads:
    lambda r, phi: (lambda _0, _1: ((r, 0, ), ..., (r*r*_1, -r*_0, )))(cos(phi), sin(phi))"""
    calls = {}
    bind = lambda m: calls.setdefault(m[0], f"_{len(calls)}")
    shared = lambda text: re.sub(r"\b\w+\([^()]*\)", bind, _expression(text)) + ", "
    rows = GENERATOR_TABLE_STRINGS[key]
    body = ", ".join("(" + "".join(map(shared, rows[g])) + ")" for g in GENERATORS)
    table = f"(lambda {', '.join(calls.values())}: ({body}))({', '.join(calls)})"
    return eval(f"lambda {', '.join(COORDINATE_NAMES[key])}: {table}", _COEFF_NAMESPACE)


_TABLE_FUNCTIONS = {key: _compile(key) for key in GENERATOR_TABLE_STRINGS}


def generator(g: GeneratorId, realization) -> VectorField:
    """Closed-form vector field of generator g in the given realization: its
    row of the table function."""
    table, row = _TABLE_FUNCTIONS[realization_key(realization)], GENERATORS.index(g)
    return VectorField(realization, lambda *ys: table(*ys)[row])


# --- Taylor tensors: brackets as contractions --------------------------------

class TaylorField(Record, frozen=True):
    """Coefficients of a vector field at the sample points, with their
    derivatives; the one sample axis comes last.

    v[k] is coefficient k, g[k, j] its derivative along coordinate j and
    h[k, j, l] its second derivative along j and l (None where not
    computed).  A stack of fields carries leading axes before these;
    indexing and combine act on the first of them.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v: np.ndarray, g: np.ndarray | None = None, h: np.ndarray | None = None):
        self._assign(v, g, h)

    def _map(self, fn) -> "TaylorField":
        return TaylorField(*(None if a is None else fn(a) for a in (self.v, self.g, self.h)))

    def __getitem__(self, i) -> "TaylorField":
        return self._map(lambda a: a[i])

    def combine(self, matrix) -> "TaylorField":
        """The stack of r fields sum_i matrix[:, i] * self[i], for a matrix of
        shape (r, len(self.v)).  (einsum, unlike tensordot, leaves BLAS and
        its buffers unloaded.)"""
        return self._map(lambda a: np.einsum("ri,i...->r...", matrix, a))


def generator_tensors(realization, points, order: int = 1) -> TaylorField:
    """The six generators at the sample points (a 1-D array point, or a 1-D
    array on the upsilon line; a single point is one sample), as one stack
    of fields in GENERATORS order: values, gradients from order 1 and
    Hessians at order 2 (None where not computed).  Another order, a bool
    included, raises ValueError.

    The table function (_compile) is evaluated once: at order 0 on the plain
    coordinates, else on jets whose derivative parts carry every direction
    on a leading axis: the coordinate axes (the gradient and the diagonal of
    the Hessian) and, at order 2, e_j + e_l for j < l, whose second
    derivative gives the mixed partial by polarization (Griewank and
    Walther, Evaluating Derivatives, ch. 13); at order 1 the jets are first
    order.  On the upsilon line the one direction is the complex derivative.
    """
    if isinstance(order, bool) or order not in (0, 1, 2):
        raise ValueError(f"derivative order {order!r} is not 0, 1 or 2")
    key = realization_key(realization)
    args = [np.atleast_1d(a) for a in point_args(realization, points)]
    m, shape = len(args), np.broadcast(*args).shape
    mixed = [(j, l) for j in range(m) for l in range(j + 1, m)] if order == 2 else []
    dtype = np.result_type(*args)
    v = np.empty((len(GENERATORS), m, *shape), dtype)
    g = np.empty((len(GENERATORS), m, m, *shape), dtype) if order else None
    h = np.empty((len(GENERATORS), m, m, m, *shape), dtype) if order == 2 else None
    jets = args
    if order:
        # one row per direction: the coordinate axes, then e_j + e_l
        directions = np.array([[float(j in d) for j in range(m)] for d in [(j,) for j in range(m)] + mixed])
        # each argument in one fresh jet level, as dual.partials lifts them, but
        # with all directions on one axis before the sample axis: one evaluation
        jets = [dual.Jet(a, directions[:, j, None], 0.0 if order == 2 else None) for j, a in enumerate(args)]
        # a derivative part holds one row per direction (a constant's is 0.0)
        d = np.empty((len(directions), *shape), dtype)
    for i, row in enumerate(_TABLE_FUNCTIONS[key](*jets)):
        for k, jet in enumerate(row):
            v[i, k] = dual.value(jet)
            if order:
                d[...] = dual.d1(jet)
                g[i, k] = d[:m]
            if order == 2:
                d[...] = dual.d2(jet)
                h[i, k, range(m), range(m)] = d[:m]
                for n, (j, l) in enumerate(mixed):
                    h[i, k, j, l] = h[i, k, l, j] = (d[m + n] - h[i, k, j, j] - h[i, k, l, l]) / 2
    return TaylorField(v, g, h)


def _bracket_values(xv, xg, yv, yg) -> np.ndarray:
    """The values of [x, y] from the values and gradients of x and y."""
    v = 0.0
    for j in range(xv.shape[-2]):
        v = v + xv[..., j, None, :] * yg[..., j, :]
        v = v - yv[..., j, None, :] * xg[..., j, :]
    return v


def taylor_bracket(x: TaylorField, y: TaylorField) -> TaylorField:
    """[x, y]_k = x_j d_j y_k - y_j d_j x_k, contracted from the tensors.

    x and y may be stacks of fields (leading axes that broadcast); the
    bracket then stacks the brackets of the pairs.  It carries its gradient
    when both operands carry Hessians, so a bracket of it needs no further
    differentiation; else its values only.  The sums run in the order of
    bracket() and of the jet product rule; the bracket of two generators
    equals bracket()'s values bitwise, and a stacked bracket equals the
    brackets of its pairs bitwise.
    """
    # axes from the end: v (k, n), g (k, j, n), h (k, j, l, n)
    v = _bracket_values(x.v, x.g, y.v, y.g)
    if x.h is None or y.h is None:
        return TaylorField(v)
    g = 0.0
    for j in range(x.v.shape[-2]):
        g = g + (x.v[..., j, None, None, :] * y.h[..., j, :, :] + x.g[..., None, j, :, :] * y.g[..., j, None, :])
        g = g - (y.v[..., j, None, None, :] * x.h[..., j, :, :] + y.g[..., None, j, :, :] * x.g[..., j, None, :])
    return TaylorField(v, g)


def jacobiator(x: TaylorField, y: TaylorField, z: TaylorField) -> np.ndarray:
    """Values of [[x, y], z] + [[y, z], x] + [[z, x], y]; the fields must
    carry Hessians, and may be stacks of triples."""
    outer = [taylor_bracket(taylor_bracket(a, b), c) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
    return outer[0].v + outer[1].v + outer[2].v


# --- the commutation table and sign ledgers ---------------------------------

# the table right-hand side of each ordered bracket pair (zero when absent)
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

# the ordered bracket pairs, in the table's order
BRACKET_PAIRS = tuple(BRACKET_RELATIONS)

QP_PAIRS = frozenset({(Q0, P0), (Q0, P1), (Q1, P0), (Q1, P1)})


def pair_label(g1: GeneratorId, g2: GeneratorId) -> str:
    return f"[{g1.value},{g2.value}]"


# every vector-field realization satisfies the table with exactly the
# four [q, p] brackets negated; keyed by the ledger's bracket labels
EXPECTED_FIELD_SIGNS = {
    pair_label(*pair): (-1 if pair in QP_PAIRS else 1) for pair in BRACKET_PAIRS
}


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


class SignLedger(Record):
    """Per-bracket record: +1 if the table holds as written, -1 if negated."""

    __slots__ = ("realization", "signs", "max_defect")

    def __init__(self, realization: str, signs: dict | None = None, max_defect: float = 0.0):
        self._assign(realization, {} if signs is None else signs, max_defect)

    @classmethod
    def matched(cls, realization: str, labels, d_plus, d_minus, tol: float, where: str = "") -> "SignLedger":
        """The ledger of the brackets labels[k], whose defects against +RHS
        and -RHS are d_plus[k] and d_minus[k]: each sign from match_sign at
        tol, and the worst defect of the matched signs.  tol only decides the
        sign; the caller judges max_defect against its own tolerance.  An
        unmatched bracket raises UnmatchedBracketError naming its label
        followed by where."""
        ledger = cls(realization)
        for label, dp, dm in zip(labels, d_plus, d_minus):
            ledger.signs[label], defect = match_sign(label + where, float(dp), float(dm), tol)
            ledger.max_defect = max(ledger.max_defect, defect)
        return ledger


def default_points(realization, n: int = 50, seed: int | str = 0):
    """n sample points of the realization, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    key = realization_key(realization)
    if key == UPSILON_LINE:
        return sampling.upsilon_points(n, rng)
    return sampling.chart_points(ChartId(key), n, rng)


def _sample_points(realization, points):
    """points, or default_points(realization) when None.  An empty set
    raises ValueError: with no sample every defect would read 0."""
    if points is None:
        return default_points(realization)
    if not np.broadcast(*point_args(realization, points)).size:
        raise ValueError(f"no sample points to check in {realization_key(realization)}")
    return points


# a field bracket within this defect of +RHS or -RHS takes that sign
MATCH_TOL = 1e-6


def _bracket_defects(fields: TaylorField, rows) -> tuple:
    """For each row (i, j, [(c, k), ...]), the largest |[f_i, f_j] - sum c f_k|
    and the largest |[f_i, f_j] + sum c f_k| over the samples (NaN kept), as
    two lists.  fields is a stack of value and gradient tensors, bracketed
    one pair at a time, as taylor_bracket brackets them."""
    d_plus, d_minus = [], []
    for i, j, terms in rows:
        bra = _bracket_values(fields.v[i], fields.g[i], fields.v[j], fields.g[j])
        rhs = 0.0
        for c, k in terms:
            rhs = rhs + c * fields.v[k]
        d_plus.append(np.abs(bra - rhs).max())
        # a zero right-hand side has one defect for both signs
        d_minus.append(np.abs(bra + rhs).max() if terms else d_plus[-1])
    return d_plus, d_minus


def structure_table(realization, points=None) -> SignLedger:
    """Match all 15 generator brackets against the table, recording signs.

    The brackets are contractions of the generators' value and gradient
    tensors (generator_tensors), one pair at a time (_bracket_defects).  A
    genuinely wrong bracket raises UnmatchedBracketError, and an empty point
    set ValueError.
    """
    points = _sample_points(realization, points)
    index = GENERATORS.index
    rows = [
        (index(g1), index(g2), [(c, index(g)) for g, c in BRACKET_RELATIONS[(g1, g2)].items()])
        for g1, g2 in BRACKET_PAIRS
    ]
    d_plus, d_minus = _bracket_defects(generator_tensors(realization, points), rows)
    key = realization_key(realization)
    labels = [pair_label(g1, g2) for g1, g2 in BRACKET_PAIRS]
    return SignLedger.matched(key, labels, d_plus, d_minus, MATCH_TOL, where=f" in {key}")


# --- eigenactions on the solution family -------------------------------------

def act(g: GeneratorId, alpha: complex, p: ChartPoint) -> complex:
    """Apply generator g (in p's chart realization) to the alpha-solution.

    alpha and the coordinates of p may be arrays of one sample shape."""
    x = generator(g, p.chart)
    return apply_to_function(x, SolutionFamily(alpha, p.chart), p)


def eigenactions(alpha: complex, p: ChartPoint) -> list:
    """(act(g, alpha, p), alpha * c_g(u) * u^(alpha - 1)) for each g in
    GENERATORS, c_g its upsilon-line coefficient and u the solution
    coordinate SolutionFamily(1) at p: the acted and the table value of g on
    the alpha-solution u^alpha, which g acts on as c_g(u) d/du.  They come
    from one evaluation of each table function, one gradient of the
    alpha-solution and one SolutionFamily(alpha - 1) call."""
    args = point_args(p.chart, p)
    grad = [dual.d1(g) for g in dual.partials(SolutionFamily(alpha, p.chart), args)]
    lowered = alpha * SolutionFamily(alpha - 1, p.chart)(*args)
    line = _TABLE_FUNCTIONS[UPSILON_LINE](SolutionFamily(1, p.chart)(*args))
    return [
        (_apply_with_gradient(coeffs, grad), c * lowered)
        for coeffs, (c,) in zip(_TABLE_FUNCTIONS[p.chart.value](*args), line)
    ]


# --- rotation packaging in R^{3,1} -------------------------------------------

# the rotation operators s_ab, a < b in 0..3, as combinations of generators:
# s_a2 = (q_a - p_a)/2, s_a3 = -(q_a + p_a)/2, s_23 = b, s_01 unchanged
SO31_PACKING = {
    (0, 1): {S01: 1.0},
    (0, 2): {Q0: 0.5, P0: -0.5},
    (0, 3): {Q0: -0.5, P0: -0.5},
    (1, 2): {Q1: 0.5, P1: -0.5},
    (1, 3): {Q1: -0.5, P1: -0.5},
    (2, 3): {B: 1.0},
}

SO31_INDEX_PAIRS = tuple(SO31_PACKING)

# the 15 brackets of two distinct packed rotations, in the ledger's order
SO31_BRACKET_PAIRS = tuple(itertools.combinations(SO31_INDEX_PAIRS, 2))


def packed_label(a: tuple, b: tuple) -> str:
    """The ledger label of the packed bracket [s_a, s_b], such as "[s02,s03]"."""
    return f"[s{a[0]}{a[1]},s{b[0]}{b[1]}]"


# SO31_PACKING as a 6x6 matrix: rows s_ab, columns GENERATORS
SO31_PACK_MATRIX = np.array([[row.get(g, 0.0) for g in GENERATORS] for row in SO31_PACKING.values()])

MINKOWSKI_METRIC = (1.0, 1.0, 1.0, -1.0)
# a metric under which a packed bracket misses its signed right-hand side by
# more than this fails minkowski_check's scan
SCAN_TOL = 1e-8

# every vector-field realization negates exactly the four packed brackets
# that reduce to [q, p] brackets; keyed by the ledger's bracket labels
_QP_PACKED_PAIRS = frozenset({((0, 2), (0, 3)), ((0, 2), (1, 2)), ((0, 3), (1, 3)), ((1, 2), (1, 3))})
MINKOWSKI_FIELD_SIGNS = {
    packed_label(a, b): (-1 if (a, b) in _QP_PACKED_PAIRS else 1) for a, b in SO31_BRACKET_PAIRS
}


def so31_pack(realization) -> dict:
    """The six rotation operators s_ab of SO31_PACKING as vector fields; a
    single generator is returned as it is."""
    out = {}
    for (a, b), row in SO31_PACKING.items():
        terms = [(c, generator(g, realization)) for g, c in row.items()]
        if len(terms) == 1 and terms[0][0] == 1.0:
            out[(a, b)] = terms[0][1]
        else:
            out[(a, b)] = lincomb(terms, realization)
    return out


def _shared_index(a: tuple, b: tuple):
    """The index two distinct rotations s_a and s_b share, or None."""
    common = set(a) & set(b)
    return common.pop() if common else None


def _so31_rhs_terms(a: tuple, b: tuple, metric) -> list:
    """RHS of the packed relation [s_a, s_b] as signed index pairs.

    Two distinct rotations share at most one index x, and with s_yx = -s_xy
    the relation reads [s_xy, s_xz] = -g_xx s_yz: +-g_xx times the rotation
    on the other two indices.  Rotations that share no index commute.
    """
    x = _shared_index(a, b)
    if x is None:
        return []
    y, z = a[1 - a.index(x)], b[1 - b.index(x)]
    sign = (-1) ** (1 + a.index(x) + b.index(x) + (y > z))
    return [(sign * metric[x], (min(y, z), max(y, z)))]


class MinkowskiResult(Record):
    """Outcome of the packed-relation check and the metric-forcing scan."""

    __slots__ = ("realization", "ledger", "passing_metrics", "metric_forced")

    def __init__(self, realization: str, ledger: SignLedger, passing_metrics: list, metric_forced: bool):
        self._assign(realization, ledger, passing_metrics, metric_forced)


def minkowski_check(realization, points=None) -> MinkowskiResult:
    """Verify the packed relation with metric diag(1,1,1,-1) and show the
    metric is forced: with the recorded per-bracket signs held fixed, every
    other diagonal sign pattern must break at least one bracket.

    The right-hand side of a bracket is +-g_xx times one rotation, x the
    index its two rotations share (_so31_rhs_terms), or zero.  Under a
    diagonal sign metric it is metric[x] * eta[x] times the Minkowski one
    (eta), and multiplying by -1 is exact, so the scan takes each bracket's
    defect from the ledger's d_plus when ledger sign * metric[x] * eta[x] > 0
    and from d_minus otherwise (they agree for a zero right-hand side),
    instead of recomputing it per metric; it still stops at a metric's first
    broken bracket.  An empty point set raises ValueError.
    """
    points = _sample_points(realization, points)
    labels = [packed_label(a, b) for a, b in SO31_BRACKET_PAIRS]
    index = SO31_INDEX_PAIRS.index
    rows = [
        (index(a), index(b), [(c, index(ab)) for c, ab in _so31_rhs_terms(a, b, MINKOWSKI_METRIC)])
        for a, b in SO31_BRACKET_PAIRS
    ]
    pack = generator_tensors(realization, points).combine(SO31_PACK_MATRIX)
    d_plus, d_minus = _bracket_defects(pack, rows)
    key = realization_key(realization)
    ledger = SignLedger.matched(key, labels, d_plus, d_minus, MATCH_TOL)
    shared = [_shared_index(a, b) for a, b in SO31_BRACKET_PAIRS]
    passing = []
    for bits in range(16):
        metric = tuple(1.0 if bits & (1 << k) == 0 else -1.0 for k in range(4))
        # one pair at a time, stopping at the first broken one
        for label, x, dp, dm in zip(labels, shared, d_plus, d_minus):
            flip = 1.0 if x is None else metric[x] * MINKOWSKI_METRIC[x]
            if (dp if ledger.signs[label] * flip > 0 else dm) > SCAN_TOL:
                break
        else:
            passing.append(metric)
    return MinkowskiResult(key, ledger, passing_metrics=passing, metric_forced=passing == [MINKOWSKI_METRIC])


# --- circle functions and the packed multiplier tensor -----------------------

def _reciprocal(name: str, u):
    """(u, 1/u) for cn and sn, a single u as a 0-d array.  A non-finite u
    raises ValueError, and one whose 1/u overflows ZeroDivisionError, each
    naming the first bad sample."""
    u = np.asarray(u)
    reject(~np.isfinite(u), ValueError, f"{name} argument {{}} is not finite", u)
    reject(u == 0, ZeroDivisionError, f"{name} undefined at u = 0")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / u
    reject(~np.isfinite(inv), ZeroDivisionError, f"{name} undefined at u = {{}}: 1/u overflows", u)
    return u, inv


def cn(u: complex) -> complex:
    """(u + 1/u)/2; the disk-flow (Joukowski) map, cos on the unit circle."""
    u, inv = _reciprocal("cn", u)
    return plain((u + inv) / 2.0)


def sn(u: complex) -> complex:
    """(u - 1/u)/(2i); sin on the unit circle."""
    u, inv = _reciprocal("sn", u)
    return plain((u - inv) / 2j)


def angular_tensor(u: complex) -> np.ndarray:
    """Multipliers m_ab with s_ab = m_ab(u) * (u d/du) on the upsilon line.

    Antisymmetric 4x4 complex matrix built from cn and sn; for an array u
    the sample axis comes last, shape (4, 4, n)."""
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

def substituted_rows(chart: ChartId, points: ChartPoint) -> np.ndarray:
    """The upsilon-line fields c_g(u) d/du (generator_tensors at order 0, u = SolutionFamily(1,
    chart)) as chart rows at the points, shaped as generator_tensors(chart, points).v:
    (k Re w_g, Im w_g) for w_g = c_g(u)/u and k = R/R' (radial_scale) on an angular chart,
    as u = R(y0) e^{i phi} gives du/u = dy0/k + i dphi, and (Re c_g, Im c_g) on cartesian."""
    args = [np.atleast_1d(a) for a in point_args(chart, points)]
    u = SolutionFamily(1, chart)(*args)
    w = generator_tensors(UPSILON_LINE, u, order=0).v[:, 0]
    if chart is ChartId.CARTESIAN:
        return np.stack((w.real, w.imag), axis=1)
    w /= u
    return np.stack((radial_scale(chart, args[0]) * w.real, w.imag), axis=1)


def tangent_curve(eps: float, p: ChartPoint) -> complex:
    """Point of the dilation flow curve c(eps) = e^eps * u(p).

    Its eps-derivative at 0 equals (tan(theta) d_theta u)(p), and it agrees
    with sin(theta + eps*tan(theta)) e^{i phi} to second order in eps; p
    must be a holographic point."""
    point_args(ChartId.HOLOGRAPHIC, p)
    return math.exp(eps) * solve(1.0, p)
