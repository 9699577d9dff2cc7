"""Array evaluation against per-point references.

Every function that accepts an array point (coordinates stacked over the
samples) must give, sample by sample, what the same function gives at each
plain point.  A plain point goes through the same code as an array, so where
a comparison with the function itself would check nothing, the reference is
computed here with Python's float and complex arithmetic, cmath and math,
or, where a function divides complex numbers or takes their modulus, with
numpy's scalars one point at a time.
"""

import cmath
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from holoconf import algebra, charts, dual, grids, laplace, projective, suites
from holoconf import bicomplex as bc
from holoconf.algebra import B, GENERATORS, P0, P1, Q0, Q1, S01, UPSILON_LINE
from holoconf.bicomplex import Bicomplex
from holoconf.charts import ChartId, ChartPoint, DomainError
from holoconf.projective import ProjectivePoint, Ring, S3Point, SpinMatrix
from holoconf.sampling import (
    bicomplex_batch,
    chart_points,
    scale_dimensions,
    uniform,
    upsilon_points,
    words,
)

ALL_CHARTS = tuple(ChartId)
REALIZATIONS = algebra.REALIZATIONS


def assert_close(batched, scalar, tol=1e-14):
    batched, scalar = np.asarray(batched), np.asarray(scalar)
    assert batched.shape == scalar.shape
    assert np.all(np.abs(batched - scalar) <= tol * (1.0 + np.abs(scalar)))


def scalar_field_values(x, pts):
    rows = []
    for p in pts:
        args = algebra.point_args(x.realization, p)
        rows.append([complex(dual.value(c)) for c in x.coeffs(*args)])
    return np.array(rows)


def test_jet_defers_to_array_operands():
    arr = np.array([1.0, 2.0, 3.0])
    j = dual.seed(0.5)
    for out in (arr * j, arr + j, arr - j, arr / j):
        assert isinstance(out, dual.Jet)
    assert np.all((arr * j).f == arr * 0.5)
    assert np.all(dual.sin(dual.seed(arr)).d1 == np.cos(arr))


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_field_values_match_per_point_evaluation(realization):
    pts = algebra.default_points(realization, n=30, seed=5)
    g = {gid: algebra.generator(gid, realization) for gid in GENERATORS}
    one = algebra.bracket(g[Q0], g[P0])
    nested = algebra.bracket(one, g[Q1])
    for field in (*g.values(), one, nested):
        assert_close(algebra.field_values(field, pts), scalar_field_values(field, pts))


def closure_gradient(x, pts):
    """d_j of each coefficient of x by jet-lifting the stacked arguments,
    shape (arity, arity, npts) as TaylorField.g."""
    args = algebra.point_args(x.realization, pts)
    # [j][k]: coefficient k of x along coordinate j
    along = [x.coeffs(*(dual.Jet(a, float(i == j), 0.0) for i, a in enumerate(args))) for j in range(x.arity)]
    return np.array(
        [[np.broadcast_to(dual.d1(along[j][k]), np.shape(args[0])) for j in range(x.arity)] for k in range(x.arity)]
    )


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_taylor_brackets_match_the_closure_path(realization):
    pts = algebra.default_points(realization, n=30, seed=7)
    g = {gid: algebra.generator(gid, realization) for gid in GENERATORS}
    tensors = algebra.generator_tensors(realization, pts, order=2)
    t = {gid: tensors[i] for i, gid in enumerate(GENERATORS)}
    for gid in GENERATORS:
        assert_close(t[gid].v.T, algebra.field_values(g[gid], pts), tol=1e-13)
        assert_close(t[gid].g, closure_gradient(g[gid], pts), tol=1e-13)
    for g1, g2 in algebra.BRACKET_PAIRS:
        ref = algebra.bracket(g[g1], g[g2])
        got = algebra.taylor_bracket(t[g1], t[g2])
        assert_close(got.v.T, algebra.field_values(ref, pts), tol=1e-13)
        assert_close(got.g, closure_gradient(ref, pts), tol=1e-13)
    nested = algebra.bracket(algebra.bracket(g[Q0], g[P0]), g[Q1])
    got = algebra.taylor_bracket(algebra.taylor_bracket(t[Q0], t[P0]), t[Q1])
    assert_close(got.v.T, algebra.field_values(nested, pts), tol=1e-13)


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_taylor_brackets_are_the_closure_brackets_bitwise(realization):
    # taylor_bracket sums in bracket()'s order, so all 15 table brackets
    # agree to the last bit
    pts = algebra.default_points(realization, n=30, seed=7)
    tensors = algebra.generator_tensors(realization, pts)
    for g1, g2 in algebra.BRACKET_PAIRS:
        got = algebra.taylor_bracket(tensors[GENERATORS.index(g1)], tensors[GENERATORS.index(g2)])
        ref = algebra.bracket(algebra.generator(g1, realization), algebra.generator(g2, realization))
        want = algebra.field_values(ref, pts)
        assert got.v.T.astype(complex).tobytes() == want.tobytes(), (g1, g2)


def test_taylor_structure_table_covers_polar():
    ledger = algebra.structure_table(ChartId.POLAR, points=algebra.default_points(ChartId.POLAR, n=200))
    assert ledger.signs == algebra.EXPECTED_FIELD_SIGNS
    assert ledger.max_defect <= 1e-12


def per_direction_tensors(realization, points):
    """generator_tensors as one 2-jet pass per direction, one coefficient at
    a time: the reference for its single all-directions pass."""
    args = algebra.point_args(realization, points)
    m, shape = len(args), np.shape(args[0])
    fields = [algebra.generator(gid, realization) for gid in GENERATORS]
    dtype = np.result_type(*args)
    v = np.empty((6, m, *shape), dtype)
    g = np.empty((6, m, m, *shape), dtype)
    h = np.zeros((6, m, m, m, *shape), dtype)

    def along(*axes):
        jets = [dual.Jet(a, float(j in axes), 0.0) for j, a in enumerate(args)]
        for i, x in enumerate(fields):
            for k, c in enumerate(x.coeffs(*jets)):
                yield i, k, c

    for j in range(m):
        for i, k, jet in along(j):
            v[i, k] = dual.value(jet)
            g[i, k, j] = dual.d1(jet)
            h[i, k, j, j] = dual.d2(jet)
    for j in range(m):
        for l in range(j + 1, m):
            for i, k, jet in along(j, l):
                h[i, k, j, l] = h[i, k, l, j] = (dual.d2(jet) - h[i, k, j, j] - h[i, k, l, l]) / 2
    return v, g, h


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_generator_tensors_are_the_per_direction_jets(realization):
    pts = algebra.default_points(realization, n=40, seed=9)
    v, g, h = per_direction_tensors(realization, pts)
    values, first, full = (algebra.generator_tensors(realization, pts, order=n) for n in (0, 1, 2))
    assert values.g is None and values.h is None and first.h is None
    for got in (first, full):
        assert np.array_equal(got.v, v) and np.array_equal(got.g, g)
    assert np.array_equal(full.h, h)
    # order 0 evaluates the table on the plain coordinates: the same values
    # to the last bit
    assert values.v.dtype == full.v.dtype and values.v.tobytes() == first.v.tobytes() == full.v.tobytes()
    # a single point is one sample
    one_values, one = (algebra.generator_tensors(realization, pts[3], order=n) for n in (0, 2))
    bra = algebra.taylor_bracket(one[:, None], one[None])
    assert one.v.shape == (6, *full.v.shape[1:-1], 1) and bra.g.shape[-1] == 1
    for got, want in ((one.v, v), (one.g, g), (one.h, h)):
        assert_close(got[..., 0], want[..., 3])
    assert one_values.g is None and one_values.h is None
    assert one_values.v.shape == one.v.shape and one_values.v.tobytes() == one.v.tobytes()


@pytest.mark.parametrize("order", (True, False, -1, 3, 1.5, "2", None), ids=repr)
def test_generator_tensors_reject_an_order_outside_0_1_2(order):
    # a positional True once asked for Hessians; read as 1 it would silently
    # drop them
    with pytest.raises(ValueError, match=r"^derivative order .* is not 0, 1 or 2$"):
        algebra.generator_tensors(ChartId.POLAR, algebra.default_points(ChartId.POLAR, n=3), order)


def jet_parts(x):
    """The value and derivative parts of a jet (one part for a plain value),
    as arrays."""
    if not isinstance(x, dual.Jet):
        return [np.asarray(x)]
    return [np.asarray(part) for part in (x.f, x.d1, x.d2) if part is not None]


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_table_functions_are_the_coefficient_callables(realization):
    # the shared-call table function and generator()'s rows of it against
    # each table string compiled on its own, every call evaluated where it
    # stands: every part of every coefficient agrees bitwise
    key = algebra.realization_key(realization)
    head = f"lambda {', '.join(algebra.COORDINATE_NAMES[key])}: "
    namespace = {
        "__builtins__": {},
        "sin": dual.sin,
        "cos": dual.cos,
        "tan": lambda x: dual.sin(x) / dual.cos(x),
        "exp": dual.exp,
        "i": 1j,
    }
    own = {
        gid: [eval(head + algebra._expression(text), dict(namespace)) for text in row]
        for gid, row in algebra.GENERATOR_TABLE_STRINGS[key].items()
    }
    args = algebra.point_args(realization, algebra.default_points(realization, n=20, seed=5))
    m = len(args)
    inputs = {
        "plain": args,
        "first-order": [dual.Jet(a, 1.0, None) for a in args],
        "hessian": [dual.Jet(a, np.eye(m)[:, j, None], 0.0) for j, a in enumerate(args)],
    }
    for kind, ys in inputs.items():
        table = algebra._TABLE_FUNCTIONS[key](*ys)
        assert len(table) == len(GENERATORS)
        for gid, row in zip(GENERATORS, table):
            for got in (row, algebra.generator(gid, realization).coeffs(*ys)):
                assert len(got) == len(own[gid]) == m
                for k, (jet, c) in enumerate(zip(got, own[gid])):
                    want = [part.tobytes() for part in jet_parts(c(*ys))]
                    assert [part.tobytes() for part in jet_parts(jet)] == want, (kind, gid, k)


@pytest.mark.parametrize("order", (1, 2), ids=("gradients", "hessians"))
@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_stacked_brackets_are_the_per_pair_brackets(realization, order):
    pts = algebra.default_points(realization, n=9, seed=11)
    gens = algebra.generator_tensors(realization, pts, order=order)
    # every ordered pair at once: a (6, 1) stack against a (1, 6) stack
    table = algebra.taylor_bracket(gens[:, None], gens[None])
    # index stacks, as the Jacobi check draws its triples
    first, second = np.transpose([[GENERATORS.index(g) for g in pair] for pair in algebra.BRACKET_PAIRS])
    drawn = algebra.taylor_bracket(gens[first], gens[second])
    for i, j, got in [(i, j, table[i, j]) for i in range(6) for j in range(6)] + [
        (i, j, drawn[n]) for n, (i, j) in enumerate(zip(first, second))
    ]:
        want = algebra.taylor_bracket(gens[i], gens[j])
        assert np.array_equal(got.v, want.v)
        assert (got.g is None) is (want.g is None) is (order == 1)
        assert order == 1 or np.array_equal(got.g, want.g)


def table_rows(packed):
    """The bracket rows (i, j, [(c, k), ...]) of structure_table, or of
    minkowski_check on the SO(3,1) packing."""
    if not packed:
        index = GENERATORS.index
        return [
            (index(g1), index(g2), [(c, index(g)) for g, c in algebra.BRACKET_RELATIONS[(g1, g2)].items()])
            for g1, g2 in algebra.BRACKET_PAIRS
        ]
    index = algebra.SO31_INDEX_PAIRS.index
    return [
        (index(a), index(b), [(c, index(ab)) for c, ab in algebra._so31_rhs_terms(a, b, algebra.MINKOWSKI_METRIC)])
        for a, b in itertools.combinations(algebra.SO31_INDEX_PAIRS, 2)
    ]


@pytest.mark.parametrize("packed", (False, True), ids=("generators", "so31-packing"))
@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_bracket_defects_are_the_per_pair_taylor_bracket_defects(realization, packed):
    # _bracket_defects brackets straight from the stacked tensors; each
    # defect is bitwise the one of taylor_bracket on the indexed pair, a NaN
    # sample included
    fields = algebra.generator_tensors(realization, algebra.default_points(realization, n=30, seed=17))
    if packed:
        fields = fields.combine(algebra.SO31_PACK_MATRIX)
    poisoned = fields.v.copy()
    poisoned[2, 0, 7] = np.nan
    rows = table_rows(packed)
    for stack in (fields, algebra.TaylorField(poisoned, fields.g)):
        d_plus, d_minus = algebra._bracket_defects(stack, rows)
        assert len(d_plus) == len(d_minus) == len(rows)
        for (i, j, terms), dp, dm in zip(rows, d_plus, d_minus):
            bra = algebra.taylor_bracket(stack[i], stack[j]).v
            rhs = sum((c * stack.v[k] for c, k in terms), 0.0)
            assert np.asarray(dp).tobytes() == np.max(np.abs(bra - rhs)).tobytes()
            assert np.asarray(dm).tobytes() == np.max(np.abs(bra + rhs)).tobytes()
    assert any(map(math.isnan, d_plus))


def stacked_tensor(rows, p):
    """charts._tensor as a recursive np.stack of entries broadcast to p's
    samples: the reference for its in-place fill."""
    if isinstance(rows, list):
        return np.stack([stacked_tensor(r, p) for r in rows])
    return np.broadcast_to(rows, np.broadcast_shapes(np.shape(p.y0), np.shape(p.y1)))


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_chart_tensors_are_the_stacked_entries(chart, monkeypatch):
    # a single point, a one-element array point and an n-point array point,
    # the cartesian constants included
    p = chart_points(chart, 9, random.Random(23))
    fns = (charts.basis, charts.basis_closed_form, charts.metric_closed_form, charts.jacobian_mixed_closed_form)
    for q, shape in ((p[4], ()), (p[4:5], (1,)), (p, (9,))):
        got = [fn(q) for fn in fns]
        with monkeypatch.context() as m:
            m.setattr(charts, "_tensor", stacked_tensor)
            want = [fn(q) for fn in fns]
        for fn, a, b in zip(fns, got, want):
            assert np.shape(a) == np.shape(b) == (2, 2, *shape), fn.__name__
            assert np.asarray(a).dtype == np.asarray(b).dtype == np.float64
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), fn.__name__


@pytest.mark.parametrize("realization", REALIZATIONS, ids=algebra.realization_key)
def test_stacked_jacobiator_is_the_per_triple_jacobiator(realization):
    pts = algebra.default_points(realization, n=7, seed=13)
    gens = algebra.generator_tensors(realization, pts, order=2)
    triples = list(itertools.combinations(range(6), 3)) + [(5, 0, 2), (1, 1, 4)]
    got = algebra.jacobiator(*(gens[list(t)] for t in zip(*triples)))
    assert got.shape == (len(triples), *gens.v.shape[1:])
    for row, (x, y, z) in zip(got, triples):
        assert np.array_equal(row, algebra.jacobiator(gens[x], gens[y], gens[z]))


def per_pair_matrix_table(ring):
    """matrix_bracket_table as one commutator per pair, in Python numbers."""
    gens = {g: projective.matrix_rep(g, ring) for g in projective.supported_generators(ring)}
    zero = projective.identity(ring).scaled(projective._ring_scalar(ring, 0.0))
    signs, worst = {}, 0.0
    for g1, g2 in algebra.BRACKET_PAIRS:
        if g1 not in gens or g2 not in gens:
            continue
        bra = projective.commutator(gens[g1], gens[g2])
        rhs = zero
        for g, coeff in algebra.BRACKET_RELATIONS[(g1, g2)].items():
            rhs = rhs + gens[g].scaled(coeff)
        sign, defect = algebra.match_sign(
            "", bra.max_abs_diff(rhs), bra.max_abs_diff(rhs.scaled(-1.0)), 1e-12
        )
        signs[algebra.pair_label(g1, g2)] = sign
        worst = max(worst, defect)
    return signs, worst


@pytest.mark.parametrize("ring", list(Ring), ids=str)
def test_stacked_matrix_table_is_the_per_pair_table(ring):
    ledger = projective.matrix_bracket_table(ring)
    signs, worst = per_pair_matrix_table(ring)
    assert ledger.signs == signs == projective.EXPECTED_MATRIX_SIGNS[ring]
    assert type(ledger.max_defect) is float and ledger.max_defect == worst


def _jet_operations():
    c = 0.7
    binary = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "hypot": dual.hypot,
        "atan2": dual.atan2,
    }
    unary = {
        "add-const": lambda a: a + c,
        "radd": lambda a: c + a,
        "sub-const": lambda a: a - c,
        "rsub": lambda a: c - a,
        "neg": lambda a: -a,
        "mul-const": lambda a: a * c,
        "rmul": lambda a: c * a,
        "div-const": lambda a: a / c,
        "rdiv": lambda a: c / a,
        "pow3": lambda a: a**3,
        "pow0": lambda a: a**0,
        "pow-2": lambda a: a ** (-2),
        "pow-half": lambda a: a**0.5,
        "sin": dual.sin,
        "cos": dual.cos,
        "sincos-sin": lambda a: dual.sincos(a)[0],
        "sincos-cos": lambda a: dual.sincos(a)[1],
        "exp": dual.exp,
        "log": dual.log,
        "sqrt": dual.sqrt,
        "atan2-x-const": lambda a: dual.atan2(a, c),
        "atan2-y-const": lambda a: dual.atan2(c, a),
    }
    return binary, unary


def test_first_order_jets_keep_the_value_and_first_derivative():
    rng = np.random.default_rng(3)
    f, d1, d2 = (rng.uniform(0.5, 2.0, (3, 50)) * [[1], [-1], [1]] for _ in range(3))
    full = [dual.Jet(f[k], d1[k], d2[k]) for k in range(3)]
    first = [dual.Jet(f[k], d1[k], None) for k in range(3)]
    binary, unary = _jet_operations()
    cases = [(op, (0,)) for op in unary.values()] + [(op, (0, 1)) for op in binary.values()]
    cases += [(lambda a, b, c: a * b / c + dual.sin(a) * c, (0, 1, 2))]
    for op, slots in cases:
        want = op(*(full[k] for k in slots))
        # every operand first order, and one first-order operand among full ones
        for mixed in [[first[k] for k in slots]] + [
            [first[k] if k == n else full[k] for k in slots] for n in slots
        ]:
            got = op(*mixed)
            assert got.d2 is None
            assert np.array_equal(got.f, want.f) and np.array_equal(got.d1, want.d1)
            with pytest.raises(ValueError, match="first-order"):
                dual.d2(got)


def test_laplacian_of_a_first_order_jet_fails():
    p = chart_points(ChartId.POLAR, 5, random.Random(2))
    with pytest.raises(ValueError, match="first-order jet carries no second derivative"):
        laplace.laplacian(lambda y0, y1: y0 * dual.Jet(y1, 0.0, None), p)
    assert dual.d2(0.5) == 0.0 and dual.d2(dual.seed(0.5)) == 0.0


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_act_solve_laplacian_with_array_alpha(chart):
    rng = random.Random(6)
    p = chart_points(chart, 20, rng)
    alpha = scale_dimensions(20, rng)
    assert_close(
        laplace.solve(alpha, p),
        [laplace.solve(a, q) for a, q in zip(alpha, p)],
    )
    # the solutions' Laplacians vanish to roundoff, so compare on a function
    # whose Laplacian does not
    f = lambda y0, y1: dual.exp(0.3 * y0) * dual.cos(y1) * y0
    assert_close(laplace.laplacian(f, p), [laplace.laplacian(f, q) for q in p])
    u = laplace.solve(alpha, p)
    assert np.all(laplace.residual(alpha, p) <= 1e-10 * (1.0 + np.abs(u)))
    for g in GENERATORS:
        assert_close(
            algebra.act(g, alpha, p), [algebra.act(g, a, q) for a, q in zip(alpha, p)]
        )
    # the paper's eigen-action table: g u^alpha = factor * alpha * u^(alpha + shift)
    table = {B: (1, 0), S01: (1j, 0), P0: (1, -1), P1: (1j, -1), Q0: (1, 1), Q1: (-1j, 1)}
    for g, (_, expected) in zip(GENERATORS, algebra.eigenactions(alpha, p)):
        factor, shift = table[g]
        assert_close(expected, [factor * a * laplace.solve(a + shift, q) for a, q in zip(alpha, p)])


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_chart_tensors_on_array_points(chart):
    p = chart_points(chart, 25, random.Random(7))
    # len and indexing of an array point; iterating it gives the single points
    assert len(p) == 25 and p[3].chart is chart
    assert np.array_equal(p[3:9:2].y0, p.y0[3:9:2]) and np.array_equal(p[3:9:2].y1, p.y1[3:9:2])
    for fn in (charts.basis, charts.basis_closed_form):
        batched = fn(p)
        for k in (0, 1):
            assert batched[k].shape == (2, len(p))
            assert_close(batched[k], np.stack([fn(q)[k] for q in p], axis=-1))
    for fn in (
        charts.metric,
        charts.jacobian_lower,
        charts.jacobian_mixed,
        charts.jacobian_mixed_closed_form,
    ):
        batched = fn(p)
        assert batched.shape == (2, 2, len(p))
        assert_close(batched, np.stack([fn(q) for q in p], axis=-1))
    q = charts.invert(chart, *charts.embed(p))
    scalar = [charts.invert(chart, *charts.embed(r)) for r in p]
    assert_close(q.y0, [r.y0 for r in scalar])
    assert_close(q.y1, [r.y1 for r in scalar])


CHART_RANGES = {
    ChartId.POLAR: (0.3, 2.2),
    ChartId.HOLOGRAPHIC: (0.15, math.pi / 2 - 0.15),
    ChartId.CONFORMAL: (-1.0, 1.0),
}
SAMPLED = (*(str(c) for c in ALL_CHARTS), UPSILON_LINE, "scale-dimensions")


def sampler_draws(name: str, n: int, rng: random.Random) -> tuple:
    """The arrays the sampler of name returns."""
    if name == UPSILON_LINE:
        return (upsilon_points(n, rng),)
    if name == "scale-dimensions":
        return (scale_dimensions(n, rng),)
    p = chart_points(ChartId(name), n, rng)
    return (p.y0, p.y1)


def ref_draws(name: str, n: int, rng: random.Random) -> tuple:
    """The same values as lists, drawn one sample at a time."""
    rows = []
    for _ in range(n):
        if name == UPSILON_LINE:
            r = rng.uniform(0.4, 1.6)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rows.append((complex(r * math.cos(phi), r * math.sin(phi)),))
        elif name == "scale-dimensions":
            rows.append((complex(rng.uniform(-3, 3), rng.uniform(-1, 1)),))
        elif name == "cartesian":
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.3, 2.2)
            rows.append((r * math.cos(phi), r * math.sin(phi)))
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rows.append((rng.uniform(*CHART_RANGES[ChartId(name)]), phi))
    return tuple(map(list, zip(*rows)))


@pytest.mark.parametrize("name", SAMPLED)
@pytest.mark.parametrize("n", (0, 1, 257))
def test_samplers_make_the_per_point_draws(name, n):
    rng, rng_ref = random.Random(18), random.Random(18)
    got, want = sampler_draws(name, n, rng), ref_draws(name, n, rng_ref)
    assert rng.getstate() == rng_ref.getstate()
    dtype = float if name in map(str, ALL_CHARTS) else complex
    for k, g in enumerate(got):
        assert g.dtype == dtype and g.shape == (n,)
        assert g.tobytes() == np.array(want[k] if n else [], dtype=dtype).tobytes()


@pytest.mark.parametrize("n", (0, 1, 3, 682, 683, 4095, 4096, 4097))
def test_uniform_and_words_make_the_per_call_draws(n):
    # uniform draws 8192 values a block: 4096 samples of two ranges fill one,
    # and 683 samples of twelve ranges (a draw of three bicomplex numbers) cross it
    rng, rng_ref = random.Random(n), random.Random(n)
    for ranges in ([(-2, 2), (0.5, 7.0)], [(-2, 2), (0, 6), (-0.8, 0.8)] * 4):
        got = uniform(n, rng, *ranges)
        want = [[rng_ref.uniform(*r) for r in ranges] for _ in range(n)]
        assert rng.getstate() == rng_ref.getstate()
        assert len(got) == len(ranges)
        for k, g in enumerate(got):
            assert g.dtype == float and g.tobytes() == np.array([w[k] for w in want], float).tobytes()
    raw = words(rng, 2 * n + 1)
    assert raw.dtype == np.uint32
    assert raw.tolist() == [rng_ref.getrandbits(32) for _ in range(2 * n + 1)]
    assert rng.getstate() == rng_ref.getstate()


def ref_mobius_draws(n: int, rng: random.Random) -> list:
    """mobius_group_action's draws made one rng.uniform call at a time: the
    second index skips the first, so the pair is distinct."""
    rows = []
    for _ in range(n):
        first, s = math.floor(rng.uniform(0, 6)), math.floor(rng.uniform(0, 5))
        eps_m, eps_n = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rows.append((first, s + 1 if s >= first else s, eps_m, eps_n, v))
    return rows


@pytest.mark.parametrize("n", (0, 1, 2, 1365, 1366, 1367))
def test_mobius_draws_make_the_per_call_draws(n):
    # six values a sample: 1366 samples cross uniform's 8192-value block
    for seed in range(10):
        rng, rng_ref = random.Random(seed), random.Random(seed)
        got = suites._mobius_draws(n, rng)
        want = ref_mobius_draws(n, rng_ref)
        assert rng.getstate() == rng_ref.getstate()
        for k, dtype in enumerate((float, float, float, float, complex)):
            assert got[k].dtype == dtype and got[k].shape == (n,)
            assert got[k].tobytes() == np.array([w[k] for w in want], dtype).tobytes()


def test_mobius_draws_are_distinct_generator_pairs():
    first, second, *_ = suites._mobius_draws(10000, random.Random(4))
    assert np.all(first != second)
    pairs = set(zip(first.tolist(), second.tolist()))
    assert pairs == {(i, j) for i in range(6) for j in range(6) if i != j}


def ref_polynomial(c):
    """One cubic sum c[i][j] x0^i x1^j with Python float coefficients."""

    def f(x0, x1):
        pow0, pow1 = [x0**i for i in range(4)], [x1**j for j in range(4)]
        acc = 0.0
        for i in range(4):
            for j in range(4 - i):
                acc = acc + c[i][j] * pow0[i] * pow1[j]
        return acc

    return f


def test_random_polynomial_makes_the_per_call_draws():
    for seed in range(50):
        rng, rng_seq, rng_ref = random.Random(seed), random.Random(seed), random.Random(seed)
        coeffs = suites._random_polynomial(rng, 3)
        seq = [suites._random_polynomial(rng_seq, 1) for _ in range(3)]
        c = [[[rng_ref.uniform(-1, 1) for _ in range(4)] for _ in range(4)] for _ in range(3)]
        assert rng.getstate() == rng_seq.getstate() == rng_ref.getstate()
        assert coeffs.shape == (4, 4, 3, 1)
        assert coeffs.tobytes() == np.concatenate(seq, axis=2).tobytes()
        assert coeffs.tobytes() == np.transpose(c, (1, 2, 0))[..., None].tobytes()
        for x0, x1 in ((0.7, -1.3), (2.1, 0.4), (-0.9, 1.7)):
            got = suites._polynomial(coeffs, x0, x1)
            assert got.shape == (3, 1)
            for k in range(3):
                want = ref_polynomial(c[k])(x0, x1)
                assert type(want) is float and got[k, 0] == want


@pytest.mark.parametrize("chart", charts.ANGULAR_CHARTS)
def test_laplacian_of_stacked_cubics_is_the_per_cubic_laplacians(chart):
    # rescaled_operator_factor's three cubics, stacked against the points
    rng = random.Random(5)
    p = chart_points(chart, 10, rng)
    flat_p = ChartPoint(ChartId.CARTESIAN, *charts.embed(p))
    coeffs = suites._random_polynomial(rng, 3)

    def pulled(f):
        return lambda y0, y1: f(*charts.embed_coords(chart, y0, y1))

    def stacked(x0, x1):
        return suites._polynomial(coeffs, x0, x1)

    lhs = laplace.laplacian(pulled(stacked), p)
    flat = laplace.laplacian(stacked, flat_p)
    assert lhs.shape == flat.shape == (3, 10)
    for k in range(3):
        poly = ref_polynomial(coeffs[:, :, k, 0].tolist())
        assert np.array_equal(lhs[k], laplace.laplacian(pulled(poly), p))
        assert np.array_equal(flat[k], laplace.laplacian(poly, flat_p))


def test_scalar_points_keep_their_shapes():
    p = ChartPoint(ChartId.POLAR, 1.5, 0.4)
    assert charts.basis(p)[0].shape == (2,)
    assert charts.metric(p).shape == (2, 2)
    assert charts.jacobian_mixed(p).shape == (2, 2)
    assert charts.jacobian_mixed_closed_form(ChartPoint(ChartId.CARTESIAN, 0.1, 0.2)).shape == (2, 2)


@pytest.mark.parametrize(
    "chart, y0, y1, fragment",
    [
        (ChartId.POLAR, [1.0, 0.0, 2.0], [0.1, 0.2, 0.3], "radius 0.0"),
        (ChartId.HOLOGRAPHIC, [0.5, 0.6, 1.6], [0.1, 0.2, 0.3], "theta 1.6"),
        (ChartId.CONFORMAL, [0.5, 0.6, 0.7], [0.1, 7.0, 0.3], "angle 7.0"),
    ],
)
def test_validate_rejects_one_bad_sample(chart, y0, y1, fragment):
    with pytest.raises(DomainError, match=fragment):
        ChartPoint(chart, np.array(y0), np.array(y1))
    with pytest.raises(DomainError):
        charts.basis(ChartPoint(chart, np.array(y0), np.array(y1)))


def test_coordinates_whose_shapes_do_not_broadcast_are_rejected():
    # rather than construct with len 2 and fail in the first chart function
    with pytest.raises(ValueError, match=r"^coordinate shapes \(2,\) and \(3,\) do not broadcast$"):
        ChartPoint(ChartId.POLAR, np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
    # shapes that broadcast still construct
    p = ChartPoint(ChartId.POLAR, np.array([1.0, 2.0]), 0.1)
    assert np.shape(charts.embed(p)[0]) == (2,)


@pytest.mark.parametrize("res", (37, 2000))
def test_joukowski_rows_are_the_per_point_rows(res):
    want = []
    for radius in (1.0, 1.1, 1.3, 1.6, 2.0):
        for k in range(res):
            phi = 2.0 * math.pi * k / res
            u = radius * cmath.exp(1j * phi)
            # numpy's complex division, one point at a time
            c, s = complex(algebra.cn(np.complex128(u))), complex(algebra.sn(np.complex128(u)))
            want.append((radius, phi, u.real, u.imag, c.real, c.imag, s.real, s.imag))
    header, *rows = grids._joukowski_rows(res)
    assert header[0] == "radius" and len(rows) == len(want)
    # repr tells -0.0 from 0.0 and round-trips every float
    assert [list(map(repr, r)) for r in rows] == [list(map(repr, r)) for r in want]


def test_plane_maps_and_harmonics_on_arrays():
    rng = random.Random(17)
    x0 = np.array([rng.uniform(-2.5, 2.5) for _ in range(40)])
    x1 = np.array([rng.uniform(-2.5, 2.5) for _ in range(40)])
    c = (np.array([rng.uniform(-0.5, 0.5) for _ in range(40)]), -0.25)
    for rescaled in (False, True):
        got = charts.compactify(x0, x1, rescaled).as_array()
        want = [charts.compactify(float(a), float(b), rescaled).as_array() for a, b in zip(x0, x1)]
        assert np.array_equal(got, np.array(want).T)
    got = charts.special_conformal((x0, x1), c)
    want = [
        charts.special_conformal((float(a), float(b)), (float(ca), c[1])) for a, b, ca in zip(x0, x1, c[0])
    ]
    assert np.array_equal(np.array(got), np.array(want).T)
    grid = chart_points(ChartId.HOLOGRAPHIC, 20, rng)
    for l in range(5):
        for m in range(-l, l + 1):
            want = [complex(laplace.ylm(l, m, float(q.y0), float(q.y1))) for q in grid]
            assert np.array_equal(laplace.ylm(l, m, grid.y0, grid.y1), want)
            if m >= 0:
                x = np.cos(grid.y0)
                want = [laplace.legendre(l, m, float(t)) for t in x]
                assert np.array_equal(laplace.legendre(l, m, x), want)
        if l:
            for m in (l, -l):
                ratios = [
                    complex(laplace.ylm(l, m, q.y0, q.y1))
                    / (math.sin(q.y0) ** l * complex(math.cos(m * q.y1), math.sin(m * q.y1)))
                    for q in grid
                ]
                got = laplace.ylm_ratio(l, grid, negative_branch=m < 0)
                assert_close(got, sum(ratios) / len(ratios))


# --- bicomplex and projective -------------------------------------------------


def assert_bitwise(batched: Bicomplex, scalars: list):
    """Every component of every sample is the reference's, bit for bit: a
    float64 array whose sample k, as a Python float, has the reference
    component's type and bytes (so 0.0 and -0.0 differ)."""
    assert all(c.dtype == np.float64 and c.shape == (len(scalars),) for c in batched.components())
    for k, x in enumerate(scalars):
        assert_same_components(Bicomplex(*(c[k].item() for c in batched.components())), x)


def assert_same_components(got: Bicomplex, want: Bicomplex):
    """Each component has the reference's type, dtype, shape and bytes."""
    for g, w in zip(got.components(), want.components()):
        assert type(g) is type(w) and np.asarray(g).dtype == np.asarray(w).dtype
        assert np.shape(g) == np.shape(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()


def ref_product(x: Bicomplex, y: Bicomplex) -> Bicomplex:
    """x * y as the expression of the ring's multiplication table."""
    a1, a2, a3, a4 = x.components()
    b1, b2, b3, b4 = y.components()
    return Bicomplex(
        a1 * b1 - a2 * b2 - a3 * b3 + a4 * b4,
        a1 * b2 + a2 * b1 - a3 * b4 - a4 * b3,
        a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
        a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
    )


def ref_idempotent_parts(x: Bicomplex) -> tuple:
    # w1 -+ i w2 with w1 = re + i im_i and w2 = im_j + i im_ij, in real arithmetic
    return complex(x.re + x.im_ij, x.im_i - x.im_j), complex(x.re - x.im_ij, x.im_i + x.im_j)


def ref_from_idempotent_parts(zp: complex, zm: complex) -> Bicomplex:
    # z+ e+ + z- e- with e+- = (1 +- ij)/2, in real arithmetic
    return Bicomplex(
        (zp.real + zm.real) / 2, (zp.imag + zm.imag) / 2, (zm.imag - zp.imag) / 2, (zp.real - zm.real) / 2
    )


def ref_exp(x: Bicomplex) -> Bicomplex:
    return ref_from_idempotent_parts(*map(cmath.exp, ref_idempotent_parts(x)))


def ref_inverse(x: Bicomplex) -> Bicomplex:
    # numpy's complex division, one number at a time
    return ref_from_idempotent_parts(*(complex(np.divide(1, z)) for z in ref_idempotent_parts(x)))


def test_single_points_leave_as_python_numbers_of_the_array_kernels():
    # one point runs through numpy's kernels as an array does: it leaves as
    # Python numbers, bitwise the array's sample
    rng = random.Random(8)
    a_list = ref_bicomplex_values(300, rng)
    a = bicomplex_batch(300, random.Random(8))
    inverse = a.inverse()
    for k, x in enumerate(a_list):
        one = x.inverse()
        assert all(type(c) is float for c in one.components()) and inverse[k] == one
    assert all(type(x.squared_length()) is float for x in a_list)
    assert np.array_equal(a.squared_length(), [x.squared_length() for x in a_list])
    v1 = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(300)] + [0j, 2.0 + 0j]
    v2 = [complex(rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3)) for _ in range(300)] + [1.5j, 0j]
    p = ProjectivePoint(np.array(v1), np.array(v2))
    tr = projective.chart_transition(p)
    equal = projective.projectively_equal(p, ProjectivePoint(p.v2, p.v1))
    nan = complex(math.nan, math.nan)
    for k, (x, y) in enumerate(zip(v1, v2)):
        one = projective.chart_transition(ProjectivePoint(x, y))
        fields = [*(one.affine0 or (nan, nan)), *(one.affine1 or (nan, nan)), one.transition]
        assert all(type(f) is complex for f in fields if f is not None)
        got = [tr.affine0[0][k], tr.affine0[1][k], tr.affine1[0][k], tr.affine1[1][k], tr.transition[k]]
        assert np.array_equal(got, [nan if f is None else f for f in fields], equal_nan=True)
        same = projective.projectively_equal(ProjectivePoint(x, y), ProjectivePoint(y, x))
        assert type(same) is bool and same == equal[k]
    v0 = upsilon_points(100, rng, radii=(0.3, 1.2))
    for g in GENERATORS:
        defects = projective.flow_consistency(g, v0, 1e-3)
        ones = [projective.flow_consistency(g, complex(z), 1e-3) for z in v0]
        assert all(type(d) is float for d in ones) and np.array_equal(defects, ones)
    # off the overlap one divisor is 0; its quotient is computed and dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = projective.chart_transition(ProjectivePoint(np.array([0j, 2.0 + 0j]), np.array([1.5j, 0j])))
        one = projective.chart_transition(ProjectivePoint(0j, 1.5j))
    assert not tr.in_overlap.any() and np.isnan(tr.affine1[1][0]) and np.isnan(tr.affine0[0][1])
    assert one.affine0 == (0j, 1.0 + 0j) and one.affine1 is None and one.transition is None


def ref_bicomplex_values(n: int, rng: random.Random, scale: float = 2.0) -> list:
    """n numbers of four rng.uniform(-scale, scale) components each, drawn
    one number at a time."""
    return [Bicomplex(*(rng.uniform(-scale, scale) for _ in range(4))) for _ in range(n)]


def test_bicomplex_batch_makes_the_draws_of_bicomplex_values():
    for n, scale in ((0, 2.0), (1, 2.0), (257, 0.8)):
        rng_values, rng_batch = random.Random(9), random.Random(9)
        values = ref_bicomplex_values(n, rng_values, scale)
        batch = bicomplex_batch(n, rng_batch, scale)
        assert rng_batch.getstate() == rng_values.getstate()
        assert batch.re.shape == (n,)
        assert_bitwise(batch, values)
        # count numbers a sample: the sample's numbers are consecutive draws
        for count in (1, 2, 3):
            values = ref_bicomplex_values(count * n, rng_values, scale)
            batches = bicomplex_batch(n, rng_batch, scale, count=count)
            assert rng_batch.getstate() == rng_values.getstate()
            assert isinstance(batches, tuple) and len(batches) == count
            for k, batch in enumerate(batches):
                assert all(c.shape == (n,) and c.flags.c_contiguous for c in batch.components())
                assert_bitwise(batch, values[k::count])


def test_bicomplex_arithmetic_is_bitwise_the_scalar_path():
    rng = random.Random(10)
    a_list, b_list = ref_bicomplex_values(300, rng), ref_bicomplex_values(300, rng, scale=0.8)
    rng = random.Random(10)
    a, b = bicomplex_batch(300, rng), bicomplex_batch(300, rng, scale=0.8)
    pairs = list(zip(a_list, b_list))
    assert_bitwise(a * b, [x * y for x, y in pairs])
    assert_bitwise(a + b - a * 2.5, [x + y - x * 2.5 for x, y in pairs])
    # subtraction is componentwise, bitwise the sum with the negation
    assert_same_components(a - b, a + (-b))
    assert_same_components(2.5 - a, Bicomplex(2.5) + (-a))
    assert_bitwise(2.5 - a, [Bicomplex(2.5) + (-x) for x in a_list])
    # products are the written expression, with its components and types,
    # for float64 arrays, Python numbers, mixed number and array components
    # and integer arrays; exp, inverse and the bicomplex Mobius image build
    # fresh C-contiguous float64 components
    arr, one, ints, singles = np.array(a.re), a.re[:1], np.arange(300), a.re.astype(np.float32)
    exp, inverse = b.exp(), a.inverse()
    image = projective.mobius_apply(projective.exp_one_param(B, np.linspace(-0.6, 0.6, 300), Ring.BICOMPLEX), b)
    for x in (exp, inverse, image):
        assert all(c.dtype == np.float64 and c.flags.c_contiguous for c in x.components())
    for x, y in (
        (a, b),
        (exp, inverse),
        (image, a),
        (bc.UNIT_J, exp),
        (bc.ONE, a),
        (a, bc.UNIT_I),
        (Bicomplex(arr), bc.UNIT_I),
        (bc.UNIT_I, Bicomplex(arr)),
        (Bicomplex(arr[:1], 0.5, arr[1:2], -0.25), b),
        # float64 arrays of two shapes, and arrays of other dtypes
        (Bicomplex(one, a.im_i, one, one), Bicomplex(one, one, one, one)),
        (Bicomplex(one, one, one, one), Bicomplex(0.5, a.im_i, 0.25, -1.0)),
        (Bicomplex(ints, ints, ints, ints), Bicomplex(ints, ints - 2, ints, ints)),
        (Bicomplex(ints, a.im_i, ints, ints), Bicomplex(ints, ints, ints, ints)),
        (Bicomplex(singles, a.im_i, singles, singles), Bicomplex(singles, singles, singles, singles)),
        (Bicomplex(ints, ints), a),
        (a_list[0], b_list[0]),
        (Bicomplex(1, 2, 3, 4), bc.UNIT_J),
    ):
        assert_same_components(x * y, ref_product(x, y))
    one = a_list[0] * b_list[0]
    assert all(type(c) is float for c in (*one.components(), *(bc.ONE * bc.UNIT_I).components()))
    assert_bitwise(a.conjugate() * b.reverse(), [x.conjugate() * y.reverse() for x, y in pairs])
    assert_bitwise(b.exp(), [ref_exp(y) for y in b_list])
    assert_bitwise(a.inverse(), [ref_inverse(x) for x in a_list])
    assert_bitwise(b / a, [y * ref_inverse(x) for x, y in pairs])
    # components 0.0, -0.0, 1.0 and -0.5: the recombined parts keep the zero
    # signs of the reference's real sums, on arrays and on one number
    signed = [Bicomplex(*c) for c in itertools.product((0.0, -0.0, 1.0, -0.5), repeat=4)]
    invertible = [x for x in signed if not any(map(bc.vanishes, x.idempotent_parts()))]
    for values, op, ref in ((signed, Bicomplex.exp, ref_exp), (invertible, Bicomplex.inverse, ref_inverse)):
        assert_bitwise(op(Bicomplex(*map(np.array, zip(*(x.components() for x in values))))), list(map(ref, values)))
        for x in values:
            assert_same_components(op(x), ref(x))
    # one number goes through the same code and leaves as Python floats
    assert [y.exp() for y in b_list[:20]] == [ref_exp(y) for y in b_list[:20]]
    assert [x.inverse() for x in a_list[:20]] == [ref_inverse(x) for x in a_list[:20]]
    assert all(type(c) is float for c in a_list[0].inverse().components())
    assert np.array_equal(a.max_abs(), [max(map(abs, x.components())) for x in a_list])
    assert np.array_equal(
        a.squared_length(), [x.re * x.re + x.im_i * x.im_i + x.im_j * x.im_j + x.im_ij * x.im_ij for x in a_list]
    )


def test_involution_projections_on_arrays():
    rng = random.Random(11)
    values = ref_bicomplex_values(200, rng)
    t = bc.involution_projections(bicomplex_batch(200, random.Random(11)))
    for name in ("xi1", "xi2", "xi3", "len_sq"):
        want = [getattr(bc.involution_projections(s), name) for s in values]
        assert np.array_equal(getattr(t, name), want)


def test_max_abs_keeps_nan_per_sample():
    x = Bicomplex(np.array([1.0, -3.0, 0.5]), np.array([0.0, math.nan, 2.0]))
    got = x.max_abs()
    assert got[0] == 1.0 and math.isnan(got[1]) and got[2] == 2.0


def ref_exp_one_param(g, eps: float, ring: Ring) -> tuple:
    """Entries of exp(eps * matrix_rep(g, ring)): entrywise exponentials of
    the diagonal generators, identity + eps * m for the nilpotent ones."""
    m = projective.matrix_rep(g, ring)
    if g in (algebra.B, algebra.S01):
        exp = {Ring.REAL: math.exp, Ring.COMPLEX: cmath.exp, Ring.BICOMPLEX: ref_exp}[ring]
        zero = m.b
        return (exp(eps * m.a), zero, zero, exp(eps * m.d))
    return (1.0 + eps * m.a, eps * m.b, eps * m.c, 1.0 + eps * m.d)


@pytest.mark.parametrize("ring", list(Ring), ids=str)
def test_exp_one_param_on_array_eps(ring):
    eps = np.array([0.3, -0.7, 1e-3, 0.0, 0.55])
    for g in projective.supported_generators(ring):
        batched = projective.exp_one_param(g, eps, ring)
        for k, e in enumerate(eps.tolist()):
            one = projective.exp_one_param(g, e, ring)
            # every entry indexes, the zeros of b and s01 too
            assert batched[k] == one
            for got, want in zip(one.entries(), ref_exp_one_param(g, e, ring)):
                if isinstance(want, Bicomplex):
                    assert all(type(c) is float for c in got.components())
                    assert (got - want).max_abs() <= 1e-15 * (1.0 + want.max_abs())
                else:
                    assert type(got) is type(want)
                    assert abs(got - want) <= 1e-15 * (1.0 + abs(want))


@pytest.mark.parametrize("unpicked", (None, 0, 5))
def test_exp_per_sample_is_each_samples_exponential(unpicked):
    rng = random.Random(6)
    gens = np.array([float(rng.choice([k for k in range(6) if k != unpicked])) for _ in range(300)])
    eps = np.array([rng.uniform(-0.8, 0.8) for _ in range(300)])
    got = suites._exp_per_sample(gens, eps)
    assert got.ring is Ring.COMPLEX
    want = [projective.exp_one_param(GENERATORS[int(g)], float(e), Ring.COMPLEX) for g, e in zip(gens, eps)]
    for k, entry in enumerate(got.entries()):
        assert entry.dtype == complex and entry.shape == (300,)
        assert entry.tobytes() == np.array([w.entries()[k] for w in want], complex).tobytes()
    picked = got[gens == 2]
    assert all(np.array_equal(e, f[gens == 2]) for e, f in zip(picked.entries(), got.entries()))


def ref_mobius(entries, v):
    """(a v + b) / (c v + d) in Python's complex arithmetic."""
    a, b, c, d = (complex(e) for e in entries)
    return (a * v + b) / (c * v + d)


def test_mobius_apply_complex_on_arrays():
    rng = random.Random(12)
    eps = np.array([rng.uniform(-0.8, 0.8) for _ in range(40)])
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)])
    for g in GENERATORS:
        m = projective.exp_one_param(g, eps, Ring.COMPLEX)
        m0 = projective.exp_one_param(g, 0.4, Ring.COMPLEX)
        want = [ref_mobius(ref_exp_one_param(g, e, Ring.COMPLEX), complex(z)) for e, z in zip(eps, v)]
        assert_close(projective.mobius_apply(m, v), want)
        want0 = [ref_mobius(m0.entries(), complex(z)) for z in v]
        assert_close(projective.mobius_apply(m0, v), want0)
        assert_close([projective.mobius_apply(m0, complex(z)) for z in v], want0)


def test_mobius_apply_on_one_point_is_bitwise_its_array_sample():
    rng = random.Random(14)
    eps = np.array([rng.uniform(-0.8, 0.8) for _ in range(200)])
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)])
    for g in GENERATORS:
        got = projective.mobius_apply(projective.exp_one_param(g, eps, Ring.COMPLEX), v)
        ones = [
            projective.mobius_apply(projective.exp_one_param(g, e, Ring.COMPLEX), z)
            for e, z in zip(eps.tolist(), v.tolist())
        ]
        assert all(type(x) is complex for x in ones)
        assert np.array(ones).tobytes() == got.tobytes(), g


def test_mobius_apply_bicomplex_on_arrays():
    rng = random.Random(13)
    v_list = ref_bicomplex_values(40, rng, scale=0.5)
    v = bicomplex_batch(40, random.Random(13), scale=0.5)
    eps = np.linspace(-0.6, 0.6, 40)
    for g in GENERATORS:
        m = projective.exp_one_param(g, eps, Ring.BICOMPLEX)
        got = projective.mobius_apply(m, v)
        for k, (e, z) in enumerate(zip(eps, v_list)):
            a, b, c, d = ref_exp_one_param(g, float(e), Ring.BICOMPLEX)
            want = (a * z + b) * ref_inverse(c * z + d)
            assert (got[k] - want).max_abs() <= 1e-14 * (1.0 + want.max_abs())
            one = projective.mobius_apply(projective.SpinMatrix(Ring.BICOMPLEX, a, b, c, d), z)
            assert (one - want).max_abs() <= 1e-14 * (1.0 + want.max_abs())


def ref_unit(c) -> list:
    n = math.sqrt(sum(x * x for x in c))
    return [x / n for x in c]


def ref_phase_rotated(c, lam: float) -> list:
    w = cmath.exp(1j * lam)
    v1, v2 = complex(c[0], c[1]) * w, complex(c[2], c[3]) * w
    return ref_unit([v1.real, v1.imag, v2.real, v2.imag])


def test_sphere_map_on_arrays():
    rng = random.Random(14)
    raw = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(50)]
    lam = [rng.uniform(0, 2 * math.pi) for _ in range(50)]
    s = S3Point(*np.array(raw).T)
    rot = s.phase_rotated(np.array(lam))
    base, moved = projective.hopf(s), projective.hopf(rot)
    for k, (c, angle) in enumerate(zip(raw, lam)):
        unit = ref_unit(c)
        turned = ref_phase_rotated(unit, angle)
        assert [x[k] for x in s.components()] == unit
        assert [x[k] for x in rot.components()] == turned
        p = S3Point(*c)
        assert list(p.components()) == unit
        assert list(p.phase_rotated(angle).components()) == turned
        for got, comps in ((base, unit), (moved, turned)):
            want = projective.hopf_raw(*comps)
            assert_close([got.xi1[k], got.xi2[k], got.xi3[k]], want)
            assert_close(got.len_sq[k], sum(x * x for x in comps))


def ref_chart_transition(v1: complex, v2: complex, tol: float = 1e-14) -> tuple:
    """(affine0, affine1, transition) with None where one does not exist,
    in numpy's complex arithmetic, one point at a time."""
    v1, v2 = np.complex128(v1), np.complex128(v2)
    scale = max(np.abs(v1), np.abs(v2))
    have0, have1 = np.abs(v2) > tol * scale, np.abs(v1) > tol * scale
    w = v1 / v2 if have0 else None
    return (
        (complex(w), 1.0 + 0j) if have0 else None,
        (1.0 + 0j, complex(v2 / v1)) if have1 else None,
        complex(w / np.abs(w)) if have0 and have1 else None,
    )


def ref_projectively_equal(p: tuple, q: tuple, tol: float = 1e-12) -> bool:
    scale = max(np.abs(p[0]), np.abs(p[1])) * max(np.abs(q[0]), np.abs(q[1]))
    return np.abs(p[0] * q[1] - p[1] * q[0]) <= tol * max(scale, 1e-300)


def test_chart_transition_on_arrays():
    rng = random.Random(15)
    v1 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(30)] + [2.0 + 0j, 0j]
    v2 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(30)] + [0j, 1.5j]
    tr = projective.chart_transition(ProjectivePoint(np.array(v1), np.array(v2)))
    overlap = tr.in_overlap
    assert list(overlap) == [True] * 30 + [False, False]

    def entries(t):
        # a missing field is None for one point, NaN in the array fields
        nan = complex(math.nan, math.nan)
        return [*(t[0] or (nan, nan)), *(t[1] or (nan, nan)), nan if t[2] is None else t[2]]

    for k, (a, b) in enumerate(zip(v1, v2)):
        want = ref_chart_transition(a, b)
        one = projective.chart_transition(ProjectivePoint(a, b))
        assert (one.affine0, one.affine1, one.transition) == want
        assert one.in_overlap is (want[2] is not None)
        got = [tr.affine0[0][k], tr.affine0[1][k], tr.affine1[0][k], tr.affine1[1][k], tr.transition[k]]
        assert np.array_equal(got, entries(want), equal_nan=True)
    p = ProjectivePoint(np.array(v1[:30]), np.array(v2[:30]))
    scaled = ProjectivePoint(1.7j * p.v1, 1.7j * p.v2)
    assert projective.projectively_equal(p, scaled).all()
    other = ProjectivePoint(p.v1, p.v2[::-1])
    want = [ref_projectively_equal((a, b), (a, c)) for a, b, c in zip(v1[:30], v2[:30], v2[:30][::-1])]
    assert list(projective.projectively_equal(p, other)) == want
    assert [
        projective.projectively_equal(ProjectivePoint(a, b), ProjectivePoint(a, c))
        for a, b, c in zip(v1[:30], v2[:30], v2[:30][::-1])
    ] == want


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: S3Point(np.array([1.0, 0.5, math.nan]), 0.0, 0.0, 1.0), ValueError, "sample 2"),
        (lambda: S3Point(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0, 0.0), ValueError, "zero vector at sample 1"),
        (lambda: ProjectivePoint(np.array([1j, math.inf, 1.0]), np.ones(3)), ValueError, "sample 1"),
        (lambda: ProjectivePoint(np.array([1j, 0j]), np.array([0j, 0j])), ValueError, "sample 1"),
        (
            lambda: charts.special_conformal((np.array([1.0, 1.0, 0.5]), 0.0), (np.array([0.3, -1.0, 0.0]), 0.0)),
            charts.PoleCrossingError,
            "pole at the origin at sample 1",
        ),
        (
            lambda: Bicomplex(np.array([1.0, 2.0, 0.5, 1.0]), 0.0, 0.0, np.array([0.0, 0.0, 0.5, 1.0])).inverse(),
            bc.ZeroDivisorError,
            "sample 2",
        ),
        (
            lambda: projective.mobius_apply(
                SpinMatrix(Ring.COMPLEX, 1 + 0j, 0j, 1 + 0j, -2 + 0j), np.array([0.5, 1j, 2.0, 2.0])
            ),
            projective.PoleError,
            "vanished at sample 2",
        ),
        (
            lambda: projective.mobius_apply(
                SpinMatrix(Ring.BICOMPLEX, bc.ONE, bc.ZERO, bc.ZERO, bc.null_plane_units()[0]),
                Bicomplex(np.array([0.3, 0.1])),
            ),
            projective.NullLinePoleError,
            "sample 0",
        ),
        (lambda: algebra.cn(np.array([1.0, 1j, 0j])), ZeroDivisionError, "^cn undefined at u = 0 at sample 2$"),
        (lambda: algebra.sn(np.array([0j, 1j])), ZeroDivisionError, "^sn undefined at u = 0 at sample 0$"),
        # angular_tensor has no zero test of its own: cn's names the sample
        (lambda: algebra.angular_tensor(np.array([2j, 0j])), ZeroDivisionError, "^cn undefined at u = 0 at sample 1$"),
        # a u whose 1/u overflows is as undefined as 0, and a non-finite one is no argument
        (
            lambda: algebra.cn(np.array([1.0, 1e-320j, 2.0])),
            ZeroDivisionError,
            "^cn undefined at u = 1e-320j: 1/u overflows at sample 1$",
        ),
        (
            lambda: algebra.sn(np.array([0.5, 2.0, -1e-320])),
            ZeroDivisionError,
            "^sn undefined at u = -1e-320: 1/u overflows at sample 2$",
        ),
        (lambda: algebra.cn(np.array([1.0, math.nan])), ValueError, "^cn argument nan is not finite at sample 1$"),
        (
            lambda: algebra.sn(np.array([complex(math.inf, 0.0), 1j])),
            ValueError,
            r"^sn argument \(inf\+0j\) is not finite at sample 0$",
        ),
        (
            lambda: algebra.angular_tensor(np.array([2j, 1j, 1e-320 + 0j])),
            ZeroDivisionError,
            r"^cn undefined at u = \(1e-320\+0j\): 1/u overflows at sample 2$",
        ),
        (
            lambda: algebra.angular_tensor(np.array([2j, complex(0.0, math.nan)])),
            ValueError,
            r"^cn argument nanj is not finite at sample 1$",
        ),
        (
            lambda: charts.mixed_from_lower(np.array([[[1.0, 1.0], [0.0, 1.0]], [[0.0, 2.0], [1.0, 2.0]]])),
            DomainError,
            "^metric is singular: determinant 0.0 at sample 1$",
        ),
        (lambda: laplace.legendre(2, 1, np.array([0.5, -1.5])), ValueError, r"^argument -1.5 outside \[-1, 1\] at sample 1$"),
        (lambda: laplace.legendre(2, 1, np.array([0.5, 1.0, math.nan])), ValueError, r"^argument nan outside \[-1, 1\] at sample 2$"),
    ],
)
def test_bad_sample_is_reported_by_index(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()

