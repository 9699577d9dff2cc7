"""Jet arithmetic against hand-differentiated closed forms."""

import math
import random

import numpy as np
import pytest

from holoconf import dual


def test_polynomial_derivatives():
    f = lambda x: 3 * x**4 - 2 * x**2 + x - 7
    j = f(dual.seed(1.5))
    assert j.f == pytest.approx(3 * 1.5**4 - 2 * 1.5**2 + 1.5 - 7)
    assert j.d1 == pytest.approx(12 * 1.5**3 - 4 * 1.5 + 1)
    assert j.d2 == pytest.approx(36 * 1.5**2 - 4)


def test_product_quotient_rules():
    rng = random.Random(3)
    for _ in range(20):
        x0 = rng.uniform(0.2, 2.0)
        j = (dual.sin(dual.seed(x0)) * dual.exp(dual.seed(x0))) / dual.seed(x0)
        f = math.sin(x0) * math.exp(x0) / x0
        d1 = (
            (math.cos(x0) + math.sin(x0)) * math.exp(x0) / x0
            - math.sin(x0) * math.exp(x0) / x0**2
        )
        assert j.f == pytest.approx(f, abs=1e-13)
        assert j.d1 == pytest.approx(d1, abs=1e-12)


def test_second_derivative_of_composition():
    # f(x) = sin(x^2): f'' = 2 cos(x^2) - 4 x^2 sin(x^2)
    x0 = 0.8
    j = dual.sin(dual.seed(x0) ** 2)
    assert j.d2 == pytest.approx(
        2 * math.cos(x0**2) - 4 * x0**2 * math.sin(x0**2), abs=1e-12
    )


def test_log_sqrt_tan():
    x0 = 0.6
    assert dual.log(dual.seed(x0)).d2 == pytest.approx(-1 / x0**2)
    assert dual.sqrt(dual.seed(x0)).d1 == pytest.approx(0.5 / math.sqrt(x0))
    assert dual.tan(dual.seed(x0)).d1 == pytest.approx(1 / math.cos(x0) ** 2)


def jet_bytes(x):
    """Every part of a (possibly nested) jet as bytes, None kept."""
    if isinstance(x, dual.Jet):
        return [jet_bytes(x.f), jet_bytes(x.d1), None if x.d2 is None else jet_bytes(x.d2)]
    return np.asarray(x).tobytes()


@pytest.mark.parametrize(
    "x",
    (
        0.6,
        np.array([0.3, -1.1, 2.0]),
        dual.Jet(np.array([0.3, -1.1, 2.0]), np.array([1.0, 0.5, -2.0]), None),
        dual.seed(np.array([0.3, -1.1, 2.0])),
        dual.Jet(dual.seed(0.8), dual.Jet(1.0, 0.0, 0.0), dual.Jet(0.0, 0.0, 0.0)),
        dual.Jet(dual.Jet(0.8, 1.0, None), 0.5, None),
    ),
    ids=("float", "array", "first-order", "second-order", "nested", "nested-first-order"),
)
def test_tan_is_bitwise_sin_over_cos(x):
    # tan builds both jets of the quotient from one sin and one cos
    assert jet_bytes(dual.tan(x)) == jet_bytes(dual.sin(x) / dual.cos(x))


def test_atan2_gradient():
    # d/dt atan2(y0 + t a, x0 + t b) at t=0 is (x0 a - y0 b)/r^2
    x0, y0, a, b = 1.2, -0.7, 0.3, 0.9
    t = dual.seed(0.0)
    j = dual.atan2(y0 + t * a, x0 + t * b)
    r2 = x0 * x0 + y0 * y0
    assert j.d1 == pytest.approx((x0 * a - y0 * b) / r2, abs=1e-13)


def test_complex_exponent_power():
    alpha = 1.3 - 0.4j
    x0 = 1.7
    j = dual.seed(x0) ** alpha
    assert j.f == pytest.approx(x0**alpha)
    assert j.d1 == pytest.approx(alpha * x0 ** (alpha - 1))
    assert j.d2 == pytest.approx(alpha * (alpha - 1) * x0 ** (alpha - 2))


@pytest.mark.parametrize("kind", (np.int64, np.int32), ids=lambda k: k.__name__)
@pytest.mark.parametrize("n", (0, 3, -2))
def test_numpy_integer_exponents_are_integer_powers(kind, n):
    # a numpy integer takes the repeated-product path of a Python int, not
    # exp(n log x), which is NaN at a negative base
    for base in (dual.Jet(-2.0, 1.0, 0.0), dual.Jet(1.5, -0.5, None), dual.seed(np.array([-2.0, 0.5]))):
        want, got = base**n, base ** kind(n)
        for part in ("f", "d1", "d2"):
            w, g = getattr(want, part), getattr(got, part)
            assert (w is None and g is None) or np.asarray(g).tobytes() == np.asarray(w).tobytes()
            assert type(g) is type(w)


def test_nested_jets_mixed_partial():
    # d/dy [ d/dx sin(x*y) ] = cos(xy) - xy sin(xy)
    x0, y0 = 0.9, 1.4

    def dfdx(y):
        # inner differentiation level: x seeded, y lifted as a constant
        xj = dual.Jet(x0, 1.0, 0.0)
        yj = dual.Jet(y, 0.0, 0.0)
        return dual.sin(xj * yj).d1

    outer = dfdx(dual.seed(y0))  # y seeded at the outer level
    assert dual.value(outer) == pytest.approx(y0 * math.cos(x0 * y0), abs=1e-13)
    assert dual.d1(outer) == pytest.approx(
        math.cos(x0 * y0) - x0 * y0 * math.sin(x0 * y0), abs=1e-12
    )


def test_partials_lift_every_argument_into_one_fresh_level():
    x0, y0 = 0.9, 1.4
    assert [(j.f, j.d1, j.d2) for j in dual.partials(lambda x, y: (x, y), (x0, y0))[1]] == [
        (x0, 0.0, None),
        (y0, 1.0, None),
    ]
    # partials of partials: the outer jets are arguments, so the inner
    # level never takes them for its own; d/dy [d/dx sin(x y)] as above
    inner = lambda x, y: dual.d1(dual.partials(lambda a, b: dual.sin(a * b), (x, y))[0])
    mixed = dual.partials(inner, (x0, y0))[1]
    assert dual.value(mixed) == pytest.approx(y0 * math.cos(x0 * y0), abs=1e-13)
    assert dual.d1(mixed) == pytest.approx(math.cos(x0 * y0) - x0 * y0 * math.sin(x0 * y0), abs=1e-12)


def test_value_helpers_on_plain_numbers():
    assert dual.value(2.5) == 2.5
    assert dual.d1(2.5) == 0.0
    assert dual.d2(2.5) == 0.0
    assert (lambda x: x * x)(dual.seed(3.0)).d1 == pytest.approx(6.0)
    assert (lambda x: x * x * x)(dual.seed(2.0)).d2 == pytest.approx(12.0)
