"""Bicomplex ring: rule sets, involutions, projections, exponential."""

import math
import random
import warnings

import numpy as np
import pytest

from holoconf import bicomplex as bc
from holoconf.bicomplex import Bicomplex
from holoconf.sampling import bicomplex_batch

TOL = 1e-12


def max_abs(x: Bicomplex) -> float:
    return x.max_abs()


def test_unit_squares():
    assert max_abs(bc.UNIT_I * bc.UNIT_I + bc.ONE) == 0.0
    assert max_abs(bc.UNIT_J * bc.UNIT_J + bc.ONE) == 0.0
    assert max_abs(bc.UNIT_IJ * bc.UNIT_IJ - bc.ONE) == 0.0
    assert max_abs(bc.UNIT_I * bc.UNIT_J - bc.UNIT_IJ) == 0.0


def test_null_unit_products():
    o, obar = bc.null_plane_units()
    # o*o = (ij - 1)/2 in components
    assert max_abs(o * o - Bicomplex(-0.5, 0, 0, 0.5)) == 0.0
    # both complementary rule sets hold simultaneously
    assert max_abs(o * o - bc.UNIT_I * o) == 0.0
    assert max_abs(o * o - bc.UNIT_J * o) == 0.0
    assert max_abs(obar * obar + bc.UNIT_I * obar) == 0.0
    assert max_abs(obar * obar - bc.UNIT_J * obar) == 0.0
    assert max_abs(o * obar) == 0.0
    # unit recombinations
    assert max_abs((o - obar) - bc.UNIT_I) == 0.0
    assert max_abs((o + obar) - bc.UNIT_J) == 0.0
    assert max_abs((o * o - obar * obar) - bc.UNIT_IJ) == 0.0
    assert max_abs(-1 * (o * o + obar * obar) - bc.ONE) == 0.0


def test_multiplicative_identity_random():
    rng = random.Random(11)
    for x in bicomplex_batch(50, rng):
        assert max_abs(bc.ONE * x - x) == 0.0


def test_ring_axioms_random():
    rng = random.Random(12)
    vals = bicomplex_batch(300, rng)
    for a, b, c in zip(vals[0::3], vals[1::3], vals[2::3]):
        assert max_abs((a * b) * c - a * (b * c)) <= TOL
        assert max_abs(a * b - b * a) <= TOL
        assert max_abs(a * (b + c) - (a * b + a * c)) <= TOL


def test_involution_unit_signs():
    assert bc.UNIT_I.conjugate() == Bicomplex(0, -1, 0, 0)
    assert bc.UNIT_J.conjugate() == bc.UNIT_J
    assert bc.UNIT_IJ.conjugate() == Bicomplex(0, 0, 0, -1)
    assert bc.UNIT_I.reverse() == Bicomplex(0, -1, 0, 0)
    assert bc.UNIT_J.reverse() == Bicomplex(0, 0, -1, 0)
    assert bc.UNIT_IJ.reverse() == bc.UNIT_IJ
    # conjugation swaps the null units
    o, obar = bc.null_plane_units()
    assert o.conjugate() == obar
    assert obar.conjugate() == o


def test_involutions_random():
    rng = random.Random(13)
    vals = bicomplex_batch(200, rng)
    for a, b in zip(vals[0::2], vals[1::2]):
        assert max_abs(a.conjugate().conjugate() - a) == 0.0
        assert max_abs(a.reverse().reverse() - a) == 0.0
        assert max_abs((a * b).conjugate() - a.conjugate() * b.conjugate()) <= TOL
        assert max_abs((a * b).reverse() - a.reverse() * b.reverse()) <= TOL


def test_max_abs_propagates_nan():
    nan = math.nan
    for parts in ((1.0, nan, 0, 0), (nan, 1.0, 0, 0), (0, 2.0, -3.0, nan)):
        assert math.isnan(Bicomplex(*parts).max_abs())
    assert Bicomplex(1.0, -4.0, 2.0, math.inf).max_abs() == math.inf
    assert bc.nan_max((0.5, 2.0, 1.0)) == 2.0
    assert math.isnan(bc.nan_max((0.0, nan)))


def test_numpy_scalars_coerce():
    assert Bicomplex(1.0) * np.float32(2) == Bicomplex(2.0)
    assert np.float32(2) * Bicomplex(1.0, 1.0) == Bicomplex(2.0, 2.0)
    assert Bicomplex(1.0) + np.int64(3) == Bicomplex(4.0)
    assert Bicomplex(1.0) - np.complex64(1 + 2j) == Bicomplex(0.0, -2.0)
    with pytest.raises(TypeError):
        Bicomplex(1.0) * "2"


def test_squared_length_values():
    assert bc.ONE.squared_length() == 1.0
    o, _ = bc.null_plane_units()
    assert o.squared_length() == pytest.approx(0.5)
    assert Bicomplex(1, 1, 1, 1).squared_length() == pytest.approx(4.0)


def test_projection_examples():
    t = bc.involution_projections(bc.ONE)
    assert (t.xi1, t.xi2, t.xi3, t.len_sq) == pytest.approx((0, 0, 1, 1))
    t = bc.involution_projections(bc.UNIT_J)
    assert (t.xi1, t.xi2, t.xi3, t.len_sq) == pytest.approx((0, 0, -1, 1))
    s = Bicomplex(1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0)
    t = bc.involution_projections(s)
    assert (t.xi1, t.xi2, t.xi3, t.len_sq) == pytest.approx((1, 0, 0, 1))


def test_projection_norm_identity_random():
    rng = random.Random(14)
    for s in bicomplex_batch(200, rng):
        t = bc.involution_projections(s)
        nsq = s.squared_length()
        assert t.len_sq == pytest.approx(nsq, abs=TOL * (1 + nsq))
        assert t.xi1**2 + t.xi2**2 + t.xi3**2 == pytest.approx(
            nsq * nsq, abs=TOL * (1 + nsq * nsq)
        )


def test_projection_structure_error_path(monkeypatch):
    # a conjugation that keeps the i part: (1 + i)(1 + i) = 2i leaks out of
    # span(1, j)
    monkeypatch.setattr(Bicomplex, "conjugate", lambda s: Bicomplex(s.re, s.im_i, s.im_j, -s.im_ij))
    with pytest.raises(bc.StructureError, match="conjugate"):
        bc.involution_projections(Bicomplex(1.0, 1.0))


@pytest.mark.parametrize("big", [1e200, np.array([1.0, 1e200, 2.0])])
def test_projection_rejects_overflowing_squares(big):
    # numpy returns inf here where Python's float power raised; the explicit
    # check keeps the OverflowError whatever the warning filters say
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(OverflowError, match="sample 1" if np.ndim(big) else "overflows$"):
            bc.involution_projections(Bicomplex(big, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=repr)
def test_projection_rejects_non_finite_numbers(bad):
    # a NaN used to pass the overflow and leakage checks into a NaN triple
    with pytest.raises(ValueError, match=r"cannot project .*: not finite$"):
        bc.involution_projections(Bicomplex(1.0, bad, 0.5, 0.5))
    batch = bicomplex_batch(4, random.Random(3))
    im_j = batch.im_j.copy()
    im_j[2] = bad
    with pytest.raises(ValueError, match=rf"im_j={bad}, .*: not finite at sample 2$"):
        bc.involution_projections(Bicomplex(batch.re, batch.im_i, im_j, batch.im_ij))


def _exp_series(a: Bicomplex, terms: int = 20) -> Bicomplex:
    total = bc.ONE
    power = bc.ONE
    fact = 1.0
    for n in range(1, terms):
        power = power * a
        fact *= n
        total = total + (1.0 / fact) * power
    return total


def test_exp_against_series_oracle():
    assert max_abs(bc.ZERO.exp() - bc.ONE) == 0.0
    a = 0.3 * bc.UNIT_IJ
    assert max_abs(a.exp() - _exp_series(a)) <= 1e-14
    # closed hyperbolic form for the same input
    assert max_abs(
        a.exp() - Bicomplex(math.cosh(0.3), 0, 0, math.sinh(0.3))
    ) <= 1e-14
    b = math.pi * bc.UNIT_I
    assert max_abs(b.exp() - _exp_series(b, terms=35)) <= 1e-12
    assert max_abs(b.exp() + bc.ONE) <= 1e-14
    rng = random.Random(15)
    for a in bicomplex_batch(20, rng, scale=0.6):
        assert max_abs(a.exp() - _exp_series(a, terms=25)) <= 1e-12


def test_exp_addition_random():
    rng = random.Random(16)
    vals = bicomplex_batch(100, rng, scale=0.8)
    for a, b in zip(vals[0::2], vals[1::2]):
        lhs = a.exp() * b.exp()
        rhs = (a + b).exp()
        assert max_abs(lhs - rhs) <= TOL * (1 + rhs.max_abs())


def test_inverse_and_zero_divisors():
    x = Bicomplex(1.0, 0.5, -0.3, 0.2)
    assert max_abs(x * x.inverse() - bc.ONE) <= 1e-14
    o, obar = bc.null_plane_units()
    with pytest.raises(bc.ZeroDivisorError):
        o.inverse()
    with pytest.raises(bc.ZeroDivisorError):
        obar.inverse()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("k", range(4))
def test_inverse_rejects_non_finite_numbers(bad, k):
    # all-NaN components came back without an error
    comps = [0.5, 0.25, 0.0, 0.0]
    comps[k] = bad
    with pytest.raises(ValueError, match="not finite"):
        Bicomplex(*comps).inverse()
    arr = Bicomplex(*(np.array([c0, c]) for c0, c in zip([0.5, 0.25, 0.0, 0.0], comps)))
    with pytest.raises(ValueError, match="not finite at sample 1"):
        arr.inverse()
    assert arr[:1].inverse().re.tolist() == [Bicomplex(0.5, 0.25).inverse().re]


def test_idempotent_split_roundtrip():
    rng = random.Random(17)
    for x in bicomplex_batch(50, rng):
        zp, zm = x.idempotent_parts()
        assert max_abs(Bicomplex.from_idempotent_parts(zp, zm) - x) <= 1e-15
    # the split diagonalizes multiplication
    a = Bicomplex(0.3, -1.2, 0.8, 0.1)
    b = Bicomplex(-0.5, 0.4, 1.1, -0.9)
    ap, am = a.idempotent_parts()
    bp, bm = b.idempotent_parts()
    prod = Bicomplex.from_idempotent_parts(ap * bp, am * bm)
    assert max_abs(prod - a * b) <= 1e-14


def test_scalar_coercion():
    assert Bicomplex(2.0) + 1 == Bicomplex(3.0)
    assert 2 * bc.UNIT_I == Bicomplex(0, 2, 0, 0)
    assert (1 + 1j) + bc.UNIT_J == Bicomplex(1, 1, 1, 0)
    with pytest.raises(TypeError):
        bc.UNIT_I + "nope"
