"""Truncated series and Laurent arithmetic."""

import random
from fractions import Fraction

import pytest

from gkmcalc import (
    LaurentSeries,
    LeadingUnitError,
    TruncatedSeries,
    build_fgl,
    format_series,
)

import helpers


def u(theory, nvars=1, i=0):
    return TruncatedSeries.variable(theory, nvars, i)


def test_difference_of_squares():
    th = helpers.ordinary()
    u1, u2 = u(th, 2, 0), u(th, 2, 1)
    assert (u1 + u2) * (u1 - u2) == u1 * u1 - u2 * u2


def test_mul_by_zero():
    th = helpers.ordinary()
    f = u(th, 2, 0) + u(th, 2, 1) * th.scalar(3)
    assert (f * TruncatedSeries.zero(th, 2)).is_zero()


def test_degree_bookkeeping_product():
    th = helpers.morava(2, 1)
    v = th.periodicity
    vu = u(th).scale(v)
    assert vu * vu == (u(th) * u(th)).scale(v * v)


def test_substitute_example():
    th = helpers.ordinary(trunc=3)
    f = u(th) * u(th)
    g = u(th) + u(th) * u(th)
    out = f.substitute([g])
    assert out == helpers.series_from_terms(
        th, 1, [((2,), th.one), ((3,), th.scalar(2))]
    )


def test_substitute_identity():
    rng = random.Random(3)
    th = helpers.mult(trunc=6)
    f = helpers.random_series(rng, th, 2)
    assert f.substitute([u(th, 2, 0), u(th, 2, 1)]) == f


def test_substitute_rejects_constant_terms():
    th = helpers.ordinary()
    with pytest.raises(ValueError):
        u(th).substitute([TruncatedSeries.one(th, 1)])


def test_substitution_functoriality():
    rng = random.Random(5)
    th = helpers.modp(3, trunc=6)
    for _ in range(10):
        f = helpers.random_series(rng, th, 2, terms=3)
        gs = [helpers.random_zero_constant(rng, th, 2, terms=3) for _ in range(2)]
        hs = [helpers.random_zero_constant(rng, th, 2, terms=3) for _ in range(2)]
        lhs = f.substitute(gs).substitute(hs)
        rhs = f.substitute([g.substitute(hs) for g in gs])
        assert lhs == rhs


def test_fgl_cancellation_via_inverse():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    x = u(th)
    assert fgl.sum(x, fgl.inverse(x)).is_zero()


def test_mul_associative_commutative_random():
    rng = random.Random(9)
    th = helpers.morava(2, 1, trunc=6)
    for _ in range(8):
        a = helpers.random_series(rng, th, 2, terms=3)
        b = helpers.random_series(rng, th, 2, terms=3)
        c = helpers.random_series(rng, th, 2, terms=3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_homogeneity_propagates():
    rng = random.Random(13)
    th = helpers.morava(2, 1, trunc=6)
    a = helpers.random_homogeneous(rng, th, 2, 4)
    b = helpers.random_homogeneous(rng, th, 2, 2)
    prod = a * b
    if not prod.is_zero():
        assert prod.homogeneous_degree() == 6
    s = a + a
    if not s.is_zero():
        assert s.homogeneous_degree() == 4


def test_format_series_order():
    th = helpers.ordinary()
    f = helpers.series_from_terms(
        th,
        2,
        [((0, 1), th.scalar(1)), ((1, 0), th.scalar(1)), ((1, 1), th.scalar(-2))],
    )
    assert format_series(f) == "u1 + u2 - 2*u1*u2"


# ---- Laurent -------------------------------------------------------------


def lau(theory, coeffs, prec=None):
    return LaurentSeries(theory, {e: theory.scalar(c) for e, c in coeffs.items()}, prec)


def test_laurent_divide_monomials():
    th = helpers.rational()
    s2 = lau(th, {2: 1}, prec=9)
    s1 = lau(th, {1: 1}, prec=9)
    q = s2.divide(s1)
    assert q.coefficient(1) == th.one
    assert q.order() == 1


def test_laurent_divide_polynomial():
    th = helpers.rational()
    f = lau(th, {1: 1, 2: 1}, prec=9)
    g = lau(th, {1: 1}, prec=9)
    q = f.divide(g)
    assert q.coefficient(0) == th.one and q.coefficient(1) == th.one


def test_laurent_divide_leading_unit_scaling():
    th = helpers.rational()
    one = lau(th, {0: 1}, prec=9)
    q = one.divide(lau(th, {1: 2}, prec=9))
    assert q.coefficient(-1) == th.scalar(Fraction(1, 2))


def test_laurent_divide_requires_unit_over_z():
    th = helpers.ordinary()
    one = lau(th, {0: 1}, prec=9)
    with pytest.raises(LeadingUnitError):
        one.divide(lau(th, {1: 2}, prec=9))


def test_laurent_divide_roundtrip():
    rng = random.Random(17)
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    g = LaurentSeries.from_truncated(fgl.n_series(2))  # v1 s^2
    h = LaurentSeries.from_truncated(fgl.n_series(3))
    q = (g * h).divide(g)
    for e in range(1, q.prec):
        assert q.coefficient(e) == h.coefficient(e)


def test_laurent_precision_bookkeeping():
    th = helpers.rational(trunc=8)
    f = lau(th, {0: 1}, prec=9)
    g = lau(th, {2: 1, 3: 1}, prec=9)
    q = f.divide(g)
    assert q.order() == -2
    # relative precision of g is 7, so the quotient is known below -2 + 7
    assert q.prec == 5
