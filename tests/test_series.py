"""Truncated series and Laurent arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import (
    DegreeError,
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
    f = u(th, 2, 0) + u(th, 2, 1).scale(3)
    assert (f * TruncatedSeries.zero(th, 2)).is_zero()


def test_degree_bookkeeping_product():
    th = helpers.morava(2, 1)
    vu = u(th).scale(1, 1)
    assert vu * vu == (u(th) * u(th)).scale(1, 2)


def test_substitute_example():
    th = helpers.ordinary(trunc=3)
    f = u(th) * u(th)
    g = u(th) + u(th) * u(th)
    out = f.substitute([g])
    assert out == helpers.series_from_terms(
        th, 1, [((2,), 1, 0), ((3,), 2, 0)]
    )


def test_substitute_identity():
    rng = random.Random(3)
    th = helpers.mult(trunc=6)
    f = helpers.random_series(rng, th, 2)
    assert f.substitute([u(th, 2, 0), u(th, 2, 1)]) == f


def test_substitute_rejects_a_nonzero_constant():
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
    assert fgl.sum(x, fgl.n_series(-1).substitute([x])).is_zero()


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


def _part(theory, coeffs, q):
    """The degree-q series sum c * unit^k * u^alpha over (alpha, c) in coeffs,
    k fixed by q (the theories below have period degree 2)."""
    terms = {(a, sum(a) - q // 2): c for a, c in coeffs}
    return TruncatedSeries(theory, 2, terms)


_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_NONZERO = st.integers(-3, 3).filter(bool)


@settings(max_examples=40, deadline=2000)
@given(
    theory=st.sampled_from([helpers.mult(trunc=6), helpers.morava(2, 1, trunc=6)]),
    alphas=st.lists(_EXPONENTS, min_size=1, max_size=4, unique=True),
    fc=st.lists(_NONZERO, min_size=4, max_size=4),
    gc=st.lists(_NONZERO, min_size=4, max_size=4),
    hc=st.lists(st.tuples(_EXPONENTS, _NONZERO), max_size=4),
    qs=st.lists(st.integers(-2, 4).map(lambda x: 2 * x), min_size=3, max_size=3, unique=True),
)
def test_mixed_degree_sums_distribute(theory, alphas, fc, gc, hc, qs):
    # f and g are homogeneous of different degrees on the same monomials, so
    # their sum mixes degrees at every one of them
    fc = [c if theory.char == 0 else 1 for c in fc]
    gc = [c if theory.char == 0 else 1 for c in gc]
    q1, q2, q3 = qs
    f = _part(theory, list(zip(alphas, fc)), q1)
    g = _part(theory, list(zip(alphas, gc)), q2)
    h = _part(theory, dict(hc).items(), q3)
    mixed = f + g
    assert mixed * h == f * h + g * h
    assert helpers.degree_component(mixed, q1) == f
    assert helpers.degree_component(mixed, q2) == g
    assert mixed.homogeneous_degree() is None
    assert mixed.degrees() == sorted((q1, q2))


def test_format_series_order():
    th = helpers.ordinary()
    f = helpers.series_from_terms(
        th,
        2,
        [((0, 1), 1, 0), ((1, 0), 1, 0), ((1, 1), -2, 0)],
    )
    assert format_series(f) == "u1 + u2 - 2*u1*u2"


# ---- Laurent -------------------------------------------------------------


def lau(theory, coeffs, prec=None):
    return LaurentSeries(theory, {(e, 0): c for e, c in coeffs.items()}, prec)


def test_laurent_divide_monomials():
    th = helpers.rational()
    s2 = lau(th, {2: 1}, prec=9)
    s1 = lau(th, {1: 1}, prec=9)
    q = s2.divide(s1)
    assert q.coefficient(1) == (1, 0)
    assert q.order() == 1


def test_laurent_divide_polynomial():
    th = helpers.rational()
    f = lau(th, {1: 1, 2: 1}, prec=9)
    g = lau(th, {1: 1}, prec=9)
    q = f.divide(g)
    assert q.coefficient(0) == (1, 0) and q.coefficient(1) == (1, 0)


def test_laurent_divide_leading_unit_scaling():
    th = helpers.rational()
    one = lau(th, {0: 1}, prec=9)
    q = one.divide(lau(th, {1: 2}, prec=9))
    assert q.coefficient(-1) == (Fraction(1, 2), 0)


def test_laurent_divide_requires_unit_over_z():
    th = helpers.ordinary()
    one = lau(th, {0: 1}, prec=9)
    with pytest.raises(LeadingUnitError):
        one.divide(lau(th, {1: 2}, prec=9))


def test_laurent_divide_roundtrip():
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    g, h = fgl.n_series(2), fgl.n_series(3)  # v1 s^2 + ..., s + ...
    q = LaurentSeries.from_truncated(g * h).divide(LaurentSeries.from_truncated(g))
    for e in range(1, q.prec):
        assert q.coefficient(e) == h.coefficient((e,))


def _laurent_times(th, a: dict, b: dict) -> dict:
    """The product of two stored-format Laurent dicts, every term kept."""
    acc = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key = (e1 + e2, k1 + k2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return {key: r for key, c in acc.items() if (r := th.reduce(c))}


def _random_laurent(rng, th, order, length, lead=None):
    """Terms at s^order .. s^(order + length - 1), with a unit-exponent spread
    under morava; lead, when given, is the only term at s^order."""
    units = (-1, 0, 1) if th.period_degree else (0,)
    coeffs = {}
    for e in range(order, order + length):
        for k in units:
            if rng.random() < 0.5:
                coeffs[(e, k)] = rng.randrange(-4, 5)
    if lead is not None:
        coeffs = {key: c for key, c in coeffs.items() if key[0] != order}
        coeffs[(order, rng.choice(units))] = lead
    return coeffs


def test_laurent_divide_is_long_division_under_the_precision_rule():
    rng = random.Random(29)
    theories = [helpers.rational(), helpers.modp(3), helpers.morava(2, 1), helpers.morava(2, 2)]
    for th in theories:
        for _ in range(60):
            lf, lg = rng.randrange(-3, 4), rng.randrange(-2, 5)
            lead = rng.choice([Fraction(-3, 2), 1, 2]) if th.char == 0 else rng.randrange(1, th.char)
            f = LaurentSeries(th, _random_laurent(rng, th, lf, rng.randrange(0, 6)), lf + rng.randrange(1, 9))
            g = LaurentSeries(th, _random_laurent(rng, th, lg, 6, lead), lg + rng.randrange(1, 9))
            q = f.divide(g)
            if f.is_zero():
                assert q.is_zero() and q.prec == f.prec - lg
                continue
            assert q.prec == min(f.prec - lg, g.prec - 2 * lg + f.order())
            # q * g is f wherever q and g determine it
            known = q.prec + lg
            product = _laurent_times(th, q.coeffs, g.coeffs)
            assert {key: c for key, c in product.items() if key[0] < known} == {
                key: c for key, c in f.coeffs.items() if key[0] < known
            }
        with pytest.raises(ValueError, match="dividend"):
            LaurentSeries(th, f.coeffs).divide(g)
        with pytest.raises(ValueError, match="divisor"):
            f.divide(LaurentSeries(th, g.coeffs))


def test_laurent_precision_bookkeeping():
    th = helpers.rational(trunc=8)
    f = lau(th, {0: 1}, prec=9)
    g = lau(th, {2: 1, 3: 1}, prec=9)
    q = f.divide(g)
    assert q.order() == -2
    # relative precision of g is 7, so the quotient is known below -2 + 7
    assert q.prec == 5


# ---- the checked constructors ----------------------------------------------


@pytest.mark.parametrize(
    "key,message",
    [
        (((1,), 0), "wrong length"),
        (((-1, 2), 0), "negative exponent"),
        (((5, 4), 0), "exceeds truncation degree 8"),
        (((1, 0), 1), "no periodicity generator"),
    ],
    ids=["length", "negative", "over-truncation", "unit-under-ordinary"],
)
def test_constructor_refuses(key, message):
    with pytest.raises(ValueError, match=message):
        TruncatedSeries(helpers.ordinary(trunc=8), 2, {key: 1})


def test_constructor_reduces_and_drops_zeros():
    th = helpers.modp(3)
    s = TruncatedSeries(th, 1, {((0,), 0): 7, ((1,), 0): -1, ((2,), 0): 6, ((3,), 0): 0})
    assert s.coeffs == {((0,), 0): 1, ((1,), 0): 2}
    assert TruncatedSeries(helpers.ordinary(), 1, {((2,), 0): 0}).is_zero()
    assert s.coefficient((2,)) == (0, 0)


def test_constructor_keeps_unit_exponents_apart():
    th = helpers.mult()
    s = TruncatedSeries(th, 1, {((1,), 0): 2, ((1,), 1): -1})
    assert s.degrees() == [0, 2]
    with pytest.raises(DegreeError):
        s.coefficient((1,))


def test_laurent_constructor_cuts_at_prec():
    th = helpers.morava(3, 1)
    s = LaurentSeries(th, {(-1, 0): 4, (2, 1): 3, (3, 0): 1, (5, 0): 1}, prec=4)
    assert s.coeffs == {(-1, 0): 1, (3, 0): 1}
    assert s.coefficient(5) == (0, 0) and s.prec == 4
    with pytest.raises(ValueError, match="no periodicity generator"):
        LaurentSeries(helpers.rational(), {(0, 1): 1})
