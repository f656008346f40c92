"""Formal group laws: construction, axioms at working truncation, n-series."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import TruncatedSeries, build_fgl, multiplicative_fgl

import helpers


def x_y_z(theory):
    return [TruncatedSeries.variable(theory, 3, i) for i in range(3)]


def fgl_axioms(fgl):
    th = fgl.theory
    x2 = TruncatedSeries.variable(th, 2, 0)
    y2 = TruncatedSeries.variable(th, 2, 1)
    zero2 = TruncatedSeries.zero(th, 2)
    assert fgl.sum(x2, zero2) == x2, "unitality in x"
    assert fgl.sum(zero2, y2) == y2, "unitality in y"
    swapped = {((j, i), k): c for ((i, j), k), c in fgl.series.coeffs.items()}
    assert swapped == fgl.series.coeffs, "commutativity"
    x, y, z = x_y_z(th)
    lhs = fgl.sum(fgl.sum(x, y), z)
    rhs = fgl.sum(x, fgl.sum(y, z))
    assert lhs == rhs, "associativity"


def test_additive_is_x_plus_y():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    x = TruncatedSeries.variable(th, 2, 0)
    y = TruncatedSeries.variable(th, 2, 1)
    assert fgl.series == x + y


def test_axioms_small_truncation():
    for th in (
        helpers.ordinary(trunc=6),
        helpers.mult(trunc=6),
        helpers.morava(2, 1, trunc=6),
        helpers.morava(3, 1, trunc=6),
        helpers.morava(2, 2, trunc=6),
    ):
        fgl_axioms(build_fgl(th))


def test_honda_xy_coefficient():
    th = helpers.morava(2, 1, trunc=4)
    fgl = build_fgl(th)
    c, k = fgl.series.coefficient((1, 1))
    assert c != 0 and k == 1
    assert fgl.n_series(2) == TruncatedSeries(th, 1, {((2,), 1): 1})


def test_honda_height_two_agrees_with_additive_below_degree_four():
    th = helpers.morava(2, 2, trunc=6)
    fgl = build_fgl(th)
    for ((i, j), _k), c in fgl.series.coeffs.items():
        if 2 <= i + j < 4:
            raise AssertionError(f"unexpected coefficient at x^{i} y^{j}: {c}")


def test_formal_sum_unitality_random():
    rng = random.Random(23)
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    a = helpers.random_curve_element(rng, th, 2)
    assert fgl.sum(a, TruncatedSeries.zero(th, 2)) == a


def test_multiplicative_formal_sum():
    th = helpers.mult(trunc=6)
    fgl = build_fgl(th)
    u1 = TruncatedSeries.variable(th, 2, 0)
    u2 = TruncatedSeries.variable(th, 2, 1)
    expect = u1 + u2 - (u1 * u2).scale(1, 1)
    assert fgl.sum(u1, u2) == expect


def test_multiplicative_inverse_geometric():
    # i(u) = -u - b u^2 - b^2 u^3 - ...
    th = helpers.mult(trunc=5)
    fgl = build_fgl(th)
    u = TruncatedSeries.variable(th, 1, 0)
    inv = fgl.n_series(-1).substitute([u])
    expect = helpers.series_from_terms(
        th, 1, [((k,), -1, k - 1) for k in range(1, 6)]
    )
    assert inv == expect
    assert fgl.sum(u, inv).is_zero()


def test_inverse_involutive_random():
    rng = random.Random(29)
    for th in (helpers.mult(trunc=6), helpers.morava(3, 1, trunc=6)):
        fgl = build_fgl(th)
        for _ in range(5):
            a = helpers.random_curve_element(rng, th, 2, terms=3)
            inv = fgl.n_series(-1)
            assert inv.substitute([inv.substitute([a])]) == a


def test_n_series_additive():
    th = helpers.ordinary(trunc=5)
    fgl = build_fgl(th)
    u = TruncatedSeries.variable(th, 1, 0)
    for ell in range(-3, 4):
        assert fgl.n_series(ell) == u.scale(ell)


def test_n_series_binary_matches_naive():
    for th in (helpers.mult(trunc=6), helpers.morava(2, 1, trunc=6)):
        fgl = build_fgl(th)
        u = TruncatedSeries.variable(th, 1, 0)
        naive = TruncatedSeries.zero(th, 1)
        for ell in range(1, 11):
            naive = u if naive.is_zero() else fgl.sum(naive, u)
            assert fgl.n_series(ell) == naive


def test_n_series_additivity_random():
    rng = random.Random(31)
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    for _ in range(8):
        a = rng.randrange(-4, 5)
        b = rng.randrange(-4, 5)
        lhs = fgl.sum(fgl.n_series(a), fgl.n_series(b))
        assert lhs == fgl.n_series(a + b)


def _inverse_theories():
    return (
        helpers.mult(trunc=8),
        helpers.morava(2, 1, trunc=8),
        helpers.morava(2, 2, trunc=8),
        helpers.morava(3, 1, trunc=8),
    )


def test_inverse_matches_degree_by_degree_oracle():
    rng = random.Random(37)
    for th in _inverse_theories():
        fgl = build_fgl(th)
        for nvars in (1, 2, 3):
            for _ in range(3):
                a = helpers.random_curve_element(rng, th, nvars, terms=3)
                assert fgl.n_series(-1).substitute([a]) == helpers.degree_by_degree_inverse(fgl, a)


def test_negative_n_series_matches_oracle():
    for th in _inverse_theories():
        fgl = build_fgl(th)
        for ell in range(1, 10):
            expect = helpers.degree_by_degree_inverse(fgl, fgl.n_series(ell))
            assert fgl.n_series(-ell) == expect


def test_inverse_makes_no_formal_sums_once_cached(monkeypatch):
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    fgl.n_series(-1)
    calls = []
    real_sum = fgl.sum
    monkeypatch.setattr(fgl, "sum", lambda a, b: calls.append(1) or real_sum(a, b))
    a = helpers.random_curve_element(random.Random(41), th, 3, terms=4)
    inv = fgl.n_series(-1).substitute([a])
    assert calls == []
    assert real_sum(a, inv).is_zero()


# (p, n, D): [-1] = [p^k - 1] with k the first power where p^(nk) > D, on
# both sides of each such threshold
MINUS_ONE_GRID = (
    [(2, 1, d) for d in (1, 2, 3, 4, 7, 8, 15, 16, 28)]
    + [(3, 1, d) for d in (2, 3, 8, 9, 26, 27)]
    + [(5, 1, d) for d in (4, 5, 24, 25)]
    + [(2, 2, d) for d in (3, 4, 15, 16, 28)]
    + [(3, 2, d) for d in (8, 9, 10)]
)


@pytest.mark.parametrize("p,n,trunc", MINUS_ONE_GRID)
def test_morava_minus_one_series_matches_degree_by_degree_oracle(p, n, trunc):
    th = helpers.morava(p, n, trunc=trunc)
    fgl = build_fgl(th)
    u = TruncatedSeries.variable(th, 1, 0)
    assert fgl.n_series(-1) == helpers.degree_by_degree_inverse(fgl, u)


def test_n_series_makes_no_formal_sums(monkeypatch):
    # every [ell]-series is read off a closed form: no formal sum and no
    # substitution, for [-1] at K(1), p = 2, D = 28 neither (solving it
    # degree by degree makes 27 formal sums)
    import gkmcalc.fgl as fgl_module

    monkeypatch.setattr(fgl_module, "_fgl_cache", {})
    calls = []
    for cls, name in ((fgl_module.FormalGroupLaw, "sum"), (TruncatedSeries, "substitute")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, real=real: calls.append(1) or real(*a))
    laws = (
        build_fgl(helpers.ordinary(trunc=8)),
        build_fgl(helpers.mult(trunc=8)),
        multiplicative_fgl(helpers.morava(2, 1, trunc=8)),
        build_fgl(helpers.morava(2, 1, trunc=28)),
        build_fgl(helpers.morava(3, 2, trunc=18)),
    )
    for fgl in laws:
        for ell in (-1, 2, -9, 10 ** 6, -(10 ** 6)):
            assert fgl.n_series(ell).order() != 0
    assert calls == []


def _oracle_ells(p, top):
    ells = set(range(-9, 10)) | {10 ** 6}
    for k in range(1, top + 1):
        ells |= {p ** k, -(p ** k), p ** k + 1, p ** k - 1}
    return sorted(ells)


def _honda_oracle_cases():
    """(p, n, D) for p in {2, 3, 5, 7} and n <= 3: D = 1, 32, and each side
    of every degree q^i <= 32 where a logarithm term enters."""
    cases = []
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            ds = {1, 32}
            qi = p ** n
            while qi <= 32:
                ds |= {qi - 1, qi, qi + 1}
                qi *= p ** n
            cases += [(p, n, d) for d in sorted(ds) if 1 <= d <= 32]
    return cases


@pytest.mark.parametrize("p,n,trunc", _honda_oracle_cases())
def test_honda_n_series_matches_doubling_oracle(p, n, trunc):
    fgl = build_fgl(helpers.morava(p, n, trunc=trunc))
    top = 1
    while p ** (n * top) <= trunc:
        top += 1  # [p^top] is the first to vanish
    memo = {}
    for ell in _oracle_ells(p, top + 1):
        assert fgl.n_series(ell) == helpers.n_series_by_doubling(fgl, ell, memo), ell


@pytest.mark.parametrize(
    "law",
    [
        lambda: build_fgl(helpers.ordinary(trunc=12)),
        lambda: build_fgl(helpers.modp(3, trunc=12)),
        lambda: build_fgl(helpers.rational(trunc=12)),
        lambda: build_fgl(helpers.mult(trunc=16)),
        lambda: build_fgl(helpers.mult(trunc=1)),
        lambda: multiplicative_fgl(helpers.morava(2, 1, trunc=32)),
    ],
    ids=["ordinary", "mod-3", "rational", "mult", "mult-D1", "mod-2-mult"],
)
def test_closed_n_series_matches_doubling_oracle(law):
    fgl = law()
    memo = {}
    for p in (2, 3):
        for ell in _oracle_ells(p, 4):
            assert fgl.n_series(ell) == helpers.n_series_by_doubling(fgl, ell, memo), (p, ell)


@pytest.mark.parametrize(
    "p,logarithm,message",
    [
        # log x = x + x^2/4, where the Honda logarithm has x^2/2: F has
        # -1/2 x y and [2]u has -1/2 u^2
        (2, [(1, 4), (2, 1)], "p-integrality failure at {}: coefficient -"),
        # log x = x + x^2 at p = 3: integral, but x y survives mod 3 in
        # total degree 2, as -2 u^2 does in [2]u, and 3^1 - 1 does not
        # divide 2 - 1
        (3, [(1, 1), (2, 1)], "coefficient of {} survives mod 3 but 2 does not divide 1"),
    ],
    ids=["p-integrality", "degree-rule"],
)
def test_corrupted_logarithm_trips_the_construction_checks(monkeypatch, p, logarithm, message):
    import gkmcalc.fgl as fgl_module

    monkeypatch.setattr(fgl_module, "_fgl_cache", {})
    monkeypatch.setattr(fgl_module, "_scaled_logarithm", lambda p, n, D: logarithm)
    fgl = build_fgl(helpers.morava(p, 1, trunc=4))
    # the law is built, and checked, on each read until one succeeds; the
    # [ell]-series are checked on their own, without it
    for _ in range(2):
        with pytest.raises(AssertionError, match=re.escape(message.format("x^1 y^1"))):
            fgl.series
    with pytest.raises(AssertionError, match=re.escape(message.format("u^2"))):
        fgl.n_series(2)
    assert "series" not in fgl.__dict__


def test_mod_p_reduction_of_multiplicative_p_series():
    # [p]u = p u - C(p,2) b u^2 + ... reduces to b^(p-1) u^p mod p
    for p in (2, 3, 5):
        th = helpers.mult(trunc=p + 2)
        fgl = build_fgl(th)
        series = fgl.n_series(p)
        for ((e,), k), c in series.coeffs.items():
            if e == p:
                assert c % p == 1 % p and k == p - 1
            else:
                assert c % p == 0


def test_height_one_cross_check_at_two():
    # Honda(2,1) and the multiplicative law over the same degree -2 ring have
    # the same 2-series but are different laws (isomorphic, not equal).
    th = helpers.morava(2, 1, trunc=8)
    honda = build_fgl(th)
    mult = multiplicative_fgl(th)
    monomial = TruncatedSeries(th, 1, {((2,), 1): 1})
    assert honda.n_series(2) == monomial
    assert mult.n_series(2) == monomial  # b^(p-1) = v1 at p = 2
    assert honda.series != mult.series


# (p, n, D): each law just below, at and above the degrees q^i where a new
# logarithm term enters, and at the largest truncation checked
HONDA_GRID = (
    [(2, 1, d) for d in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20)]
    + [(3, 1, d) for d in (2, 3, 4, 8, 9, 10, 26, 27)]
    + [(5, 1, d) for d in (4, 5, 6, 24, 25)]
    + [(2, 2, d) for d in (3, 4, 5, 15, 16, 17, 32)]
    + [(3, 2, d) for d in (8, 9, 10, 18)]
)


@pytest.mark.parametrize("p,n,trunc", HONDA_GRID)
def test_honda_law_matches_reversion_oracle(p, n, trunc):
    th = helpers.morava(p, n, trunc=trunc)
    assert build_fgl(th).series == helpers.honda_fgl_by_reversion(th)


def test_honda_build_makes_no_substitutions(monkeypatch):
    import gkmcalc.fgl as fgl_module

    calls = []
    real = TruncatedSeries.substitute
    monkeypatch.setattr(
        TruncatedSeries, "substitute", lambda s, args: calls.append(1) or real(s, args)
    )
    monkeypatch.setattr(fgl_module, "_fgl_cache", {})
    build_fgl(helpers.morava(2, 1, trunc=32)).series
    assert calls == []


def test_honda_integer_tables_match_fractions():
    from gkmcalc.fgl import _honda_tables

    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for D in range(1, 41):
                _A, delta, g = _honda_tables(p, n, D)
                assert (delta, g) == helpers.honda_exp_by_fractions(p, n, D), (p, n, D)


@settings(max_examples=40, deadline=2000)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(min_value=1, max_value=3),
    trunc=st.integers(min_value=2, max_value=24),
)
def test_honda_law_properties(p, n, trunc):
    th = helpers.morava(p, n, trunc=trunc)
    fgl = build_fgl(th)
    fgl_axioms(fgl)
    q = p ** n
    expect = {((q,), 1): 1} if q <= trunc else {}
    assert fgl.n_series(p) == TruncatedSeries(th, 1, expect)
    if trunc <= 12:
        assert fgl.series == helpers.honda_fgl_by_reversion(th)
