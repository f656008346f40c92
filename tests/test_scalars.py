"""Coefficient-ring rules: degrees, units, inverses and reduction, read off
Theory and off constant series, whose raw (c, k) coefficients are the ring's
homogeneous elements c * unit^k."""

import random

import pytest

from gkmcalc import (
    MOD_P,
    MORAVA,
    ORDINARY,
    DegreeError,
    TheoryConfig,
    TruncatedSeries,
    make_theory,
)

import helpers


def const(th, c, k=0):
    """The constant series c * unit^k in one variable."""
    return TruncatedSeries(th, 1, {((0,), k): c})


def test_make_theory_menu():
    th = make_theory(TheoryConfig(MORAVA, 12, p=2, n=1))
    assert th.period_degree == 2  # |v1| = -2 at p = 2
    assert th.unit_name == "v1"
    th2 = make_theory(TheoryConfig(ORDINARY, 8))
    assert th2.period_degree == 0
    assert th2.char == 0


def test_make_theory_validation():
    with pytest.raises(ValueError):
        make_theory(TheoryConfig(MORAVA, 8, p=2))  # missing n
    with pytest.raises(ValueError):
        make_theory(TheoryConfig(MORAVA, 8, p=4, n=1))  # p not prime
    for p in (5.0, 47.0):
        with pytest.raises(ValueError, match="not an integer"):
            make_theory(TheoryConfig(MOD_P, 8, p=p))
    with pytest.raises(ValueError):
        make_theory(TheoryConfig(MOD_P, 8))  # missing p
    with pytest.raises(ValueError):
        make_theory(TheoryConfig(ORDINARY, 0))  # bad truncation
    with pytest.raises(ValueError):
        make_theory(TheoryConfig(ORDINARY, 8, p=5))  # extraneous p
    with pytest.raises(ValueError):
        make_theory(TheoryConfig("elliptic", 8))


def test_unit_axiom_morava():
    th = helpers.morava(5, 1)
    one = TruncatedSeries.one(th, 1)
    v = one.scale(1, 1)
    assert v.scale(th.inverse(1), -1) == one
    assert one.scale(th.inverse(1), -1).coefficient((0,)) == (1, -1)


def test_degrees_morava_height_two():
    th = helpers.morava(2, 2)
    assert th.period_degree == 6  # |v2| = -2(p^n - 1)
    v = const(th, 1, 1)
    assert v.homogeneous_degree() == -6
    assert (v * v).homogeneous_degree() == -12


@pytest.mark.parametrize(
    "th",
    [
        helpers.ordinary(),
        helpers.rational(),
        helpers.modp(3),
        helpers.mult(),
        helpers.morava(2, 1),
        helpers.morava(2, 2),
        helpers.morava(3, 1),
    ],
    ids=lambda th: f"{th.kind}-{th.p}-{th.n}",
)
def test_degree_and_unit_exponent_invert_each_other(th):
    per = th.period_degree
    ks = range(-6, 7) if per else (0,)
    for size in range(12):
        for k in ks:
            assert th.degree(size, k) == 2 * size - k * per
            assert th.unit_exponent(size, th.degree(size, k)) == k
        for q in range(-20, 25):
            k = th.unit_exponent(size, q)
            if k is None:
                assert all(th.degree(size, j) != q for j in range(-30, 31)), (size, q)
            else:
                assert th.degree(size, k) == q, (size, q)


def test_is_unit_ordinary():
    th = helpers.ordinary()
    assert not th.is_unit(2)
    assert not th.is_unit(0)
    assert th.is_unit(-1) and th.is_unit(1)
    assert th.inverse(-1) == -1
    with pytest.raises(ZeroDivisionError):
        th.inverse(2)


def test_add_degree_mismatch():
    th = helpers.mult()
    b = const(th, 1, 1)
    # a sum of unequal degrees is a series, but not one coefficient
    mixed = TruncatedSeries.one(th, 1) + b
    assert mixed.degrees() == [-2, 0]
    with pytest.raises(DegreeError):
        mixed.coefficient((0,))
    # zero is compatible with anything
    assert (TruncatedSeries.zero(th, 1) + b).coefficient((0,)) == (1, 1)


def test_mod_p_normalization():
    th = helpers.modp(5)
    assert th.reduce(7) == 2
    assert th.reduce(-3) == 2
    assert th.reduce(5) == 0
    assert const(th, 7) == const(th, 2)
    assert const(th, 5).is_zero()
    assert th.period_degree == 0


def test_graded_field_property():
    rng = random.Random(11)
    for th in (helpers.modp(3), helpers.morava(2, 1), helpers.morava(3, 2, trunc=4)):
        for _ in range(50):
            c = rng.randrange(1, th.p)
            assert th.is_unit(c)
            assert th.reduce(c * th.inverse(c)) == 1
        assert not th.is_unit(th.reduce(th.p))
    q = helpers.rational()
    assert q.is_unit(3) and q.inverse(3) * 3 == 1


def test_ring_axioms_randomized():
    rng = random.Random(7)
    theories = [
        helpers.ordinary(),
        helpers.rational(),
        helpers.modp(3),
        helpers.mult(),
        helpers.morava(2, 1),
    ]
    for th in theories:
        for _ in range(40):
            vex = (lambda: rng.randrange(-2, 3)) if th.period_degree else (lambda: 0)
            v = vex()
            a = const(th, rng.randrange(-6, 7), v)
            b = const(th, rng.randrange(-6, 7), v)
            c = const(th, rng.randrange(-6, 7), vex())
            assert a + b == b + a
            assert a * c == c * a
            assert (a + b) * c == a * c + b * c
            assert len((a + b).degrees()) <= 1


def test_degree_additivity_under_mul():
    th = helpers.morava(3, 1)
    a = const(th, 2, 1)
    b = const(th, 1, -2)
    assert (a * b).homogeneous_degree() == a.homogeneous_degree() + b.homogeneous_degree()
    assert (-a).homogeneous_degree() == a.homogeneous_degree()


# ---- primality and the theory records -----------------------------------------


def test_is_prime_agrees_with_sympy():
    from sympy import isprime

    from gkmcalc.scalars import is_prime

    assert [n for n in range(2, 10**4) if is_prime(n)] == [n for n in range(2, 10**4) if isprime(n)]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # to every prime base up to 31
        318665857834031151167461,  # to every prime base up to 37
    ],
)
def test_is_prime_refuses_strong_pseudoprimes(n):
    from gkmcalc.scalars import is_prime

    assert not is_prime(n)
    with pytest.raises(ValueError, match=f"p = {n} is not prime"):
        make_theory(TheoryConfig(MOD_P, 3, p=n))


def _alarm(signum, frame):
    raise TimeoutError("primality test outlived its 5 s deadline")


def test_large_prime_is_certified_quickly():
    import signal

    p = 2**61 - 1
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        th = make_theory(TheoryConfig(MOD_P, 3, p=p))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert th.char == p


def test_prime_above_the_certified_bound_is_refused_by_name():
    from gkmcalc.scalars import _PRIME_BOUND

    p = _PRIME_BOUND + 142  # the least prime above the bound
    with pytest.raises(ValueError, match=f"p = {p} is too large"):
        make_theory(TheoryConfig(MOD_P, 3, p=p))


def test_theory_records_refuse_assignment():
    from gkmcalc import GenericSlope, GKMEdge

    records = [
        (TheoryConfig(ORDINARY, 8), "trunc"),
        (make_theory(TheoryConfig(ORDINARY, 8)), "kind"),
        (GKMEdge(0, 1, (1,)), "weight"),
        (GenericSlope((1, 2)), "mod_p_generic"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_equal_theories_share_one_formal_group_law():
    from gkmcalc import build_fgl

    cfg = TheoryConfig(MORAVA, 6, p=2, n=1)
    a, b = make_theory(cfg), make_theory(cfg)
    assert a == b and hash(a) == hash(b)
    assert build_fgl(a) is build_fgl(b)
