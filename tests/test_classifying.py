"""Character classes, cyclic classifying rings, and restriction ideals."""

import random
import signal

import pytest

from gkmcalc import (
    TruncatedSeries,
    build_fgl,
    character_class,
    cyclic_classifying_ring,
    kernel_ideal,
)
from gkmcalc.classifying import _slice_monomials, relation_order
from gkmcalc.gkm import formality_prediction
from gkmcalc.lattice import invariant_factors, vec_mat
from gkmcalc.series import _term_key, exponent_vectors

import helpers


def test_character_class_additive():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    chi = character_class(fgl, (2, -1))
    u1 = TruncatedSeries.variable(th, 2, 0)
    u2 = TruncatedSeries.variable(th, 2, 1)
    assert chi == u1.scale(2) - u2


def test_character_class_zero():
    th = helpers.mult(trunc=4)
    assert character_class(build_fgl(th), (0, 0)).is_zero()


def test_character_class_morava_p_series():
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    chi = character_class(fgl, (2, 0))
    assert chi == TruncatedSeries(th, 2, {((2, 0), 1): 1})


def test_character_class_additivity_random():
    rng = random.Random(61)
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    for _ in range(6):
        a = tuple(rng.randrange(-3, 4) for _ in range(2))
        b = tuple(rng.randrange(-3, 4) for _ in range(2))
        lhs = character_class(fgl, tuple(x + y for x, y in zip(a, b)))
        ca, cb = character_class(fgl, a), character_class(fgl, b)
        rhs = cb if ca.is_zero() else (ca if cb.is_zero() else fgl.sum(ca, cb))
        assert lhs == rhs


# ---- cyclic classifying rings ---------------------------------------------


def test_cyclic_ring_morava_two():
    th = helpers.morava(2, 1, trunc=8)
    ring = cyclic_classifying_ring(build_fgl(th), 2)
    assert ring.rank == 2 and ring.order == 2
    assert ring.relation == TruncatedSeries(th, 1, {((2,), 1): 1})


def test_cyclic_ring_prime_to_p_invisible():
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    r2 = cyclic_classifying_ring(fgl, 2)
    r6 = cyclic_classifying_ring(fgl, 6)
    assert r6.rank == 2
    assert (r6.order, r6.rank) == (r2.order, r2.rank)
    assert r6.relation != r2.relation  # same normal form, different series


def test_cyclic_ring_ordinary():
    th = helpers.ordinary(trunc=6)
    ring = cyclic_classifying_ring(build_fgl(th), 3)
    u = TruncatedSeries.variable(th, 1, 0)
    assert ring.relation == u.scale(3)
    assert ring.rank is None


SLICE_THEORIES = [
    helpers.ordinary(),
    helpers.rational(),
    helpers.modp(3),
    helpers.mult(),
    helpers.morava(2, 1),
    helpers.morava(2, 2),
    helpers.morava(3, 1),
]


def _theory_id(th):
    return f"{th.kind}-{th.p}-{th.n}"


@pytest.mark.parametrize("th", SLICE_THEORIES, ids=_theory_id)
def test_slice_monomials_come_in_print_order(th):
    # solve prints a slice's nonzero entries in index order, without a sort
    for m in range(1, 5):
        for q in range(9):
            keys = [_term_key((key, 1)) for key in _slice_monomials(th, m, q)]
            assert keys == sorted(set(keys))


@pytest.mark.parametrize("th", SLICE_THEORIES, ids=_theory_id)
def test_slice_monomials_match_a_brute_force_scan(th):
    # the solver's slice, and the formality count of a degree-a generator
    # (its slice at truncation D - a/2), are the terms of degree q, odd q
    # and negative truncations included
    for m in (1, 2, 3):
        for D in (1, 4, 7):
            th_d = th._replace(trunc=D)
            for q in range(-6, 15):
                expect = helpers.slice_by_brute_force(th_d, m, q)
                assert _slice_monomials(th_d, m, q) == expect, (m, D, q)
        for a in range(0, 20, 2):
            th_a = th._replace(trunc=th.trunc - a // 2)
            for q in range(-6, 15):
                expect = len(helpers.slice_by_brute_force(th_a, m, q - a))
                assert formality_prediction(th, m, [(a, 1)], q) == expect, (m, a, q)


def test_kunneth_product_ranks():
    # reduce every monomial of the two-variable ring modulo both relations;
    # the surviving staircase must be the tensor of the one-variable bases
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    r1 = cyclic_classifying_ring(fgl, 2)
    # ell = 12 = 4 * 3: order p^2, and the relation is not a bare monomial
    r2 = cyclic_classifying_ring(fgl, 12)

    rel1 = TruncatedSeries(th, 2, {((e, 0), k): c for ((e,), k), c in r1.relation.coeffs.items()})
    rel2 = TruncatedSeries(th, 2, {((0, e), k): c for ((e,), k), c in r2.relation.coeffs.items()})
    from gkmcalc.series import exponent_vectors

    survivors = []
    for alpha in exponent_vectors(2, th.trunc):
        mono = TruncatedSeries(th, 2, {(alpha, 0): 1})
        red = helpers.reduce_in_var(
            helpers.reduce_in_var(mono, r1.relation, 0), r2.relation, 1
        )
        if red == mono:
            survivors.append(alpha)
        # membership in the product ideal: both relations kill their variable
        if alpha[0] >= r1.order or alpha[1] >= r2.order:
            assert red != mono
    staircase = [a for a in survivors if a[0] < r1.order and a[1] < r2.order]
    assert sorted(survivors) == sorted(
        (a, b) for a in range(r1.order) for b in range(r2.order)
    )
    got = sorted(2 * (a + b) for a, b in staircase)
    tensor = sorted(2 * (b1 + b2) for b1 in range(r1.rank) for b2 in range(r2.rank))
    assert got == tensor
    assert len(staircase) == r1.rank * r2.rank
    assert th.is_unit(rel1.coefficient((r1.order, 0))[0])
    assert th.is_unit(rel2.coefficient((0, r2.order))[0])


# ---- kernel ideals ---------------------------------------------------------


def test_kernel_ideal_additive_two_torsion():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    ideal = kernel_ideal(fgl, (0, 2))
    assert ideal.d == 2 and ideal.theta == (0, 1)
    assert ideal.basis_change == [[1, 0], [0, 1]]
    u2 = TruncatedSeries.variable(th, 2, 1)
    assert ideal.generator == u2.scale(2)
    # oracle: the quotient Z[[u1,u2]]/(2 u2) has free rank 1 and b copies of
    # Z/2 in degree 2b, matching H*(B(S^1 x Z/2); Z) in low degrees
    for q in (2, 4, 6):
        monos = [alpha for alpha, _k in _slice_monomials(th, 2, q)]
        index = {alpha: i for i, alpha in enumerate(monos)}
        multiples = [{index[beta]: c for beta, c in h.items()} for h in ideal.multiples(q)]
        divs = invariant_factors(multiples)
        free_rank = len(monos) - len(divs)
        assert free_rank == 1
        assert divs == [2] * (q // 2)


def test_kernel_ideal_morava_two_torsion():
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    ideal = kernel_ideal(fgl, (0, 2))
    assert ideal.generator == TruncatedSeries(th, 2, {((0, 2), 1): 1})
    assert ideal.order == 2 and ideal.leading_unit


def test_kernel_ideal_primitive_is_last_variable():
    for th in (helpers.ordinary(trunc=5), helpers.morava(3, 1, trunc=5)):
        fgl = build_fgl(th)
        ideal = kernel_ideal(fgl, (1, 1))
        m = 2
        last = TruncatedSeries.variable(th, m, m - 1)
        assert ideal.generator == last
        assert vec_mat((1, 1), ideal.basis_change) == (0, 1)


# (theory, d): unit-lead generators of orders 1, 2 and 4, the zero generator
# of mod 3 at d = 3, and lattice edges
IDEAL_CASES = [
    (helpers.morava(2, 1, trunc=6), 1),
    (helpers.morava(2, 1, trunc=6), 3),
    (helpers.morava(2, 1, trunc=6), 2),
    (helpers.morava(2, 2, trunc=6), 2),
    (helpers.modp(3, trunc=6), 2),
    (helpers.modp(3, trunc=6), 3),
    (helpers.ordinary(trunc=5), 1),
    (helpers.ordinary(trunc=5), 2),
    (helpers.mult(trunc=5), 3),
]


def test_adapted_classes_are_taken_in_the_cut_ring():
    # an order-1 unit-lead ideal takes its adapted classes at u_m = 0, so
    # they have no u_m term; other ideals keep the full classes, and a
    # higher order cuts each image, the first power of a class included
    orders = set()
    for th, d in IDEAL_CASES:
        fgl = build_fgl(th)
        for theta in ((-1, 2), (2, -1, -1), (1, 1, 1)):
            ideal = kernel_ideal(fgl, tuple(d * a for a in theta))
            full = [character_class(fgl, tuple(row)) for row in ideal.basis_change]
            m = len(theta)
            firsts = ideal.monomial_images([tuple(int(i == j) for j in range(m)) for i in range(m)])
            assert firsts == [helpers.cut(c, ideal).coeffs for c in full]
            if ideal.leading_unit:
                orders.add(ideal.order)
            if ideal.leading_unit and ideal.order == 1:
                exponents = {alpha[-1] for c in ideal.adapted_classes for alpha, _k in c.coeffs}
                assert exponents == {0}
                assert [c.coeffs for c in ideal.adapted_classes] == firsts
            else:
                assert ideal.adapted_classes == full
    assert orders == {1, 2, 4}


def test_image_table_matches_series_products_and_full_substitution():
    # the table is filled from several slices' requests in any order; every
    # image equals the series product of the adapted classes, cut after each
    # factor, and the cut of the monomial moved by one full substitution
    for th, d in IDEAL_CASES:
        fgl = build_fgl(th)
        for theta in ((-1, 2), (2, -1, -1), (1, 1, 1)):
            ideal = kernel_ideal(fgl, tuple(d * a for a in theta))
            m = len(theta)
            alphas = exponent_vectors(m, th.trunc)
            for size in (2, 0, th.trunc, 1):
                part = [alpha for alpha in alphas if sum(alpha) == size]
                ideal.monomial_images(part)
            images = ideal.monomial_images(alphas)
            assert ideal.monomial_images(alphas[::-1]) == images[::-1]
            for alpha, image in zip(alphas, images):
                mono = TruncatedSeries(th, m, {(alpha, 0): 1})
                moved = helpers.cut(helpers.transport(fgl, mono, ideal.basis_change), ideal)
                assert image == moved.coeffs == helpers.series_product_image(ideal, alpha).coeffs


def test_generator_is_the_relation_on_the_last_variable():
    for th, d in IDEAL_CASES:
        fgl = build_fgl(th)
        relation = cyclic_classifying_ring(fgl, d).relation
        for theta in ((1,), (-1, 2), (2, -1, -1)):
            m = len(theta)
            ideal = kernel_ideal(fgl, tuple(d * a for a in theta))
            assert ideal.generator == relation.substitute([TruncatedSeries.variable(th, m, m - 1)])


def test_residue_of_character_class_vanishes():
    for th in (helpers.ordinary(trunc=6), helpers.morava(2, 1, trunc=6)):
        fgl = build_fgl(th)
        for weight in ((0, 2), (1, 1), (2, -2)):
            ideal = kernel_ideal(fgl, weight)
            chi = character_class(fgl, weight)
            assert helpers.ideal_residue(chi, ideal).is_zero()


def test_residue_detects_torsion():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    ideal = kernel_ideal(fgl, (0, 2))
    u2 = TruncatedSeries.variable(th, 2, 1)
    assert not helpers.ideal_residue(u2, ideal).is_zero()
    f = u2.scale(2) + (u2 * u2).scale(4)
    assert helpers.ideal_residue(f, ideal).is_zero()


def test_residue_well_defined_mod_ideal():
    # degrees are matched so that f*h + chi*k stays homogeneous
    rng = random.Random(67)
    for th in (helpers.morava(2, 1, trunc=6), helpers.ordinary(trunc=6), helpers.mult(trunc=6)):
        fgl = build_fgl(th)
        for weight in ((1, 1), (0, 2)):
            ideal = kernel_ideal(fgl, weight)
            chi = character_class(fgl, weight)
            for _ in range(4):
                qf, qh = 2 * rng.randrange(3), 2 * rng.randrange(1, 3)
                f = helpers.random_homogeneous(rng, th, 2, qf, terms=3)
                h = helpers.random_homogeneous(rng, th, 2, qh, terms=3)
                k = helpers.random_homogeneous(rng, th, 2, qf + qh - 2, terms=3)
                lhs = helpers.ideal_residue(f * h + chi * k, ideal)
                rhs = helpers.ideal_residue(f * h, ideal)
                assert lhs == rhs


def test_residue_matches_weierstrass_oracle():
    # a linear residue is the cut below the generator's order; the oracle
    # eliminates the adapted series against the d-series term by term
    rng = random.Random(73)
    cases = [(helpers.morava(2, 1, trunc=8), d) for d in (1, 2, 3, 6)]
    cases += [
        (helpers.morava(2, 2, trunc=8), 2),
        (helpers.morava(3, 1, trunc=8), 3),
        (helpers.modp(3, trunc=6), 1),
        (helpers.modp(3, trunc=6), 3),
        (helpers.mult(trunc=6), 1),
        (helpers.ordinary(trunc=6), 1),
    ]
    for th, d in cases:
        fgl = build_fgl(th)
        for theta in ((0, 1), (1, 2), (2, -1, 1)):
            ideal = kernel_ideal(fgl, tuple(d * a for a in theta))
            assert all(ideal.multiples(q) == [] for q in range(0, th.trunc, 2))
            for _ in range(3):
                f = helpers.random_series(rng, th, len(theta), terms=5)
                adapted = f.substitute(ideal.adapted_classes)
                expect = helpers.reduce_in_var(adapted, fgl.n_series(d), len(theta) - 1)
                assert helpers.ideal_residue(f, ideal) == expect


# (label, theory, d, linear residue): unit-lead generators, the zero
# generator of mod 3 at d = 3, and lattice edges
RESIDUE_CASES = (
    [("K1p2", helpers.morava(2, 1, trunc=6), d, True) for d in (1, 2, 3)]
    + [("K2p2", helpers.morava(2, 2, trunc=6), 2, True)]
    + [("mod3", helpers.modp(3, trunc=6), d, True) for d in (1, 3)]
    + [("ordinary", helpers.ordinary(trunc=5), d, False) for d in (2, 3)]
    + [("mult", helpers.mult(trunc=5), d, False) for d in (2, 3)]
)


@pytest.mark.parametrize(
    "th,d,linear", [pytest.param(*c[1:], id=f"{c[0]}-d{c[2]}") for c in RESIDUE_CASES]
)
def test_residues_match_full_substitution(th, d, linear):
    # each monomial image is a product of adapted classes; the oracle
    # substitutes the adapted classes into the whole monomial at once
    rng = random.Random(89 + d)
    fgl = build_fgl(th)
    for theta in ((-1, 2), (2, -1, -1)):
        ideal = kernel_ideal(fgl, tuple(d * a for a in theta))
        # a linear residue is a cut, and no multiples make a lattice condition
        assert (ideal.multiples(4) == []) == linear
        m = len(theta)
        alphas = exponent_vectors(m, th.trunc)
        table = dict(zip(alphas, ideal.monomial_images(alphas)))
        for alpha in alphas:
            mono = TruncatedSeries(th, m, {(alpha, 0): 1})
            expect = helpers.cut(helpers.transport(fgl, mono, ideal.basis_change), ideal)
            assert table[alpha] == expect.coeffs
        # the solver's rows are the images of f's monomials, with the
        # lattice of multiples in slack columns for a lattice edge
        for _ in range(4):
            f = helpers.random_series(rng, th, m, terms=5)
            images = (
                (TruncatedSeries.from_raw(th, m, table[alpha]), c, k)
                for (alpha, k), c in f.coeffs.items()
            )
            adapted = TruncatedSeries.combination(th, m, images)
            assert helpers.reduce_adapted(adapted, ideal) == helpers.ideal_residue(f, ideal)


def test_kernel_ideal_coordinate_independent():
    rng = random.Random(71)
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    weight = (2, 0)
    ideal = kernel_ideal(fgl, weight)
    for _ in range(4):
        w = helpers.random_unimodular(rng, 2)
        weight_w = vec_mat(weight, w)
        ideal_w = kernel_ideal(fgl, weight_w)
        for _ in range(4):
            f = helpers.random_series(rng, th, 2, terms=3)
            fw = helpers.transport(fgl, f, w)
            moved = helpers.ideal_residue(fw, ideal_w)
            assert helpers.ideal_residue(f, ideal).is_zero() == moved.is_zero()


def test_kernel_ideal_rejects_zero():
    th = helpers.ordinary()
    with pytest.raises(ValueError):
        kernel_ideal(build_fgl(th), (0, 0))


def _alarm(signum, frame):
    raise TimeoutError("still running after the deadline")


@pytest.mark.parametrize("ell", [0, -1, -4])
def test_relation_order_refuses_non_positive_orders(ell):
    # under morava, ell = 0 used to loop forever dividing out p
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        for th in (helpers.morava(2, 1), helpers.morava(3, 2), helpers.mult(), helpers.ordinary()):
            fgl = build_fgl(th)
            with pytest.raises(ValueError, match=f"positive integer, not {ell}$"):
                relation_order(fgl, ell)
            with pytest.raises(ValueError, match=f"positive integer, not {ell}$"):
                cyclic_classifying_ring(fgl, ell)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cyclic_ring_truncation_guard():
    th = helpers.morava(2, 2, trunc=8)
    with pytest.raises(ValueError):
        cyclic_classifying_ring(build_fgl(th), 4)  # relation order 16 > 8


def test_adapted_transport_sends_theta_class_to_last_variable():
    rng = random.Random(97)
    from gkmcalc.lattice import adapted_basis, primitive_part

    for th in (helpers.ordinary(trunc=6), helpers.morava(2, 1, trunc=6)):
        fgl = build_fgl(th)
        for _ in range(6):
            m = rng.randrange(2, 4)
            theta = tuple(rng.randrange(-4, 5) for _ in range(m))
            if not any(theta):
                continue
            _, theta = primitive_part(theta)
            moved = helpers.transport(fgl, character_class(fgl, theta), adapted_basis(theta))
            assert moved == TruncatedSeries.variable(th, m, m - 1)
