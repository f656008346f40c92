"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact: the coefficient rings are exact and every
tolerance in the criteria is zero.
"""

import random
import sys
from functools import lru_cache
from itertools import islice

from gkmcalc import (
    EquivariantClass,
    TruncatedSeries,
    build_fgl,
    character_class,
    check_formality,
    cyclic_classifying_ring,
    find_generic_slope,
    integrate,
    iterate_generic_slopes,
    solve_equivariant_cohomology,
)
from gkmcalc.lattice import vec_mat

import helpers
from helpers import satisfies_congruences


def criterion(n, name):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {n} ({name}): FAIL", file=sys.stderr)
                raise
            print(f"criterion {n} ({name}): PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


D16_THEORIES = [
    helpers.ordinary(trunc=16),
    helpers.mult(trunc=16),
    helpers.morava(2, 1, trunc=16),
    helpers.morava(3, 1, trunc=16),
    helpers.morava(2, 2, trunc=16),
]

GOLDEN = [
    ("cp1", helpers.cp1(), helpers.CP1_BETTI),
    ("cp2", helpers.cp2(), helpers.CP2_BETTI),
    ("cp1xcp1", helpers.cp1xcp1(), helpers.CP1XCP1_BETTI),
]


@lru_cache(maxsize=None)
def solved(graph_name, kind, p, n, trunc, qmax):
    graph = dict((name, g) for name, g, _ in GOLDEN)[graph_name]
    if kind == "rational":
        th = helpers.rational(trunc)
    elif kind == "ordinary":
        th = helpers.ordinary(trunc)
    else:
        th = helpers.morava(p, n, trunc)
    return solve_equivariant_cohomology(graph, th, qmax)


@criterion(1, "formal group law axioms at D=16")
def test_criterion_1_fgl_axioms():
    for th in D16_THEORIES:
        f = build_fgl(th)
        x2 = TruncatedSeries.variable(th, 2, 0)
        y2 = TruncatedSeries.variable(th, 2, 1)
        assert f.sum(x2, TruncatedSeries.zero(th, 2)) == x2
        assert f.sum(TruncatedSeries.zero(th, 2), y2) == y2
        swapped = {((j, i), k): c for ((i, j), k), c in f.series.coeffs.items()}
        assert swapped == f.series.coeffs
        x, y, z = (TruncatedSeries.variable(th, 3, i) for i in range(3))
        assert f.sum(f.sum(x, y), z) == f.sum(x, f.sum(y, z))


@criterion(2, "Honda p-series and iterated p-series at D=16")
def test_criterion_2_honda_p_series():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        th = helpers.morava(p, n, trunc=16)
        f = build_fgl(th)
        assert f.n_series(p) == TruncatedSeries(th, 1, {((p ** n,), 1): 1})
        d2 = (p ** (2 * n) - 1) // (p ** n - 1)
        expect = TruncatedSeries(th, 1, {((p ** (2 * n),), d2): 1})
        assert f.n_series(p * p) == expect


@criterion(3, "classifying-space ranks p^{rn}")
def test_criterion_3_classifying_ranks():
    th = helpers.morava(2, 1, trunc=16)
    f = build_fgl(th)
    rings = {ell: cyclic_classifying_ring(f, ell) for ell in (2, 4, 6, 12)}
    assert [rings[ell].rank for ell in (2, 4, 6, 12)] == [2, 4, 2, 4]
    assert (rings[6].order, rings[6].rank) == (rings[2].order, rings[2].rank)
    assert (rings[12].order, rings[12].rank) == (rings[4].order, rings[4].rank)
    th3 = helpers.morava(3, 1, trunc=16)
    f3 = build_fgl(th3)
    rings3 = {ell: cyclic_classifying_ring(f3, ell) for ell in (3, 9, 6)}
    assert [rings3[ell].rank for ell in (3, 9, 6)] == [3, 9, 3]
    assert (rings3[6].order, rings3[6].rank) == (rings3[3].order, rings3[3].rank)


@criterion(4, "golden solver ranks match the formality prediction")
def test_criterion_4_golden_ranks():
    for name, graph, betti in GOLDEN:
        for kind, p, n in (("rational", 0, 0), ("morava", 2, 1), ("morava", 3, 1)):
            sol = solved(name, kind, p, n, 6, 8)
            report = check_formality(graph, betti, sol)
            assert report.passed, (name, kind, p, n, report.rows)
        # over the integers the free ranks agree with the rational ranks
        solz = solved(name, "ordinary", 0, 0, 6, 8)
        solq = solved(name, "rational", 0, 0, 6, 8)
        assert solz.ranks == solq.ranks


@criterion(5, "echelon independence of solver bases")
def test_criterion_5_injectivity_structure():
    rng = random.Random(101)
    sol = solved("cp2", "morava", 2, 1, 6, 4)
    basis = sol.bases[4]
    th = sol.theory
    for _ in range(100):
        coeffs = [rng.randrange(th.p) for _ in basis]
        if not any(coeffs):
            continue
        combo = None
        for c, cls in zip(coeffs, basis):
            if c == 0:
                continue
            part = EquivariantClass(tuple(f.scale(c) for f in cls.restrictions), cls.degree)
            combo = part if combo is None else combo + part
        assert combo is not None and any(not f.is_zero() for f in combo.restrictions)


@criterion(6, "localization: clean negative parts, Schubert integral, slopes")
def test_criterion_6_localization():
    # every top-degree solver basis element localizes with no negative part
    for name, graph, betti in GOLDEN:
        top = 2 * len(graph.adjacency()[0])
        for kind, p, n in (("rational", 0, 0), ("morava", 2, 1)):
            sol = solved(name, kind, p, n, 8, top)
            slope = find_generic_slope(graph, sol.theory)
            for cls in sol.bases[top]:
                report = integrate(graph, sol.theory, cls, slope=slope)
                assert report.negative_clean, (name, kind, slope)
    # the plane's hyperplane-squared integral is exactly 1 over the rationals
    tz = helpers.ordinary(trunc=8)
    tq = tz.rationalized()
    fq = build_fgl(tq)
    cls = EquivariantClass(
        (
            TruncatedSeries.zero(tq, 2),
            character_class(fq, (1, 0)) ** 2,
            character_class(fq, (0, 1)) ** 2,
        ),
        4,
    )
    values = []
    for slope in islice(iterate_generic_slopes(helpers.cp2(), tz), 3):
        values.append(integrate(helpers.cp2(), tz, cls, slope=slope).integral)
    assert values[0] == (1, 0)
    assert len(set(values)) == 1  # slope independence across 3 valid slopes


@criterion(7, "coordinate invariance of ranks and integrals")
def test_criterion_7_coordinate_invariance():
    rng = random.Random(103)
    for name, graph, betti in GOLDEN:
        base_q = solved(name, "rational", 0, 0, 6, 6).ranks
        base_m = solved(name, "morava", 2, 1, 6, 6).ranks
        for _ in range(5):
            w = helpers.random_unimodular(rng, graph.rank)
            moved = helpers.mapped(graph, w)
            tq = helpers.rational(6)
            tm = helpers.morava(2, 1, trunc=6)
            assert solve_equivariant_cohomology(moved, tq, 6).ranks == base_q
            assert solve_equivariant_cohomology(moved, tm, 6).ranks == base_m
    # integrals: transport each golden class along w and re-integrate
    tz = helpers.ordinary(trunc=8)
    tq = tz.rationalized()
    fq = build_fgl(tq)
    zero1 = TruncatedSeries.zero(tq, 1)
    zero2 = TruncatedSeries.zero(tq, 2)
    one = (1, 0)
    for _ in range(5):
        w1 = [[rng.choice([-1, 1])]]
        cls = EquivariantClass((character_class(fq, vec_mat((1,), w1)), zero1), 2)
        assert integrate(helpers.mapped(helpers.cp1(), w1), tz, cls).integral == one

        w2 = helpers.random_unimodular(rng, 2)
        e1 = character_class(fq, vec_mat((1, 0), w2))
        e2 = character_class(fq, vec_mat((0, 1), w2))
        cls = EquivariantClass((zero2, e1 * e1, e2 * e2), 4)
        assert integrate(helpers.mapped(helpers.cp2(), w2), tz, cls).integral == one
        cls = EquivariantClass((e1 * e2, zero2, zero2, zero2), 4)
        assert integrate(helpers.mapped(helpers.cp1xcp1(), w2), tz, cls).integral == one


@criterion(8, "negative controls")
def test_criterion_8_negative_controls():
    # perturbing the BC weight of the plane breaks the documented witness:
    # the hyperplane class (0, u1, u2) stops satisfying the congruences
    from gkmcalc import GKMEdge, GKMGraph, validate_graph

    tq = helpers.rational(6)
    fq = build_fgl(tq)
    witness = EquivariantClass(
        (
            TruncatedSeries.zero(tq, 2),
            character_class(fq, (1, 0)),
            character_class(fq, (0, 1)),
        ),
        2,
    )
    assert satisfies_congruences(helpers.cp2(), fq, witness)
    perturbed = GKMGraph(
        2,
        ["A", "B", "C"],
        [GKMEdge(0, 1, (1, 0)), GKMEdge(0, 2, (0, 1)), GKMEdge(1, 2, (-1, 2))],
    )
    assert validate_graph(perturbed) == []
    assert not satisfies_congruences(perturbed, fq, witness)
    # wrong betti input fails the formality check at the first bad degree
    sol = solved("cp1", "rational", 0, 0, 6, 4)
    report = check_formality(helpers.cp1(), [(0, 2)], sol)
    assert not report.passed and helpers.first_failure(report) == 0
