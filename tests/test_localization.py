"""Generic slopes, Euler classes, and the localization integral."""

import random
import re
import tracemalloc
from itertools import islice, product

import pytest

from gkmcalc import (
    EquivariantClass,
    LocalizationError,
    TruncatedSeries,
    build_fgl,
    character_class,
    euler_classes,
    find_generic_slope,
    integrate,
    iterate_generic_slopes,
    localize_class,
    solve_equivariant_cohomology,
)
from gkmcalc.graphio import parse_expression
from gkmcalc.localization import GenericSlope, _box_points, pairing, work_theory

import helpers


def test_slope_cp1():
    slope = find_generic_slope(helpers.cp1(), helpers.ordinary())
    assert slope.vector == (1,) and slope.mod_p_generic


def test_slope_cp2_rational():
    slope = find_generic_slope(helpers.cp2(), helpers.ordinary())
    assert slope.vector == (1, 2)
    for w in ((1, 0), (0, 1), (-1, 1)):
        assert pairing(w, slope.vector) != 0


def test_slope_cp2_mod2_falls_back():
    # no slope has all three pairings odd (l1, l2, l2 - l1 cannot all be odd),
    # so the search must fall back to an integer-generic slope
    th = helpers.morava(2, 1)
    slope = find_generic_slope(helpers.cp2(), th)
    assert slope.vector == (1, 2)
    assert not slope.mod_p_generic


def test_slope_cp2_mod3_exists():
    th = helpers.morava(3, 1)
    slope = find_generic_slope(helpers.cp2(), th)
    assert slope.mod_p_generic
    for w in ((1, 0), (0, 1), (-1, 1)):
        assert pairing(w, slope.vector) % 3 != 0


def test_box_points_order():
    # each box's new points, lexicographically, box after box
    expected = [
        v
        for s in range(1, 5)
        for v in sorted(product(range(1, s + 1), repeat=3))
        if max(v) == s
    ]
    assert list(islice(_box_points(3), len(expected))) == expected


def test_slope_search_is_lazy():
    # the mod-31 period box of CP^4 holds 31^4 slopes; the search stops at
    # the first good one instead of building the box
    tracemalloc.start()
    try:
        slope = find_generic_slope(helpers.cpn(4), helpers.modp(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slope == GenericSlope((1, 2, 3, 4), True)
    assert peak < 5_000_000


def _slopes_by_period_box(graph, p, count):
    """The first count slopes by the definition: mod-p generic ones when
    some point of the period box [1..p]^m is, else integer-generic ones."""

    def ok(lam, q):
        return all(t and (q is None or t % q) for t in (pairing(e.weight, lam) for e in graph.edges))

    generic = any(ok(lam, p) for lam in product(range(1, p + 1), repeat=graph.rank))
    q = p if generic else None
    found = (lam for lam in _box_points(graph.rank) if ok(lam, q))
    return [GenericSlope(lam, generic) for lam in islice(found, count)]


def test_slope_search_matches_the_period_box():
    # scaled weights, weights that vanish mod p, and graphs where no slope
    # is generic mod p (cp2 at p = 2), against a scan of the whole period box
    graphs = [helpers.cp1((3,)), helpers.cp1((10,)), helpers.cpn(3)]
    for g in (helpers.cp2(), helpers.cp1xcp1(), helpers.fl3()):
        graphs += [g, helpers.mapped(g, [[2, 0], [0, 1]]), helpers.mapped(g, [[1, 1], [0, 3]])]
    for g in graphs:
        for p in (2, 3, 5, 7):
            expected = _slopes_by_period_box(g, p, 4)
            assert list(islice(iterate_generic_slopes(g, helpers.modp(p)), 4)) == expected, (g, p)


def test_localize_character_class_additivity():
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    chi = character_class(fgl, (1, 1))
    slope = GenericSlope((1, 2))
    cls = EquivariantClass((chi,))
    (img,) = localize_class(fgl, cls, slope)
    assert img == fgl.n_series(3)


def test_localize_constants_unchanged():
    th = helpers.rational(trunc=6)
    fgl = build_fgl(th)
    one = TruncatedSeries.one(th, 2)
    cls = EquivariantClass((one,))
    (img,) = localize_class(fgl, cls, GenericSlope((1, 2)))
    assert img == TruncatedSeries.one(th, 1)


def test_euler_class_orders():
    th = helpers.morava(2, 1, trunc=8)
    fgl = build_fgl(th)
    g = helpers.cp2()
    slope = find_generic_slope(g, th)
    eus = euler_classes(g, fgl, slope)
    # pairings (1, 2), (-1, 1), (-2, -1): the 2-divisible ones double the order
    assert [e.order for e in eus] == [3, 2, 3]
    for e in eus:
        assert th.is_unit(e.series.coefficient(e.order)[0])


def test_euler_reordering_invariance():
    rng = random.Random(89)
    th = helpers.morava(3, 1, trunc=8)
    fgl = build_fgl(th)
    pairings = [1, -1, 2, 4]
    prod = TruncatedSeries.one(th, 1)
    for t in pairings:
        prod = prod * fgl.n_series(t)
    for _ in range(4):
        rng.shuffle(pairings)
        again = TruncatedSeries.one(th, 1)
        for t in pairings:
            again = again * fgl.n_series(t)
        assert again == prod


def test_cp1_euler_integral_every_theory():
    g = helpers.cp1()
    for th in (
        helpers.ordinary(),
        helpers.mult(),
        helpers.morava(2, 1),
        helpers.morava(3, 1),
    ):
        work = work_theory(th)
        fgl = build_fgl(work)
        cls = EquivariantClass(
            (character_class(fgl, (1,)), TruncatedSeries.zero(work, 1)), 2
        )
        report = integrate(g, th, cls)
        assert report.integral == (1, 0)
        assert report.negative_clean


def test_cp1_degree_zero_class_sums_to_zero():
    th = helpers.ordinary()
    tq = th.rationalized()
    one = TruncatedSeries.one(tq, 1)
    report = integrate(helpers.cp1(), th, EquivariantClass((one, one), 0))
    assert report.total.is_zero()
    assert report.integral is None  # not top degree


def test_cp2_hyperplane_squared_integral():
    th = helpers.ordinary()
    tq = th.rationalized()
    fq = build_fgl(tq)
    zero = TruncatedSeries.zero(tq, 2)
    h1 = character_class(fq, (1, 0))
    h2 = character_class(fq, (0, 1))
    cls = EquivariantClass((zero, h1 * h1, h2 * h2), 4)
    report = integrate(helpers.cp2(), th, cls)
    assert report.integral == (1, 0)
    assert report.integral_is_integer
    assert report.negative_clean


def test_integral_class_is_extended_to_the_rationals():
    th = helpers.ordinary()
    fz = build_fgl(th)
    zero = TruncatedSeries.zero(th, 2)
    h1 = character_class(fz, (1, 0))
    h2 = character_class(fz, (0, 1))
    report = integrate(helpers.cp2(), th, EquivariantClass((zero, h1 * h1, h2 * h2), 4))
    assert report.integral == (1, 0)
    assert report.integral_is_integer


def test_slope_independence():
    th = helpers.ordinary()
    tq = th.rationalized()
    fq = build_fgl(tq)
    zero = TruncatedSeries.zero(tq, 2)
    cls = EquivariantClass(
        (zero, character_class(fq, (1, 0)) ** 2, character_class(fq, (0, 1)) ** 2), 4
    )
    values = []
    for slope in islice(iterate_generic_slopes(helpers.cp2(), th), 3):
        values.append(integrate(helpers.cp2(), th, cls, slope=slope).integral)
    assert len(set(values)) == 1


def test_non_generic_slope_rejected():
    th = helpers.ordinary()
    tq = th.rationalized()
    one = TruncatedSeries.one(tq, 2)
    cls = EquivariantClass((one, one, one), 0)
    with pytest.raises(LocalizationError):
        integrate(helpers.cp2(), th, cls, slope=GenericSlope((1, 1)))


def test_library_functions_refuse_an_invalid_graph():
    # a graph the CLI has not marked valid is checked by every entry point
    from gkmcalc import GKMEdge, GKMGraph

    bad = GKMGraph(2, ["A", "B"], [GKMEdge(0, 1, (1, 0)), GKMEdge(0, 1, (2, 0))])
    th = helpers.ordinary()
    one = TruncatedSeries.one(th.rationalized(), 2)
    with pytest.raises(ValueError, match="^invalid GKM graph: vertex A: dependent weights"):
        integrate(bad, th, EquivariantClass((one, one), 0))
    with pytest.raises(LocalizationError, match="^invalid GKM graph: vertex A: dependent weights"):
        find_generic_slope(bad, th)
    with pytest.raises(ValueError, match="^invalid GKM graph: vertex A: dependent weights"):
        solve_equivariant_cohomology(bad, th, 2)


def test_precision_need_enforced():
    # Euler orders 2 and class orders 2: the sum reaches s^0 from trunc 2 on
    for trunc in (1, 2, 3):
        th = helpers.ordinary(trunc=trunc)
        tq = th.rationalized()
        fq = build_fgl(tq)
        zero = TruncatedSeries.zero(tq, 2)
        h1, h2 = character_class(fq, (1, 0)), character_class(fq, (0, 1))
        cls = EquivariantClass((zero, h1 * h1, h2 * h2), 4)
        if trunc == 1:
            with pytest.raises(LocalizationError, match="below the Euler order 2 at vertex A"):
                integrate(helpers.cp2(), th, cls)
        else:
            assert integrate(helpers.cp2(), th, cls).integral == (1, 0)


def test_slope_of_the_wrong_length_rejected():
    th = helpers.ordinary()
    one = TruncatedSeries.one(th.rationalized(), 2)
    cls = EquivariantClass((one, one, one), 0)
    for vector in ((1, 2, 5), (1,)):
        with pytest.raises(LocalizationError) as exc:
            integrate(helpers.cp2(), th, cls, slope=GenericSlope(vector))
        assert str(exc.value) == (
            f"slope {vector} has {len(vector)} entries for a torus of rank 2"
        )


_NEED_THEORIES = (
    helpers.ordinary,
    lambda trunc: helpers.modp(2, trunc),
    lambda trunc: helpers.modp(3, trunc),
    helpers.mult,
    lambda trunc: helpers.morava(2, 1, trunc),
    lambda trunc: helpers.morava(3, 1, trunc),
    lambda trunc: helpers.morava(2, 2, trunc),
)


def _need_classes(g, fgl, vertex):
    """The point class at vertex, c1^n, where c1 restricts to chi of the sum
    of the outgoing weights (two ends of an edge differ by a multiple of its
    weight, so c1 is a class in every theory), and the unit class."""
    m, n = g.rank, len(g.adjacency()[0])
    zero, one = TruncatedSeries.zero(fgl.theory, m), TruncatedSeries.one(fgl.theory, m)
    pt = [zero] * len(g.vertices)
    pt[vertex] = one
    for w in helpers.outgoing_weights(g, vertex):
        pt[vertex] = pt[vertex] * character_class(fgl, w)
    c1 = [
        character_class(fgl, tuple(map(sum, zip(*helpers.outgoing_weights(g, v))))) ** n
        for v in range(len(g.vertices))
    ]
    return [
        EquivariantClass(tuple(pt), 2 * n),
        EquivariantClass(tuple(c1), 2 * n),
        EquivariantClass((one,) * len(g.vertices), 0),
    ]


def _integrate_at(g, make_theory, trunc, vertex, which):
    th = make_theory(trunc)
    cls = _need_classes(g, build_fgl(th), vertex)[which]
    try:
        return integrate(g, th, cls)
    except LocalizationError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["cp1", "cp2", "cp1xcp1", "cp3", "fl3"])
def test_smallest_accepted_truncation_is_the_need(name):
    # one step below the smallest truncation that answers, the refusal names
    # that truncation; from there on the integral and the negative-part
    # verdict no longer change
    g = getattr(helpers, name)()
    rng = random.Random(f"need-{name}")
    for make_theory in _NEED_THEORIES:
        vertex = rng.randrange(len(g.vertices))
        for which in (0, 1, 2):
            trunc, below = 1, None
            while isinstance(got := _integrate_at(g, make_theory, trunc, vertex, which), str):
                if not got.startswith(("truncation degree", "precision exhausted")):
                    break
                trunc, below = trunc + 1, got
            if isinstance(got, str):
                # a refusal no truncation mends: mult scalars, a vanishing mod-p class
                assert _integrate_at(g, make_theory, trunc + 6, vertex, which) == got
                continue
            if below is not None:
                assert re.search(f"smallest truncation degree that (keeps|reaches) it is {trunc}$", below)
            # the sum is known through every exponent the answer reads
            assert got.total.prec > (-1 if which == 2 else 0)
            later = _integrate_at(g, make_theory, trunc + 6, vertex, which)
            assert (got.integral, got.negative_clean) == (later.integral, later.negative_clean)


def test_top_degree_solver_basis_localizes_cleanly():
    th = helpers.morava(2, 1, trunc=8)
    g = helpers.cp2()
    sol = solve_equivariant_cohomology(g, th, 4)
    slope = find_generic_slope(g, th)
    for cls in sol.bases[4]:
        report = integrate(g, th, cls, slope=slope)
        assert report.negative_clean


def test_a_class_mixing_degrees_at_one_monomial_localizes_as_its_parts():
    # under K(1) at p = 2 both parts have a term at u1*u2: v1*u1*u2 in
    # chi(1,1), of degree 2, and u1*u2 itself, of degree 4
    th = helpers.morava(2, 1, trunc=10)
    fgl = build_fgl(th)
    g = helpers.cp2()
    zero = TruncatedSeries.zero(th, 2)

    def report(expr):
        f = parse_expression(expr, fgl, 2)
        return integrate(g, th, EquivariantClass((f, zero, zero)))

    mixed = report("chi(1,1) + chi(1,0)*chi(0,1)")
    assert mixed.class_degree is None
    low, high = report("chi(1,1)"), report("chi(1,0)*chi(0,1)")
    assert low.slope == high.slope == mixed.slope
    parts = low.total + high.total
    prec = min(mixed.total.prec, parts.prec)
    assert prec > 0
    below = [(e, k) for e, k in {**mixed.total.coeffs, **parts.coeffs} if e < prec]
    assert below
    for key in below:
        assert mixed.total.coeffs.get(key, 0) == parts.coeffs.get(key, 0)


def test_integrate_at_slope_reads_each_star_once(monkeypatch):
    # one adjacency build and one pairing per edge end: the Euler classes
    # carry the orders, the pairings and the top degree
    import gkmcalc.localization as localization
    from gkmcalc import GKMGraph

    g = helpers.fl3()
    th = helpers.morava(2, 1, trunc=12)
    fgl = build_fgl(th)
    slope = find_generic_slope(g, th)
    pt = _need_classes(g, fgl, 0)[0]
    localized = localize_class(fgl, pt, slope)
    calls = {"adjacency": 0, "pairing": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(GKMGraph, "adjacency", counted("adjacency", GKMGraph.adjacency))
    monkeypatch.setattr(localization, "pairing", counted("pairing", localization.pairing))
    report = localization.integrate_at_slope(g, th, slope, localized, pt.degree)
    assert report.integral == (1, 0)
    assert calls == {"adjacency": 1, "pairing": 2 * len(g.edges)}


def test_euler_classes_below_the_euler_order_keep_the_rules_orders():
    # CP^2 under K(2) at p = 2 has no mod-2 generic slope; at (1, 2) the
    # pairings 2 and -2 have [2]-series of order p^n = 4, past --trunc 2
    th = helpers.morava(2, 2, trunc=2)
    g = helpers.cp2()
    slope = find_generic_slope(g, th)
    assert slope == GenericSlope((1, 2), mod_p_generic=False)
    eus = euler_classes(g, build_fgl(th), slope)
    assert [e.order for e in eus] == [5, 2, 5]
    assert [e.series.order() for e in eus] == [None, 2, None]


def test_euler_classes_refuse_a_slope_pairing_to_zero():
    # (1, 1) pairs to zero with the weight -1, 1 of the edge B-C
    th = helpers.ordinary()
    with pytest.raises(LocalizationError) as exc:
        euler_classes(helpers.cp2(), build_fgl(th.rationalized()), GenericSlope((1, 1)))
    assert str(exc.value) == "slope (1, 1) pairs to zero with a weight at vertex B"


def test_integrate_refuses_the_wrong_number_of_restrictions():
    th = helpers.ordinary()
    one = TruncatedSeries.one(th.rationalized(), 2)
    with pytest.raises(ValueError) as exc:
        integrate(helpers.cp2(), th, EquivariantClass((one, one), 0))
    assert str(exc.value) == "class has the wrong number of fixed-point restrictions"


def test_unit_lead_refusal_names_the_first_vertex_without_one():
    # under mult the Euler class leads with the product of the pairings: at
    # B (pairings -1 and 1) a unit, at A (1 and 2) the non-unit 2
    from gkmcalc import GKMEdge, GKMGraph

    edges = [GKMEdge(1, 0, (1, 0)), GKMEdge(1, 2, (0, 1)), GKMEdge(0, 2, (-1, 1))]
    g = GKMGraph(2, ["B", "A", "C"], edges)
    th = helpers.mult(trunc=3)
    one = TruncatedSeries.one(th, 2)
    with pytest.raises(LocalizationError) as exc:
        integrate(g, th, EquivariantClass((one,) * 3, 0))
    assert str(exc.value) == "Euler class at vertex A has no unit leading coefficient for slope (1, 2)"
