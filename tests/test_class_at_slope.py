"""Class expressions evaluated at the integration slope, against their
expansion in the torus variables followed by the substitution."""

import glob
import os
import random
import signal
from contextlib import contextmanager

import pytest

from gkmcalc import (
    GraphDocument,
    GraphFileError,
    build_class,
    build_fgl,
    iterate_generic_slopes,
    load_graph_document,
    localize_class,
)
from gkmcalc.graphio import class_at_slope
from gkmcalc.localization import work_theory

import helpers

GRAPH_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "graphs", "*.json")))

GRAPHS = {
    "CP2": helpers.cp2,
    "CP3": helpers.cp3,
    "CP4": lambda: helpers.cpn(4),
    "Gr2_4": lambda: helpers.grassmannian(2, 4),
    "Fl3": helpers.fl3,
    "Fl4": lambda: helpers.flag_variety(4),
    **{os.path.basename(f): (lambda f=f: load_graph_document(f)) for f in GRAPH_FILES},
}

THEORIES = {
    "ordinary": helpers.ordinary,
    "mod5": lambda trunc: helpers.modp(5, trunc),
    "K1p2": lambda trunc: helpers.morava(2, 1, trunc),
    "K1p3": lambda trunc: helpers.morava(3, 1, trunc),
    "K2p2": lambda trunc: helpers.morava(2, 2, trunc),
    "mult": helpers.mult,
}


def _alarm(signum, frame):
    raise TimeoutError("an example outlived its 10 s deadline")


@contextmanager
def _deadline(seconds=10):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _document(graph, classes):
    """graph (a GKMGraph or a loaded document) with the classes name ->
    (degree tag, expressions) added."""
    doc = graph if isinstance(graph, GraphDocument) else GraphDocument(graph, None, {})
    return doc._replace(classes={**doc.classes, **classes})


def _both_ways(doc, name, theory):
    """The named class's restrictions at the first generic slope and its
    degree, or the refusal text: by localize_class of build_class, and by
    class_at_slope."""
    fgl = build_fgl(work_theory(theory))
    slope = next(iterate_generic_slopes(doc.graph, theory))
    try:
        cls = build_class(doc, name, fgl)
        degree = cls.degree if cls.degree is not None else cls.computed_degree()
        expanded = (localize_class(fgl, cls, slope), degree)
    except GraphFileError as exc:
        expanded = str(exc)
    try:
        at_slope = class_at_slope(doc, name, fgl, slope.vector)
    except GraphFileError as exc:
        at_slope = str(exc)
    return expanded, at_slope


def _atom(rng, m, unit):
    r = rng.random()
    if r < 0.3:
        return f"u{rng.randint(1, m)}"
    if r < 0.65:
        return "chi(%s)" % ",".join(str(rng.randint(-3, 3)) for _ in range(m))
    if r < 0.85:
        return str(rng.randint(0, 6))
    if r < 0.95:
        return rng.choice([unit, f"{unit}^-1", f"{unit}^2"])
    return rng.choice(["2^-1", f"(3*{unit})^-2"])


def _expression(rng, m, unit, depth=0):
    """A random expression: mostly products, powers and unary minus, with
    some sums."""
    r = rng.random()
    if depth >= 3 or r < 0.35:
        return _atom(rng, m, unit)
    sub = [_expression(rng, m, unit, depth + 1) for _ in range(rng.randint(2, 3))]
    if r < 0.65:
        return "*".join(sub)
    if r < 0.8:
        return f"({sub[0]})^{rng.choice([0, 1, 2, 3, 5, 9])}"
    if r < 0.9:
        return f"(-{sub[0]})"
    return f"({sub[0]} {rng.choice('+-')} {sub[1]})"


@pytest.mark.parametrize("theory_name", sorted(THEORIES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_restrictions_at_the_slope_equal_the_substituted_expansion(graph_name, theory_name):
    rng = random.Random(f"slope-{graph_name}-{theory_name}")
    graph = GRAPHS[graph_name]()
    g = graph.graph if isinstance(graph, GraphDocument) else graph
    unit = "b" if theory_name == "mult" else "v"
    for _ in range(5):
        theory = THEORIES[theory_name](rng.randint(2, 10))
        classes = {
            f"r{i}": (
                rng.choice([None, None, None, None, 0, 2, 4, 2 * len(g.adjacency()[0])]),
                [_expression(rng, g.rank, unit) if rng.random() < 0.7 else "0" for _ in g.vertices],
            )
            for i in range(3)
        }
        doc = _document(graph, classes)
        for name in doc.classes:
            with _deadline():
                expanded, at_slope = _both_ways(doc, name, theory)
            assert at_slope == expanded, (name, doc.classes[name], theory)


def _one(expr, theory, degree=None):
    """Both ways for a class on CP^2 that is expr at vertex B and zero elsewhere."""
    doc = _document(helpers.cp2(), {"c": (degree, ["0", expr, "0"])})
    with _deadline():
        expanded, at_slope = _both_ways(doc, "c", theory)
    assert at_slope == expanded
    return at_slope


def _cause(expr, cause):
    return f"<graph>: class 'c' at vertex B: expression {expr!r}: {cause}"


def test_a_power_past_the_truncation_is_refused():
    got = _one("u1^99", helpers.ordinary(8))
    assert got == _cause("u1^99", "nonzero factors multiply to zero at truncation degree 8")


@pytest.mark.parametrize("expr", ["chi(5,0)", "5*chi(1,0)", "chi(5,0)*u1^8", "5*chi(1,0)*u2^8", "chi(5,0)^9"])
def test_zero_atoms_under_mod_5_make_a_zero_restriction_without_a_refusal(expr):
    # the order sums of the last three pass the truncation, but a factor is
    # zero, so the rings being domains says nothing
    series, degree = _one(expr, helpers.modp(5, 8))
    assert series[1].is_zero() and degree == 0


@pytest.mark.parametrize("k, cut", [(1, False), (4, False), (5, True)])
def test_powers_of_an_order_two_character_cross_the_truncation(k, cut):
    # under K(1) at p = 2, [2]u has order 2, so chi(2,0) does too
    th = helpers.morava(2, 1, 8)
    for expr in (f"chi(2,0)^{k}", "*".join(["chi(2,0)"] * k), f"chi(2,0)^{k}*1"):
        got = _one(expr, th)
        if cut:
            assert got == _cause(expr, "nonzero factors multiply to zero at truncation degree 8")
        else:
            assert got[1] == 2 * k and got[0][1].order() >= 2 * k
    # one more variable after the fourth power passes the truncation
    assert _one("chi(2,0)^4*u1", th) == _cause(
        "chi(2,0)^4*u1", "nonzero factors multiply to zero at truncation degree 8"
    )
    assert _one("chi(2,1)^8", th)[1] == 16  # the order is the least one, 1


def test_zero_and_scalar_corner_cases():
    one = helpers.modp(5, 6)
    assert _one("chi(0,0)", one)[0][1].is_zero()
    assert _one("0^0", one)[0][1] == _one("1", one)[0][1]
    assert _one("2^-1", one)[0][1] == _one("3", one)[0][1]
    assert _one("2^-1", helpers.modp(2, 6)) == _cause("2^-1", "negative exponent of the non-unit 0")
    assert _one("0^-1", one) == _cause("0^-1", "negative exponent of the non-unit 0")
    assert _one("u1^-1", one) == _cause("u1^-1", "negative exponents need a scalar base")
    assert _one("(2*u1)^-1", one) == _cause("(2*u1)^-1", "negative exponents need a scalar base")
    series, degree = _one("v^-1", helpers.morava(2, 1, 6))
    assert series[1].coefficient((0,)) == (1, -1) and degree == 2  # |v1| = -2
    assert _one("v^-1", one) == _cause("v^-1", "theory ordinary-mod-p has no periodicity generator 'v'")


def test_degree_tags_are_checked_without_the_expansion():
    th = helpers.morava(2, 1, 8)
    assert _one("chi(1,0)", th, degree=4) == "<graph>: class 'c' at vertex B: expression has degree 2, tagged 4"
    assert _one("-v^-1*chi(1,0)^2", th, degree=6)[1] == 6
    mixed = "chi(1,1) + chi(1,0)*chi(0,1)"
    assert _one(mixed, th, degree=4) == "<graph>: class 'c' at vertex B: expression mixes degrees 2 and 4, tagged 4"
    assert _one(mixed, th)[1] is None
    # a sum that cancels is zero in the torus variables, so its tag is not checked
    assert _one("u1 - u1", th, degree=4)[0][1].is_zero()
