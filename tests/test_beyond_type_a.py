"""Graphs beyond type A: toric manifolds from smooth complete fans (the
Hirzebruch surfaces F_a and CP^3 blown up at a fixed point) and the flag
manifolds of B2 and C2 from their root data."""

import pytest

from gkmcalc import (
    EquivariantClass,
    TruncatedSeries,
    build_fgl,
    character_class,
    check_formality,
    integrate,
    solve_equivariant_cohomology,
    validate_graph,
)
from gkmcalc.scalars import scalar_parts

import helpers

# (name, graph, vertices, edges, Betti numbers by even degree)
TORIC = [
    *((f"F{a}", helpers.hirzebruch(a), 4, 4, [1, 2, 1]) for a in range(4)),
    ("BlCP3", helpers.blown_up_cp3(), 6, 9, [1, 2, 2, 1]),
]
ROOT_DATA = [
    ("B2", helpers.weyl(helpers.B2_ROOTS), 8, 16, [1, 2, 2, 2, 1]),
    ("C2", helpers.weyl(helpers.C2_ROOTS), 8, 16, [1, 2, 2, 2, 1]),
]
GRAPHS = TORIC + ROOT_DATA

TORIC_THEORIES = [
    helpers.ordinary(6),
    helpers.modp(2, 6),
    helpers.modp(3, 6),
    helpers.morava(2, 1, 6),
    helpers.morava(3, 1, 6),
    helpers.mult(6),
]
# no p = 2 here: two weights at a vertex of B2 or C2 are dependent mod 2, and
# the pairwise congruences then overcount the ranks
ROOT_DATA_THEORIES = [helpers.ordinary(6), helpers.modp(3, 6), helpers.morava(3, 1, 6), helpers.mult(6)]
FORMALITY_CASES = [
    pytest.param(graph, betti, th, id=f"{name}-{th.kind}-{th.p}-{th.n}")
    for cases, theories in ((TORIC, TORIC_THEORIES), (ROOT_DATA, ROOT_DATA_THEORIES))
    for name, graph, _v, _e, betti in cases
    for th in theories
]


def _betti(numbers):
    return [(2 * i, b) for i, b in enumerate(numbers)]


@pytest.mark.parametrize("name, graph, nvert, nedge, betti", GRAPHS, ids=[c[0] for c in GRAPHS])
def test_counts_and_euler_characteristic(name, graph, nvert, nedge, betti):
    assert validate_graph(graph) == []
    assert (len(graph.vertices), len(graph.edges)) == (nvert, nedge)
    assert sum(betti) == nvert  # chi = the number of fixed points


def test_a_cone_that_is_no_lattice_basis_is_refused():
    with pytest.raises(ValueError, match="determinant 2"):
        helpers.toric([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


@pytest.mark.parametrize("graph, betti, th", FORMALITY_CASES)
def test_formality_passes(graph, betti, th):
    # check-formality's RESULT PASS at --trunc 6 --qmax 8
    report = check_formality(_betti(betti), solve_equivariant_cohomology(graph, th, 8))
    assert report.passed, helpers.first_failure(report)


def _integral(graph, th, vertex=None):
    """The integral of the point class at vertex, or of 1 when vertex is None."""
    fgl = build_fgl(th)
    zero, one = TruncatedSeries.zero(th, graph.rank), TruncatedSeries.one(th, graph.rank)
    if vertex is None:
        return integrate(graph, th, EquivariantClass((one,) * len(graph.vertices), 0))
    weights = helpers.outgoing_weights(graph, vertex)
    restrictions = [zero] * len(graph.vertices)
    restrictions[vertex] = one
    for w in weights:
        restrictions[vertex] = restrictions[vertex] * character_class(fgl, w)
    return integrate(graph, th, EquivariantClass(tuple(restrictions), 2 * len(weights)))


@pytest.mark.parametrize("theory", [helpers.ordinary(12), helpers.morava(2, 1, 12)], ids=["ordinary", "morava-p2n1"])
@pytest.mark.parametrize("name, graph", [c[:2] for c in GRAPHS], ids=[c[0] for c in GRAPHS])
def test_the_point_class_integrates_to_one(name, graph, theory):
    report = _integral(graph, theory, 0)
    assert report.negative_clean and report.integral == (1, 0)


@pytest.mark.parametrize("a", range(4))
def test_hirzebruch_surfaces_have_the_k1_genus_of_cp1_x_cp1(a):
    # every F_a has c1^2 = 8 and c2 = 4, the Chern numbers of CP^1 x CP^1,
    # whose class in K(1)_* at p = 2 is v1^2
    th = helpers.morava(2, 1, 12)
    report = _integral(helpers.hirzebruch(a), th)
    assert scalar_parts(th, *report.total.coefficient(0)) == (False, "v1^2")
