"""Moment-graph validation, congruence checks, the solver, and formality."""

import io
import itertools
import json
import os
import random
import runpy
import signal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcalc import (
    EquivariantClass,
    GKMEdge,
    GKMGraph,
    TruncatedSeries,
    build_fgl,
    character_class,
    check_formality,
    formality_prediction,
    load_graph_document,
    mod_p_weight_warnings,
    solve_equivariant_cohomology,
)
import helpers
from helpers import field_kernel, satisfies_congruences


def test_validate_cp1():
    from gkmcalc import validate_graph

    assert validate_graph(helpers.cp1()) == []


def test_validate_dependent_weights():
    from gkmcalc import validate_graph

    g = GKMGraph(2, ["A", "B"], [GKMEdge(0, 1, (1, 0)), GKMEdge(0, 1, (2, 0))])
    assert any("dependent weights" in v for v in validate_graph(g))


def test_validate_cp2():
    from gkmcalc import validate_graph

    assert validate_graph(helpers.cp2()) == []


def test_validate_zero_weight_and_disconnected():
    from gkmcalc import validate_graph

    g = GKMGraph(1, ["A", "B"], [GKMEdge(0, 1, (0,))])
    assert any("zero" in v for v in validate_graph(g))
    g2 = GKMGraph(
        1,
        ["A", "B", "C", "D"],
        [GKMEdge(0, 1, (1,)), GKMEdge(2, 3, (1,))],
    )
    assert any("not connected" in v for v in validate_graph(g2))


def test_validate_refuses_an_empty_graph_and_malformed_library_graphs():
    # an empty vertex list skips every later check; the graph-file reader
    # refuses repeated names and short weights first, so only a library
    # caller meets those two
    from gkmcalc import validate_graph

    assert validate_graph(GKMGraph(1, [], [])) == ["graph has no vertices"]
    assert validate_graph(GKMGraph(2, ["A", "A"], [GKMEdge(0, 1, (1,))])) == [
        "vertex names are not distinct",
        "edge 0: weight length 1 != torus rank 2",
    ]


def test_mod_p_warnings():
    assert mod_p_weight_warnings(helpers.cp2(), 2) == []
    g = GKMGraph(2, ["A", "B", "C"], [
        GKMEdge(0, 1, (1, 0)), GKMEdge(0, 2, (1, 3)), GKMEdge(1, 2, (0, 1)),
    ])
    assert any("dependent mod 3" in w for w in mod_p_weight_warnings(g, 3))
    gw = helpers.cp1(weight=(2,))
    assert any("vanishes mod 2" in w for w in mod_p_weight_warnings(gw, 2))


def test_mod_p_warnings_name_the_dependent_pair():
    # at A, (1, 0) and (1, 2) meet mod 2 only; B and C stay independent
    g = GKMGraph(2, ["A", "B", "C"], [
        GKMEdge(0, 1, (1, 0)), GKMEdge(0, 2, (1, 2)), GKMEdge(1, 2, (0, 1)),
    ])
    assert mod_p_weight_warnings(g, 2) == ["vertex A: weights (1, 0) and (1, 2) dependent mod 2"]
    assert mod_p_weight_warnings(g, 3) == []


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_mod_p_warnings_refuse_a_composite_p(p):
    with pytest.raises(ValueError, match=f"prime p, got p = {p}$"):
        mod_p_weight_warnings(helpers.cp2(), p)


# ---- graph checks by line against the pairwise minors ------------------------

ROOT = Path(__file__).resolve().parent.parent
CHECK_PRIMES = (2, 3, 5, 7)


def _assert_checks_match_minors(graph):
    from gkmcalc import validate_graph

    violations = helpers.validate_graph_by_minors(graph)
    assert validate_graph(graph) == violations
    for p in CHECK_PRIMES:
        if violations:
            with pytest.raises(ValueError, match="invalid GKM graph"):
                mod_p_weight_warnings(graph, p)
        else:
            assert mod_p_weight_warnings(graph, p) == helpers.mod_p_weight_warnings_by_minors(graph, p)


def _corpus_graphs():
    corpus = runpy.run_path(str(ROOT / "gkmbench" / "corpus.py"))
    for make in corpus["GRAPHS"].values():
        g = make()
        yield GKMGraph(g.rank, list(g.vertices), [GKMEdge(t, h, w) for t, h, w in g.edges])


def test_graph_checks_match_minors_on_graph_files_and_corpus():
    graphs = [load_graph_document(path).graph for path in sorted((ROOT / "graphs").glob("*.json"))]
    graphs += list(_corpus_graphs())
    assert len(graphs) >= 20
    for graph in graphs:
        _assert_checks_match_minors(graph)


@st.composite
def scaled_base_graphs(draw):
    """Graphs whose weights are a few base vectors times 1, -1, 2, -2, 3 or
    5, so that proportional, sign-flipped and mod-p dependent weights meet at
    a vertex.  Cycles and complete graphs are connected and regular, so many
    of them are valid; other edge lists rarely are."""
    m = draw(st.integers(1, 3))
    bases = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), min_size=1, max_size=4))
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["cycle", "complete", "any"]))
    if shape == "cycle":
        pairs = [(i, (i + 1) % k) for i in range(k)]
    elif shape == "complete":
        pairs = list(itertools.combinations(range(k), 2))
    else:
        ends = st.integers(0, k)  # k is out of range
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    edges = []
    for t, h in pairs:
        c = draw(st.sampled_from((1, -1, 2, -2, 3, 5)))
        edges.append(GKMEdge(t, h, tuple(c * x for x in draw(st.sampled_from(bases)))))
    return GKMGraph(m, [f"v{i}" for i in range(k)], edges)


@settings(max_examples=300, deadline=2000)
@given(scaled_base_graphs())
# at A, (2, 0) vanishes mod 2 and so is dependent on (0, 1)
@example(GKMGraph(2, ["A", "B", "C"], [
    GKMEdge(0, 1, (2, 0)), GKMEdge(0, 2, (0, 1)), GKMEdge(1, 2, (1, 1)),
]))
def test_graph_checks_match_minors_on_scaled_base_graphs(graph):
    _assert_checks_match_minors(graph)


# ---- congruence checks ------------------------------------------------------


def test_constant_tuple_satisfies():
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    g = helpers.cp2()
    one = TruncatedSeries.one(th, 2)
    assert satisfies_congruences(g, fgl, EquivariantClass((one, one, one)))


def test_congruence_check_builds_one_kernel_ideal_per_weight(monkeypatch):
    import gkmcalc.gkm as gkm

    calls = []
    real = gkm.kernel_ideal
    monkeypatch.setattr(gkm, "kernel_ideal", lambda *a: calls.append(a[1]) or real(*a))
    th = helpers.morava(2, 1, trunc=6)
    g = helpers.fl3()
    solve_equivariant_cohomology(g, th, 2)
    assert len(g.edges) == 9 and len(calls) == 3


def test_cp1_euler_class_tuple():
    for th in (helpers.ordinary(trunc=6), helpers.morava(3, 1, trunc=6)):
        fgl = build_fgl(th)
        g = helpers.cp1()
        chi = character_class(fgl, (1,))
        zero = TruncatedSeries.zero(th, 1)
        assert satisfies_congruences(g, fgl, EquivariantClass((chi, zero)))


def test_cp1_unequal_constants_fail():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    g = helpers.cp1()
    zero = TruncatedSeries.zero(th, 1)
    one = TruncatedSeries.one(th, 1)
    assert not satisfies_congruences(g, fgl, EquivariantClass((zero, one)))


def test_cp1_u_minus_u_squared_passes():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    g = helpers.cp1()
    u = TruncatedSeries.variable(th, 1, 0)
    assert satisfies_congruences(g, fgl, EquivariantClass((u, u * u)))


def test_cp1_weight_two_torsion_membership():
    th = helpers.ordinary(trunc=6)
    fgl = build_fgl(th)
    g = helpers.cp1(weight=(2,))
    u = TruncatedSeries.variable(th, 1, 0)
    zero = TruncatedSeries.zero(th, 1)
    assert satisfies_congruences(g, fgl, EquivariantClass((u.scale(2), zero)))
    assert not satisfies_congruences(g, fgl, EquivariantClass((u, zero)))


# ---- the solver -------------------------------------------------------------


def test_cp1_ranks_and_basis_rational():
    th = helpers.rational(trunc=6)
    sol = solve_equivariant_cohomology(helpers.cp1(), th, 4)
    assert sol.ranks == {0: 1, 2: 2, 4: 2}
    (c0,) = sol.bases[0]
    assert all(f == TruncatedSeries.one(th, 1) for f in c0.restrictions)
    # basis of degree 2 spans {(u, u), (u, 0)} up to row reduction
    u = TruncatedSeries.variable(th, 1, 0)
    b2 = sol.bases[2]
    assert len(b2) == 2
    assert satisfies_congruences(helpers.cp1(), build_fgl(th), EquivariantClass((u, u)))


def test_cp2_ranks_rational_match_oracle():
    # dim H^q of the equivariant plane = sum of betti times monomial counts
    th = helpers.rational(trunc=6)
    sol = solve_equivariant_cohomology(helpers.cp2(), th, 8)
    assert sol.ranks == {0: 1, 2: 3, 4: 6, 6: 9, 8: 12}


def test_cp1_integer_ranks_match_rational():
    tz = helpers.ordinary(trunc=6)
    tq = helpers.rational(trunc=6)
    for g in (helpers.cp1(), helpers.cp2(), helpers.cp1xcp1()):
        solz = solve_equivariant_cohomology(g, tz, 6)
        solq = solve_equivariant_cohomology(g, tq, 6)
        assert solz.ranks == solq.ranks
        assert all(all(d == 1 for d in ds) for ds in solz.divisors.values())


def test_cp1_weight_two_integer_divisors():
    tz = helpers.ordinary(trunc=6)
    sol = solve_equivariant_cohomology(helpers.cp1(weight=(2,)), tz, 4)
    assert sol.ranks == {0: 1, 2: 2, 4: 2}
    assert sol.divisors[2] == [1, 2]
    # the shifted generator (0, 2u) is recorded in the canonical basis
    u = TruncatedSeries.variable(tz, 1, 0)
    got = sol.bases[2][1].restrictions
    assert got[0].is_zero() and got[1] == u.scale(2)


def test_cp1_weight_two_morava_full_vs_primitive_kernel():
    # the full-kernel congruence cuts one more dimension than the primitive
    # one: the height-sensitivity of torsion edges
    th = helpers.morava(2, 1, trunc=6)
    sol = solve_equivariant_cohomology(helpers.cp1(weight=(2,)), th, 4)
    d = th.trunc
    assert sol.ranks == {0: 2 * d, 2: 2 * d, 4: 2 * d}
    variant = solve_equivariant_cohomology(helpers.cp1(weight=(2,)).primitive(), th, 4)
    assert variant.ranks == {0: 2 * d + 1, 2: 2 * d + 1, 4: 2 * d + 1}
    # oracle: free module on generators (1,1) and (v1 u^2, 0) of variable
    # degrees 0 and 2, counted inside the truncation window
    expected = (d + 1) + (d - 1)
    assert sol.ranks[0] == expected


def test_morava_ranks_match_formality_prediction():
    for g, betti, m in (
        (helpers.cp1(), helpers.CP1_BETTI, 1),
        (helpers.cp2(), helpers.CP2_BETTI, 2),
        (helpers.cp1xcp1(), helpers.CP1XCP1_BETTI, 2),
    ):
        for p, n in ((2, 1), (3, 1)):
            th = helpers.morava(p, n, trunc=6)
            sol = solve_equivariant_cohomology(g, th, 6)
            report = check_formality(betti, sol)
            assert report.passed, (g.vertices, p, n, report.rows)


def test_solver_headroom_enforced():
    th = helpers.rational(trunc=3)
    with pytest.raises(ValueError):
        solve_equivariant_cohomology(helpers.cp1(), th, 8)


def test_solver_rejects_invalid_graph():
    th = helpers.rational(trunc=6)
    bad = GKMGraph(1, ["A", "B"], [GKMEdge(0, 1, (0,))])
    with pytest.raises(ValueError):
        solve_equivariant_cohomology(bad, th, 2)


def test_subring_closure_random():
    rng = random.Random(73)
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    g = helpers.cp2()
    sol = solve_equivariant_cohomology(g, th, 4)
    pool = sol.bases[2] + sol.bases[4]
    for _ in range(10):
        a = rng.choice(pool)
        b = rng.choice(pool)
        assert satisfies_congruences(g, fgl, a * b)


def test_vertex_permutation_equivariance():
    th = helpers.rational(trunc=6)
    g = helpers.cp2()
    perm = [2, 0, 1]
    sol = solve_equivariant_cohomology(g, th, 6)
    sol_p = solve_equivariant_cohomology(helpers.relabel(g, perm), th, 6)
    assert sol.ranks == sol_p.ranks
    fgl = build_fgl(th)
    for q in sol.bases:
        for cls in sol.bases[q]:
            permuted = [None] * 3
            for i, f in enumerate(cls.restrictions):
                permuted[perm[i]] = f
            assert satisfies_congruences(helpers.relabel(g, perm), fgl, EquivariantClass(tuple(permuted)))


def test_coordinate_invariance_ranks():
    rng = random.Random(83)
    th = helpers.morava(2, 1, trunc=6)
    g = helpers.cp2()
    base = solve_equivariant_cohomology(g, th, 4)
    for _ in range(3):
        w = helpers.random_unimodular(rng, 2)
        moved = helpers.mapped(g, w)
        sol = solve_equivariant_cohomology(moved, th, 4)
        assert sol.ranks == base.ranks


# ---- formality oracle -------------------------------------------------------


def test_truncated_slice_count_rational():
    th = helpers.rational(trunc=6)
    assert formality_prediction(th, 2, [(0, 1)], 4) == 3  # monomials of degree 2
    assert formality_prediction(th, 2, [(0, 1)], 3) == 0
    assert formality_prediction(th, 1, [(0, 1)], 14) == 0  # beyond the window


def test_formality_prediction_reduces_to_classical_over_q():
    th = helpers.rational(trunc=6)
    for q in range(0, 10, 2):
        # classical count: sum betti(a) * #monomials of degree (q-a)/2 in 2 vars
        classical = sum(
            r * (((q - a) // 2) + 1)
            for a, r in helpers.CP2_BETTI
            if q - a >= 0 and (q - a) % 2 == 0
        )
        assert formality_prediction(th, 2, helpers.CP2_BETTI, q) == classical


def test_check_formality_pass_and_fail():
    th = helpers.rational(trunc=6)
    g = helpers.cp1()
    sol = solve_equivariant_cohomology(g, th, 6)
    good = check_formality(helpers.CP1_BETTI, sol)
    assert good.passed
    bad = check_formality([(0, 2)], sol)
    assert not bad.passed
    assert helpers.first_failure(bad) == 0


def test_check_formality_product_graph():
    th = helpers.rational(trunc=6)
    g = helpers.cp1xcp1()
    sol = solve_equivariant_cohomology(g, th, 8)
    assert check_formality(helpers.CP1XCP1_BETTI, sol).passed


def test_multiplicative_solver_cp1():
    th = helpers.mult(trunc=5)
    g = helpers.cp1()
    sol = solve_equivariant_cohomology(g, th, 4)
    report = check_formality(helpers.CP1_BETTI, sol)
    assert report.passed
    assert sol.ranks[0] == 2 * th.trunc + 1


def test_multiplicative_lattice_path_weight_two():
    # the leading coefficient 2 of [2]u = 2u - b u^2 is not a unit over the
    # integers, so membership is a genuine lattice condition
    tm = helpers.mult(trunc=5)
    g = helpers.cp1(weight=(2,))
    fgl = build_fgl(tm)
    sol = solve_equivariant_cohomology(g, tm, 4)
    assert sol.ranks == {0: 11, 2: 11, 4: 11}  # 2D + 1 at D = 5
    u = TruncatedSeries.variable(tm, 1, 0)
    zero = TruncatedSeries.zero(tm, 1)
    assert satisfies_congruences(g, fgl, EquivariantClass((character_class(fgl, (2,)), zero)))
    assert not satisfies_congruences(g, fgl, EquivariantClass((u, zero)))
    for q in sol.ranks:
        for cls in sol.bases[q][:4]:
            assert satisfies_congruences(g, fgl, cls)


def _alarm(signum, frame):
    raise TimeoutError("integer solve outlived its 20 s deadline")


@pytest.mark.parametrize(
    "graph, betti, trunc, q_max",
    [
        # Fl(3) with weights a -> a @ ((2, 1), (1, 2)), an index-3 sublattice
        (helpers.mapped(helpers.fl3(), ((2, 1), (1, 2))), helpers.FL3_BETTI, 3, 4),
        # CP^3 with doubled weights after a signed swap of two coordinates
        (
            helpers.mapped(helpers.cp3(), ((2, 0, 0), (0, 0, 2), (0, -2, 0))),
            helpers.CP3_BETTI,
            4,
            6,
        ),
        # CP^4 with doubled weights, whose multiples' Hermite basis took
        # minutes to build before the solver took the multiples as they are
        (
            helpers.mapped(helpers.cpn(4), [[2 * (i == j) for j in range(4)] for i in range(4)]),
            [(2 * i, 1) for i in range(5)],
            6,
            8,
        ),
    ],
    ids=["Fl3-index3", "CP3x2-swap", "CP4x2"],
)
def test_multiplicative_lattice_solve_stays_bounded(graph, betti, trunc, q_max):
    # these inputs made a Smith-form elimination that never reduced its
    # off-pivot entries grow them to millions of bits
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(20)
    try:
        sol = solve_equivariant_cohomology(graph, helpers.mult(trunc=trunc), q_max)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert check_formality(betti, sol).passed


def test_mod_p_zero_generator_path():
    # weight divisible by p: the restriction ideal collapses to (0) and the
    # edge congruence forces equality on the nose (model output; the graph
    # commands label non-height-n theories as conjectural)
    tp = helpers.modp(5, trunc=5)
    g = helpers.cp1(weight=(5,))
    sol = solve_equivariant_cohomology(g, tp, 4)
    assert sol.ranks == {0: 1, 2: 1, 4: 1}
    assert solve_equivariant_cohomology(g.primitive(), tp, 4).ranks == {0: 1, 2: 2, 4: 2}


def test_primitive_graph_divides_out_each_weight():
    g = helpers.mapped(helpers.cp2(), ((2, 0), (0, 3)))
    assert [e.weight for e in g.primitive().edges] == [(1, 0), (0, 1), (-2, 3)]
    assert helpers.cp2().primitive() == helpers.cp2()


def test_mod_p_unit_weights_match_rational_ranks():
    tp = helpers.modp(5, trunc=6)
    tq = helpers.rational(trunc=6)
    for g in (helpers.cp2(), helpers.cp1xcp1()):
        assert (
            solve_equivariant_cohomology(g, tp, 6).ranks
            == solve_equivariant_cohomology(g, tq, 6).ranks
        )


def test_character_classes_built_once_per_edge(monkeypatch):
    # each kernel ideal asks for the classes of its m adapted characters,
    # cut to u_m = 0 at order 1, and the law builds each character once.
    # The edges of CP^2 carry distinct weights, so at most once per edge
    from gkmcalc import kernel_ideal

    th = helpers.morava(2, 1, trunc=6)
    builds = helpers.count_class_builds(monkeypatch, th)
    g = helpers.cp2()
    sol = solve_equivariant_cohomology(g, th, 6)
    assert check_formality(helpers.CP2_BETTI, sol).passed
    fgl = build_fgl(th)
    asked = {
        tuple(row[:-1]) + (0,) for e in g.edges for row in kernel_ideal(fgl, e.weight).basis_change
    }
    assert sorted(builds) == sorted(asked)
    assert len(builds) <= g.rank * len(g.edges)


def test_character_classes_built_once_per_distinct_weight(monkeypatch):
    # kernel ideals depend only on the weight, so the solve builds one per
    # distinct weight, and no character class is built twice; Fl(3) has 9
    # edges but only 3 weights
    th = helpers.morava(2, 1, trunc=6)
    builds = helpers.count_class_builds(monkeypatch, th)
    g = helpers.fl3()
    weights = {e.weight for e in g.edges}
    assert (len(g.edges), len(weights)) == (9, 3)
    sol = solve_equivariant_cohomology(g, th, 6)
    assert check_formality(helpers.FL3_BETTI, sol).passed
    assert len(builds) == len(set(builds)) <= g.rank * len(weights)


def test_cp4_solve_builds_at_most_four_character_classes(monkeypatch):
    # every edge of CP^4 is primitive, so each ideal has order 1 and cuts its
    # adapted rows to u_m = 0; the ten ideals ask for 40 adapted classes,
    # whose cut rows are among four characters
    th = helpers.morava(2, 1, trunc=6)
    builds = helpers.count_class_builds(monkeypatch, th)
    g = helpers.cpn(4)
    sol = solve_equivariant_cohomology(g, th, 6)
    assert check_formality([(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)], sol).passed
    assert len(builds) == len(set(builds)) <= 4


def test_exact_integer_divisors_match_invariant_factors():
    # with no slack columns the solution lattice is saturated, so the solver
    # reports 1s without computing them; they are the basis' invariant factors
    from gkmcalc.lattice import invariant_factors

    for path in GRAPH_FILES:
        graph = load_graph_document(path).graph
        for th in (helpers.ordinary(6), helpers.mult(6)):
            sol = solve_equivariant_cohomology(graph, th, 6)
            for q, (_monos, vecs) in sol.kernels.items():
                assert sol.divisors[q] == invariant_factors(vecs), (path, th.kind, q)


def test_solve_substitutions_grow_with_neither_degree_nor_truncation(monkeypatch):
    # residues are products of the adapted classes, so substitutions happen
    # only while the law's series and the kernel ideals are built
    import gkmcalc.fgl as fgl_module

    calls = []
    real = TruncatedSeries.substitute
    monkeypatch.setattr(
        TruncatedSeries, "substitute", lambda s, args: calls.append(1) or real(s, args)
    )
    for theories in ((helpers.morava(2, 1, trunc=6), helpers.morava(2, 1, trunc=8)),
                     (helpers.modp(3, trunc=6),)):
        counts = set()
        for th in theories:
            for q_max in (2, 6):
                monkeypatch.setattr(fgl_module, "_fgl_cache", {})
                calls.clear()
                solve_equivariant_cohomology(helpers.cp2(), th, q_max)
                counts.add(len(calls))
        assert len(counts) == 1


@pytest.mark.parametrize(
    "th,solves",
    [
        pytest.param(helpers.ordinary(), 5, id="ordinary"),
        pytest.param(helpers.rational(), 5, id="rational"),
        pytest.param(helpers.modp(3), 5, id="mod3"),
        pytest.param(helpers.mult(), 1, id="mult"),
        pytest.param(helpers.morava(2, 1), 1, id="K1p2"),
        pytest.param(helpers.morava(3, 1), 2, id="K1p3"),
        pytest.param(helpers.morava(2, 2), 3, id="K2p2"),
    ],
)
def test_degrees_with_the_same_slice_monomials_share_one_solve(monkeypatch, th, solves):
    # q and q + |unit| have the same slice monomials, so CP^2's five degrees
    # up to 8 need one solve per class of q modulo |unit|, five without a unit
    import gkmcalc.gkm as gkm_module

    calls = []
    real = gkm_module._solve_degree
    monkeypatch.setattr(gkm_module, "_solve_degree", lambda *args: calls.append(1) or real(*args))
    solve_equivariant_cohomology(helpers.cp2(), th, 8)
    assert len(calls) == solves


def _scaled(graph, c):
    return helpers.mapped(graph, [[c * (i == j) for j in range(graph.rank)] for i in range(graph.rank)])


@pytest.mark.parametrize("th", [helpers.ordinary, helpers.mult], ids=["ordinary", "mult"])
def test_weight_multiples_keep_the_primitive_ranks_over_z_and_z_b(th):
    # [d]u has u-order 1 here, and over Q the ideal ([d]u_m) is (u_m): a
    # free rank over Z or Z[b^-1] is the rank over Q, so `solve` skips the
    # primitive graph's solve for these theories
    graphs = [load_graph_document(os.path.join(GRAPHS, "cp2x2.json")).graph]
    graphs += [_scaled(g, c) for g in (helpers.cp2(), helpers.cp3(), helpers.fl3()) for c in (2, 3)]
    for D in (5, 6):
        for graph in graphs:
            ranks = solve_equivariant_cohomology(graph, th(D), 8).ranks
            assert ranks == solve_equivariant_cohomology(graph.primitive(), th(D), 8).ranks, graph


@pytest.mark.parametrize("th", [helpers.ordinary, helpers.mult], ids=["ordinary", "mult"])
def test_raw_multiples_solve_as_their_hermite_basis(monkeypatch, th):
    # a lattice edge's solutions depend only on the span of the generator's
    # truncated multiples, so the Hermite basis the solver once built from
    # them gives the same kernels and divisors
    from gkmcalc import RestrictionIdeal

    graphs = [load_graph_document(os.path.join(GRAPHS, "cp2x2.json")).graph]
    graphs += [_scaled(helpers.cp3(), 2), _scaled(helpers.cp2(), 3)]
    for graph in graphs:
        raw = solve_equivariant_cohomology(graph, th(5), 6)
        with monkeypatch.context() as patch:
            patch.setattr(RestrictionIdeal, "multiples", helpers.hermite_multiples)
            reference = solve_equivariant_cohomology(graph, th(5), 6)
        assert raw.kernels == reference.kernels, graph
        assert raw.divisors == reference.divisors, graph
        assert any(d > 1 for divs in raw.divisors.values() for d in divs), graph


def _refusal_alarm(signum, frame):
    raise TimeoutError("a rank-0 graph was not refused within 10 s")


def test_rank_zero_graph_is_refused():
    # no slope of rank 0 exists, so the slope search would never return
    from gkmcalc import LocalizationError, find_generic_slope, integrate, validate_graph

    graph = GKMGraph(0, ["A"], [])
    th = helpers.ordinary(trunc=4)
    assert validate_graph(graph) == ["torus_rank must be a positive integer"]
    cls = EquivariantClass((TruncatedSeries.one(th, 0),), 0)
    previous = signal.signal(signal.SIGALRM, _refusal_alarm)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="torus_rank must be a positive integer"):
            solve_equivariant_cohomology(graph, th, 4)
        with pytest.raises(ValueError, match="torus_rank must be a positive integer"):
            integrate(graph, th, cls)
        with pytest.raises(LocalizationError, match="torus_rank must be a positive integer"):
            find_generic_slope(graph, th)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_equivariant_class_is_not_a_tuple():
    # a tuple record would make 2 * cls repeat the restrictions silently
    th = helpers.ordinary(trunc=4)
    one = TruncatedSeries.one(th, 1)
    cls = EquivariantClass((one, one), 0)
    with pytest.raises(TypeError):
        2 * cls
    assert cls == EquivariantClass((one, one), 0) != EquivariantClass((one, one))
    assert (cls + cls).restrictions == (one.scale(2), one.scale(2))


GRAPHS = os.path.join(os.path.dirname(__file__), os.pardir, "graphs")
GRAPH_FILES = sorted(os.path.join(GRAPHS, f) for f in os.listdir(GRAPHS) if f.endswith(".json"))


@pytest.mark.parametrize(
    "theory",
    [helpers.ordinary(6), helpers.mult(6), helpers.modp(3, 6), helpers.morava(2, 1, 6)],
    ids=["ordinary", "mult", "mod3", "K1p2"],
)
@pytest.mark.parametrize("path", GRAPH_FILES, ids=os.path.basename)
def test_kernel_vectors_are_sparse_with_ascending_keys(path, theory):
    graph = load_graph_document(path).graph
    sol = solve_equivariant_cohomology(graph, theory, 6)
    for q, (monos, vecs) in sol.kernels.items():
        ncols = len(graph.vertices) * len(monos)
        assert len(vecs) == sol.ranks[q]
        for vec in vecs:
            assert vec and list(vec) == sorted(vec) and set(vec) <= set(range(ncols)), q
            assert all(c and theory.reduce(c) == c for c in vec.values()), q


SEVEN_THEORIES = [
    pytest.param(helpers.ordinary(6), id="ordinary"),
    pytest.param(helpers.modp(2, 6), id="mod2"),
    pytest.param(helpers.modp(3, 6), id="mod3"),
    pytest.param(helpers.mult(6), id="mult"),
    pytest.param(helpers.morava(2, 1, 6), id="K1p2"),
    pytest.param(helpers.morava(3, 1, 6), id="K1p3"),
    pytest.param(helpers.morava(2, 2, 6), id="K2p2"),
]


@pytest.mark.parametrize("theory", SEVEN_THEORIES)
@pytest.mark.parametrize("path", GRAPH_FILES, ids=os.path.basename)
def test_congruence_rows_match_series_product_assembly(monkeypatch, path, theory):
    # the solver ties the columns of lone monomials before it eliminates,
    # so its kernels, divisors and provenance, which counts the untied
    # (columns, rows), must be those of the untied rows built from one
    # series product per monomial image: over a graded field by the field
    # passes, which never reach integer_kernel, over Z and Z[b, b^-1] by
    # integer_kernel with the truncated multiples in slack columns
    import gkmcalc.gkm as gkm_module

    from gkmcalc import kernel_ideal
    from gkmcalc.lattice import integer_kernel, invariant_factors

    calls = []
    monkeypatch.setattr(
        gkm_module, "integer_kernel", lambda *a: calls.append(1) or integer_kernel(*a)
    )
    graph = load_graph_document(path).graph
    sol = solve_equivariant_cohomology(graph, theory, 4)
    fgl = build_fgl(theory)
    ideals = {e.weight: kernel_ideal(fgl, e.weight) for e in graph.edges}
    assert sol.kernels and (calls == []) == theory.is_graded_field
    for q, (monos, vecs) in sol.kernels.items():
        expect = helpers.congruence_rows(graph, ideals, monos, q)
        ncols = len(graph.vertices) * len(monos)
        assert sol.provenance[q] == (ncols, len(expect)), q
        if theory.is_graded_field:
            assert vecs == field_kernel(expect, ncols, theory.char), q
            continue
        slack = sum(len(helpers.series_product_multiples(ideals[e.weight], q)) for e in graph.edges)
        kernel = integer_kernel(expect, ncols + slack)
        basis = [x for v in kernel if (x := {j: c for j, c in v.items() if j < ncols})]
        assert vecs == basis, q
        assert sol.divisors[q] == invariant_factors(basis), q


@pytest.mark.parametrize("theory", [helpers.ordinary(4), helpers.mult(4)], ids=["ordinary", "mult"])
def test_integer_elimination_receives_no_edge_equality(monkeypatch, theory):
    # Fl(4)'s weights are primitive, so under ordinary and mult no generator
    # has truncated multiples, and a monomial alone in its fiber has one
    # coefficient at both ends of an edge over Z and Z[b, b^-1] as over a
    # field: the solver ties those columns, and no row c, -c reaches the
    # Hermite elimination
    import gkmcalc.gkm as gkm_module

    from gkmcalc.lattice import integer_kernel

    received = []
    monkeypatch.setattr(
        gkm_module,
        "integer_kernel",
        lambda rows, *a: received.append([dict(r) for r in rows]) or integer_kernel(rows, *a),
    )
    sol = solve_equivariant_cohomology(helpers.flag_variety(4), theory, 4)
    betti = [(2 * i, b) for i, b in enumerate([1, 3, 5, 6, 5, 3, 1])]
    assert check_formality(betti, sol).passed and received
    for rows in received:
        assert not any(len(r) == 2 and sum(r.values()) == 0 for r in rows)


def test_integer_elimination_work_on_fl4_mult(monkeypatch):
    # the entries that the Hermite elimination subtracts while solving Fl(4)
    # under mult at --trunc 4 --qmax 6: 23,816 with the shortest row as each
    # Euclid pivot and the identity on the class columns only, 35,660 with
    # the first row of smallest entry and the identity on every column
    import gkmcalc.lattice as lattice

    real, touched = lattice._subtract, []
    monkeypatch.setattr(
        lattice, "_subtract", lambda row, other, *a: touched.append(len(other)) or real(row, other, *a)
    )
    solve_equivariant_cohomology(helpers.flag_variety(4), helpers.mult(4), 6)
    assert 0 < sum(touched) < 30_000


def _eliminated_rows(monkeypatch):
    """The rows each elimination receives from the solver, copied as they
    arrive."""
    import gkmcalc.gkm as gkm_module

    received = []
    for name in ("integer_kernel", "field_echelon"):
        real = getattr(gkm_module, name)
        monkeypatch.setattr(
            gkm_module,
            name,
            lambda rows, *a, real=real: received.append([dict(r) for r in rows]) or real(rows, *a),
        )
    return received


def _assert_distinct_and_normal(received, p):
    # pairwise distinct rows; over F_p every entry in [1, p), else nonzero
    for rows in received:
        assert len({frozenset(r.items()) for r in rows}) == len(rows)
        assert all(1 <= x < p if p else x for r in rows for x in r.values())


@pytest.mark.parametrize(
    "graph, theory",
    [
        *(
            pytest.param(helpers.flag_variety(4), theory, id=f"Fl4-{name}")
            for name, theory in [
                ("ordinary", helpers.ordinary(4)),
                ("mult", helpers.mult(4)),
                ("mod3", helpers.modp(3, 4)),
                ("K1p2", helpers.morava(2, 1, 4)),
                ("rational", helpers.rational(4)),
            ]
        ),
        # every edge of cp2x2 has truncated multiples: slack rows pass too
        pytest.param(os.path.join(GRAPHS, "cp2x2.json"), helpers.ordinary(4), id="cp2x2-ordinary"),
        pytest.param(os.path.join(GRAPHS, "cp2x2.json"), helpers.mult(4), id="cp2x2-mult"),
    ],
)
def test_eliminations_receive_each_distinct_row_once(monkeypatch, graph, theory):
    # tied columns make many rows of the degree systems repeat, on every
    # ring: the solver writes each entry in the ring's normal form and
    # hands each distinct row to the elimination once
    if isinstance(graph, str):
        graph = load_graph_document(graph).graph
    received = _eliminated_rows(monkeypatch)
    sol = solve_equivariant_cohomology(graph, theory, 6)
    assert sol.ranks and received
    _assert_distinct_and_normal(received, theory.char)


@pytest.mark.parametrize("theory", [helpers.modp(2, 4), helpers.morava(2, 1, 4)], ids=["mod2", "K1p2"])
def test_solver_writes_a_row_repeated_mod_p_once(monkeypatch, theory):
    # Gr(2, 4) with its first edge reversed: that edge writes c, -c where
    # another edge writes -c, c on the same classes, so those rows agree
    # mod 2 but not as integers.  The entries are reduced before the rows
    # are compared, so each such row reaches the forward pass once, and the
    # passes see as many rows as for the unreversed graph, whose kernels
    # the reversed one shares
    graph = helpers.grassmannian(2, 4)
    first, *rest = graph.edges
    reversed_first = GKMEdge(first.head, first.tail, tuple(-a for a in first.weight))
    received, counts, kernels = _eliminated_rows(monkeypatch), [], []
    for g in (graph, graph._replace(edges=[reversed_first, *rest])):
        received.clear()
        kernels.append(solve_equivariant_cohomology(g, theory, 4).kernels)
        _assert_distinct_and_normal(received, theory.char)
        counts.append([len(rows) for rows in received])
    assert counts[0] == counts[1] and kernels[0] == kernels[1]


def test_field_elimination_receives_no_edge_equality(monkeypatch, tmp_path):
    # Fl(4) under K(1) at p = 2: most rows of the untied system say that a
    # monomial alone in its fiber has one coefficient at both ends of an
    # edge.  The solver ties those columns instead, so the forward pass
    # sees distinct rows of fibers of two or more monomials, no more of
    # them than the untied rows with three or more entries, and no row
    # c, -c; check-formality never back-reduces over the field, and solve
    # back-reduces each distinct system once
    import gkmcalc.cli as cli_module
    import gkmcalc.gkm as gkm_module
    import gkmcalc.lattice as lattice_module

    from gkmcalc import kernel_ideal

    graph, theory = helpers.flag_variety(4), helpers.morava(2, 1, 4)
    systems, received, finished = [], [], []
    real_solve, real_echelon = gkm_module._solve_degree, gkm_module.field_echelon
    real_back_reduce = lattice_module._back_reduce
    monkeypatch.setattr(
        gkm_module, "_solve_degree", lambda *a: systems.append(a[3:]) or real_solve(*a)
    )
    monkeypatch.setattr(
        gkm_module,
        "field_echelon",
        lambda rows, p: received.append([dict(r) for r in rows]) or real_echelon(rows, p),
    )

    def back_reduce(echelon, p=None):
        if p is not None:  # the integer calls reduce the ideals' adapted bases
            finished.append(p)
        return real_back_reduce(echelon, p)

    monkeypatch.setattr(lattice_module, "_back_reduce", back_reduce)
    solve_equivariant_cohomology(graph, theory, 4).ranks
    fgl = build_fgl(theory)
    ideals = {e.weight: kernel_ideal(fgl, e.weight) for e in graph.edges}
    assert systems and len(received) == len(systems) and not finished
    for (monos, q), rows in zip(systems, received):
        untied = helpers.congruence_rows(graph, ideals, monos, q)
        assert len({frozenset(r.items()) for r in rows}) == len(rows), q
        assert len(rows) <= sum(len(r) > 2 for r in untied) < len(untied), q
        assert not any(len(r) == 2 and sum(r.values()) % theory.p == 0 for r in rows), q

    path = tmp_path / "fl4.json"
    doc = json.loads(helpers.graph_json(graph))
    doc["betti"] = [{"degree": 2 * i, "rank": b} for i, b in enumerate([1, 3, 5, 6, 5, 3, 1])]
    path.write_text(json.dumps(doc))
    flags = ["--theory", "morava", "--p", "2", "--n", "1", "--trunc", "4", "--qmax", "4"]
    for command, finishes in (("check-formality", 0), ("solve", 1)):
        systems.clear()
        finished.clear()
        out, err = io.StringIO(), io.StringIO()
        assert cli_module.main([command, str(path), *flags], out=out, err=err) == 0, err.getvalue()
        assert systems and len(finished) == finishes * len(systems), command
        if command == "check-formality":
            assert out.getvalue().endswith("RESULT PASS\n")


FORWARD_RANK_GRAPHS = [
    *(pytest.param(path, id=os.path.basename(path)) for path in GRAPH_FILES),
    pytest.param(helpers.flag_variety(4), id="Fl4"),
    pytest.param(helpers.grassmannian(2, 4), id="Gr2_4"),
    *(pytest.param(helpers.hirzebruch(a), id=f"F{a}") for a in range(4)),
    pytest.param(helpers.blown_up_cp3(), id="BlCP3"),
]


@pytest.mark.parametrize(
    "theory",
    [helpers.modp(2, 4), helpers.modp(3, 4), helpers.morava(2, 1, 4), helpers.morava(3, 1, 4)],
    ids=["mod2", "mod3", "K1p2", "K1p3"],
)
@pytest.mark.parametrize("graph", FORWARD_RANK_GRAPHS)
def test_forward_pass_ranks_match_the_finished_kernels(graph, theory):
    # ranks count the free columns after the forward pass of the tied
    # system; they must equal the number of finished kernel vectors and the
    # kernel dimension of the untied rows, which no column tie touches
    from gkmcalc import kernel_ideal

    if isinstance(graph, str):
        graph = load_graph_document(graph).graph
    sol = solve_equivariant_cohomology(graph, theory, 4)
    ranks = sol.ranks
    assert "kernels" not in vars(sol)
    fgl = build_fgl(theory)
    ideals = {e.weight: kernel_ideal(fgl, e.weight) for e in graph.edges}
    for q, (monos, vecs) in sol.kernels.items():
        untied = helpers.congruence_rows(graph, ideals, monos, q)
        ncols = len(graph.vertices) * len(monos)
        assert ranks[q] == len(vecs) == len(field_kernel(untied, ncols, theory.char)), q


def test_cp4_rows_take_no_series_product(monkeypatch):
    # every adapted class of CP^4 under K(1) at p = 2 is u1, u2, u3 or 0, so
    # each image is an exponent shift of the one below it
    import gkmcalc.gkm as gkm_module

    inside, products = [], []
    real_mul, real_solve = TruncatedSeries.__mul__, gkm_module._solve_degree

    def solve_degree(*args):
        inside.append(1)
        try:
            return real_solve(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(gkm_module, "_solve_degree", solve_degree)
    monkeypatch.setattr(
        TruncatedSeries, "__mul__", lambda a, b: (inside and products.append(1)) or real_mul(a, b)
    )
    sol = solve_equivariant_cohomology(helpers.cpn(4), helpers.morava(2, 1, trunc=4), 6)
    assert sol.ranks and not inside and products == []


@pytest.mark.parametrize(
    "graph,theory",
    [
        pytest.param(helpers.cpn(4), helpers.morava(3, 1, trunc=4), id="CP4-K1p3"),
        pytest.param(helpers.fl3(), helpers.ordinary(trunc=4), id="Fl3-ordinary"),
        pytest.param(helpers.fl3(), helpers.morava(2, 2, trunc=6), id="Fl3-K2p2"),
    ],
)
def test_each_monomial_image_is_computed_once_per_solve(monkeypatch, graph, theory):
    # the slices of the distinct solves read the images of their monomials
    # from one table per weight; a product is taken only for a new entry
    import gkmcalc.classifying as classifying_module
    import gkmcalc.gkm as gkm_module

    ideals, products, asked = [], [], []
    real_ideal, real_product = gkm_module.kernel_ideal, classifying_module.sparse_product
    monkeypatch.setattr(
        gkm_module, "kernel_ideal", lambda *a: ideals.append(real_ideal(*a)) or ideals[-1]
    )
    monkeypatch.setattr(
        classifying_module, "sparse_product", lambda *a: products.append(1) or real_product(*a)
    )
    real_solve = gkm_module._solve_degree
    monkeypatch.setattr(
        gkm_module, "_solve_degree", lambda *a: asked.append(a[3]) or real_solve(*a)
    )
    solve_equivariant_cohomology(graph, theory, 6)
    assert len(asked) > 1 and len(ideals) == len({e.weight for e in graph.edges})
    for ideal in ideals:
        table = ideal._images
        assert all(alpha in table for monos in asked for alpha, _k in monos)
    assert len(products) == sum(len(ideal._images) - 1 for ideal in ideals)
