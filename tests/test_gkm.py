"""Moment-graph validation, congruence checks, the solver, and formality."""

import os
import random
import signal

import pytest

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
    truncated_slice_count,
)

import helpers
from helpers import satisfies_congruences


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


def test_mod_p_warnings():
    assert mod_p_weight_warnings(helpers.cp2(), 2) == []
    g = GKMGraph(2, ["A", "B", "C"], [
        GKMEdge(0, 1, (1, 0)), GKMEdge(0, 2, (1, 3)), GKMEdge(1, 2, (0, 1)),
    ])
    assert any("dependent mod 3" in w for w in mod_p_weight_warnings(g, 3))
    gw = helpers.cp1(weight=(2,))
    assert any("vanishes mod 2" in w for w in mod_p_weight_warnings(gw, 2))


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
            report = check_formality(g, betti, sol)
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
    sol_p = solve_equivariant_cohomology(g.relabel(perm), th, 6)
    assert sol.ranks == sol_p.ranks
    fgl = build_fgl(th)
    for q in sol.bases:
        for cls in sol.bases[q]:
            permuted = [None] * 3
            for i, f in enumerate(cls.restrictions):
                permuted[perm[i]] = f
            assert satisfies_congruences(g.relabel(perm), fgl, EquivariantClass(tuple(permuted)))


def test_coordinate_invariance_ranks():
    rng = random.Random(83)
    th = helpers.morava(2, 1, trunc=6)
    g = helpers.cp2()
    base = solve_equivariant_cohomology(g, th, 4)
    for _ in range(3):
        w = helpers.random_unimodular(rng, 2)
        moved = g.change_coordinates(w)
        sol = solve_equivariant_cohomology(moved, th, 4)
        assert sol.ranks == base.ranks


# ---- formality oracle -------------------------------------------------------


def test_truncated_slice_count_rational():
    th = helpers.rational(trunc=6)
    assert truncated_slice_count(th, 2, 4, 6) == 3  # monomials of degree 2
    assert truncated_slice_count(th, 2, 3, 6) == 0
    assert truncated_slice_count(th, 1, 14, 6) == 0  # beyond the window


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
    good = check_formality(g, helpers.CP1_BETTI, sol)
    assert good.passed
    bad = check_formality(g, [(0, 2)], sol)
    assert not bad.passed
    assert bad.first_failure() == 0


def test_check_formality_product_graph():
    th = helpers.rational(trunc=6)
    g = helpers.cp1xcp1()
    sol = solve_equivariant_cohomology(g, th, 8)
    assert check_formality(g, helpers.CP1XCP1_BETTI, sol).passed


def test_multiplicative_solver_cp1():
    th = helpers.mult(trunc=5)
    g = helpers.cp1()
    sol = solve_equivariant_cohomology(g, th, 4)
    report = check_formality(g, helpers.CP1_BETTI, sol)
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
    ],
    ids=["Fl3-index3", "CP3x2-swap"],
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
    assert check_formality(graph, betti, sol).passed


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
    # each kernel ideal builds the classes of its m adapted characters once;
    # the residues of every monomial in every degree substitute those.  The
    # edges of CP^2 carry distinct weights, so this is once per edge
    import gkmcalc.classifying as classifying

    calls = []
    original = classifying.character_class

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classifying, "character_class", counting)
    g = helpers.cp2()
    sol = solve_equivariant_cohomology(g, helpers.morava(2, 1, trunc=6), 6)
    assert check_formality(g, helpers.CP2_BETTI, sol).passed
    assert len(calls) == g.rank * len(g.edges)


def test_character_classes_built_once_per_distinct_weight(monkeypatch):
    # kernel ideals depend only on the weight, so the solve builds one per
    # distinct weight, and each builds the classes of its m adapted
    # characters once; Fl(3) has 9 edges but only 3 weights
    import gkmcalc.classifying as classifying

    calls = []
    original = classifying.character_class

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(classifying, "character_class", counting)
    g = helpers.fl3()
    weights = {e.weight for e in g.edges}
    assert (len(g.edges), len(weights)) == (9, 3)
    sol = solve_equivariant_cohomology(g, helpers.morava(2, 1, trunc=6), 6)
    assert check_formality(g, helpers.FL3_BETTI, sol).passed
    assert len(calls) == g.rank * len(weights)


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
