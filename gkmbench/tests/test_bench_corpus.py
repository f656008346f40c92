"""The corpus generator: Betti numbers, GKM validity, and seeded transforms
that leave every oracle answer unchanged."""

import random
from pathlib import Path

import pytest

import corpus
import oracle
import workloads

from gkmcalc.gkm import validate_graph
from gkmcalc.graphio import parse_graph_document

THEORIES = (
    oracle.ORDINARY, oracle.MULT, oracle.K1P2, oracle.K1P3, oracle.K2P2,
    oracle.MOD3, oracle.MOD5,
)


@pytest.mark.parametrize("name", sorted(corpus.GRAPHS))
def test_betti_numbers_sum_to_the_fixed_points(name):
    g = corpus.graph(name)
    assert sum(r for _d, r in g.betti) == len(g.vertices)


@pytest.mark.parametrize("name", sorted(corpus.GRAPHS))
def test_every_graph_is_a_valid_moment_graph(name):
    g = corpus.graph(name)
    doc = parse_graph_document(g.document({"pt": corpus.point_class(g, 0)}))
    assert validate_graph(doc.graph) == []


def test_known_betti_polynomials():
    assert corpus.gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert corpus.q_factorial(4) == [1, 3, 5, 6, 5, 3, 1]
    assert corpus.graph("Fl4").betti == ((0, 1), (2, 3), (4, 5), (6, 6), (8, 5), (10, 3), (12, 1))


def test_graph_sizes_match_the_roadmap_table():
    sizes = {n: (len(g.vertices), len(g.edges), g.rank)
             for n, g in ((n, corpus.graph(n)) for n in ("CP2", "CP4", "Gr2_4", "Fl4"))}
    assert sizes == {"CP2": (3, 3, 2), "CP4": (5, 10, 4), "Gr2_4": (6, 12, 3), "Fl4": (24, 72, 3)}


def _random_signed_permutation(rng, m):
    perm = corpus.random_permutation(rng, m)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(m)] for i in range(m)]


def _transformed(g, seed):
    """A seeded coordinate change and vertex reordering."""
    rng = random.Random(seed)
    moved = corpus.change_coordinates(g, _random_signed_permutation(rng, g.rank))
    return corpus.relabelled(moved, corpus.random_permutation(rng, len(g.vertices)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(corpus.GRAPHS))
def test_solver_answers_survive_coordinate_changes_and_reordering(name, seed):
    g = corpus.graph(name)
    h = _transformed(g, seed)
    doc = parse_graph_document(h.document())
    assert validate_graph(doc.graph) == []
    for th in THEORIES:
        trunc = oracle.solver_trunc(th, g, workloads.QMAX)
        assert oracle.solver_trunc(th, h, workloads.QMAX) == trunc
        assert oracle.predicted_ranks(th, h, trunc, workloads.QMAX) == \
            oracle.predicted_ranks(th, g, trunc, workloads.QMAX)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["CP2", "CP3", "CP4", "Gr2_4", "Fl3", "Fl4"])
def test_integrate_budget_survives_the_seed_relabelling(name, seed):
    g = corpus.graph(name)
    h = corpus.relabelled(g, corpus.random_permutation(random.Random(seed), len(g.vertices)))
    degree = 2 * g.valence
    for th in THEORIES:
        assert oracle.slope(th, h) == oracle.slope(th, g)
        assert oracle.integrate_trunc(th, h, degree) == oracle.integrate_trunc(th, g, degree)


def _graph_files(jobs):
    return [Path(j.argv[1]).read_text() for j in jobs if j.graph is not None]


def test_materialized_jobs_depend_only_on_the_seed(tmp_path):
    specs = workloads.specs("localize") + workloads.specs("lattice-solve")
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        runs[name] = _graph_files(workloads.materialize(specs, seed, tmp_path / name))
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]
