"""Exact linear algebra: Hermite bases, kernels over Z and over fields,
invariant factors and adapted coordinates, checked against sympy as an
independent oracle."""

import random
from fractions import Fraction

import pytest
from sympy import GF, QQ, Matrix, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from gkmcalc.lattice import (
    _euclid_step,
    adapted_basis,
    hermite_basis,
    integer_kernel,
    invariant_factors,
    primitive_part,
    vec_mat,
)

import helpers
from helpers import field_kernel


def random_matrices(seed, count=220, max_cols=6):
    """Seeded random matrices up to 6 x max_cols with small entries; some have
    zero rows or zero columns, and a few are entirely zero."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, max_cols)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for r in m:
                r[j] = 0
        if rng.random() < 0.05:
            m = [[0] * cols for _ in range(rows)]
        yield m


def sparse(m):
    return [helpers.sparse(r) for r in m]


def ascending(vecs):
    """Sparse vectors with nonzero entries and keys in increasing order."""
    return all(all(vec.values()) and list(vec) == sorted(vec) for vec in vecs)


def dense_hermite(m):
    """hermite_basis of dense rows, as dense rows."""
    width = len(m[0]) if m else 0
    basis = hermite_basis(sparse(m))
    assert ascending(basis), m
    return [helpers.dense(r, width) for r in basis]


def is_hermite(rows):
    """Positive pivots in increasing columns, entries above them in [0, pivot)."""
    last = -1
    for idx, r in enumerate(rows):
        pcol = next((k for k, x in enumerate(r) if x), None)
        if pcol is None or pcol <= last or r[pcol] <= 0:
            return False
        if any(not 0 <= other[pcol] < r[pcol] for other in rows[:idx]):
            return False
        last = pcol
    return True


def sympy_row_lattice(rows):
    """sympy's Hermite form of the lattice spanned by the rows (as columns of M^T)."""
    if not any(any(r) for r in rows):
        return None
    return hermite_normal_form(Matrix(rows).T)


def test_invariant_factors_match_sympy():
    for m in random_matrices(101):
        expected = [abs(int(d)) for d in sympy_invariant_factors(Matrix(m), domain=ZZ) if d]
        assert invariant_factors(sparse(m)) == expected, m


def test_hermite_row_basis_matches_sympy():
    for m in random_matrices(103):
        basis = dense_hermite(m)
        assert is_hermite(basis), m
        assert dense_hermite(basis) == basis
        assert sympy_row_lattice(basis) == sympy_row_lattice(m), m


def test_integer_kernel_matches_sympy():
    for m in random_matrices(107):
        cols = len(m[0])
        sparse_kernel = integer_kernel(sparse(m), cols)
        assert ascending(sparse_kernel), m
        kernel = [helpers.dense(k, cols) for k in sparse_kernel]
        for k in kernel:
            assert all(sum(a * b for a, b in zip(r, k)) == 0 for r in m), m
        assert is_hermite(kernel), m
        assert len(kernel) == cols - Matrix(m).rank(), m


ORACLE_ENTRIES = (1, 2, 3, 5, 7, -1, -2, -3, -5, -7)


def sparse_matrices(seed, count=150):
    """Seeded sparse integer matrices up to 25 x 40, with entries in
    +-{1, 2, 3, 5, 7} and some zero rows and zero columns.  Every third one
    is [A | -H], a solver system with slack columns, whose slack block H has
    columns 2, 3 or 5 times a sparse vector, so that its Hermite pivots are
    not all 1.  Yields (sparse rows, columns of A, width)."""
    rng = random.Random(seed)
    for i in range(count):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.35))
        zero_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 4)))
        live = [j for j in range(ncols) if j not in zero_cols]
        m = [
            {j: rng.choice(ORACLE_ENTRIES) for j in live if rng.random() < density}
            if rng.random() > 0.1 else {}
            for _ in range(nrows)
        ]
        width = ncols
        if i % 3 == 0:
            for _ in range(rng.randint(1, 8)):
                d = rng.choice((2, 3, 5))
                for r in rng.sample(m, rng.randint(1, min(3, nrows))):
                    r[width] = -d * rng.choice(ORACLE_ENTRIES[:3])
                width += 1
        yield m, ncols, width


def test_eliminations_match_the_eager_kannan_bachem_loop(monkeypatch):
    import gkmcalc.lattice as lattice

    def copy(rows):
        return [dict(r) for r in rows]

    slack_pivots = set()
    for m, ncols, width in sparse_matrices(113):
        transpose = [{} for _ in range(width)]
        for i, r in enumerate(m):
            for j, x in r.items():
                transpose[j][i] = x
        for rows in (m, transpose):
            assert hermite_basis(copy(rows)) == helpers.eager_hermite_basis(copy(rows)), rows
        n = len(m)
        aug = [dict(col) | {n + j: 1} for j, col in enumerate(transpose)]
        kept = [r for r in helpers.eager_hermite_basis(aug) if min(r) >= n]
        expected = [{j - n: x for j, x in r.items()} for r in kept]
        assert integer_kernel(copy(m), width) == expected, m
        # the class columns alone: the class parts of the full kernel
        classes = [x for v in expected if (x := {j: c for j, c in v.items() if j < ncols})]
        assert integer_kernel(copy(m), width, ncols) == classes, m
        slack_pivots.update(next(iter(r.values())) for r in hermite_basis(copy(transpose[ncols:])))
        factors = invariant_factors(copy(m))
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "hermite_basis", helpers.eager_hermite_basis)
            assert factors == invariant_factors(copy(m)), m
    assert {2, 3, 5} <= slack_pivots


def sympy_free_column_basis(m, p):
    """The kernel basis read off sympy's reduced row-echelon form over GF(p)
    (QQ when p = 0): per free column f, 1 at f and -R[i][f] at pivot i."""
    field = GF(p) if p else QQ
    cols = len(m[0])
    rref, pivots = DomainMatrix([[field(x) for x in r] for r in m], (len(m), cols), field).rref()
    rref = rref.to_list()

    def plain(x):
        return int(x) % p if p else Fraction(int(x.numerator), int(x.denominator))

    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = plain(-rref[i][f])
        basis.append(tuple(v))
    return basis


def field_systems(p):
    """Dense random matrices up to 6 x 7, then 60 of the solver-like sparse
    systems up to 25 x 40, as dense rows."""
    yield from random_matrices(211 + p, max_cols=7)
    for m, _, width in sparse_matrices(227 + p, count=60):
        yield [helpers.dense(r, width) for r in m]


@pytest.mark.parametrize("p", [2, 3, 5, 0])
def test_field_kernel_matches_sympy(p):
    rng = random.Random(200 + p)
    for m in field_systems(p):
        cols = len(m[0])
        sparse_kernel = field_kernel(sparse(m), cols, p)
        assert ascending(sparse_kernel), m
        kernel = [helpers.dense(k, cols) for k in sparse_kernel]
        for k in kernel:
            dots = [sum(a * b for a, b in zip(r, k)) for r in m]
            assert all((d % p if p else d) == 0 for d in dots), m
        field = GF(p) if p else QQ
        nullity = cols - DomainMatrix([[field(x) for x in r] for r in m], (len(m), cols), field).rank()
        assert len(kernel) == nullity, m
        assert kernel == sympy_free_column_basis(m, p), m
        shuffled = list(m)
        rng.shuffle(shuffled)
        assert field_kernel(sparse(shuffled), cols, p) == sparse_kernel, m


def test_field_kernel_reduces_entries_mod_p():
    # 4 = 1 and 6 = 0 mod 3, so the one condition reads x0 = 0
    assert field_kernel([{0: 4, 1: 6}], 2, 3) == [{1: 1}]
    assert field_kernel([{0: 4, 1: 6}], 2, 0) == [{0: Fraction(-3, 2), 1: 1}]
    assert field_kernel([], 2, 2) == [{0: 1}, {1: 1}]


def test_integer_kernel():
    rng = random.Random(43)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        for vec in integer_kernel(sparse(m), cols):
            assert all(sum(m[i][j] * x for j, x in vec.items()) == 0 for i in range(rows))


def test_euclid_step_takes_the_shortest_row_with_the_smallest_entry():
    # both rows lead with 1: the shorter is the pivot, so the other gains
    # only its one entry instead of the pivot's two
    pivot, moved = _euclid_step(0, [{0: 1, 1: 1, 2: 1}, {0: 1, 3: 1}])
    assert pivot == {0: 1, 3: 1} and moved == [{1: 1, 2: 1, 3: -1}]
    # a smaller entry at the column still beats a shorter row
    pivot, moved = _euclid_step(0, [{0: 2, 1: 1}, {0: 1, 1: 1, 2: 1}])
    assert pivot == {0: 1, 1: 1, 2: 1} and moved == [{1: -1, 2: -2}]


def test_hermite_basis_canonical():
    rng = random.Random(47)
    for _ in range(30):
        rows = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(3)]
        basis = dense_hermite(rows)
        # idempotent and invariant under unimodular recombination
        assert dense_hermite(basis) == basis
        w = helpers.random_unimodular(rng, 3)
        mixed = helpers.matmul(w, rows)
        assert dense_hermite(mixed) == basis


def test_hermite_back_reduction_visits_the_columns_a_subtraction_brings_in():
    # reducing row 0 by row 1 brings in column 2, a pivot column that row 0
    # did not hold, and it must be reduced too: row 0 - row 1 leaves 2: -1,
    # and adding the row of pivot 5 lifts it to 4
    rows = [{0: 1, 1: 3}, {1: 2, 2: 1}, {2: 5}]
    assert hermite_basis(rows) == [{0: 1, 1: 1, 2: 4}, {1: 2, 2: 1}, {2: 5}]


def test_reduce_vector_mod_lattice():
    basis = dense_hermite([[2, 0], [0, 3]])
    assert helpers.reduce_vector_mod_lattice((5, 7), basis) == (1, 1)
    assert helpers.reduce_vector_mod_lattice((4, -3), basis) == (0, 0)


def test_primitive_part_examples():
    assert primitive_part((2, 4)) == (2, (1, 2))
    assert primitive_part((1, 0, 0)) == (1, (1, 0, 0))
    assert primitive_part((-3, 3)) == (3, (-1, 1))
    with pytest.raises(ValueError):
        primitive_part((0, 0))


def test_adapted_basis_examples():
    assert adapted_basis((0, 1)) == [[1, 0], [0, 1]]
    b = adapted_basis((1, 1))
    assert [row[0] for row in b] == [1, -1] and [row[1] for row in b] == [0, 1]
    b3 = adapted_basis((1, 0, 0))
    assert sorted(map(tuple, b3)) == sorted(
        [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    ) and abs(helpers.det(b3)) == 1


# adapted_basis as computed by the earlier Smith-form implementation; the
# Hermite form is unique, so the Hermite construction must reproduce it
ADAPTED_BASES = [
    ((1,), [[1]]),
    ((-1,), [[-1]]),
    ((0, 1), [[1, 0], [0, 1]]),
    ((1, 0), [[0, 1], [1, 0]]),
    ((1, 1), [[1, 0], [-1, 1]]),
    ((2, 1), [[1, 0], [-2, 1]]),
    ((1, -1), [[1, 0], [1, -1]]),
    ((-3, 2), [[2, 1], [3, 2]]),
    ((1, 0, 0), [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ((0, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ((0, -1, 1), [[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
    ((2, 3, 5), [[1, 0, 0], [1, 5, 2], [-1, -3, -1]]),
    ((-4, 6, 3), [[3, 0, 2], [0, 1, 0], [4, -2, 3]]),
    ((1, 2, 1), [[1, 0, 0], [0, 1, 0], [-1, -2, 1]]),
    ((3, -5, 7, 2), [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 2, 1], [-5, -1, -7, -3]]),
    ((0, 0, 0, 1), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ((-6, 10, 15, 0), [[5, 0, 0, 4], [0, 3, 0, 1], [2, -2, 0, 1], [0, 0, 1, 0]]),
]


@pytest.mark.parametrize("theta, expected", ADAPTED_BASES)
def test_adapted_basis_table(theta, expected):
    assert adapted_basis(theta) == expected


def test_adapted_basis_random():
    rng = random.Random(53)
    for _ in range(50):
        m = rng.randrange(1, 5)
        theta = tuple(rng.randrange(-6, 7) for _ in range(m))
        if not any(theta):
            continue
        _, theta = primitive_part(theta)
        b = adapted_basis(theta)
        assert vec_mat(theta, b) == (0,) * (m - 1) + (1,)
        assert abs(helpers.det(b)) == 1


def test_adapted_basis_rejects_imprimitive():
    with pytest.raises(ValueError):
        adapted_basis((2, 4))


def test_invariant_factors():
    assert invariant_factors([{0: 1, 1: 1}, {1: 2}]) == [1, 2]
    assert invariant_factors([{0: 2}, {1: 3}]) == [1, 6]
    assert invariant_factors([{}]) == []


def test_kernel_x_parts_depend_only_on_the_span_of_the_slack_rows():
    # the solver's lattice edges: x in Z^nx with A x in the span of G's rows
    # is the x part of ker [A | -G^T], whose Hermite rows with a pivot among
    # the x columns come first; any spanning set of the lattice gives them
    rng = random.Random(131)

    def x_parts(a, g):
        nx = len(a[0])
        rows = [
            helpers.sparse(r) | {nx + t: -h[i] for t, h in enumerate(g) if h[i]}
            for i, r in enumerate(a)
        ]
        kernel = integer_kernel(rows, nx + len(g))
        return [x for v in kernel if (x := {j: c for j, c in v.items() if j < nx})]

    changed = widened = 0
    for _ in range(60):
        nrows, nx, ng = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(nx)] for _ in range(nrows)]
        g = [[rng.choice((0, 0, 2, -3, 4, 6)) for _ in range(nrows)] for _ in range(ng)]
        hnf = [helpers.dense(r, nrows) for r in hermite_basis(sparse(g))]
        coeffs = [rng.randint(-3, 3) for _ in g]
        combination = [sum(c * h[i] for c, h in zip(coeffs, g)) for i in range(nrows)]
        expect = x_parts(a, g)
        assert x_parts(a, hnf) == expect, (a, g)
        assert x_parts(a, g + [combination]) == expect, (a, g)
        changed += hnf != g
        widened += expect != x_parts(a, [])
    assert changed > 30 and widened > 30
