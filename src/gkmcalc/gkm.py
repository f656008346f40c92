"""Moment-graph data model and the solver for the edge-congruence subalgebra.

The solver works one even degree at a time: homogeneity makes the congruence
system block-diagonal by degree, and each block is an exact linear problem on
the coefficient vectors of the fixed-point tuples.  One routine assembles that
block for every coefficient ring: the columns that a congruence sets equal are
tied first, and the other congruences become sparse rows on the classes of
tied columns, each entry in the ring's normal form ([1, p) over F_p) and each
distinct row once; the elimination lives in the lattice module.  Only a
class's representative and the finish depend on the ring.  Over a graded
field the representative is the largest member, the rank is read off the
forward pass and the kernel vectors off the reduced row-echelon form; over Z
and Z[b, b^-1] it is the smallest member, and Hermite reduction gives the
solution lattice's canonical basis and its free rank, and that basis its
elementary divisors.  Each distinct system is one record: its rank is known
once it is solved, and its kernel vectors and divisors are made when first
asked for.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Callable, NamedTuple

from .classifying import _slice_monomials, kernel_ideal
from .fgl import build_fgl
from .lattice import (
    field_echelon,
    field_echelon_kernel,
    integer_kernel,
    invariant_factors,
    primitive_part,
)
from .scalars import Theory, is_prime
from .series import TruncatedSeries


class GKMEdge(NamedTuple):
    tail: int
    head: int
    weight: tuple[int, ...]


class GKMGraph(NamedTuple):
    """Fixed points and invariant two-spheres of a torus action."""

    rank: int
    vertices: list[str]
    edges: list[GKMEdge]

    def adjacency(self) -> list[list[tuple[int, tuple[int, ...]]]]:
        """For each vertex, the pairs (other endpoint, weight oriented away
        from the vertex) of the edges at it, in edge order: one pass over
        the edges, whose endpoints must be vertex indices."""
        out = [[] for _ in self.vertices]
        for e in self.edges:
            out[e.tail].append((e.head, e.weight))
            out[e.head].append((e.tail, tuple(-a for a in e.weight)))
        return out

    def primitive(self) -> "GKMGraph":
        """The graph with every weight replaced by its primitive part, of the
        same class: scaling weights keeps every GKM condition."""
        edges = [GKMEdge(e.tail, e.head, primitive_part(e.weight)[1]) for e in self.edges]
        return type(self)(self.rank, list(self.vertices), edges)


class _ValidGraph(GKMGraph):
    """A graph that validate_graph has passed, which the library functions
    take without checking it again."""

    __slots__ = ()


def _line(w):
    """The primitive vector on w's line whose first nonzero entry is
    positive: two nonzero weights are dependent exactly when these agree."""
    g = math.gcd(*w)
    if next(x for x in w if x) < 0:
        g = -g
    return tuple(x // g for x in w)


def _point_mod_p(w, p):
    """w's projective point mod the prime p, scaled so that its first nonzero
    entry is 1, or None when w vanishes mod p."""
    r = [x % p for x in w]
    lead = next((x for x in r if x), 0)
    if not lead:
        return None
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in r)


def _star_keys(graph: GKMGraph, key) -> list[list]:
    """key(weight) of each edge, listed at both its ends in edge order, as
    graph.adjacency() lists the weights: one call per distinct edge weight,
    for a key that does not change with the weight's sign."""
    out = [[] for _ in graph.vertices]
    keys = {}
    for e in graph.edges:
        if e.weight not in keys:
            keys[e.weight] = key(e.weight)
        k = keys[e.weight]
        out[e.tail].append(k)
        out[e.head].append(k)
    return out


def _dependent_pairs(keys):
    """The pairs a < b of positions, in lexicographic order, whose keys are
    equal or where either key is None (a weight dependent on every other)."""
    if None not in keys and len(set(keys)) == len(keys):
        return []
    return [
        (a, b)
        for a, ka in enumerate(keys)
        for b in range(a + 1, len(keys))
        if ka is None or keys[b] is None or ka == keys[b]
    ]


def validate_graph(graph: GKMGraph) -> list[str]:
    """Check the GKM conditions; an empty list means the graph is valid.

    Two weights at a vertex are dependent when they span one line: each is
    keyed by its primitive vector up to sign, and each pair of equal keys is
    reported."""
    violations = []
    m = graph.rank
    k = len(graph.vertices)
    if m < 1:
        violations.append("torus_rank must be a positive integer")
    if k == 0:
        violations.append("graph has no vertices")
        return violations
    if len(set(graph.vertices)) != k:
        violations.append("vertex names are not distinct")
    for idx, e in enumerate(graph.edges):
        if len(e.weight) != m:
            violations.append(f"edge {idx}: weight length {len(e.weight)} != torus rank {m}")
        elif not any(e.weight):
            violations.append(f"edge {idx}: weight is zero")
        if not (0 <= e.tail < k and 0 <= e.head < k):
            violations.append(f"edge {idx}: endpoint out of range")
        elif e.tail == e.head:
            violations.append(f"edge {idx}: loop at vertex {graph.vertices[e.tail]}")
    if violations:
        return violations
    adjacency = graph.adjacency()
    for name, star, keys in zip(graph.vertices, adjacency, _star_keys(graph, _line)):
        for a, b in _dependent_pairs(keys):
            violations.append(f"vertex {name}: dependent weights {star[a][1]} and {star[b][1]}")
    # connectivity
    seen = {0}
    frontier = [0]
    while frontier:
        for other, _w in adjacency[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    if len(seen) != k:
        violations.append("graph is not connected")
    # no edge is a loop here, so each edge at a vertex is one entry of its star
    valences = {len(star) for star in adjacency}
    if len(valences) > 1:
        violations.append(f"vertices have unequal valences {sorted(valences)}")
    return violations


def _refuse_invalid(graph: GKMGraph, error: type[Exception] = ValueError) -> None:
    """Raise error naming the violations of a graph not known to be valid."""
    if not isinstance(graph, _ValidGraph):
        violations = validate_graph(graph)
        if violations:
            raise error("invalid GKM graph: " + "; ".join(violations))


def mod_p_weight_warnings(graph: GKMGraph, p: int) -> list[str]:
    """Warn when the GKM independence conditions degenerate mod p.

    These are warnings, not failures: the congruence model stays defined
    either way, but mod-p degenerations are worth surfacing because torsion
    edges behave differently at different heights.  Each weight at a vertex
    is keyed by its projective point mod p; a weight that vanishes mod p is
    dependent on every other, and two others are dependent when their points
    agree.  The prime p is needed for the points' inverses mod p.
    """
    if not is_prime(p):
        raise ValueError(f"mod-p weight warnings need a prime p, got p = {p}")
    _refuse_invalid(graph)
    warnings = []
    adjacency = None  # the weights, read only for a star that warns
    for i, points in enumerate(_star_keys(graph, lambda w: _point_mod_p(w, p))):
        pairs = _dependent_pairs(points)
        if not pairs and None not in points:
            continue
        adjacency = adjacency or graph.adjacency()
        name, star = graph.vertices[i], adjacency[i]
        for (_j, w), point in zip(star, points):
            if point is None:
                warnings.append(f"vertex {name}: weight {w} vanishes mod {p}")
        for a, b in pairs:
            warnings.append(f"vertex {name}: weights {star[a][1]} and {star[b][1]} dependent mod {p}")
    return warnings


class EquivariantClass:
    """A tuple of fixed-point restrictions, one series per vertex."""

    def __init__(self, restrictions: tuple[TruncatedSeries, ...], degree: int | None = None):
        self.restrictions = restrictions
        self.degree = degree

    def __eq__(self, other):
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return (self.restrictions, self.degree) == (other.restrictions, other.degree)

    def __repr__(self) -> str:
        return f"EquivariantClass({self.restrictions!r}, {self.degree!r})"

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        parts = tuple(a + b for a, b in zip(self.restrictions, other.restrictions))
        deg = self.degree if self.degree == other.degree else None
        return EquivariantClass(parts, deg)

    def __mul__(self, other: "EquivariantClass") -> "EquivariantClass":
        parts = tuple(a * b for a, b in zip(self.restrictions, other.restrictions))
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        return EquivariantClass(parts, deg)

    def computed_degree(self) -> int | None:
        return common_degree(f.degrees() for f in self.restrictions)


def common_degree(degree_lists) -> int | None:
    """The degree of a class from the degree lists of its restrictions: the
    one degree of its nonzero ones, 0 when all are zero, None when they
    differ or one mixes degrees."""
    degs = {d[0] if len(d) == 1 else None for d in degree_lists if d}
    if len(degs) == 1:
        return degs.pop()
    if not degs:
        return 0
    return None


# ---------------------------------------------------------------------------
# the solver


class _System(NamedTuple):
    """A distinct degree system: its rank, read off when it is solved, its
    untied row count, and calls that make its kernel and divisors once."""

    rank: int
    rows: int
    vectors: Callable[[], list[dict]]
    divisors: Callable[[], list[int]]


class SolutionModule:
    """The solution by degree, read off the record of each degree's system.
    ranks maps a degree to its kernel's dimension; kernels maps it to its
    monomials and sparse kernel vectors {i * len(monomials) + j: the nonzero
    coefficient of monomial j at vertex i}, keys increasing; divisors to its
    lattice's elementary divisors, [] over a field; provenance to its untied
    (columns, constraint rows); bases builds classes from the kernels.  All
    but ranks are made on first read, once for degrees sharing a system."""

    def __init__(self, theory: Theory, graph: GKMGraph, systems: dict[int, tuple[list, _System]]):
        self.theory, self.graph, self.systems = theory, graph, systems

    @cached_property
    def ranks(self) -> dict[int, int]:
        return {q: system.rank for q, (_monos, system) in self.systems.items()}

    @cached_property
    def kernels(self) -> dict[int, tuple[list, list]]:
        return {q: (monos, system.vectors()) for q, (monos, system) in self.systems.items()}

    @cached_property
    def divisors(self) -> dict[int, list[int]]:
        return {q: system.divisors() for q, (_monos, system) in self.systems.items()}

    @cached_property
    def provenance(self) -> dict[int, tuple[int, int]]:
        n = len(self.graph.vertices)
        return {q: (n * len(monos), system.rows) for q, (monos, system) in self.systems.items()}

    @cached_property
    def bases(self) -> dict[int, list[EquivariantClass]]:
        return {
            q: [_class_from_vector(self.theory, self.graph, monos, vec, q) for vec in vecs]
            for q, (monos, vecs) in self.kernels.items()
        }


def solve_equivariant_cohomology(graph: GKMGraph, theory: Theory, q_max: int) -> SolutionModule:
    _refuse_invalid(graph)
    if q_max < 0 or q_max % 2:
        raise ValueError("q_max must be an even nonnegative integer")
    fgl = build_fgl(theory)
    # kernel ideals depend only on the weight: edges sharing one share it
    ideals = {w: kernel_ideal(fgl, w) for w in dict.fromkeys(e.weight for e in graph.edges)}
    # the residue computations need headroom for degrees up to q_max
    need = q_max // 2 + max([1] + [i.order for i in ideals.values() if i.order is not None])
    if need > theory.trunc:
        raise ValueError(
            f"truncation degree {theory.trunc} too small for q_max {q_max}: "
            f"residues need headroom {need}"
        )
    # _solve_degree reads only the alpha of each slice key, and multiplying
    # by the periodicity unit maps the degree-q slice onto the degree-(q +
    # |unit|) one: degrees whose slices hold the same monomials share a solve
    systems, solved = {}, {}
    for q in range(0, q_max + 1, 2):
        monos = _slice_monomials(theory, graph.rank, q)
        key = tuple(alpha for alpha, _k in monos)
        if key not in systems:
            systems[key] = _solve_degree(theory, graph, ideals, monos, q)
        solved[q] = (monos, systems[key])
    return SolutionModule(theory, graph, solved)


def _solve_degree(theory, graph, ideals, monos, q):
    """The record of the degree-q congruence system, for every ring.

    At an edge of weight w, the monomials whose images hold one adapted
    exponent beta (q fixes the periodicity exponent there) form a fiber,
    whose row says that the adapted difference is G^T y at beta for the
    generator's truncated multiples G, y in slack columns after the x
    columns.  Without multiples it must vanish, so a monomial alone in its
    fiber ties two columns (_tied_columns) instead of writing a row; the
    other rows are written on the classes of tied columns, and each class
    entry of the kernel basis is copied to every member of its class."""
    n = len(monos)
    alphas = [alpha for alpha, _k in monos]
    multiples, fibers, lone = {}, {}, {}
    for w, ideal in ideals.items():
        multiples[w], fibers[w] = ideal.multiples(q), {}
        for j, image in enumerate(ideal.monomial_images(alphas)):
            for (beta, _k), c in image.items():
                fibers[w].setdefault(beta, []).append((j, c))
        lone[w] = [] if multiples[w] else [f[0][0] for f in fibers[w].values() if len(f) == 1]
    col, k = _tied_columns(graph, n, lone, theory.is_graded_field)
    p, distinct, nrows, width = theory.char, {}, 0, k
    for edge in graph.edges:
        rowmap = {}
        for h in multiples[edge.weight]:
            for beta, c in h.items():
                rowmap.setdefault(beta, {})[width] = -c
            width += 1
        tail, head = edge.tail * n, edge.head * n
        for beta, fiber in fibers[edge.weight].items():
            if multiples[edge.weight] or len(fiber) > 1:
                row = rowmap.setdefault(beta, {})
                for j, c in fiber:
                    if (a := col[tail + j]) != (b := col[head + j]):
                        row[a], row[b] = c, p - c if p else -c
        nrows += len(rowmap) + len(lone[edge.weight])
        for row in rowmap.values():  # the first copy of each row is kept
            distinct.setdefault(frozenset(row.items()), row)
    rows = list(distinct.values())
    del distinct  # its keys copy every row: gone before the elimination
    if theory.is_graded_field:
        echelon = field_echelon(rows, p)
        rank, divisors = k - len(echelon), lambda: []
        finish = lambda: field_echelon_kernel(echelon, range(k), p)
    else:
        # the solution lattice, saturated when there are no slack columns
        basis = integer_kernel(rows, width, k)
        rank, finish = len(basis), lambda: basis
        divisors = lambda: [1] * rank if width == k else invariant_factors(basis)

    def vectors():  # each class entry at every member of its class
        if k == len(col):
            return finish()
        members = [[] for _ in range(k)]
        for c, i in enumerate(col):
            members[i].append(c)
        return [{c: v[col[c]] for c in sorted([c for i in v for c in members[i]])} for v in finish()]

    return _System(rank, nrows, cache(vectors), cache(divisors))


def _tied_columns(graph, n, lone, field):
    """The class of each column i * n + j (vertex i, monomial j) once (tail,
    j) and (head, j) are tied for each j in lone[w] at every edge of weight
    w, and the number of classes, numbered in the order of their
    representatives.  Over a graded field that is the largest member, the
    only one that can be free in the reduced row-echelon form; over Z and
    Z[b, b^-1] it is the smallest, where a Hermite row with its pivot in
    the class has its pivot."""
    root = list(range(len(graph.vertices) * n))  # union-find
    if not any(lone.values()):
        return root, len(root)

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    for edge in graph.edges:
        for j in lone[edge.weight]:
            a, b = find(edge.tail * n + j), find(edge.head * n + j)
            root[a] = root[b] = max(a, b) if field else min(a, b)
    root = [find(c) for c in range(len(root))]
    number = {r: i for i, r in enumerate(sorted(set(root)))}
    return [number[r] for r in root], len(number)


def _class_from_vector(theory, graph, monos, vec, q) -> EquivariantClass:
    parts = [{} for _ in graph.vertices]
    for i, c in vec.items():
        v, j = divmod(i, len(monos))
        parts[v][monos[j]] = c
    return EquivariantClass(
        tuple(TruncatedSeries.from_raw(theory, graph.rank, p) for p in parts), q
    )


# ---------------------------------------------------------------------------
# equivariant formality as a rank oracle


def formality_prediction(theory: Theory, nvars: int, betti, q: int) -> int:
    """Rank in degree q of the free module with betti(a) generators in degree a.

    A degree-a generator restricts to polynomials of variable degree a/2, so
    inside the truncated model its multiples sweep the solver's own
    degree-(q - a) slice at truncation D - a/2; over the degree-0 coefficient
    fields this is the plain count of monomials of degree (q - a)/2.
    """
    total = 0
    for a, r in betti:
        if a % 2 or a < 0:
            raise ValueError("betti degrees must be even and nonnegative")
        total += r * len(_slice_monomials(theory._replace(trunc=theory.trunc - a // 2), nvars, q - a))
    return total


class FormalityReport(NamedTuple):
    rows: list[tuple[int, int, int, bool]]  # (q, solver rank, predicted, ok)
    passed: bool


def check_formality(betti, solution: SolutionModule) -> FormalityReport:
    betti = sorted((int(a), int(r)) for a, r in betti)
    rows = []
    for q in sorted(solution.ranks):
        predicted = formality_prediction(solution.theory, solution.graph.rank, betti, q)
        rank = solution.ranks[q]
        rows.append((q, rank, predicted, rank == predicted))
    return FormalityReport(rows, all(ok for *_rest, ok in rows))
