"""Moment-graph data model and the solver for the edge-congruence subalgebra.

The solver works one even degree at a time: homogeneity makes the congruence
system block-diagonal by degree, and each block is an exact linear problem on
the coefficient vectors of the fixed-point tuples.  One routine assembles that
block as sparse rows for every coefficient ring; the elimination lives in the
lattice module.  Over a graded field the block's kernel is read off its
reduced row-echelon form; over Z and Z[b, b^-1] Hermite reduction gives the
solution lattice's canonical basis, its free rank and its elementary divisors.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .classifying import _slice_monomials, ideal_multiples_basis, kernel_ideal
from .fgl import build_fgl
from .lattice import field_kernel, integer_kernel, invariant_factors, primitive_part
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


class SolutionModule:
    """The solution by degree.  kernels maps a degree to its monomials and
    sparse kernel vectors {i * len(monomials) + j: the nonzero coefficient of
    monomial j at vertex i}, keys increasing; bases builds classes from them
    on first read only."""

    def __init__(
        self,
        theory: Theory,
        graph: GKMGraph,
        ranks: dict[int, int],
        kernels: dict[int, tuple[list, list]],  # (monomials, kernel vectors)
        divisors: dict[int, list[int]],
        provenance: dict[int, tuple[int, int]],  # (columns, constraint rows)
    ):
        self.theory = theory
        self.graph = graph
        self.ranks = ranks
        self.kernels = kernels
        self.divisors = divisors
        self.provenance = provenance

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
    ranks: dict[int, int] = {}
    kernels: dict[int, tuple[list, list]] = {}
    divisors: dict[int, list[int]] = {}
    provenance: dict[int, tuple[int, int]] = {}

    # _solve_degree reads only the alpha of each slice key, and multiplying
    # by the periodicity unit maps the degree-q slice onto the degree-(q +
    # |unit|) one: degrees whose slices hold the same monomials share a solve
    systems: dict[tuple, tuple] = {}

    for q in range(0, q_max + 1, 2):
        monos = _slice_monomials(theory, graph.rank, q)
        key = tuple(alpha for alpha, _k in monos)
        if key not in systems:
            systems[key] = _solve_degree(theory, graph, ideals, monos, q)
        vecs, nrows, divs = systems[key]
        ranks[q] = len(vecs)
        divisors[q] = divs
        provenance[q] = (len(graph.vertices) * len(monos), nrows)
        kernels[q] = (monos, vecs)

    return SolutionModule(theory, graph, ranks, kernels, divisors, provenance)


def _solve_degree(theory, graph, ideals, monos, q):
    """Kernel basis, constraint row count and elementary divisors of the
    degree-q congruence system.  Each distinct weight's ideal gives the
    images of the slice's monomials once, as term dicts that every edge of
    that weight reads."""
    ncols = len(graph.vertices) * len(monos)
    alphas = [alpha for alpha, _k in monos]
    images = {w: ideal.monomial_images(alphas) for w, ideal in ideals.items()}
    rows = []
    width = ncols
    for edge in graph.edges:
        ideal = ideals[edge.weight]
        rowmap = {}
        # a linear residue must vanish; otherwise the images are the plain
        # adapted monomials and membership needs the slack columns below;
        # rows are keyed by the u-exponent beta alone, since q fixes the
        # periodicity exponent of every term at beta
        if not ideal.residue_is_linear:
            # membership in the ideal is a lattice condition: the adapted
            # difference must be H^T y for the truncated multiples H of the
            # generator, with y in slack columns after the x columns
            ad_monos, multiples = ideal_multiples_basis(ideal, q)
            for h in multiples:
                for i, c in h.items():
                    rowmap.setdefault(ad_monos[i][0], {})[width] = -c
                width += 1
        tail, head = edge.tail * len(monos), edge.head * len(monos)
        for j, image in enumerate(images[edge.weight]):
            for (beta, _k), c in image.items():
                row = rowmap.setdefault(beta, {})
                row[tail + j] = c
                row[head + j] = -c
        rows.extend(rowmap.values())
    if theory.is_graded_field:
        return field_kernel(rows, ncols, theory.char), len(rows), []
    # the kernel's Hermite rows with a pivot among the x columns come first,
    # and their x parts are the Hermite basis of the solution lattice, which
    # is saturated when there are no slack columns: every divisor is 1
    kernel = integer_kernel(rows, width)
    basis_rows = [x for v in kernel if (x := {j: c for j, c in v.items() if j < ncols})]
    divs = [1] * len(basis_rows) if width == ncols else invariant_factors(basis_rows)
    return basis_rows, len(rows), divs


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


def truncated_slice_count(theory: Theory, nvars: int, q: int, dmax: int) -> int:
    """Dimension over the degree-0 field of the degree-q slice of the series
    ring truncated at variable degree dmax: the length of the solver's own
    slice at truncation dmax, counted per total degree."""
    return sum(
        math.comb(size + nvars - 1, nvars - 1)
        for size in range(dmax + 1)
        if theory.unit_exponent(size, q) is not None
    )


def formality_prediction(theory: Theory, nvars: int, betti, q: int) -> int:
    """Rank in degree q of the free module with betti(a) generators in degree a.

    A degree-a generator restricts to polynomials of variable degree a/2, so
    inside the truncated model its multiples sweep monomials of degree at most
    D - a/2; over the degree-0 coefficient fields this reduces to the plain
    count of monomials of degree (q - a)/2.
    """
    total = 0
    for a, r in betti:
        if a % 2 or a < 0:
            raise ValueError("betti degrees must be even and nonnegative")
        total += r * truncated_slice_count(theory, nvars, q - a, theory.trunc - a // 2)
    return total


class FormalityReport(NamedTuple):
    rows: list[tuple[int, int, int, bool]]  # (q, solver rank, predicted, ok)
    passed: bool


def check_formality(graph: GKMGraph, betti, solution: SolutionModule) -> FormalityReport:
    betti = sorted((int(a), int(r)) for a, r in betti)
    rows = []
    for q in sorted(solution.ranks):
        predicted = formality_prediction(solution.theory, graph.rank, betti, q)
        rank = solution.ranks[q]
        rows.append((q, rank, predicted, rank == predicted))
    return FormalityReport(rows, all(ok for *_rest, ok in rows))
