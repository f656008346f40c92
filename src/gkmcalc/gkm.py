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
from .lattice import field_kernel, integer_kernel, invariant_factors, primitive_part, vec_mat
from .scalars import Theory
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

    def incident(self, i: int) -> list[GKMEdge]:
        return [e for e in self.edges if i in (e.tail, e.head)]

    def outgoing_weights(self, i: int) -> list[tuple[int, ...]]:
        """Weights of edges at vertex i, oriented away from it."""
        out = []
        for e in self.edges:
            if e.tail == i:
                out.append(e.weight)
            if e.head == i:
                out.append(tuple(-a for a in e.weight))
        return out

    def valence(self, i: int) -> int:
        return len(self.incident(i))

    def relabel(self, perm: list[int]) -> "GKMGraph":
        """New graph with vertex i renamed to position perm[i]."""
        names = [None] * len(self.vertices)
        for i, name in enumerate(self.vertices):
            names[perm[i]] = name
        edges = [GKMEdge(perm[e.tail], perm[e.head], e.weight) for e in self.edges]
        return GKMGraph(self.rank, names, edges)

    def change_coordinates(self, w) -> "GKMGraph":
        """Transform all edge weights by the unimodular matrix w (a -> a @ w)."""
        edges = [GKMEdge(e.tail, e.head, vec_mat(e.weight, w)) for e in self.edges]
        return GKMGraph(self.rank, list(self.vertices), edges)

    def primitive(self) -> "GKMGraph":
        """The graph with every weight replaced by its primitive part."""
        edges = [GKMEdge(e.tail, e.head, primitive_part(e.weight)[1]) for e in self.edges]
        return GKMGraph(self.rank, list(self.vertices), edges)


def _minors(a, b):
    """The 2x2 minors of the matrix with rows a and b; all vanish exactly
    when a and b are proportional."""
    n = len(a)
    return (a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def validate_graph(graph: GKMGraph) -> list[str]:
    """Check the GKM conditions; an empty list means the graph is valid."""
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
    for i in range(k):
        ws = graph.outgoing_weights(i)
        for a in range(len(ws)):
            for b in range(a + 1, len(ws)):
                if not any(_minors(ws[a], ws[b])):
                    violations.append(
                        f"vertex {graph.vertices[i]}: dependent weights "
                        f"{ws[a]} and {ws[b]}"
                    )
    # connectivity
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for e in graph.edges:
            if v in (e.tail, e.head):
                other = e.head if v == e.tail else e.tail
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    if len(seen) != k:
        violations.append("graph is not connected")
    valences = {graph.valence(i) for i in range(k)}
    if len(valences) > 1:
        violations.append(f"vertices have unequal valences {sorted(valences)}")
    return violations


def mod_p_weight_warnings(graph: GKMGraph, p: int) -> list[str]:
    """Warn when the GKM independence conditions degenerate mod p.

    These are warnings, not failures: the congruence model stays defined
    either way, but mod-p degenerations are worth surfacing because torsion
    edges behave differently at different heights.
    """
    warnings = []
    for i in range(len(graph.vertices)):
        ws = graph.outgoing_weights(i)
        for a in range(len(ws)):
            if all(x % p == 0 for x in ws[a]):
                warnings.append(
                    f"vertex {graph.vertices[i]}: weight {ws[a]} vanishes mod {p}"
                )
        for a in range(len(ws)):
            for b in range(a + 1, len(ws)):
                if all(x % p == 0 for x in _minors(ws[a], ws[b])):
                    warnings.append(
                        f"vertex {graph.vertices[i]}: weights {ws[a]} and {ws[b]} "
                        f"dependent mod {p}"
                    )
    return list(dict.fromkeys(warnings))


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
        degs = {f.homogeneous_degree() for f in self.restrictions if not f.is_zero()}
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
        q_max: int,
        ranks: dict[int, int],
        kernels: dict[int, tuple[list, list]],  # (monomials, kernel vectors)
        divisors: dict[int, list[int]],
        provenance: dict[int, tuple[int, int]],  # (columns, constraint rows)
    ):
        self.theory = theory
        self.graph = graph
        self.q_max = q_max
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
    violations = validate_graph(graph)
    if violations:
        raise ValueError("invalid GKM graph: " + "; ".join(violations))
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

    # multiplying by the periodicity unit maps the degree-q system onto the
    # degree-(q + period_degree) one, so periodic theories solve each class
    # of q/2 modulo the step once
    step = theory.period_degree // 2
    systems: dict[int, tuple] = {}

    for q in range(0, q_max + 1, 2):
        monos = _slice_monomials(theory, graph.rank, q)
        key = (q // 2) % step if step else q
        if key not in systems:
            systems[key] = _solve_degree(theory, graph, ideals, monos, q)
        vecs, nrows, divs = systems[key]
        ranks[q] = len(vecs)
        divisors[q] = divs
        provenance[q] = (len(graph.vertices) * len(monos), nrows)
        kernels[q] = (monos, vecs)

    return SolutionModule(theory, graph, q_max, ranks, kernels, divisors, provenance)


def _solve_degree(theory, graph, ideals, monos, q):
    """Kernel basis, constraint row count and elementary divisors of the
    degree-q congruence system."""
    ncols = len(graph.vertices) * len(monos)
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
        for j, (alpha, _v) in enumerate(monos):
            for (beta, _k), c in ideal.monomial_image(alpha).coeffs.items():
                row = rowmap.setdefault(beta, {})
                row[tail + j] = c
                row[head + j] = -c
        rows.extend(rowmap.values())
    if theory.is_graded_field:
        return field_kernel(rows, ncols, theory.char), len(rows), []
    # the kernel's Hermite rows with a pivot among the x columns come first,
    # and their x parts are the Hermite basis of the solution lattice
    kernel = integer_kernel(rows, width)
    basis_rows = [x for v in kernel if (x := {j: c for j, c in v.items() if j < ncols})]
    return basis_rows, len(rows), invariant_factors(basis_rows)


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
    ring truncated at variable degree dmax."""
    if q % 2 or dmax < 0:
        return 0
    per = theory.period_degree
    count = 0
    for b in range(dmax + 1):
        t = 2 * b - q
        if (per == 0 and t == 0) or (per != 0 and t % per == 0):
            count += math.comb(b + nvars - 1, nvars - 1)
    return count


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

    def first_failure(self) -> int | None:
        for q, _, _, ok in self.rows:
            if not ok:
                return q
        return None


def check_formality(graph: GKMGraph, betti, solution: SolutionModule) -> FormalityReport:
    betti = sorted((int(a), int(r)) for a, r in betti)
    rows = []
    for q in sorted(solution.ranks):
        predicted = formality_prediction(solution.theory, graph.rank, betti, q)
        rank = solution.ranks[q]
        rows.append((q, rank, predicted, rank == predicted))
    return FormalityReport(rows, all(ok for *_rest, ok in rows))
