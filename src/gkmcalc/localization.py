"""Fixed-point localization along a generic one-parameter subgroup.

Instead of building the fraction field of the torus ring, everything is
pushed down to one variable along a slope pairing nontrivially with every
edge weight.  Each Euler class then starts with a unit times a power of the
variable, so the integration formula becomes exact Laurent arithmetic with
tracked precision.  integrate substitutes the slope into the restrictions of
an EquivariantClass; the CLI evaluates a graph file's class at the slope
directly (graphio.class_at_slope).  Both then run integrate_at_slope.
"""

from __future__ import annotations

from itertools import count, product
from math import gcd
from typing import NamedTuple

from .classifying import relation_order
from .fgl import FormalGroupLaw, build_fgl
from .gkm import EquivariantClass, GKMGraph, _refuse_invalid
from .scalars import ORDINARY, Theory
from .series import LaurentSeries, LeadingUnitError, TruncatedSeries


class LocalizationError(Exception):
    """A localization step failed (bad slope or exhausted precision)."""


class GenericSlope(NamedTuple):
    vector: tuple[int, ...]
    mod_p_generic: bool = True


def pairing(weight, slope) -> int:
    return sum(a * s for a, s in zip(weight, slope))


def _slope_ok(weights, lam, p=None) -> bool:
    for w in weights:
        t = pairing(w, lam)
        if t == 0 or (p is not None and t % p == 0):
            return False
    return True


def _box_points(m: int):
    """Positive integer vectors in growing boxes [1..s]^m, new points of each
    box in lexicographic order.  Every vector appears exactly once."""
    for s in count(1):
        yield from (v for v in product(range(1, s + 1), repeat=m) if s in v)


def iterate_generic_slopes(graph: GKMGraph, theory: Theory):
    """Deterministic slope search over growing boxes.

    For the mod-p theories, slopes whose pairings are all nonzero mod p are
    preferred (they keep every Euler-class order equal to the valence), and
    they are yielded as the search meets them.  That condition only depends
    on the slope mod p, so the boxes up to [1..p]^m, which meet every class
    mod p, decide it, and a weight that vanishes mod p rules it out at once.
    When it fails (this genuinely happens, e.g. the standard three-fixed-point
    projective plane at p = 2), the search stops at the first point past side
    p and falls back to integer-generic slopes, flagged, and the Euler
    classes simply acquire higher leading orders.
    """
    m = graph.rank
    p = theory.char
    weights = dict.fromkeys(e.weight for e in graph.edges)  # each weight once
    if p and all(gcd(*w) % p for w in weights):
        found = False
        for lam in _box_points(m):
            if _slope_ok(weights, lam, p):
                found = True
                yield GenericSlope(lam)
            elif not found and max(lam) > p:
                break
    # reached only without a mod-p generic slope: flagged for a prime p
    for lam in _box_points(m):
        if _slope_ok(weights, lam):
            yield GenericSlope(lam, mod_p_generic=not p)


def find_generic_slope(graph: GKMGraph, theory: Theory) -> GenericSlope:
    _refuse_invalid(graph, LocalizationError)
    return next(iterate_generic_slopes(graph, theory))


class VertexEuler(NamedTuple):
    """A vertex's Euler class at the slope.  order is the rule's order, the
    sum of the orders of the relations [t]u: it may pass the truncation,
    and series has then lost its leading term.  The leading coefficient is
    not checked to be a unit: the division checks it."""

    vertex: int
    pairings: list[int]
    series: LaurentSeries
    order: int


def euler_classes(graph: GKMGraph, fgl: FormalGroupLaw, slope: GenericSlope) -> list[VertexEuler]:
    """Each vertex's Euler class, the product of the [t]-series of its
    pairings t, in one pass over the stars.  Its order is read off the
    relations (relation_order), also past the truncation; only an additive
    mod-p relation vanishes (p | t), and that is refused.  The leading
    coefficient is not checked: the division does that.  Every [t]u has
    degree 2, so the product has degree 2 * valence: it is multiplied as a
    coefficient list indexed by exponent, reduced mod p after each factor,
    and the unit exponent of each term is read off that degree."""
    th = fgl.theory
    D, p = th.trunc, th.char
    factors = {}  # t -> the order of [t]u and its (exponent, coefficient) terms, ascending
    out = []
    for i, (v, star) in enumerate(zip(graph.vertices, graph.adjacency())):
        pairings = [pairing(w, slope.vector) for _j, w in star]
        if 0 in pairings:
            raise LocalizationError(f"slope {slope.vector} pairs to zero with a weight at vertex {v}")
        prod, order = [1] + [0] * D, 0
        for t, (_j, w) in zip(pairings, star):
            if t not in factors:
                terms = sorted((a[0], c) for (a, _k), c in fgl.n_series(t).coeffs.items())
                factors[t] = relation_order(fgl, abs(t)), terms
            t_order, factor = factors[t]
            if t_order is None:
                msg = (
                    f"slope {slope.vector} pairs to {t} with weight {w} at vertex {v}, "
                    f"so the additive mod-{p} Euler class vanishes there"
                )
                if not slope.mod_p_generic:
                    msg = f"no slope pairs nonzero mod {p} with every weight: {msg}"
                raise LocalizationError(msg)
            order += t_order
            acc = [0] * (D + 1)
            for e, a in enumerate(prod):
                if a:
                    for f, c in factor:
                        if e + f > D:
                            break
                        acc[e + f] += a * c
            prod = [c % p for c in acc] if p else acc
        degree = 2 * len(pairings)
        coeffs = {(e, th.unit_exponent(e, degree)): c for e, c in enumerate(prod) if c}
        out.append(VertexEuler(i, pairings, LaurentSeries.from_raw(th, coeffs, D + 1), order))
    return out


def localize_class(fgl: FormalGroupLaw, cls: EquivariantClass, slope: GenericSlope) -> list[TruncatedSeries]:
    """Substitute u_i -> [slope_i] s in every fixed-point restriction."""
    m = cls.restrictions[0].nvars
    images = [fgl.n_series(slope.vector[i]) for i in range(m)]
    return [f.substitute(images) for f in cls.restrictions]


class IntegrationReport(NamedTuple):
    slope: GenericSlope
    eulers: list[VertexEuler]
    total: LaurentSeries
    negative_clean: bool
    class_degree: int | None
    top_degree: int
    integral: tuple | None  # (c, k): c * unit^k
    integral_is_integer: bool | None = None


def work_theory(theory: Theory) -> Theory:
    """The theory localization computes in: the integral theory extends its
    scalars to the rationals, every other theory stays as it is."""
    return theory.rationalized() if theory.kind == ORDINARY else theory


def _rationalize_class(cls: EquivariantClass, qtheory: Theory) -> EquivariantClass:
    parts = tuple(TruncatedSeries.from_raw(qtheory, f.nvars, f.coeffs) for f in cls.restrictions)
    return EquivariantClass(parts, cls.degree)


def _refuse_short_truncation(graph: GKMGraph, orders: list[int], localized, trunc: int, last: int):
    """Refuse a truncation the divisions f/e(v) cannot serve up to s^last,
    naming the vertex with the largest need.  Both operands are known below
    trunc + 1: the Euler class keeps its leading term from trunc = lg on, and
    by the division rule the quotient reaches s^last from 2*lg - ord f + last on."""

    def need(lg, f):
        lf = f.order()
        return lg if lf is None else max(lg, 2 * lg - lf + last)

    lg, f, vertex = max(zip(orders, localized, graph.vertices), key=lambda t: need(t[0], t[1]))
    smallest = need(lg, f)
    if trunc < smallest == lg:
        raise LocalizationError(
            f"truncation degree {trunc} below the Euler order {lg} at vertex {vertex}, "
            f"where the Euler class would lose its leading term, so the smallest "
            f"truncation degree that keeps it is {lg}"
        )
    if trunc < smallest:
        raise LocalizationError(
            f"precision exhausted before exponent {last}: at vertex {vertex} "
            f"the Euler order is {lg} and the class order {f.order()}, so the "
            f"smallest truncation degree that reaches it is {smallest}"
        )


def integrate(
    graph: GKMGraph,
    theory: Theory,
    cls: EquivariantClass,
    slope: GenericSlope | None = None,
) -> IntegrationReport:
    _refuse_invalid(graph)
    if len(cls.restrictions) != len(graph.vertices):
        raise ValueError("class has the wrong number of fixed-point restrictions")
    work = work_theory(theory)
    fgl = build_fgl(work)
    if work != theory and all(f.theory == theory for f in cls.restrictions):
        cls = _rationalize_class(cls, work)
    if slope is None:
        slope = next(iterate_generic_slopes(graph, theory))
    elif len(slope.vector) != graph.rank:
        raise LocalizationError(
            f"slope {slope.vector} has {len(slope.vector)} entries for a torus of rank {graph.rank}"
        )
    elif not _slope_ok((e.weight for e in graph.edges), slope.vector):
        raise LocalizationError(f"slope {slope.vector} is not generic for this graph")
    degree = cls.degree if cls.degree is not None else cls.computed_degree()
    return integrate_at_slope(graph, theory, slope, localize_class(fgl, cls, slope), degree)


def integrate_at_slope(
    graph: GKMGraph,
    theory: Theory,
    slope: GenericSlope,
    localized: list[TruncatedSeries],
    degree: int | None,
) -> IntegrationReport:
    """The integral of a class of the given degree whose restrictions at the
    slope, one-variable series over the work theory, are localized."""
    work = work_theory(theory)
    eulers = euler_classes(graph, build_fgl(work), slope)
    top_degree = 2 * len(eulers[0].pairings)
    top = degree == top_degree
    # checked before any division: past it each Euler class has its rule's
    # order (the rings are domains); the answer reads s^0 at top degree,
    # below it s^-1 (the verdict)
    orders = [eu.order for eu in eulers]
    _refuse_short_truncation(graph, orders, localized, work.trunc, 0 if top else -1)
    # every quotient is known below at most trunc + 1
    total = LaurentSeries.zero(work, work.trunc + 1)
    for f, eu in zip(localized, eulers):
        try:
            term = LaurentSeries.from_truncated(f).divide(eu.series)
        except LeadingUnitError as exc:
            raise LocalizationError(
                f"Euler class at vertex {graph.vertices[eu.vertex]} has no unit leading "
                f"coefficient for slope {slope.vector}"
            ) from exc
        total = total + term
    negative_clean = total.negative_part_is_zero()
    integral = total.coefficient(0) if top else None
    is_integer = integral[0].denominator == 1 if top and work != theory else None
    return IntegrationReport(
        slope, eulers, total, negative_clean, degree, top_degree, integral, is_integer
    )
