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

from itertools import count, product, takewhile
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


def _slope_ok(graph, lam, p=None) -> bool:
    for e in graph.edges:
        t = pairing(e.weight, lam)
        if t == 0:
            return False
        if p is not None and t % p == 0:
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
    preferred (they keep every Euler-class order equal to the valence).  That
    condition only depends on the slope mod p, so the boxes up to [1..p]^m,
    which meet every class mod p, decide it, and a weight that vanishes mod p
    rules it out at once; when it fails (this genuinely happens, e.g. the
    standard three-fixed-point projective plane at p = 2), the search falls
    back to integer-generic slopes, flagged, and the Euler classes simply
    acquire higher leading orders.
    """
    m = graph.rank
    p = theory.char or None
    mod_p_generic = True
    if p is not None:
        box = takewhile(lambda lam: max(lam) <= p, _box_points(m))
        vanishing = any(gcd(*e.weight) % p == 0 for e in graph.edges)
        if vanishing or not any(_slope_ok(graph, lam, p) for lam in box):
            p, mod_p_generic = None, False
    for lam in _box_points(m):
        if _slope_ok(graph, lam, p):
            yield GenericSlope(lam, mod_p_generic)


def find_generic_slope(graph: GKMGraph, theory: Theory) -> GenericSlope:
    _refuse_invalid(graph, LocalizationError)
    return next(iterate_generic_slopes(graph, theory))


class VertexEuler(NamedTuple):
    vertex: int
    pairings: list[int]
    series: LaurentSeries
    order: int


def _euler_orders(graph: GKMGraph, stars, fgl: FormalGroupLaw, slope: GenericSlope) -> list[int]:
    """Each vertex's Euler order, read off the pairings in its star before
    any series is built: the sum of the orders of the relations [t]u.  Only
    an additive mod-p relation vanishes (p | t), and that is refused."""
    out = []
    for v, star in zip(graph.vertices, stars):
        out.append(0)
        for _j, w in star:
            t = pairing(w, slope.vector)
            order = relation_order(fgl, abs(t))
            if order is None:
                p = fgl.theory.char
                msg = (
                    f"slope {slope.vector} pairs to {t} with weight {w} at vertex {v}, "
                    f"so the additive mod-{p} Euler class vanishes there"
                )
                if not slope.mod_p_generic:
                    msg = f"no slope pairs nonzero mod {p} with every weight: {msg}"
                raise LocalizationError(msg)
            out[-1] += order
    return out


def euler_classes(graph: GKMGraph, fgl: FormalGroupLaw, slope: GenericSlope) -> list[VertexEuler]:
    """Each vertex's Euler class, the product of the [t]-series of its
    pairings t.  Every [t]u has degree 2, so the product has degree
    2 * valence: it is multiplied as a coefficient list indexed by exponent,
    reduced mod p after each factor, and the unit exponent of each term is
    read off that degree."""
    th = fgl.theory
    D, p = th.trunc, th.char
    factors = {}  # t -> the (exponent, coefficient) terms of [t]u, ascending
    out = []
    for i, star in enumerate(graph.adjacency()):
        pairings = [pairing(w, slope.vector) for _j, w in star]
        if any(t == 0 for t in pairings):
            raise LocalizationError(
                f"slope {slope.vector} pairs to zero with a weight at vertex "
                f"{graph.vertices[i]}"
            )
        prod = [1] + [0] * D
        for t in pairings:
            factor = factors.get(t)
            if factor is None:
                factor = factors[t] = sorted((a[0], c) for (a, _k), c in fgl.n_series(t).coeffs.items())
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
        eu = LaurentSeries.from_raw(th, coeffs, D + 1)
        order = eu.order()
        if order is None or not th.is_unit(eu.coefficient(order)[0]):
            raise LocalizationError(
                f"Euler class at vertex {graph.vertices[i]} has no unit leading "
                f"coefficient for slope {slope.vector}"
            )
        out.append(VertexEuler(i, pairings, eu, order))
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
    elif not _slope_ok(graph, slope.vector, None):
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
    fgl = build_fgl(work)
    stars = graph.adjacency()
    top_degree = 2 * len(stars[0])
    top = degree == top_degree
    # checked before the Euler classes are built, which a short truncation
    # would cut; the answer reads s^0 at top degree, below it s^-1 (the verdict)
    orders = _euler_orders(graph, stars, fgl, slope)
    _refuse_short_truncation(graph, orders, localized, work.trunc, 0 if top else -1)
    eulers = euler_classes(graph, fgl, slope)
    total = LaurentSeries.zero(work)
    for f, eu in zip(localized, eulers):
        try:
            term = LaurentSeries.from_truncated(f).divide(eu.series)
        except LeadingUnitError as exc:
            raise LocalizationError(str(exc)) from exc
        total = total + term
    negative_clean = total.negative_part_is_zero()
    integral = total.coefficient(0) if top else None
    is_integer = integral[0].denominator == 1 if top and work != theory else None
    return IntegrationReport(
        slope, eulers, total, negative_clean, degree, top_degree, integral, is_integer
    )
