"""Fixed-point localization along a generic one-parameter subgroup.

Instead of building the fraction field of the torus ring, everything is
pushed down to one variable along a slope pairing nontrivially with every
edge weight.  Each Euler class then starts with a unit times a power of the
variable, so the integration formula becomes exact Laurent arithmetic with
tracked precision.
"""

from __future__ import annotations

from itertools import count, product
from typing import NamedTuple

from .classifying import relation_order
from .fgl import FormalGroupLaw, build_fgl
from .gkm import EquivariantClass, GKMGraph, validate_graph
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
        yield from (v for v in product(range(1, s + 1), repeat=m) if max(v) == s)


def iterate_generic_slopes(graph: GKMGraph, theory: Theory):
    """Deterministic slope search over growing boxes.

    For the mod-p theories, slopes whose pairings are all nonzero mod p are
    preferred (they keep every Euler-class order equal to the valence).  That
    condition only depends on the slope mod p, so scanning one period box
    decides whether it is satisfiable at all; when it is not (this genuinely
    happens, e.g. the standard three-fixed-point projective plane at p = 2),
    the search falls back to integer-generic slopes, flagged, and the Euler
    classes simply acquire higher leading orders.
    """
    m = graph.rank
    p = theory.char or None
    mod_p_possible = False
    if p is not None:
        box = product(range(1, p + 1), repeat=m)  # lazy: p^m points
        mod_p_possible = any(_slope_ok(graph, lam, p) for lam in box)
    if p is not None and mod_p_possible:
        for lam in _box_points(m):
            if _slope_ok(graph, lam, p):
                yield GenericSlope(lam, True)
    else:
        for lam in _box_points(m):
            if _slope_ok(graph, lam, None):
                yield GenericSlope(lam, p is None)


def find_generic_slope(graph: GKMGraph, theory: Theory) -> GenericSlope:
    violations = validate_graph(graph)
    if violations:
        raise LocalizationError("invalid GKM graph: " + "; ".join(violations))
    for slope in iterate_generic_slopes(graph, theory):
        return slope
    raise LocalizationError("generic slope search exhausted")  # pragma: no cover


class VertexEuler(NamedTuple):
    vertex: int
    pairings: list[int]
    series: LaurentSeries
    order: int


def _euler_orders(graph: GKMGraph, fgl: FormalGroupLaw, slope: GenericSlope) -> list[int]:
    """Each vertex's Euler order, read off its pairings before any series is
    built: the sum of the orders of the cyclic rings' relations [t]u.  Only
    an additive mod-p relation vanishes (p | t), and that is refused."""
    out = []
    for i, v in enumerate(graph.vertices):
        out.append(0)
        for w in graph.outgoing_weights(i):
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
    th = fgl.theory
    out = []
    for i in range(len(graph.vertices)):
        pairings = [pairing(w, slope.vector) for w in graph.outgoing_weights(i)]
        if any(t == 0 for t in pairings):
            raise LocalizationError(
                f"slope {slope.vector} pairs to zero with a weight at vertex "
                f"{graph.vertices[i]}"
            )
        prod = TruncatedSeries.one(th, 1)
        for t in pairings:
            prod = prod * fgl.n_series(t)
        eu = LaurentSeries.from_truncated(prod)
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


def integrate(
    graph: GKMGraph,
    theory: Theory,
    cls: EquivariantClass,
    slope: GenericSlope | None = None,
) -> IntegrationReport:
    violations = validate_graph(graph)
    if violations:
        raise ValueError("invalid GKM graph: " + "; ".join(violations))
    if len(cls.restrictions) != len(graph.vertices):
        raise ValueError("class has the wrong number of fixed-point restrictions")
    work = work_theory(theory)
    fgl = build_fgl(work)
    if work != theory and all(f.theory == theory for f in cls.restrictions):
        cls = _rationalize_class(cls, work)
    if slope is None:
        slope = next(iterate_generic_slopes(graph, theory))
    elif not _slope_ok(graph, slope.vector, None):
        raise LocalizationError(f"slope {slope.vector} is not generic for this graph")
    degree = cls.degree if cls.degree is not None else cls.computed_degree()
    top_degree = 2 * graph.valence(0)
    # the budget is checked before the Euler classes are built, so that a
    # truncation too small for them is refused as such
    orders = _euler_orders(graph, fgl, slope)
    if degree is not None:
        need = degree // 2 + max(orders) + 2
        if work.trunc < need:
            raise LocalizationError(
                f"truncation degree {work.trunc} below the precision "
                f"budget {need} for a degree-{degree} class"
            )
    elif work.trunc < max(orders):
        # below its order an Euler class truncates away its leading term
        raise LocalizationError(
            f"truncation degree {work.trunc} below the largest Euler "
            f"order {max(orders)} for a class of mixed degree"
        )
    eulers = euler_classes(graph, fgl, slope)
    localized = localize_class(fgl, cls, slope)
    total = LaurentSeries.zero(work)
    for f, eu in zip(localized, eulers):
        try:
            term = LaurentSeries.from_truncated(f).divide(eu.series)
        except LeadingUnitError as exc:
            raise LocalizationError(str(exc)) from exc
        total = total + term
    negative_clean = total.negative_part_is_zero()
    integral = None
    is_integer = None
    if degree is not None and degree == top_degree:
        if total.prec is not None and total.prec <= 0:
            raise LocalizationError("precision exhausted before exponent 0")
        integral = total.coefficient(0)
        if work != theory:
            is_integer = integral[0].denominator == 1
    return IntegrationReport(
        slope, eulers, total, negative_clean, degree, top_degree, integral, is_integer
    )
