"""Classifying-space rings and restriction maps.

Character classes in the torus ring, presentations of the classifying rings
of cyclic groups, and the kernel ideal of restriction to the kernel of a
character.  The kernel of restriction is modeled as the principal ideal
generated by the d-series of the primitive part's class, in coordinates
adapted to the character: the relation of the cyclic ring E*[[u]]/([d]u)
composed with the adapted last variable u_m.  When that relation has a unit
leading coefficient it is u_m^nu times a unit, so the residue of a series is
its cut at u_m-exponent nu.  Which theories pin this model down and which
expose it as conjectural is the README's `model: conjectural` paragraph.
A monomial's residue is a product of adapted classes, cut after each factor.
"""

from __future__ import annotations

from typing import NamedTuple

from .fgl import FormalGroupLaw
from .lattice import adapted_basis, hermite_basis, primitive_part
from .scalars import MORAVA, Theory
from .series import TruncatedSeries, exponent_vectors


def character_class(fgl: FormalGroupLaw, weight, nvars: int | None = None) -> TruncatedSeries:
    """The Euler class of the line with the given character: the formal-group
    sum of the n-series of the coordinate classes."""
    weight = tuple(weight)
    if nvars is None:
        nvars = len(weight)
    if nvars != len(weight):
        raise ValueError("character length does not match the variable count")
    th = fgl.theory
    out = TruncatedSeries.zero(th, nvars)
    for i, a in enumerate(weight):
        if a == 0:
            continue
        term = fgl.n_series(a).substitute([TruncatedSeries.variable(th, nvars, i)])
        out = term if out.is_zero() else fgl.sum(out, term)
    return out


class CyclicRingPresentation(NamedTuple):
    """E_*[[u]] / ([ell] u), with the monomial normal form when it exists."""

    theory: Theory
    ell: int
    relation: TruncatedSeries
    order: int | None  # u-order of the relation when its leading coeff is a unit
    rank: int | None  # free rank over the coefficients; None if not defined


def relation_order(fgl: FormalGroupLaw, ell: int) -> int | None:
    """The u-order of [ell]u for ell >= 1: p^{n r} at height n with
    ell = p^r s, also beyond the truncation; otherwise the order of the
    truncated series, None when it vanishes."""
    if ell < 1:
        raise ValueError(f"the group order must be a positive integer, not {ell}")
    th = fgl.theory
    if th.kind != MORAVA:
        return fgl.n_series(ell).order()
    r = 0
    while ell % th.p == 0:
        ell //= th.p
        r += 1
    return th.p ** (r * th.n)


def cyclic_classifying_ring(fgl: FormalGroupLaw, ell: int) -> CyclicRingPresentation:
    th = fgl.theory
    order = relation_order(fgl, ell)
    if order is not None and order > th.trunc:
        raise ValueError(
            f"truncation degree {th.trunc} cannot present the order-{ell} "
            f"ring: its relation has order {order}"
        )
    rel = fgl.n_series(ell)
    if rel.order() != order:
        raise AssertionError(
            f"[{ell}]-series of the height-{th.n} theory has order {rel.order()}, "
            f"expected {order}"
        )
    rank = None
    if order is not None and th.is_unit(rel.coefficient((order,))[0]):
        rank = order
    return CyclicRingPresentation(th, ell, rel, order, rank)


class RestrictionIdeal:
    """The kernel of restriction to ker(theta), as a principal ideal.

    The generator is the d-series of the adapted last variable u_m, where the
    character factors as d times a primitive one; order and leading_unit are
    those of the cyclic ring E*[[u]]/([d]u).  A unit-lead generator is
    u_m^order times a unit, so the residue modulo it is the cut below
    u_m^order.  basis_change moves the ambient ring into the adapted
    coordinates, where the variables become the classes in adapted_classes,
    so a monomial's image is a product of them.  The ideal memoizes what the
    solver asks of it per monomial and per degree.
    """

    def __init__(
        self,
        fgl: FormalGroupLaw,
        weight: tuple[int, ...],
        d: int,
        theta: tuple[int, ...],
        basis_change: list,
        adapted_classes: list[TruncatedSeries],
        generator: TruncatedSeries,
        order: int | None = None,
        leading_unit: bool = False,
    ):
        self.fgl = fgl
        self.weight = weight
        self.d = d
        self.theta = theta
        self.basis_change = basis_change
        self.adapted_classes = adapted_classes
        self.generator = generator
        self.order = order
        self.leading_unit = leading_unit
        self._images = {}
        self._hermite_cache = {}

    @property
    def nvars(self) -> int:
        return len(self.weight)

    @property
    def residue_is_linear(self) -> bool:
        """True when the generator is zero or has a unit leading coefficient,
        as every nonzero one has over a graded field."""
        return self.generator.is_zero() or self.leading_unit

    def monomial_image(self, alpha) -> TruncatedSeries:
        """u^alpha in the adapted coordinates, cut below u_m^order for a
        unit-lead generator (its residue when the residue is linear): the
        image of u^(alpha - e_i) times the i-th adapted class, i the last
        variable in alpha, cut again; both steps are ring maps."""
        img = self._images.get(alpha)
        if img is None:
            if not any(alpha):
                img = TruncatedSeries.one(self.fgl.theory, self.nvars)
            else:
                i = max(j for j, e in enumerate(alpha) if e)
                lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                img = self.monomial_image(lower) * self.adapted_classes[i]
                if self.leading_unit:
                    cut = {key: c for key, c in img.coeffs.items() if key[0][-1] < self.order}
                    img = TruncatedSeries.from_raw(img.theory, self.nvars, cut)
            self._images[alpha] = img
        return img


def kernel_ideal(fgl: FormalGroupLaw, weight) -> RestrictionIdeal:
    weight = tuple(weight)
    if not any(weight):
        raise ValueError("the zero character has trivial kernel ideal data")
    d, theta = primitive_part(weight)
    b = adapted_basis(theta)
    m = len(weight)
    ring = cyclic_classifying_ring(fgl, d)
    gen = ring.relation.substitute([TruncatedSeries.variable(fgl.theory, m, m - 1)])
    classes = [character_class(fgl, tuple(row), m) for row in b]
    return RestrictionIdeal(
        fgl, weight, d, theta, b, classes, gen, ring.order, ring.rank is not None
    )


def _slice_monomials(theory: Theory, nvars: int, q: int):
    """Monomial basis of the degree-q slice of the truncated series ring:
    pairs (alpha, vexp) with |unit^vexp| + 2|alpha| = q."""
    if q % 2:
        return []
    per = theory.period_degree
    out = []
    for alpha in exponent_vectors(nvars, theory.trunc):
        t = 2 * sum(alpha) - q
        if per == 0:
            if t == 0:
                out.append((alpha, 0))
        elif t % per == 0:
            out.append((alpha, t // per))
    return out


def ideal_multiples_basis(ideal: RestrictionIdeal, q: int):
    """Hermite basis for the degree-q slice of the truncated ideal, as sparse
    rows {index into the slice's monomials: coefficient} in the monomial
    coordinates of the adapted ring.  Used when the generator has a non-unit
    leading coefficient, where membership is a lattice condition."""
    cached = ideal._hermite_cache.get(q)
    if cached is not None:
        return cached
    th = ideal.fgl.theory
    m = ideal.nvars
    monos = _slice_monomials(th, m, q)
    index = {mono: i for i, mono in enumerate(monos)}
    gens = []
    for mono in _slice_monomials(th, m, q - 2):
        prod = ideal.generator * TruncatedSeries.from_raw(th, m, {mono: 1})
        gens.append({index[key]: c for key, c in prod.coeffs.items()})
    basis = hermite_basis(gens)
    ideal._hermite_cache[q] = (monos, basis)
    return monos, basis
