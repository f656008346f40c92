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
A monomial's residue is a product of adapted classes taken in the cut ring,
cut after each factor; at nu = 1 the classes are built with u_m = 0, so
there the cut changes nothing.  A RestrictionIdeal computes all of this
from the law and the weight alone (kernel_ideal is its entry point) and
keeps the residues in one table of stored-format term dicts, filled in order
of total degree: each entry is the one below it times one adapted class,
by the series module's sparse_product with the cut in u_m, the kernel that
TruncatedSeries.__mul__ also calls.  When the leading coefficient is no
unit, as over Z and Z[b, b^-1] for d > 1, membership is a lattice condition:
lying in the span of the generator's truncated multiples, taken as they are.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .fgl import FormalGroupLaw
from .lattice import adapted_basis, primitive_part
from .scalars import MORAVA, Theory
from .series import TruncatedSeries, degree_vectors, exponent_vectors, sorted_terms, sparse_product


def character_class(fgl: FormalGroupLaw, weight) -> TruncatedSeries:
    """The Euler class of the line with the given character: the formal-group
    sum of the n-series of the coordinate classes, built once per law."""
    weight = tuple(weight)
    out = fgl.character_classes.get(weight)
    if out is None:
        th, m = fgl.theory, len(weight)
        out = TruncatedSeries.zero(th, m)
        for i, a in enumerate(weight):
            if a:
                term = _on_variable(fgl.n_series(a), m, i)
                out = term if out.is_zero() else fgl.sum(out, term)
        fgl.character_classes[weight] = out
    return out


def _on_variable(f: TruncatedSeries, nvars: int, i: int) -> TruncatedSeries:
    """The one-variable series f(u) as f(u_i) in nvars variables."""
    before, after = (0,) * i, (0,) * (nvars - i - 1)
    terms = {(before + a + after, k): c for (a, k), c in f.coeffs.items()}
    return TruncatedSeries.from_raw(f.theory, nvars, terms)


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
    """The kernel of restriction to ker(theta), as a principal ideal, built
    from the law and the weight alone.

    The weight factors as d times a primitive theta.  The generator is the
    d-series of the adapted last variable u_m; order and leading_unit are
    those of the cyclic ring E*[[u]]/([d]u).  A unit-lead generator is
    u_m^order times a unit, so the residue modulo it is the cut below
    u_m^order.  basis_change moves the ambient ring into the adapted
    coordinates, where the variables become the classes in adapted_classes,
    taken in the cut ring (u_m = 0) at order 1, so a monomial's image is a
    product of them.  It keeps a table of monomial images, filled on demand,
    and lists the truncated multiples of a generator with a non-unit lead.
    """

    def __init__(self, fgl: FormalGroupLaw, weight):
        weight = tuple(weight)
        if not any(weight):
            raise ValueError("the zero character has trivial kernel ideal data")
        m = len(weight)
        self.fgl, self.weight = fgl, weight
        self.d, self.theta = primitive_part(weight)
        self.basis_change = adapted_basis(self.theta)
        ring = cyclic_classifying_ring(fgl, self.d)
        self.generator = _on_variable(ring.relation, m, m - 1)
        self.order, self.leading_unit = ring.order, ring.rank is not None
        # an order-1 residue sets u_m = 0, which commutes with formal sums,
        # [ell]-series and the truncation: the classes of the rows cut there
        self.adapted_classes = [
            character_class(fgl, (*row[:-1], 0 if ring.rank == 1 else row[-1]))
            for row in self.basis_change
        ]
        self._images = {(0,) * m: {((0,) * m, 0): 1}}
        self._factors = [sorted_terms(f.coeffs) for f in self.adapted_classes]

    @property
    def nvars(self) -> int:
        return len(self.weight)

    def monomial_images(self, alphas) -> list[dict]:
        """The images of the u^alpha in the adapted coordinates, as
        stored-format term dicts {(beta, k): c}, cut below u_m^order for a
        unit-lead generator (the residue there).  The table grows in order
        of total degree, so the image of u^alpha is that of u^(alpha - e_i),
        i the last variable in alpha, times the i-th adapted class, cut
        again: both steps are ring maps.  The dicts are the table's own;
        callers only read them."""
        table = self._images
        steps = _image_steps(self.nvars, max(map(sum, alphas), default=0))
        # the table holds the zero vector and a prefix of the steps
        if len(table) <= len(steps):
            th = self.fgl.theory
            cut = self.order if self.leading_unit else None
            for alpha, i, lower in steps[len(table) - 1:]:
                table[alpha] = sparse_product(table[lower], self._factors[i], th.char, th.trunc, cut)
        return [table[alpha] for alpha in alphas]

    def multiples(self, q: int) -> list[dict]:
        """The generator's nonzero truncated multiples g * u^alpha * unit^k,
        (alpha, k) over the degree-(q - 2) slice, as rows {adapted exponent
        beta: c} (q fixes k at each beta), which span the ideal's degree-q
        slice; none when the generator is zero or leads with a unit."""
        if self.leading_unit or self.generator.is_zero():
            return []
        th, terms = self.fgl.theory, sorted_terms(self.generator.coeffs)
        monos = _slice_monomials(th, self.nvars, q - 2)
        products = (sparse_product({mono: 1}, terms, th.char, th.trunc) for mono in monos)
        return [{beta: c for (beta, _k), c in prod.items()} for prod in products if prod]


@lru_cache(maxsize=None)
def _image_steps(nvars: int, dmax: int) -> tuple:
    """(alpha, i, alpha - e_i) for the nonzero exponent vectors of total
    degree <= dmax in canonical order, i the last variable in alpha."""
    steps = []
    for alpha in exponent_vectors(nvars, dmax)[1:]:
        i = max(j for j, e in enumerate(alpha) if e)
        steps.append((alpha, i, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]))
    return tuple(steps)


def kernel_ideal(fgl: FormalGroupLaw, weight) -> RestrictionIdeal:
    return RestrictionIdeal(fgl, weight)


def _slice_monomials(theory: Theory, nvars: int, q: int):
    """Monomial basis of the degree-q slice of the truncated series ring, in
    print order: the pairs (alpha, k) with 0 <= |alpha| <= theory.trunc and
    theory.degree(|alpha|, k) = q, visited only at the total degrees that
    reach an even q: those = q/2 mod |unit|/2, or q/2 alone without a unit."""
    if q % 2:
        return []
    step, half = theory.period_degree // 2, q // 2
    if step:
        sizes = range(half % step, theory.trunc + 1, step)
    else:
        sizes = range(max(half, 0), min(half, theory.trunc) + 1)
    ks = ((size, theory.unit_exponent(size, q)) for size in sizes)
    return [(alpha, k) for size, k in ks for alpha in degree_vectors(nvars, size)]
