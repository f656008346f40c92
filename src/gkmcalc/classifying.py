"""Classifying-space rings and restriction maps.

Character classes in the torus ring, presentations of the classifying rings
of cyclic groups, and the kernel ideal of restriction to the kernel of a
character.  The kernel of restriction is modeled as the principal ideal
generated by the d-series of the primitive part's class, in coordinates
adapted to the character; see the design notes for which theories pin this
down and which are exposed as a conjectural model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fgl import FormalGroupLaw
from .lattice import (
    adapted_basis,
    hermite_row_basis,
    primitive_part,
    reduce_vector_mod_lattice,
)
from .scalars import MORAVA, GradedScalar, Theory
from .series import TruncatedSeries, exponent_vectors, monomial_key


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
        term = fgl.n_series(a, TruncatedSeries.variable(th, nvars, i))
        out = term if out.is_zero() else fgl.sum(out, term)
    return out


def transport(fgl: FormalGroupLaw, f: TruncatedSeries, basis_change) -> TruncatedSeries:
    """Rewrite f in the torus coordinates given by the unimodular matrix.

    Row i of the matrix is the character whose class replaces the i-th
    variable, matching how characters pull back: a -> a @ B.
    """
    if len(basis_change) != f.nvars:
        raise ValueError("basis change size does not match the variable count")
    return f.substitute(_transport_images(fgl, basis_change))


def _transport_images(fgl: FormalGroupLaw, basis_change) -> list[TruncatedSeries]:
    """The classes of the characters in the rows of the basis change."""
    m = len(basis_change)
    return [character_class(fgl, tuple(row), m) for row in basis_change]


@dataclass
class CyclicRingPresentation:
    """E_*[[u]] / ([ell] u), with the monomial normal form when it exists."""

    theory: Theory
    ell: int
    relation: TruncatedSeries
    order: int | None  # u-order of the relation when its leading coeff is a unit
    rank: int | None  # free rank over the coefficients; None if not defined

    def basis_degrees(self) -> list[int]:
        if self.rank is None:
            raise ValueError("presentation has no finite free basis")
        return [2 * b for b in range(self.rank)]

    def normal_form_key(self):
        """Data identifying the unit-rescaled normal form of the presentation."""
        if self.order is not None:
            return (self.theory.kind, self.theory.p, self.theory.n, self.order)
        return (self.theory.kind, self.theory.p, self.theory.n, None, self.relation.coeffs == {})


def cyclic_classifying_ring(fgl: FormalGroupLaw, ell: int) -> CyclicRingPresentation:
    if ell < 1:
        raise ValueError("the group order must be a positive integer")
    th = fgl.theory
    rel = fgl.n_series(ell)
    order = rel.order()
    rank = None
    if order is not None and rel.coefficient((order,)).is_unit():
        rank = order
    if th.kind == MORAVA:
        r = 0
        m = ell
        while m % th.p == 0:
            m //= th.p
            r += 1
        expected = th.p ** (r * th.n)
        if expected > th.trunc:
            raise ValueError(
                f"truncation degree {th.trunc} cannot present the order-{ell} "
                f"ring: its relation has order {expected}"
            )
        if order != expected or rank != expected:
            raise AssertionError(
                f"[{ell}]-series of the height-{th.n} theory has order {order}, "
                f"expected {expected}"
            )
    return CyclicRingPresentation(th, ell, rel, order, rank)


@dataclass
class RestrictionIdeal:
    """The kernel of restriction to ker(theta), as a principal ideal.

    The generator is the d-series of the adapted last variable, where the
    character factors as d times a primitive one; basis_change moves the
    ambient ring into the adapted coordinates, where the variables become the
    classes in adapted_classes.  The ideal memoizes what the solver asks of
    it per monomial and per degree.
    """

    fgl: FormalGroupLaw
    weight: tuple[int, ...]
    d: int
    theta: tuple[int, ...]
    basis_change: list
    adapted_classes: list[TruncatedSeries]
    generator: TruncatedSeries
    order: int | None = None
    leading_unit: bool = False
    _monomial_cache: dict = field(default_factory=dict, repr=False)
    _hermite_cache: dict = field(default_factory=dict, repr=False)

    @property
    def nvars(self) -> int:
        return len(self.weight)

    @property
    def residue_is_linear(self) -> bool:
        """True when the generator is zero or has a unit leading coefficient,
        as every nonzero one has over a graded field."""
        return self.generator.is_zero() or self.leading_unit

    def monomial_image(self, alpha) -> dict:
        """Coefficients, by adapted monomial, of the residue of u^alpha when
        the residue is linear, else of u^alpha in the adapted coordinates."""
        img = self._monomial_cache.get(alpha)
        if img is None:
            th = self.fgl.theory
            mono = TruncatedSeries(th, self.nvars, {alpha: th.one})
            if self.residue_is_linear:
                out = ideal_residue(mono, self)
            else:
                out = mono.substitute(self.adapted_classes)
            img = self._monomial_cache[alpha] = {b: c.coeff for b, c in out.coeffs.items()}
        return img


def kernel_ideal(fgl: FormalGroupLaw, weight) -> RestrictionIdeal:
    weight = tuple(weight)
    if not any(weight):
        raise ValueError("the zero character has trivial kernel ideal data")
    d, theta = primitive_part(weight)
    b = adapted_basis(theta)
    m = len(weight)
    last = TruncatedSeries.variable(fgl.theory, m, m - 1)
    gen = fgl.n_series(d, last)
    order = gen.order()
    leading_unit = False
    if order is not None:
        lead = gen.coefficient(tuple(0 if i < m - 1 else order for i in range(m)))
        leading_unit = lead.is_unit()
    classes = _transport_images(fgl, b)
    return RestrictionIdeal(fgl, weight, d, theta, b, classes, gen, order, leading_unit)


def weierstrass_remainder(f: TruncatedSeries, ideal: RestrictionIdeal) -> TruncatedSeries:
    """Canonical remainder of f modulo the generator, which must have a unit
    leading coefficient in the adapted last variable.

    Terms are eliminated in increasing total degree; each elimination only
    creates terms of strictly higher total degree, so this terminates at the
    truncation and yields the unique remainder with last-variable order below
    the generator's.
    """
    th = f.theory
    m = f.nvars
    nu = ideal.order
    gen = ideal.generator
    lead_alpha = tuple(0 if i < m - 1 else nu for i in range(m))
    lead_inv = gen.coefficient(lead_alpha).inverse()
    work = dict(f.coeffs)
    remainder = {}
    for d in range(th.trunc + 1):
        layer = [a for a in work if sum(a) == d]
        layer.sort(key=monomial_key)
        for alpha in layer:
            c = work.pop(alpha, None)
            if c is None or c.is_zero():
                continue
            if alpha[-1] < nu:
                remainder[alpha] = c
                continue
            # subtract (c / lead) * u^(alpha - nu e_m) * gen; popping alpha
            # already cancelled the leading term, and every other target has
            # strictly larger total degree and last-variable order >= nu
            factor = c * lead_inv
            shift = alpha[:-1] + (alpha[-1] - nu,)
            for galpha, gc in gen.coeffs.items():
                if galpha == lead_alpha:
                    continue
                target = tuple(shift[i] + galpha[i] for i in range(m))
                if sum(target) > th.trunc:
                    continue
                delta = factor * gc
                cur = work.get(target)
                new = -delta if cur is None else cur - delta
                if new.is_zero():
                    work.pop(target, None)
                else:
                    work[target] = new
    assert not work, "unreduced terms escaped the elimination"
    out = TruncatedSeries(th, m)
    out.coeffs = {a: c for a, c in remainder.items() if not c.is_zero()}
    return out


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


def _series_to_vector(f: TruncatedSeries, monos) -> list:
    index = {alpha: i for i, (alpha, _) in enumerate(monos)}
    vec = [0] * len(monos)
    for alpha, c in f.coeffs.items():
        i = index.get(alpha)
        if i is None:
            raise ValueError("series has a term outside the degree slice")
        expected_vexp = monos[i][1]
        if c.vexp != expected_vexp:
            raise ValueError("series term has inconsistent periodicity exponent")
        vec[i] = c.coeff
    return vec


def ideal_multiples_basis(ideal: RestrictionIdeal, q: int):
    """Hermite basis for the degree-q slice of the truncated ideal, on the
    monomial coordinates of the adapted ring.  Used when the generator has a
    non-unit leading coefficient, where membership is a lattice condition."""
    cached = ideal._hermite_cache.get(q)
    if cached is not None:
        return cached
    th = ideal.fgl.theory
    m = ideal.nvars
    monos = _slice_monomials(th, m, q)
    gens = []
    for alpha, vexp in _slice_monomials(th, m, q - 2):
        mono = TruncatedSeries(th, m, {alpha: GradedScalar(th, 1, vexp)})
        prod = ideal.generator * mono
        if not prod.is_zero():
            gens.append(_series_to_vector(prod, monos))
    basis = hermite_row_basis(gens)
    ideal._hermite_cache[q] = (monos, basis)
    return monos, basis


def ideal_residue(f: TruncatedSeries, ideal: RestrictionIdeal) -> TruncatedSeries:
    """Canonical residue of f modulo the restriction ideal; zero iff f lies
    in the ideal up to truncation."""
    if f.nvars != ideal.nvars:
        raise ValueError("series and ideal live over different tori")
    adapted = f.substitute(ideal.adapted_classes)
    if ideal.generator.is_zero():
        return adapted
    if ideal.leading_unit:
        return weierstrass_remainder(adapted, ideal)
    # integral coefficients with a non-unit leading term: reduce each
    # homogeneous component against the lattice of truncated multiples
    th = f.theory
    m = f.nvars
    out = TruncatedSeries.zero(th, m)
    degrees = sorted({c.degree + 2 * sum(a) for a, c in adapted.coeffs.items()})
    for q in degrees:
        comp = adapted.degree_component(q)
        monos, basis = ideal_multiples_basis(ideal, q)
        vec = _series_to_vector(comp, monos)
        red = reduce_vector_mod_lattice(vec, basis)
        terms = {}
        for (alpha, vexp), c in zip(monos, red):
            if c:
                terms[alpha] = GradedScalar(th, c, vexp)
        out = out + TruncatedSeries(th, m, terms)
    return out
