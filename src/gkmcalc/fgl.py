"""Formal group laws of the supported theories.

The additive and multiplicative laws are written down directly; the height-n
law of the mod-p theories is built from its logarithm over exact rationals,
with p-integrality and the degree bookkeeping of the periodicity insertions
checked at construction time (both are theorems, so a failure here means an
implementation bug, not bad input).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    MOD_P,
    MORAVA,
    MULTIPLICATIVE,
    ORDINARY,
    RATIONAL,
    GradedScalar,
    Theory,
    rational_theory,
)
from .series import TruncatedSeries, format_series


class FormalGroupLaw:
    """A bivariate series F(x, y) with the group-law identities to truncation."""

    def __init__(self, theory: Theory, series: TruncatedSeries):
        if series.nvars != 2:
            raise ValueError("a formal group law is a series in two variables")
        self.theory = theory
        self.series = series
        self._nseries_cache: dict[int, TruncatedSeries] = {}

    def sum(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """The formal sum F(a, b)."""
        for s in (a, b):
            if not s.constant_term().is_zero():
                raise ValueError("formal sums need zero constant terms")
        return self.series.substitute([a, b])

    def inverse(self, a: TruncatedSeries) -> TruncatedSeries:
        """The formal inverse i(a) = [-1](a), with F(a, i(a)) = 0."""
        if not a.constant_term().is_zero():
            raise ValueError("formal inverse needs a zero constant term")
        return self.n_series(-1).substitute([a])

    def n_series(self, ell: int) -> TruncatedSeries:
        """The one-variable [ell]-series, built once per ell and composed
        wherever it is needed: [-1] is solved degree by degree from
        F(u, [-1]u) = 0, [-ell] = [ell] o [-1], and ell >= 2 doubles."""
        cached = self._nseries_cache.get(ell)
        if cached is not None:
            return cached
        th = self.theory
        u = TruncatedSeries.variable(th, 1, 0)
        if ell == 0:
            value = TruncatedSeries.zero(th, 1)
        elif ell == 1:
            value = u
        elif ell == -1:
            value = -u
            for target in range(2, th.trunc + 1):
                err = self.sum(u, value).variable_degree_component(target)
                if not err.is_zero():
                    value = value - err
        elif ell < 0:
            value = self.n_series(-ell).substitute([self.n_series(-1)])
        else:
            q, r = divmod(ell, 2)
            half = self.n_series(q)
            value = self.sum(half, half)
            if r:
                value = self.sum(value, u)
        self._nseries_cache[ell] = value
        return value

    def __str__(self):
        return format_series(self.series, ["x", "y"])


_ADDITIVE_KINDS = (ORDINARY, MOD_P, RATIONAL)
_fgl_cache: dict[Theory, FormalGroupLaw] = {}


def build_fgl(theory: Theory) -> FormalGroupLaw:
    cached = _fgl_cache.get(theory)
    if cached is not None:
        return cached
    if theory.kind in _ADDITIVE_KINDS:
        fgl = _additive_fgl(theory)
    elif theory.kind == MULTIPLICATIVE:
        fgl = multiplicative_fgl(theory)
    elif theory.kind == MORAVA:
        fgl = _honda_fgl(theory)
    else:
        raise ValueError(f"no formal group law for theory kind {theory.kind!r}")
    _fgl_cache[theory] = fgl
    return fgl


def _additive_fgl(theory: Theory) -> FormalGroupLaw:
    x = TruncatedSeries.variable(theory, 2, 0)
    y = TruncatedSeries.variable(theory, 2, 1)
    return FormalGroupLaw(theory, x + y)


def multiplicative_fgl(theory: Theory) -> FormalGroupLaw:
    """F = x + y - b*x*y, over any theory with a degree -2 periodicity unit.

    Besides the multiplicative theory itself this covers the height-1 mod-2
    ring, where the periodicity generator also sits in degree -2; that is the
    ring used for the height-1 cross-check against the logarithm construction.
    """
    if theory.period_degree != 2:
        raise ValueError("multiplicative law needs a degree -2 periodicity unit")
    x = TruncatedSeries.variable(theory, 2, 0)
    y = TruncatedSeries.variable(theory, 2, 1)
    beta = theory.periodicity
    return FormalGroupLaw(theory, x + y - (x * y).scale(beta))


def _honda_logarithm(qtheory: Theory, p: int, n: int) -> TruncatedSeries:
    D = qtheory.trunc
    terms = {(1,): qtheory.one}
    i = 1
    while p ** (n * i) <= D:
        terms[(p ** (n * i),)] = qtheory.scalar(Fraction(1, p ** i))
        i += 1
    return TruncatedSeries(qtheory, 1, terms)


def _reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of a one-variable series x + O(x^2)."""
    th = f.theory
    x = TruncatedSeries.variable(th, 1, 0)
    if f.coefficient((1,)) != th.one or not f.constant_term().is_zero():
        raise ValueError("reversion expects a series of the form x + O(x^2)")
    g = x
    for d in range(2, th.trunc + 1):
        err = (f.substitute([g]) - x).variable_degree_component(d)
        if not err.is_zero():
            g = g - err
    return g


def _honda_fgl(theory: Theory) -> FormalGroupLaw:
    p, n, D = theory.p, theory.n, theory.trunc
    qt = rational_theory(D)
    log1 = _honda_logarithm(qt, p, n)
    exp1 = _reversion(log1)
    x2 = TruncatedSeries.variable(qt, 2, 0)
    y2 = TruncatedSeries.variable(qt, 2, 1)
    f0 = exp1.substitute([log1.substitute([x2]) + log1.substitute([y2])])
    period = p ** n - 1
    terms = {}
    for (i, j), c in f0.coeffs.items():
        frac = Fraction(c.coeff)
        if frac.denominator % p == 0:
            raise AssertionError(
                f"p-integrality failure at x^{i} y^{j}: coefficient {frac}"
            )
        cm = frac.numerator * pow(frac.denominator, -1, p) % p
        if cm == 0:
            continue
        k, rem = divmod(i + j - 1, period)
        if rem != 0:
            raise AssertionError(
                f"coefficient of x^{i} y^{j} survives mod {p} but "
                f"{period} does not divide {i + j - 1}"
            )
        terms[(i, j)] = GradedScalar(theory, cm, k)
    return FormalGroupLaw(theory, TruncatedSeries(theory, 2, terms))
