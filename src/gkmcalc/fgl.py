"""Formal group laws of the supported theories.

The additive and multiplicative laws are written down directly.  The height-n
law of the mod-p theories is the Honda law exp(log x + log y), whose
logarithm log x = sum_i x^(p^(ni)) / p^i is sparse.  It is built in O(D^3)
exact rational steps, without composing series: the powers of the logarithm
give the exponential, by a triangular solve of exp(log x) = x, and then the
two-variable law, by two matrix products (see _honda_fgl).  Both
construction-time checks still run on every coefficient before the mod-p
reduction: p-integrality, and the degree bookkeeping of the periodicity
insertions (both are theorems, so a failure here means an implementation bug,
not bad input).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import (
    MOD_P,
    MORAVA,
    MULTIPLICATIVE,
    ORDINARY,
    RATIONAL,
    Theory,
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
        if a.order() == 0 or b.order() == 0:
            raise ValueError("formal sums need zero constant terms")
        return self.series.substitute([a, b])

    def inverse(self, a: TruncatedSeries) -> TruncatedSeries:
        """The formal inverse i(a) = [-1](a), with F(a, i(a)) = 0."""
        if a.order() == 0:
            raise ValueError("formal inverse needs a zero constant term")
        return self.n_series(-1).substitute([a])

    def n_series(self, ell: int) -> TruncatedSeries:
        """The one-variable [ell]-series, built once per ell and composed
        wherever it is needed: [-1] is solved degree by degree from
        F(u, [-1]u) = 0, [-ell] = [ell] o [-1], and ell >= 2 doubles.  At
        height n, [p^k]u = 0 once p^(nk) > D, so [-1] = [p^k - 1] there."""
        cached = self._nseries_cache.get(ell)
        if cached is not None:
            return cached
        th = self.theory
        u = TruncatedSeries.variable(th, 1, 0)
        if ell == 0:
            value = TruncatedSeries.zero(th, 1)
        elif ell == 1:
            value = u
        elif ell == -1 and th.kind == MORAVA:
            pk = th.p
            while pk ** th.n <= th.trunc:
                pk *= th.p
            value = self.n_series(pk - 1)
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
    terms = {((1, 0), 0): 1, ((0, 1), 0): 1}
    if theory.trunc >= 2:
        terms[((1, 1), 1)] = theory.reduce(-1)
    return FormalGroupLaw(theory, TruncatedSeries.from_raw(theory, 2, terms))


def _honda_fgl(theory: Theory) -> FormalGroupLaw:
    """The height-n Honda law F(x, y) = exp(log x + log y), where
    log x = sum_i x^(q^i) / p^i with q = p^n, built over exact rationals and
    then reduced mod p.

    With M_j = (log x)^j / j! and E_k = k! [x^k] exp, the binomial theorem
    gives exp(log x + log y) = sum_{j,l} E_{j+l} M_j(x) M_l(y), so F is the
    matrix product M^T H M with the Hankel matrix H[j][l] = E_{j+l}.  The E_k
    come from the same powers: exp(log x) = x is triangular in them, because
    M_a starts at x^a / a!.  Both theorems are checked on the result: every
    coefficient is p-integral, and one that survives mod p sits at a total
    degree 1 + k(p^n - 1)."""
    p, n, D = theory.p, theory.n, theory.trunc
    q = p ** n
    log = []  # (exponent, coefficient) pairs
    i = 0
    while q ** i <= D:
        log.append((q ** i, Fraction(1, p ** i)))
        i += 1
    # M[j][a] = [x^a] (log x)^j / j!, a sparse product per power
    M = [[Fraction(1)] + [Fraction(0)] * D]
    for j in range(1, D + 1):
        prev = M[-1]
        M.append(
            [Fraction(sum(c * prev[a - e] for e, c in log if e <= a), j) for a in range(D + 1)]
        )
    # [x^a] exp(log x) = sum_{k<=a} E_k M[k][a] is 1 at a = 1 and 0 above
    E = [Fraction(0), Fraction(1)] + [Fraction(0)] * (D - 1)
    for a in range(2, D + 1):
        E[a] = -factorial(a) * sum(E[k] * M[k][a] for k in range(1, a) if E[k] and M[k][a])
    # T = H M, then F[a][b] = sum_j M[j][a] T[j][b]
    T = [
        [
            sum(E[j + l] * M[l][b] for l in range(b + 1) if E[j + l] and M[l][b])
            for b in range(D - j + 1)
        ]
        for j in range(D + 1)
    ]
    period = q - 1
    terms = {}
    for a in range(D + 1):
        for b in range(D - a + 1):
            frac = sum(M[j][a] * T[j][b] for j in range(a + 1) if M[j][a])
            if frac == 0:
                continue
            if frac.denominator % p == 0:
                raise AssertionError(
                    f"p-integrality failure at x^{a} y^{b}: coefficient {frac}"
                )
            cm = frac.numerator * pow(frac.denominator, -1, p) % p
            if cm == 0:
                continue
            k, rem = divmod(a + b - 1, period)
            if rem != 0:
                raise AssertionError(
                    f"coefficient of x^{a} y^{b} survives mod {p} but "
                    f"{period} does not divide {a + b - 1}"
                )
            terms[((a, b), k)] = cm
    return FormalGroupLaw(theory, TruncatedSeries.from_raw(theory, 2, terms))
