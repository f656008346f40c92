"""Formal group laws of the supported theories, each with its [ell]-series
in closed form, exact for every integer ell and built without formal sums.

The additive law x + y has [ell]u = ell * u.  The multiplicative law
x + y - b*x*y has [ell]u = (1 - (1 - b*u)^ell) / b, whose u^a coefficient is
(-1)^(a+1) C(ell, a) b^(a-1), with generalised binomials when ell < 0.  The
height-n law of the mod-p theories is the Honda law exp(log x + log y), whose
logarithm log x = sum_i x^(p^(ni)) / p^i is sparse.  Both the law and
[ell]u = exp(ell log u) come from one table of integers, the powers of the
scaled logarithm (see _honda_fgl).  The two-variable law is built on its
first read, so a run that needs only [ell]-series never builds it.  Both
construction-time checks run on every coefficient that a run builds, of the
law and of each [ell]-series, before the mod-p reduction: p-integrality, and
the degree bookkeeping of the periodicity insertions (both are theorems, so a
failure here means an implementation bug, not bad input).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, gcd

from .scalars import MOD_P, MORAVA, MULTIPLICATIVE, ORDINARY, RATIONAL, Theory
from .series import TruncatedSeries, format_series


class FormalGroupLaw:
    """A bivariate series F(x, y) with the group-law identities to truncation,
    and the closed form of its [ell]-series: ell_terms(ell) is [ell]u in the
    stored format.  build() returns F; it runs once, on the first read of
    series, so that the [ell]-series never wait for the law."""

    def __init__(self, theory: Theory, build, ell_terms):
        self.theory = theory
        self._build = build
        self._ell_terms = ell_terms
        self._nseries_cache: dict[int, TruncatedSeries] = {}
        self.character_classes: dict[tuple[int, ...], TruncatedSeries] = {}  # see classifying

    @cached_property
    def series(self) -> TruncatedSeries:
        series = self._build()
        if series.nvars != 2:
            raise ValueError("a formal group law is a series in two variables")
        return series

    def sum(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """The formal sum F(a, b)."""
        if a.order() == 0 or b.order() == 0:
            raise ValueError("formal sums need zero constant terms")
        return self.series.substitute([a, b])

    def n_series(self, ell: int) -> TruncatedSeries:
        """The one-variable [ell]-series, exact for every integer ell, read
        once per ell off the law's closed form."""
        cached = self._nseries_cache.get(ell)
        if cached is None:
            cached = self._nseries_cache[ell] = TruncatedSeries(self.theory, 1, self._ell_terms(ell))
        return cached

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
    return FormalGroupLaw(theory, lambda: x + y, lambda ell: {((1,), 0): ell})


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

    def ell_terms(ell):
        out, c = {}, 1
        # C(ell, a) = 0 for a > ell >= 0, so only a negative ell runs to the truncation
        for a in range(1, (theory.trunc if ell < 0 else min(ell, theory.trunc)) + 1):
            c = c * (ell - a + 1) // a  # C(ell, a), exact also for ell < 0
            out[((a,), a - 1)] = -c if a % 2 == 0 else c
        return out

    return FormalGroupLaw(theory, lambda: TruncatedSeries.from_raw(theory, 2, terms), ell_terms)


def _scaled_logarithm(p: int, n: int, D: int) -> list[tuple[int, int]]:
    """P log x as (exponent, integer coefficient) pairs, where P = p^top for
    the largest top with p^(n top) <= D."""
    top = 0
    while p ** (n * (top + 1)) <= D:
        top += 1
    return [(p ** (n * i), p ** (top - i)) for i in range(top + 1)]


def _honda_tables(p: int, n: int, D: int) -> tuple[list[list[int]], int, list[int]]:
    """The powers A[j][a] = [x^a] (P log x)^j of the scaled logarithm, and
    the integers g_s = delta G_s of _honda_fgl with their denominator delta.

    The G_s solve exp(log x) = x, a triangular system whose diagonal is
    A[s][s] = P^s, so P^(s(s+1)/2) G_s is an integer.  The recursion runs on
    the integers Q G_s, Q = P^(D(D+1)/2); dividing out their common factor
    with Q leaves delta = Q / common and g_s = Q G_s / common."""
    plog = _scaled_logarithm(p, n, D)
    A = [[1] + [0] * D]
    for j in range(1, D + 1):
        prev = A[-1]
        A.append([0] * j + [sum(c * prev[a - e] for e, c in plog if e <= a) for a in range(j, D + 1)])
    Q = plog[0][1] ** (D * (D + 1) // 2)
    QG = [0] * (D + 1)
    for a in range(1, D + 1):
        QG[a] = (Q * (a == 1) - sum(QG[s] * A[s][a] for s in range(1, a) if A[s][a])) // A[a][a]
    common = gcd(Q, *QG)
    return A, Q // common, [x // common for x in QG]


def _honda_fgl(theory: Theory) -> FormalGroupLaw:
    """The height-n Honda law F(x, y) = exp(log x + log y), where
    log x = sum_i x^(q^i) / p^i with q = p^n, built in integers over one
    common denominator and then reduced mod p.

    With A_j = (P log x)^j, exp y = sum_s e_s y^s and G_s = e_s / P^s, the
    binomial theorem gives exp(log x + log y) = sum_{j,l} G_{j+l} C(j+l, j)
    A_j(x) A_l(y), and exp(ell log u) = sum_s G_s ell^s A_s(u).  The G_s come
    from the same powers: exp(log x) = x is triangular in them, because A_s
    starts at P^s x^s (see _honda_tables).  Scaled by the lcm delta of their
    denominators, g_s = delta G_s are integers, so delta F = A^T H A with
    H[j][l] = g_{j+l} C(j+l, j) is an integer matrix product, taken as
    T = H A and then A^T T, one entry per pair a <= b since H is symmetric.
    The law is built on its first read.  Every numerator N of the law and of
    each [ell]-series passes _mod_p."""
    D = theory.trunc
    A, delta, g = _honda_tables(theory.p, theory.n, D)
    cols = [[(j, A[j][a]) for j in range(a + 1) if A[j][a]] for a in range(D + 1)]
    rows = [[(s, g[s] * c) for s, c in col if g[s]] for col in cols]

    def law():
        # F[a][b] for a <= b (so a <= D // 2) reads T[j][b] only for j <= a <= b <= D - a
        half = D // 2
        H = [[g[j + l] * comb(j + l, j) for l in range(D - j + 1)] for j in range(half + 1)]
        T = [
            [0] * j + [sum(H[j][l] * c for l, c in cols[b] if H[j][l]) for b in range(j, D - j + 1)]
            for j in range(half + 1)
        ]
        F = [
            [0] * a + [sum(c * T[j][b] for j, c in cols[a]) for b in range(a, D - a + 1)]
            for a in range(half + 1)
        ]
        numerators = (((a, b), F[a][b] if a <= b else F[b][a]) for a in range(D + 1) for b in range(D - a + 1))
        return TruncatedSeries.from_raw(theory, 2, _mod_p(theory, delta, numerators))

    def ell_terms(ell):
        pw = [ell ** s for s in range(D + 1)]
        return _mod_p(theory, delta, (((a,), sum(gc * pw[s] for s, gc in rows[a])) for a in range(D + 1)))

    return FormalGroupLaw(theory, law, ell_terms)


def _mod_p(theory: Theory, delta: int, numerators) -> dict:
    """The stored-format terms of sum N / delta * u^alpha over the (alpha, N)
    in numerators, reduced mod p once both theorems hold for each: the
    coefficient is p-integral (p^s | N, where delta = p^s delta'), and one that
    survives mod p has degree 2, its unit exponent k read off its total degree
    by theory.unit_exponent once per total degree."""
    p = theory.p
    ks = [theory.unit_exponent(size, 2) for size in range(theory.trunc + 1)]
    ps = 1
    while delta % (ps * p) == 0:
        ps *= p
    inv = pow(delta // ps, -1, p)
    terms = {}
    for alpha, num in numerators:
        if num % ps:
            raise AssertionError(f"p-integrality failure at {_mono(alpha)}: coefficient {Fraction(num, delta)}")
        cm = num // ps * inv % p
        if cm:
            k = ks[sum(alpha)]
            if k is None:
                raise AssertionError(
                    f"coefficient of {_mono(alpha)} survives mod {p} but "
                    f"{theory.period_degree // 2} does not divide {sum(alpha) - 1}"
                )
            terms[(alpha, k)] = cm
    return terms


def _mono(alpha) -> str:
    return " ".join(f"{v}^{e}" for v, e in zip("xy" if len(alpha) == 2 else "u", alpha))
