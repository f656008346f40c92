"""Graded coefficient rings for the supported cohomology theories.

The rings are graded cohomologically, so the periodicity generators carry
negative degree: |v_n| = -2(p^n - 1) for the height-n theories and |b| = -2
for the multiplicative one.  Series store raw coefficients (see the series
module), and Theory holds the ring's rules for them: reduction mod the
characteristic, the unit test and the inverse of a unit.

A homogeneous element of any of these rings is c * unit^k, and it is passed
around as the raw pair (c, k) everywhere: series coefficients, the
expression parser's constants and the integration report.  scalar_parts
renders one.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

ORDINARY = "ordinary-integral"
MOD_P = "ordinary-mod-p"
MULTIPLICATIVE = "multiplicative"
MORAVA = "morava"
# Internal extension: exact rational coefficients in degree 0.  Not part of
# the public theory menu, but needed as the scalar extension for localization
# over the integral theory and as an independent rank oracle for the solver.
RATIONAL = "rational"

PUBLIC_KINDS = (ORDINARY, MOD_P, MULTIPLICATIVE, MORAVA)
_MOD_P_KINDS = (MOD_P, MORAVA)
_FIELD_KINDS = (MOD_P, MORAVA, RATIONAL)


class DegreeError(ValueError):
    """A coefficient read would mix terms of unequal degree."""


# Every n below _PRIME_BOUND that passes the strong probable-prime test to
# all of these bases is prime (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p the bases cannot certify is refused."""
    if p < 2:
        return False
    if p >= _PRIME_BOUND:
        raise ValueError(f"p = {p} is too large: primality is certified only below {_PRIME_BOUND}")
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class TheoryConfig(NamedTuple):
    kind: str
    trunc: int
    p: int | None = None
    n: int | None = None


class Theory(NamedTuple):
    """A coefficient ring together with the global truncation degree.

    The truncation degree bounds total variable exponents in every series
    built over this theory; it is fixed here so that all rings attached to
    the theory agree on precision.  degree and unit_exponent hold the only
    copy of the degree rule of a term c * unit^k * u^alpha.
    """

    kind: str
    trunc: int
    p: int | None = None
    n: int | None = None

    @property
    def period_degree(self) -> int:
        """|unit|: cohomological degree of the inverse periodicity generator."""
        if self.kind == MULTIPLICATIVE:
            return 2
        if self.kind == MORAVA:
            return 2 * (self.p ** self.n - 1)
        return 0

    def degree(self, size: int, k: int) -> int:
        """The degree 2 * size - k * |unit| of c * unit^k * u^alpha, where
        size = |alpha| is the total variable degree."""
        return 2 * size - k * self.period_degree

    def unit_exponent(self, size: int, q: int) -> int | None:
        """The k that puts a term of total variable degree size in degree q,
        None when no k does."""
        t, per = 2 * size - q, self.period_degree
        if per == 0:
            return 0 if t == 0 else None
        return t // per if t % per == 0 else None

    @property
    def is_graded_field(self) -> bool:
        return self.kind in _FIELD_KINDS

    @property
    def char(self) -> int:
        return self.p if self.kind in _MOD_P_KINDS else 0

    @property
    def unit_name(self) -> str | None:
        if self.kind == MORAVA:
            return f"v{self.n}"
        if self.kind == MULTIPLICATIVE:
            return "b"
        return None

    def reduce(self, c):
        """A raw coefficient in normal form: reduced mod p under mod-p and
        morava, unchanged otherwise."""
        return c % self.p if self.kind in _MOD_P_KINDS else c

    def is_unit(self, c) -> bool:
        """Whether c times any power of the periodicity unit is a unit."""
        return c != 0 and (self.kind in _FIELD_KINDS or c in (1, -1))

    def inverse(self, c):
        """The inverse of a unit raw coefficient."""
        if not self.is_unit(c):
            raise ZeroDivisionError(f"{c} is not a unit in {self.kind}")
        if self.kind in _MOD_P_KINDS:
            return pow(c, -1, self.p)
        return 1 / Fraction(c) if self.kind == RATIONAL else c  # +-1 over Z

    def rationalized(self) -> "Theory":
        if self.kind not in (ORDINARY, RATIONAL):
            raise ValueError(f"cannot extend {self.kind} scalars to the rationals")
        return Theory(RATIONAL, self.trunc)


def make_theory(config: TheoryConfig) -> Theory:
    """Validate a configuration and return the theory handle."""
    kind = config.kind
    if kind not in PUBLIC_KINDS and kind != RATIONAL:
        raise ValueError(f"unknown theory kind {kind!r}")
    if not isinstance(config.trunc, int) or config.trunc < 1:
        raise ValueError("truncation degree must be a positive integer")
    if config.trunc > sys.maxsize:
        raise ValueError(f"truncation degree {config.trunc} is above the largest supported degree {sys.maxsize}")
    needs_p = kind in _MOD_P_KINDS
    if needs_p:
        if config.p is None:
            raise ValueError(f"theory kind {kind!r} requires a prime p")
        if not isinstance(config.p, int):
            raise ValueError(f"p = {config.p!r} is not an integer")
        if not is_prime(config.p):
            raise ValueError(f"p = {config.p} is not prime")
    elif config.p is not None:
        raise ValueError(f"theory kind {kind!r} does not take a prime p")
    if kind == MORAVA:
        if config.n is None:
            raise ValueError("morava theory requires a height n")
        if not isinstance(config.n, int) or config.n < 1:
            raise ValueError("height n must be an integer >= 1")
    elif config.n is not None:
        raise ValueError(f"theory kind {kind!r} does not take a height n")
    return Theory(kind, config.trunc, config.p, config.n)


def scalar_parts(theory: Theory, c, vexp: int, with_monomial: bool = False) -> tuple[bool, str]:
    """Render c * unit^vexp as (negative?, factor-string), omitting unit
    factors.

    With with_monomial=True a trailing '*monomial' will follow, so a bare
    coefficient 1 is dropped entirely.
    """
    neg = c < 0
    a = -c if neg else c
    factors = []
    if vexp != 0:
        name = theory.unit_name
        factors.append(name if vexp == 1 else f"{name}^{vexp}")
    if a != 1 or (not factors and not with_monomial):
        factors.insert(0, str(a))
    return neg, "*".join(factors)
