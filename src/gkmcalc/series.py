"""Truncated multivariate power series over graded scalars, plus the
one-variable Laurent series used for localization.

Truncation is by total variable exponent: a series keeps coefficients
c_alpha with |alpha| <= D where D is the theory's truncation degree.
Storage is an exponent-keyed dict of the nonzero terms, and products are
plain convolution (bucketed by total degree), which is easy to audit.  The
envelope this is measured on: the solver at D <= 4 in m <= 4 variables, the
formal group laws in two variables at D <= 32, and localization at D <= 28,
where class restrictions in m <= 4 variables are pushed down to one.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import (
    DegreeError,
    GradedScalar,
    Theory,
    scalar_parts,
)


class LeadingUnitError(ArithmeticError):
    """Division requires a unit leading coefficient (non-generic slope)."""


def monomial_key(alpha: tuple[int, ...]):
    """Canonical term order: total degree, then u1 before u2 before ..."""
    return (sum(alpha), tuple(-a for a in alpha))


@lru_cache(maxsize=None)
def exponent_vectors(nvars: int, dmax: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with total degree <= dmax, in canonical order."""
    vecs = [()]
    for _ in range(nvars):
        vecs = [v + (e,) for v in vecs for e in range(dmax - sum(v) + 1)]
    return tuple(sorted(vecs, key=monomial_key))


class TruncatedSeries:
    __slots__ = ("theory", "nvars", "coeffs")

    def __init__(self, theory: Theory, nvars: int, coeffs=None):
        self.theory = theory
        self.nvars = nvars
        clean = {}
        if coeffs:
            D = theory.trunc
            for alpha, c in coeffs.items():
                if len(alpha) != nvars:
                    raise ValueError(f"exponent {alpha} has wrong length")
                if any(e < 0 for e in alpha):
                    raise ValueError(f"negative exponent in {alpha}")
                if sum(alpha) > D:
                    raise ValueError(f"term {alpha} exceeds truncation degree {D}")
                if not c.is_zero():
                    clean[tuple(alpha)] = c
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, theory, nvars):
        return cls(theory, nvars)

    @classmethod
    def constant(cls, scalar: GradedScalar, nvars: int):
        s = cls(scalar.theory, nvars)
        if not scalar.is_zero():
            s.coeffs[(0,) * nvars] = scalar
        return s

    @classmethod
    def one(cls, theory, nvars):
        return cls.constant(theory.one, nvars)

    @classmethod
    def variable(cls, theory, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(theory, nvars, {alpha: theory.one})

    # ---- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, alpha) -> GradedScalar:
        return self.coeffs.get(tuple(alpha), self.theory.zero)

    def constant_term(self) -> GradedScalar:
        return self.coefficient((0,) * self.nvars)

    def order(self) -> int | None:
        """Minimal total variable degree of a nonzero term; None for zero."""
        if not self.coeffs:
            return None
        return min(sum(a) for a in self.coeffs)

    def homogeneous_degree(self) -> int | None:
        """The common cohomological degree of all terms, or None if mixed/zero."""
        degs = {c.degree + 2 * sum(a) for a, c in self.coeffs.items()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: monomial_key(kv[0]))

    def degree_component(self, d: int) -> "TruncatedSeries":
        """The part of cohomological degree d."""
        out = TruncatedSeries(self.theory, self.nvars)
        for a, c in self.coeffs.items():
            if c.degree + 2 * sum(a) == d:
                out.coeffs[a] = c
        return out

    def variable_degree_component(self, d: int) -> "TruncatedSeries":
        out = TruncatedSeries(self.theory, self.nvars)
        for a, c in self.coeffs.items():
            if sum(a) == d:
                out.coeffs[a] = c
        return out

    def _compatible(self, other: "TruncatedSeries"):
        if self.theory != other.theory:
            raise ValueError("series belong to different theories (or truncations)")
        if self.nvars != other.nvars:
            raise ValueError(
                f"series have different variable counts {self.nvars} != {other.nvars}"
            )

    # ---- arithmetic ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.theory == other.theory
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        out = TruncatedSeries(self.theory, self.nvars)
        out.coeffs = dict(self.coeffs)
        for a, c in other.coeffs.items():
            cur = out.coeffs.get(a)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.coeffs.pop(a, None)
            else:
                out.coeffs[a] = s
        return out

    def __neg__(self) -> "TruncatedSeries":
        out = TruncatedSeries(self.theory, self.nvars)
        out.coeffs = {a: -c for a, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: GradedScalar) -> "TruncatedSeries":
        if scalar.theory != self.theory:
            raise ValueError("scalar belongs to a different theory")
        out = TruncatedSeries(self.theory, self.nvars)
        if scalar.is_zero():
            return out
        for a, c in self.coeffs.items():
            p = c * scalar
            if not p.is_zero():
                out.coeffs[a] = p
        return out

    def __mul__(self, other):
        if isinstance(other, GradedScalar):
            return self.scale(other)
        self._compatible(other)
        th = self.theory
        D = th.trunc
        n = self.nvars
        p = th.char or None
        buckets_a = {}
        for a, c in self.coeffs.items():
            buckets_a.setdefault(sum(a), []).append((a, c.coeff, c.vexp))
        buckets_b = {}
        for b, c in other.coeffs.items():
            buckets_b.setdefault(sum(b), []).append((b, c.coeff, c.vexp))
        acc: dict[tuple, list] = {}
        for da, lista in buckets_a.items():
            for db, listb in buckets_b.items():
                if da + db > D:
                    continue
                for a, ca, va in lista:
                    for b, cb, vb in listb:
                        c = ca * cb
                        if p:
                            c %= p
                        if c == 0:
                            continue
                        key = tuple(a[i] + b[i] for i in range(n))
                        v = va + vb
                        slot = acc.get(key)
                        if slot is None:
                            acc[key] = [c, v]
                        elif slot[0] == 0:
                            slot[0] = c
                            slot[1] = v
                        elif slot[1] != v:
                            raise DegreeError(
                                "product mixes scalar degrees at one monomial"
                            )
                        else:
                            slot[0] = slot[0] + c if not p else (slot[0] + c) % p
        out = TruncatedSeries(th, n)
        for key, (c, v) in acc.items():
            if c != 0:
                out.coeffs[key] = GradedScalar(th, c, v)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative powers of a truncated series are not defined")
        result = TruncatedSeries.one(self.theory, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def substitute(self, args: list["TruncatedSeries"]) -> "TruncatedSeries":
        """Evaluate self at the given series, which must kill constant terms."""
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution series")
        th = self.theory
        D = th.trunc
        for g in args:
            if g.theory != th:
                raise ValueError("substitution series belongs to a different theory")
            if not g.constant_term().is_zero():
                raise ValueError("substitution series must have zero constant term")
        nout = args[0].nvars if args else self.nvars
        for g in args:
            if g.nvars != nout:
                raise ValueError("substitution series disagree on variable count")
        pow_cache: list[dict[int, TruncatedSeries]] = [
            {0: TruncatedSeries.one(th, nout)} for _ in args
        ]

        def power(i, e):
            cache = pow_cache[i]
            if e in cache:
                return cache[e]
            top = max(cache)
            cur = cache[top]
            while top < e:
                cur = cur * args[i]
                top += 1
                cache[top] = cur
                if cur.is_zero():
                    for rest in range(top + 1, e + 1):
                        cache[rest] = cur
                    break
            return cache[e]

        out = TruncatedSeries(th, nout)
        for alpha, c in self.coeffs.items():
            if any(e > D for e in alpha):
                continue
            term = None
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                pw = power(i, e)
                if pw.is_zero():
                    term = pw
                    break
                term = pw if term is None else term * pw
            if term is None:
                term = TruncatedSeries.one(th, nout)
            elif term.is_zero():
                continue
            out = out + term.scale(c)
        return out

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"<series {self}>"


def format_series(s: TruncatedSeries, varnames=None) -> str:
    if varnames is None:
        varnames = [f"u{i + 1}" for i in range(s.nvars)]
    items = s.terms()
    if not items:
        return "0"
    parts = []
    for alpha, c in items:
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(varnames, alpha)
            if e != 0
        )
        neg, body = scalar_parts(c, with_monomial=bool(mono))
        text = f"{body}*{mono}" if body and mono else (body or mono)
        if not parts:
            parts.append(("-" if neg else "") + text)
        else:
            parts.append(("- " if neg else "+ ") + text)
    return " ".join(parts)


class LaurentSeries:
    """One-variable Laurent series with precision tracking.

    Coefficients are reliable for exponents below `prec` (exclusive);
    prec=None means exact.  Only what localization needs is implemented.
    """

    __slots__ = ("theory", "coeffs", "prec")

    def __init__(self, theory: Theory, coeffs=None, prec: int | None = None):
        self.theory = theory
        self.prec = prec
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c.is_zero():
                    continue
                if prec is not None and e >= prec:
                    continue
                self.coeffs[e] = c

    @classmethod
    def from_truncated(cls, s: TruncatedSeries) -> "LaurentSeries":
        if s.nvars != 1:
            raise ValueError("only one-variable series convert to Laurent series")
        return cls(
            s.theory,
            {a[0]: c for a, c in s.coeffs.items()},
            prec=s.theory.trunc + 1,
        )

    @classmethod
    def zero(cls, theory, prec=None):
        return cls(theory, {}, prec)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int | None:
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def coefficient(self, e: int) -> GradedScalar:
        return self.coeffs.get(e, self.theory.zero)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.theory == other.theory
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    __hash__ = None

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.theory != other.theory:
            raise ValueError("Laurent series belong to different theories")
        prec = _min_prec(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentSeries(self.theory, out, prec)

    def __neg__(self):
        return LaurentSeries(
            self.theory, {e: -c for e, c in self.coeffs.items()}, self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: GradedScalar) -> "LaurentSeries":
        return LaurentSeries(
            self.theory,
            {e: c * scalar for e, c in self.coeffs.items()},
            self.prec,
        )

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.theory != other.theory:
            raise ValueError("Laurent series belong to different theories")
        if self.is_zero() or other.is_zero():
            zprec = None
            for z, w in ((self, other), (other, self)):
                if z.is_zero() and z.prec is not None:
                    base = w.order() or 0
                    cand = z.prec + base
                    zprec = cand if zprec is None else min(zprec, cand)
            return LaurentSeries.zero(self.theory, zprec)
        pa = None if self.prec is None else self.prec + other.order()
        pb = None if other.prec is None else other.prec + self.order()
        prec = _min_prec(pa, pb)
        out: dict[int, GradedScalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                p = c1 * c2
                if p.is_zero():
                    continue
                cur = out.get(e)
                s = p if cur is None else cur + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentSeries(self.theory, out, prec)

    def divide(self, g: "LaurentSeries") -> "LaurentSeries":
        """Exact quotient self/g; g needs a unit leading coefficient."""
        if g.is_zero():
            raise ZeroDivisionError("division of Laurent series by zero")
        lg = g.order()
        lead = g.coeffs[lg]
        if not lead.is_unit():
            raise LeadingUnitError(
                f"leading coefficient {lead} of the divisor is not a unit"
            )
        rel_g = None if g.prec is None else g.prec - lg
        if rel_g is None and len(g.coeffs) > 1:
            # exact non-monomial divisor: expand to the ambient truncation
            rel_g = self.theory.trunc + 1
        if self.is_zero():
            prec = None if self.prec is None else self.prec - lg
            return LaurentSeries.zero(self.theory, prec)
        # invert the unit part of g as a power series in s
        inv_lead = lead.inverse()
        if rel_g is None:
            inv = LaurentSeries(self.theory, {-lg: inv_lead}, None)
            return self * inv
        tail = {e - lg: c for e, c in g.coeffs.items() if e != lg}
        inv_coeffs = {0: inv_lead}
        for k in range(1, rel_g):
            acc = self.theory.zero
            for j, cj in tail.items():
                if 0 < j <= k:
                    prev = inv_coeffs.get(k - j)
                    if prev is not None:
                        acc = acc + cj * prev
            ck = -(inv_lead * acc)
            if not ck.is_zero():
                inv_coeffs[k] = ck
        inv = LaurentSeries(
            self.theory,
            {e - lg: c for e, c in inv_coeffs.items()},
            -lg + rel_g,
        )
        return self * inv

    def negative_part_is_zero(self) -> bool:
        return all(e >= 0 for e in self.coeffs)

    def __str__(self):
        items = sorted(self.coeffs.items())
        parts = []
        for e, c in items:
            if e == 0:
                mono = ""
            elif e == 1:
                mono = "s"
            else:
                mono = f"s^{e}"
            neg, body = scalar_parts(c, with_monomial=bool(mono))
            text = f"{body}*{mono}" if body and mono else (body or mono)
            if not parts:
                parts.append(("-" if neg else "") + text)
            else:
                parts.append(("- " if neg else "+ ") + text)
        if not parts:
            parts.append("0")
        if self.prec is not None:
            parts.append(f"+ O(s^{self.prec})")
        return " ".join(parts)

    def __repr__(self):
        return f"<laurent {self}>"


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
