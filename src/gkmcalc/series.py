"""Truncated multivariate power series over a graded coefficient ring, plus
the one-variable Laurent series used for localization.

Truncation is by total variable exponent: a series keeps coefficients
c_alpha with |alpha| <= D where D is the theory's truncation degree.

Storage is a dict {(alpha, k): c} of the nonzero terms c * unit^k * u^alpha.
alpha is the exponent tuple (a Laurent series keys by the exponent e
instead), k the exponent of the periodicity unit, always 0 in a theory
without one, and c a raw ring element: an int in [0, p) under mod-p and
morava, an int under ordinary and mult, an int or Fraction under rational.
A term has degree 2|alpha| - k * period_degree, so a sum of homogeneous parts
of different degrees is an ordinary series, and one alpha may carry several
k.  The same format is the public one: the constructors take it (checked and
reduced; from_raw takes it as it is), coefficient reads one (c, k) pair and
scale multiplies by c * unit^k.

Every product of multivariate series is one sparse kernel, sparse_product:
each stored term of the left factor meets the right factor's terms, sorted
by total degree, and stops at the truncation.  TruncatedSeries.__mul__ and
the kernel ideal's image tables (see the classifying module, which also
passes a cut in the last variable) both call it.  The envelope this is
measured on: the solver at D <= 4 in m <= 4 variables, formal sums through
the two-variable laws at D <= 48, and localization at D <= 42, where a
class restriction is evaluated in the one slope variable and only an
expression with a sum is first expanded in its torus variables (m <= 4
measured).  The Honda law itself is an integer table (see the fgl module):
at K(1), p = 2 it builds in 0.03 s at D = 48 and 0.9 s at D = 128 (2-core
VM, Python 3.11).  Every Laurent series is known below its precision;
localization only adds them and divides them, by long division.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .scalars import DegreeError, Theory, scalar_parts


class LeadingUnitError(ArithmeticError):
    """Division requires a unit leading coefficient (non-generic slope)."""


def monomial_key(alpha: tuple[int, ...]):
    """Canonical term order: total degree, then u1 before u2 before ..."""
    return (sum(alpha), tuple(-a for a in alpha))


def _term_key(item):
    """Print order of a stored term: monomial_key, then the unit exponent."""
    (alpha, k), _c = item
    return monomial_key(alpha), k


@lru_cache(maxsize=None)
def exponent_vectors(nvars: int, dmax: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with total degree <= dmax, in canonical order."""
    return tuple(v for size in range(dmax + 1) for v in degree_vectors(nvars, size))


@lru_cache(maxsize=None)
def degree_vectors(nvars: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of total degree size, in canonical order."""
    if not nvars:
        return () if size else ((),)
    rests = ((a, degree_vectors(nvars - 1, size - a)) for a in range(size, -1, -1))
    return tuple((a, *rest) for a, vecs in rests for rest in vecs)


def _clean(acc: dict, p: int) -> dict:
    """acc reduced mod p (when p is nonzero) without its zero entries."""
    if p:
        return {key: r for key, c in acc.items() if (r := c % p)}
    return {key: c for key, c in acc.items() if c}


def sorted_terms(coeffs: dict) -> list:
    """The terms (|beta|, beta, k, c) of the stored-format dict coeffs, by
    ascending total degree: the right-hand factor of sparse_product."""
    return sorted((sum(b), b, k, c) for (b, k), c in coeffs.items())


def sparse_product(coeffs: dict, terms: list, p: int, trunc: int, cut: int | None = None) -> dict:
    """The stored-format dict coeffs times the sorted_terms list terms, mod
    p when p is nonzero, without the terms above total degree trunc or, when
    cut is given, at last-variable exponent >= cut.  Each term of coeffs
    stops at the truncation, so no pair past it is visited."""
    acc = {}
    for (a, ka), ca in coeffs.items():
        room = trunc - sum(a)
        for size_b, b, kb, cb in terms:
            if size_b > room:
                break
            beta = tuple(map(add, a, b))
            if cut is None or beta[-1] < cut:
                key = (beta, ka + kb)
                acc[key] = acc.get(key, 0) + ca * cb
    return _clean(acc, p)


def _combine(parts, p: int) -> dict:
    """The sum of c * unit^k * f over the (f, c, k) in parts, f a dict in
    the stored format, reduced mod p when p is nonzero."""
    acc = {}
    for f, c, k in parts:
        for (a, j), x in f.items():
            key = (a, j + k)
            acc[key] = acc.get(key, 0) + c * x
    return _clean(acc, p)


def _checked(theory: Theory, coeffs: dict) -> dict:
    """coeffs, in the stored format, reduced by the theory's rules and
    without zeros; a unit exponent needs a periodicity unit."""
    out = {}
    for key, c in coeffs.items():
        if key[1] and not theory.period_degree:
            raise ValueError(f"theory {theory.kind} has no periodicity generator")
        if c := theory.reduce(c):
            out[key] = c
    return out


def _coefficient_at(coeffs: dict, a) -> tuple:
    """(c, k) of the stored term at a, (0, 0) when there is none."""
    found = [(c, k) for (b, k), c in coeffs.items() if b == a]
    if len(found) > 1:
        raise DegreeError(f"the coefficient of {a} mixes degrees")
    return found[0] if found else (0, 0)


class TruncatedSeries:
    __slots__ = ("theory", "nvars", "coeffs")

    def __init__(self, theory: Theory, nvars: int, coeffs=None):
        """coeffs maps (alpha, k) to raw coefficients c, one term
        c * unit^k * u^alpha each."""
        self.theory = theory
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            D = theory.trunc
            for alpha, _k in coeffs:
                if len(alpha) != nvars:
                    raise ValueError(f"exponent {alpha} has wrong length")
                if any(e < 0 for e in alpha):
                    raise ValueError(f"negative exponent in {alpha}")
                if sum(alpha) > D:
                    raise ValueError(f"term {alpha} exceeds truncation degree {D}")
            self.coeffs = _checked(theory, {(tuple(a), k): c for (a, k), c in coeffs.items()})

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_raw(cls, theory, nvars, coeffs: dict) -> "TruncatedSeries":
        """The series holding the stored-format dict coeffs as it is."""
        out = cls(theory, nvars)
        out.coeffs = coeffs
        return out

    @classmethod
    def combination(cls, theory, nvars, parts) -> "TruncatedSeries":
        """The sum of c * unit^k * s over the triples (s, c, k) in parts."""
        coeffs = _combine(((s.coeffs, c, k) for s, c, k in parts), theory.char)
        return cls.from_raw(theory, nvars, coeffs)

    @classmethod
    def zero(cls, theory, nvars):
        return cls(theory, nvars)

    @classmethod
    def one(cls, theory, nvars):
        return cls.from_raw(theory, nvars, {((0,) * nvars, 0): 1})

    @classmethod
    def variable(cls, theory, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.from_raw(theory, nvars, {(alpha, 0): 1})

    def _like(self, coeffs: dict) -> "TruncatedSeries":
        return TruncatedSeries.from_raw(self.theory, self.nvars, coeffs)

    # ---- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, alpha) -> tuple:
        """(c, k) of the term at u^alpha, (0, 0) when there is none; a
        DegreeError when terms of several degrees share alpha."""
        return _coefficient_at(self.coeffs, tuple(alpha))

    def order(self) -> int | None:
        """Minimal total variable degree of a nonzero term; None for zero."""
        return min((sum(a) for a, _k in self.coeffs), default=None)

    def degrees(self) -> list[int]:
        """The cohomological degrees of the terms, ascending."""
        degree = self.theory.degree
        return sorted({degree(*pair) for pair in {(sum(a), k) for a, k in self.coeffs}})

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
        return self._like(_combine([(self.coeffs, 1, 0), (other.coeffs, 1, 0)], self.theory.char))

    def __neg__(self) -> "TruncatedSeries":
        return self._like(_combine([(self.coeffs, -1, 0)], self.theory.char))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c, k: int = 0) -> "TruncatedSeries":
        """The series times c * unit^k."""
        return self._like(_combine([(self.coeffs, c, k)], self.theory.char))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        th = self.theory
        return self._like(sparse_product(self.coeffs, sorted_terms(other.coeffs), th.char, th.trunc))

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
        for g in args:
            if g.theory != th:
                raise ValueError("substitution series belongs to a different theory")
            if g.order() == 0:
                raise ValueError("substitution series must have zero constant term")
        nout = args[0].nvars if args else self.nvars
        for g in args:
            if g.nvars != nout:
                raise ValueError("substitution series disagree on variable count")
        # powers[i][e] is args[i]^e, grown on demand; a zero power repeats
        one = TruncatedSeries.one(th, nout)
        powers = [[one] for _ in args]

        def power(i, e):
            pw = powers[i]
            while len(pw) <= e:
                last = pw[-1]
                pw.append(last if last.is_zero() else last * args[i])
            return pw[e]

        parts = []
        for (alpha, k), c in self.coeffs.items():
            term = one
            for i, e in enumerate(alpha):
                if e:
                    term = power(i, e) if term is one else term * power(i, e)
                    if term.is_zero():
                        break
            parts.append((term, c, k))
        return TruncatedSeries.combination(th, nout, parts)

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"<series {self}>"


class SlicePrinter:
    """Prints sparse coefficient vectors over a fixed list of stored-format
    keys (alpha, k) in print order, such as a degree slice of the solver: a
    vector maps index j of a slice to the nonzero raw coefficient of keys[j],
    with its keys in increasing order, and its terms are joined in that order,
    without a sort.  Each monomial's text is rendered once, and each signed
    term once per (index, coefficient, first or not)."""

    def __init__(self, theory: Theory, keys, varnames=None):
        if varnames is None:
            varnames = [f"u{i + 1}" for i in range(len(keys[0][0]) if keys else 0)]
        self.theory = theory
        self.keys = keys
        self.monos = [
            "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(varnames, alpha) if e)
            for alpha, _k in keys
        ]
        self.terms = {}

    def __call__(self, vec, count: int = 1) -> list[str]:
        """The printed sums of the count consecutive slices of vec, each
        len(keys) indices long."""
        size = len(self.keys)
        terms = self.terms
        parts = [[] for _ in range(count)]
        for i, c in vec.items():
            s, j = divmod(i, size)
            part = parts[s]
            key = (j, c, not part)
            text = terms.get(key)
            if text is None:
                text = terms[key] = self._term(*key)
            part.append(text)
        return [" ".join(part) or "0" for part in parts]

    def _term(self, j: int, c, first: bool) -> str:
        """The text of c * unit^k * u^alpha, (alpha, k) = keys[j]: signed by
        a bare '-' as the first term of a sum, by '+ ' or '- ' after it."""
        mono = self.monos[j]
        neg, body = scalar_parts(self.theory, c, self.keys[j][1], with_monomial=bool(mono))
        text = f"{body}*{mono}" if body and mono else (body or mono)
        if first:
            return "-" + text if neg else text
        return ("- " if neg else "+ ") + text


def _format_terms(theory: Theory, items, varnames=None) -> str:
    """The printed sum of the stored-format ((alpha, k), c) items, in order."""
    printer = SlicePrinter(theory, [key for key, _c in items], varnames)
    return printer(dict(enumerate(c for _key, c in items)))[0]


def format_series(s: TruncatedSeries, varnames=None) -> str:
    return _format_terms(s.theory, sorted(s.coeffs.items(), key=_term_key), varnames)


class LaurentSeries:
    """One-variable Laurent series with precision tracking, stored as
    {(e, k): c} in the format of TruncatedSeries.

    Every series carries an integer precision `prec`: its coefficients are
    known for exponents below it (exclusive).  Only what localization needs
    is implemented.
    """

    __slots__ = ("theory", "coeffs", "prec")

    def __init__(self, theory: Theory, coeffs, prec: int):
        """coeffs maps (e, k) to raw coefficients c, one term c * unit^k * s^e;
        the terms at and above prec are cut."""
        self.theory = theory
        self.prec = prec
        self.coeffs = {}
        if coeffs:
            self.coeffs = _checked(theory, {key: c for key, c in coeffs.items() if key[0] < prec})

    @classmethod
    def from_raw(cls, theory, coeffs: dict, prec: int) -> "LaurentSeries":
        """The series of the stored-format dict coeffs, cut at prec."""
        out = cls(theory, None, prec)
        out.coeffs = {key: c for key, c in coeffs.items() if key[0] < prec}
        return out

    @classmethod
    def from_truncated(cls, s: TruncatedSeries) -> "LaurentSeries":
        if s.nvars != 1:
            raise ValueError("only one-variable series convert to Laurent series")
        coeffs = {(a[0], k): c for (a, k), c in s.coeffs.items()}
        return cls.from_raw(s.theory, coeffs, s.theory.trunc + 1)

    @classmethod
    def zero(cls, theory, prec: int):
        return cls(theory, None, prec)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int | None:
        return min((e for e, _k in self.coeffs), default=None)

    def coefficient(self, e: int) -> tuple:
        """(c, k) of the term at s^e, as TruncatedSeries.coefficient."""
        return _coefficient_at(self.coeffs, e)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.theory != other.theory:
            raise ValueError("Laurent series belong to different theories")
        coeffs = _combine([(self.coeffs, 1, 0), (other.coeffs, 1, 0)], self.theory.char)
        return LaurentSeries.from_raw(self.theory, coeffs, min(self.prec, other.prec))

    def divide(self, g: "LaurentSeries") -> "LaurentSeries":
        """self/g by long division; g leads with a unit lead * unit^k at s^lg:
        q_e = (f_(e+lg) - sum_(j>=1) g_(lg+j) q_(e-j)) / (lead * unit^k) for
        f = self.  q is known below min(f.prec - lg, g.prec - 2*lg + ord f), or
        f.prec - lg when f is zero: what f and g, known below their precs, fix."""
        if g.is_zero():
            raise ZeroDivisionError("division of Laurent series by zero")
        th = self.theory
        lg = g.order()
        leads = [(k, c) for (e, k), c in g.coeffs.items() if e == lg]
        if len(leads) > 1 or not th.is_unit(leads[0][1]):
            lead = _format_terms(th, [(((0,), k), c) for k, c in sorted(leads)])
            raise LeadingUnitError(f"leading coefficient {lead} of the divisor is not a unit")
        lead_k, lead = leads[0]
        if self.is_zero():
            return LaurentSeries.zero(th, self.prec - lg)
        lf = self.order()
        prec = min(self.prec - lg, g.prec - 2 * lg + lf)
        inv_lead = th.inverse(lead)
        f_at, tail = {}, {}  # terms (k, c) by exponent: of f, and of g past s^lg
        for (e, k), c in self.coeffs.items():
            f_at.setdefault(e, []).append((k, c))
        for (e, k), c in g.coeffs.items():
            if e != lg:
                tail.setdefault(e - lg, []).append((k, c))
        q = {}  # q[e] maps unit exponents to the coefficients of s^e
        for e in range(lf - lg, prec):
            acc = dict(f_at.get(e + lg, ()))
            for j, terms in tail.items():
                for kq, cq in q.get(e - j, {}).items():
                    for kt, ct in terms:
                        acc[kt + kq] = acc.get(kt + kq, 0) - ct * cq
            q[e] = _clean({k - lead_k: inv_lead * c for k, c in acc.items()}, th.char)
        coeffs = {(e, k): c for e, qe in q.items() for k, c in qe.items()}
        return LaurentSeries.from_raw(th, coeffs, prec)

    def negative_part_is_zero(self) -> bool:
        return all(e >= 0 for e, _k in self.coeffs)

    def __str__(self):
        items = [(((e,), k), c) for (e, k), c in sorted(self.coeffs.items())]
        text = _format_terms(self.theory, items, ["s"])
        return f"{text} + O(s^{self.prec})"

    def __repr__(self):
        return f"<laurent {self}>"

