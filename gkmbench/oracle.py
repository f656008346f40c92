"""Answer oracle for the benchmark jobs, independent of the solver.

Ranks come from the truncated-window count of the free module that the
Betti numbers describe; truncation degrees come from the edge orders of the
kernel ideals and from the Euler-order rule of localization.  Nothing here
imports gkmcalc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from corpus import Graph


@dataclass(frozen=True)
class Theory:
    """A CLI theory: ordinary, mod-p (p), mult, or morava (p, n)."""

    kind: str
    p: int | None = None
    n: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "morava":
            return f"K{self.n}p{self.p}"
        if self.kind == "mod-p":
            return f"mod{self.p}"
        return self.kind

    def flags(self, trunc: int) -> list[str]:
        out = ["--theory", self.kind]
        if self.p is not None:
            out += ["--p", str(self.p)]
        if self.n is not None:
            out += ["--n", str(self.n)]
        return out + ["--trunc", str(trunc)]

    @property
    def period(self) -> int:
        """Cohomological degree of the periodicity unit; 0 when there is none."""
        if self.kind == "mult":
            return 2
        if self.kind == "morava":
            return 2 * (self.p ** self.n - 1)
        return 0

    @property
    def char(self) -> int | None:
        return self.p if self.kind in ("mod-p", "morava") else None

    def series_order(self, t: int) -> int | None:
        """u-order of the [t]-series; None when it vanishes."""
        if self.kind == "morava":
            return self.p ** (self.n * valuation(t, self.p))
        if self.kind == "mod-p" and t % self.p == 0:
            return None
        return 1


ORDINARY = Theory("ordinary")
MULT = Theory("mult")
K1P2 = Theory("morava", 2, 1)
K1P3 = Theory("morava", 3, 1)
K2P2 = Theory("morava", 2, 2)
MOD3 = Theory("mod-p", 3)
MOD5 = Theory("mod-p", 5)


def valuation(t: int, p: int) -> int:
    t = abs(t)
    v = 0
    while t % p == 0:
        t //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# ranks


def window_count(period: int, nvars: int, q: int, dmax: int) -> int:
    """Monomials u^alpha with |alpha| <= dmax that a unit power moves into
    degree q: 2|alpha| - q must be a multiple of the period (zero if none)."""
    if q % 2 or dmax < 0:
        return 0
    total = 0
    for b in range(dmax + 1):
        shift = 2 * b - q
        if shift == 0 or (period and shift % period == 0):
            total += math.comb(b + nvars - 1, nvars - 1)
    return total


def predicted_ranks(theory: Theory, g: Graph, trunc: int, qmax: int) -> dict[int, int]:
    """Rank in each even degree up to qmax of the free module with betti(a)
    generators in degree a, inside the series ring truncated at trunc."""
    return {
        q: sum(
            r * window_count(theory.period, g.rank, q - a, trunc - a // 2)
            for a, r in g.betti
        )
        for q in range(0, qmax + 1, 2)
    }


def solver_trunc(theory: Theory, g: Graph, qmax: int) -> int:
    """Smallest --trunc the solver accepts: qmax/2 plus the largest u-order of
    an edge's kernel-ideal generator, the [d]-series for weight d * theta."""
    orders = [1]
    for _t, _h, w in g.edges:
        d = math.gcd(*w)
        order = theory.series_order(d)
        if order is not None:
            orders.append(order)
    return qmax // 2 + max(orders)


# ---------------------------------------------------------------------------
# localization


def _pairings_ok(g: Graph, lam, p: int | None) -> bool:
    for _t, _h, w in g.edges:
        s = sum(a * b for a, b in zip(w, lam))
        if s == 0 or (p is not None and s % p == 0):
            return False
    return True


def _box(m: int, s: int):
    """Points of [1..s]^m with largest entry s, in lexicographic order."""
    pts = [()]
    for _ in range(m):
        pts = [v + (e,) for v in pts for e in range(1, s + 1)]
    return sorted(v for v in pts if max(v) == s)


def slope(theory: Theory, g: Graph) -> tuple[int, ...]:
    """The first generic slope of the deterministic growing-box search,
    preferring slopes that pair to units mod the characteristic."""
    p = theory.char
    if p is not None:
        period_box = [v for s in range(1, p + 1) for v in _box(g.rank, s)]
        if not any(_pairings_ok(g, lam, p) for lam in period_box):
            p = None
    s = 1
    while True:
        for lam in _box(g.rank, s):
            if _pairings_ok(g, lam, p):
                return lam
        s += 1


def integrate_trunc(theory: Theory, g: Graph, degree: int) -> int:
    """The precision budget: degree/2 + the largest Euler order + 2, where a
    vertex's Euler order sums the [t]-series orders of its pairings."""
    lam = slope(theory, g)
    orders = []
    for v in range(len(g.vertices)):
        total = 0
        for w in g.outgoing(v):
            o = theory.series_order(sum(a * b for a, b in zip(w, lam)))
            total += o if o is not None else 0
        orders.append(total)
    return degree // 2 + max(orders) + 2


# ---------------------------------------------------------------------------
# output checks; each returns None when the answer is right, else a reason


def check_solve(out: str, g: Graph, expected: dict[int, int], lattice: bool) -> str | None:
    lines = out.splitlines()
    ranks = {}
    bases: dict[int, int] = {}
    divisors: dict[int, list[int]] = {}
    q = None
    for line in lines:
        if line.startswith("basis q="):
            q = int(line[len("basis q="):])
            bases[q] = 0
        elif line.startswith("("):
            if q is None:
                return "basis tuple before a basis header"
            if line.count(",") != len(g.vertices) - 1 or not line.endswith(")"):
                return f"basis tuple in degree {q} has the wrong length"
            bases[q] += 1
        elif line.startswith("divisors q="):
            head, _, body = line.partition(": ")
            divisors[int(head[len("divisors q="):])] = [int(x) for x in body.split(", ")]
        elif line.startswith("primitive-kernel variant differs"):
            return "unexpected primitive-kernel difference"
        elif line and line[0].isdigit() and q is None:
            a, b = line.split()
            ranks[int(a)] = int(b)
    if ranks != expected:
        return f"ranks {ranks} != predicted {expected}"
    if bases != expected:
        return f"basis sizes {bases} != ranks {expected}"
    if not lattice or g.scale == 1:
        if divisors:
            return f"unexpected elementary divisors {divisors}"
        return None
    if not divisors:
        return "no elementary divisors for a weight-scaled graph"
    for q, divs in divisors.items():
        for d in divs:
            rest = d
            while (common := math.gcd(rest, g.scale)) > 1:
                rest //= common
            if rest != 1:
                return f"divisor {d} in degree {q} has a prime not in the scale {g.scale}"
    return None


def check_formality(out: str, expected: dict[int, int]) -> str | None:
    rows = {}
    result = None
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            q, rank, predicted, verdict = parts
            if verdict != "PASS" or rank != predicted:
                return f"degree {q}: {line}"
            rows[int(q)] = int(rank)
        elif parts[:1] == ["RESULT"]:
            result = line
    if rows != expected:
        return f"ranks {rows} != predicted {expected}"
    if result != "RESULT PASS":
        return f"verdict {result!r}"
    return None


def check_integral(out: str) -> str | None:
    lines = out.splitlines()
    if "negative part: clean" not in lines:
        return "negative part is not clean"
    if "integral = 1" not in lines:
        got = [x for x in lines if x.startswith("integral")]
        return f"integral is not 1: {got}"
    return None


def check_fgl(out: str, theory: Theory) -> str | None:
    p, n = theory.p, theory.n
    want = f"[{p}]u = v{n}*u^{p ** n}"
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("F(x,y) = x + y"):
        return "missing formal group law line"
    if lines[1] != want:
        return f"{lines[1]!r} != {want!r}"
    return None
