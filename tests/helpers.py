"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import lcm

from gkmcalc import (
    MOD_P,
    MORAVA,
    MULTIPLICATIVE,
    ORDINARY,
    RATIONAL,
    GKMEdge,
    GKMGraph,
    TheoryConfig,
    TruncatedSeries,
    character_class,
    format_series,
    kernel_ideal,
    make_theory,
)
from gkmcalc.classifying import _slice_monomials, ideal_multiples_basis
from gkmcalc.series import monomial_key


def ordinary(trunc=8):
    return make_theory(TheoryConfig(ORDINARY, trunc))


def rational(trunc=8):
    return make_theory(TheoryConfig(RATIONAL, trunc))


def modp(p, trunc=8):
    return make_theory(TheoryConfig(MOD_P, trunc, p=p))


def mult(trunc=8):
    return make_theory(TheoryConfig(MULTIPLICATIVE, trunc))


def morava(p, n, trunc=8):
    return make_theory(TheoryConfig(MORAVA, trunc, p=p, n=n))


def cp1(weight=(1,)):
    return GKMGraph(1, ["N", "S"], [GKMEdge(0, 1, tuple(weight))])


def cp2():
    return GKMGraph(
        2,
        ["A", "B", "C"],
        [GKMEdge(0, 1, (1, 0)), GKMEdge(0, 2, (0, 1)), GKMEdge(1, 2, (-1, 1))],
    )


def cp1xcp1():
    return GKMGraph(
        2,
        ["NN", "NS", "SN", "SS"],
        [
            GKMEdge(0, 2, (1, 0)),
            GKMEdge(1, 3, (1, 0)),
            GKMEdge(0, 1, (0, 1)),
            GKMEdge(2, 3, (0, 1)),
        ],
    )


def _root(n, i, j):
    """e_j - e_i in Z^n, with the last coordinate dropped."""
    v = [0] * n
    v[j] += 1
    v[i] -= 1
    return tuple(v[:-1])


def cpn(n):
    """CP^n: n + 1 coordinate lines, joined by the roots e_j - e_i."""
    pairs = itertools.combinations(range(n + 1), 2)
    edges = [GKMEdge(i, j, _root(n + 1, i, j)) for i, j in pairs]
    return GKMGraph(n, [f"L{i}" for i in range(n + 1)], edges)


def cp3():
    return cpn(3)


def fl3():
    return flag_variety(3)


def flag_variety(n):
    """Fl(n): permutations of 0..n-1, joined by right multiplication with a
    transposition."""
    perms = list(itertools.permutations(range(n)))
    edges = []
    for a, s in enumerate(perms):
        for i, j in itertools.combinations(range(n), 2):
            t = list(s)
            t[i], t[j] = t[j], t[i]
            b = perms.index(tuple(t))
            if a < b:
                edges.append(GKMEdge(a, b, _root(n, s[i], s[j])))
    return GKMGraph(n - 1, ["P" + "".join(map(str, s)) for s in perms], edges)


def grassmannian(k, n):
    """Gr(k, n): coordinate k-planes, joined when they differ by one swap."""
    subsets = list(itertools.combinations(range(n), k))
    edges = []
    for a, s in enumerate(subsets):
        for i, j in itertools.product(s, range(n)):
            if j in s:
                continue
            b = subsets.index(tuple(sorted(set(s) - {i} | {j})))
            if a < b:
                edges.append(GKMEdge(a, b, _root(n, i, j)))
    return GKMGraph(n - 1, ["S" + "".join(map(str, s)) for s in subsets], edges)


def mapped(graph, w):
    """The graph with every weight a replaced by a @ w (w need not be unimodular)."""
    edges = [GKMEdge(e.tail, e.head, tuple(matmul([e.weight], w)[0])) for e in graph.edges]
    return GKMGraph(graph.rank, list(graph.vertices), edges)


def outgoing_weights(graph, i):
    """The weights of the edges at vertex i, oriented away from it."""
    return [w for _j, w in graph.adjacency()[i]]


def relabel(graph, perm):
    """The graph with vertex i moved to position perm[i]."""
    names = [None] * len(graph.vertices)
    for i, name in enumerate(graph.vertices):
        names[perm[i]] = name
    edges = [GKMEdge(perm[e.tail], perm[e.head], e.weight) for e in graph.edges]
    return GKMGraph(graph.rank, names, edges)


def first_failure(report):
    """The first degree whose rank misses the formality prediction, or None."""
    return next((q for q, _rank, _predicted, ok in report.rows if not ok), None)


CP1_BETTI = [(0, 1), (2, 1)]
CP2_BETTI = [(0, 1), (2, 1), (4, 1)]
CP1XCP1_BETTI = [(0, 1), (2, 2), (4, 1)]
CP3_BETTI = [(0, 1), (2, 1), (4, 1), (6, 1)]
FL3_BETTI = [(0, 1), (2, 2), (4, 2), (6, 1)]


def slice_by_brute_force(theory, nvars, q):
    """Every (alpha, k) with |alpha| <= D and 2|alpha| - k * period_degree
    = q, in print order, found by scanning every k that could fit; k is 0
    in a theory without a periodicity unit."""
    D, per = theory.trunc, theory.period_degree
    reach = 2 * D + abs(q) + 1
    ks = range(-reach, reach + 1) if per else (0,)
    alphas = (a for a in itertools.product(range(D + 1), repeat=nvars) if sum(a) <= D)
    found = [(a, k) for a in alphas for k in ks if 2 * sum(a) - k * per == q]
    return sorted(found, key=lambda key: (monomial_key(key[0]), key[1]))


def graph_json(graph) -> str:
    """The moment-graph file of graph, with no betti or classes block."""
    names = graph.vertices
    edges = [
        {"tail": names[e.tail], "head": names[e.head], "weight": list(e.weight)}
        for e in graph.edges
    ]
    return json.dumps({"torus_rank": graph.rank, "vertices": names, "edges": edges})


def solve_text_via_bases(sol, variant) -> str:
    """What `solve` prints for sol, the long way: every basis class built by
    sol.bases and every restriction printed by format_series.  variant holds
    the ranks of the primitive-kernel solve, None when every weight is
    primitive."""
    lines = [] if sol.theory.kind == MORAVA else ["model: conjectural"]
    lines += [f"{q} {sol.ranks[q]}" for q in sorted(sol.ranks)]
    for q in sorted(sol.bases):
        lines.append(f"basis q={q}")
        for cls in sol.bases[q]:
            lines.append("(" + ", ".join(format_series(f) for f in cls.restrictions) + ")")
        divs = [d for d in sol.divisors.get(q, []) if d != 1]
        if divs:
            lines.append(f"divisors q={q}: {', '.join(map(str, divs))}")
    if variant is not None and variant != sol.ranks:
        diffs = [f"{q}:{variant[q]}" for q in sorted(variant) if variant[q] != sol.ranks[q]]
        lines.append("primitive-kernel variant differs: " + " ".join(diffs))
    return "".join(line + "\n" for line in lines)


def random_unimodular(rng: random.Random, m: int, shears: int = 5):
    """Product of elementary shears and swaps; determinant +-1."""
    mat = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(shears):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(m):
            mat[i][k] += c * mat[j][k]
    if rng.random() < 0.5 and m > 1:
        i, j = rng.sample(range(m), 2)
        mat[i], mat[j] = mat[j], mat[i]
    return mat


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def det(a) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def series_from_terms(theory, nvars, terms):
    """The series with the given (exponent, c, k) terms, repeats summed."""
    s = TruncatedSeries(theory, nvars)
    for alpha, c, k in terms:
        s = s + TruncatedSeries(theory, nvars, {(tuple(alpha), k): c})
    return s


def random_series(rng: random.Random, theory, nvars, maxdeg=None, terms=4):
    """A random series with small integer base coefficients.

    Over the periodic theories the output is homogeneous of a random degree.
    """
    if theory.period_degree:
        q = 2 * rng.randrange(0, theory.trunc + 1)
        return random_homogeneous(rng, theory, nvars, q, terms=terms)
    maxdeg = theory.trunc if maxdeg is None else maxdeg
    out = TruncatedSeries.zero(theory, nvars)
    for _ in range(terms):
        alpha = tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))
        if sum(alpha) > maxdeg:
            continue
        c = rng.randrange(-4, 5)
        out = out + TruncatedSeries(theory, nvars, {(alpha, 0): c})
    return out


def random_homogeneous(rng: random.Random, theory, nvars, q, terms=4):
    monos = _slice_monomials(theory, nvars, q)
    out = TruncatedSeries.zero(theory, nvars)
    if not monos:
        return out
    for _ in range(terms):
        key = rng.choice(monos)
        out = out + TruncatedSeries(theory, nvars, {key: rng.randrange(-4, 5)})
    return out


def random_zero_constant(rng: random.Random, theory, nvars, terms=4):
    s = random_series(rng, theory, nvars, terms=terms)
    zero = (0,) * nvars
    c, k = s.coefficient(zero)
    return s - TruncatedSeries(theory, nvars, {(zero, k): c})


def random_curve_element(rng: random.Random, theory, nvars, terms=4):
    """Random formal-group input: degree-2 homogeneous, zero constant term
    (the shape of an Euler class, which is what formal sums are defined on)."""
    monos = [mv for mv in _slice_monomials(theory, nvars, 2) if any(mv[0])]
    out = TruncatedSeries.zero(theory, nvars)
    for _ in range(terms):
        key = rng.choice(monos)
        out = out + TruncatedSeries(theory, nvars, {key: rng.randrange(-4, 5)})
    return out


def variable_degree_component(f, d):
    """The terms of f of total variable degree d."""
    return TruncatedSeries.from_raw(
        f.theory, f.nvars, {key: c for key, c in f.coeffs.items() if sum(key[0]) == d}
    )


def degree_component(f, q):
    """The part of f of cohomological degree q."""
    per = f.theory.period_degree
    terms = {(a, k): c for (a, k), c in f.coeffs.items() if 2 * sum(a) - per * k == q}
    return TruncatedSeries.from_raw(f.theory, f.nvars, terms)


def degree_by_degree_inverse(fgl, a):
    """The formal inverse of a, solved degree by degree from F(a, i(a)) = 0."""
    inv = -a
    for target in range(2, fgl.theory.trunc + 1):
        err = variable_degree_component(fgl.sum(a, inv), target)
        if not err.is_zero():
            inv = inv - err
    return inv


def n_series_by_doubling(fgl, ell, memo=None):
    """The [ell]-series composed through the law, the oracle for the closed
    forms: [-1] solved degree by degree from F(u, [-1]u) = 0, [-ell] =
    [ell] o [-1], and ell >= 2 by doubling through formal sums.  memo maps
    ell to the series already built for this law."""
    memo = {} if memo is None else memo
    if ell in memo:
        return memo[ell]
    th = fgl.theory
    u = TruncatedSeries.variable(th, 1, 0)
    if ell == 0:
        value = TruncatedSeries.zero(th, 1)
    elif ell == 1:
        value = u
    elif ell == -1:
        value = degree_by_degree_inverse(fgl, u)
    elif ell < 0:
        value = n_series_by_doubling(fgl, -ell, memo).substitute([n_series_by_doubling(fgl, -1, memo)])
    else:
        half = n_series_by_doubling(fgl, ell // 2, memo)
        value = fgl.sum(half, half)
        if ell % 2:
            value = fgl.sum(value, u)
    memo[ell] = value
    return value


class _CountingCache(dict):
    """A class cache that records the character of every class stored."""

    def __init__(self, builds):
        super().__init__()
        self.builds = builds

    def __setitem__(self, key, value):
        self.builds.append(key)
        super().__setitem__(key, value)


def count_class_builds(monkeypatch, theory) -> list:
    """The characters whose classes the law of theory builds from now on,
    one entry per build: the law is built fresh, and every class it builds
    is stored in its cache."""
    import gkmcalc.fgl as fgl_module

    monkeypatch.setattr(fgl_module, "_fgl_cache", {})
    builds = []
    monkeypatch.setattr(fgl_module.build_fgl(theory), "character_classes", _CountingCache(builds))
    return builds


def transport(fgl, f, basis_change):
    """f rewritten in the torus coordinates of the unimodular matrix by one
    full substitution: row i of the matrix is the character whose class
    replaces the i-th variable, matching how characters pull back
    (a -> a @ B)."""
    return f.substitute([character_class(fgl, tuple(row)) for row in basis_change])


def dense(vec: dict, width: int) -> tuple:
    """The sparse vector {index: entry} as a tuple of width entries."""
    return tuple(vec.get(j, 0) for j in range(width))


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector, {index: entry}."""
    return {j: x for j, x in enumerate(vec) if x}


def eager_hermite_basis(rows: list[dict]) -> list[dict]:
    """Row-Hermite basis of sparse rows by Kannan and Bachem's eager loop,
    the reference for lattice.hermite_basis; consumes the rows.

    Rows wait under their leading column, and a Euclid loop leaves one pivot
    row per column, made positive.  As soon as it is fixed, the entries
    above it in every earlier basis row are reduced into [0, pivot).
    """
    def subtract(row, other, q):
        for k, x in other.items():
            y = row.get(k, 0) - q * x
            if y:
                row[k] = y
            else:
                del row[k]

    waiting: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            waiting.setdefault(min(r), []).append(r)
    basis = []
    while waiting:
        j = min(waiting)
        live = waiting.pop(j)
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            head, *rest = live
            live = [head]
            for r in rest:
                subtract(r, head, r[j] // head[j])
                if j in r:
                    live.append(r)
                elif r:
                    waiting.setdefault(min(r), []).append(r)
        pivot = live[0]
        if pivot[j] < 0:
            for k in pivot:
                pivot[k] = -pivot[k]
        for b in basis:
            q = b.get(j, 0) // pivot[j]
            if q:
                subtract(b, pivot, q)
        basis.append(pivot)
    return [dict(sorted(b.items())) for b in basis]


def reduce_vector_mod_lattice(vec, basis) -> tuple[int, ...]:
    """Canonical coset representative of vec modulo a Hermite row basis."""
    v = list(vec)
    for row in basis:
        pcol = next(k for k, x in enumerate(row) if x != 0)
        q = v[pcol] // row[pcol]
        if q:
            for k in range(len(v)):
                v[k] -= q * row[k]
    return tuple(v)


def cut(f, ideal):
    """f without its terms at u_m-exponent >= order when the generator has a
    unit leading coefficient; f itself for a zero generator or a lattice edge."""
    if not ideal.leading_unit:
        return f
    return TruncatedSeries.from_raw(
        f.theory, f.nvars, {key: c for key, c in f.coeffs.items() if key[0][-1] < ideal.order}
    )


def series_product_image(ideal, alpha):
    """The oracle for the ideal's image table: u^alpha in the adapted
    coordinates as a series product, the image of u^(alpha - e_i) times the
    i-th adapted class, i the last variable in alpha, cut after each factor."""
    m = ideal.nvars
    if not any(alpha):
        return TruncatedSeries.one(ideal.fgl.theory, m)
    i = max(j for j, e in enumerate(alpha) if e)
    lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
    return cut(series_product_image(ideal, lower) * ideal.adapted_classes[i], ideal)


def congruence_rows(graph, ideals, monos, q):
    """The solver's degree-q rows assembled from series-product images: per
    edge, one row per adapted exponent beta, with the edge's lattice of
    truncated multiples in slack columns after the x columns when its
    residue is not linear."""
    rows = []
    width = len(graph.vertices) * len(monos)
    for edge in graph.edges:
        ideal = ideals[edge.weight]
        rowmap = {}
        if not ideal.residue_is_linear:
            ad_monos, multiples = ideal_multiples_basis(ideal, q)
            for h in multiples:
                for i, c in h.items():
                    rowmap.setdefault(ad_monos[i][0], {})[width] = -c
                width += 1
        tail, head = edge.tail * len(monos), edge.head * len(monos)
        for j, (alpha, _k) in enumerate(monos):
            for (beta, _k2), c in series_product_image(ideal, alpha).coeffs.items():
                row = rowmap.setdefault(beta, {})
                row[tail + j] = c
                row[head + j] = -c
        rows.extend(rowmap.values())
    return rows


def reduce_adapted(g, ideal):
    """The canonical residue of g, a series in the ideal's adapted
    coordinates: the cut when the residue is linear, else each homogeneous
    component reduced against the lattice of truncated multiples of the
    generator."""
    if ideal.residue_is_linear:
        return cut(g, ideal)
    th = g.theory
    out = TruncatedSeries.zero(th, g.nvars)
    for q in g.degrees():
        monos, basis = ideal_multiples_basis(ideal, q)
        comp = degree_component(g, q).coeffs
        assert comp.keys() <= set(monos), "a term outside the degree slice"
        vec = [comp.get(mono, 0) for mono in monos]
        red = reduce_vector_mod_lattice(vec, [dense(row, len(monos)) for row in basis])
        out = out + TruncatedSeries(th, g.nvars, dict(zip(monos, red)))
    return out


def ideal_residue(f, ideal):
    """The residue oracle: f moved into the adapted coordinates by one full
    substitution, then reduced; zero iff f lies in the ideal up to
    truncation."""
    return reduce_adapted(transport(ideal.fgl, f, ideal.basis_change), ideal)


def satisfies_congruences(graph, fgl, cls) -> bool:
    """The membership oracle: every edge difference of cls has zero residue
    modulo the kernel ideal of its weight."""
    if len(cls.restrictions) != len(graph.vertices):
        raise ValueError("class has the wrong number of fixed-point restrictions")
    ideals = {w: kernel_ideal(fgl, w) for w in dict.fromkeys(e.weight for e in graph.edges)}
    parts = cls.restrictions
    return all(
        ideal_residue(parts[e.tail] - parts[e.head], ideals[e.weight]).is_zero()
        for e in graph.edges
    )


def reduce_in_var(f, rel, var):
    """Weierstrass elimination of f by the one-variable relation rel, read in
    variable var: the remainder with var-exponent below the order of rel,
    whose leading coefficient must be a unit.  A zero relation keeps f."""
    if rel.is_zero():
        return f
    th = f.theory
    nu = rel.order()
    lead, lead_k = rel.coefficient((nu,))
    lead_inv = th.inverse(lead)
    work = dict(f.coeffs)
    done = {}
    for d in range(th.trunc + 1):
        for key in sorted(key for key in work if sum(key[0]) == d):
            alpha, kf = key
            c = work.pop(key)
            if alpha[var] < nu:
                done[key] = c
                continue
            for ((e,), kg), gc in rel.coeffs.items():
                if e == nu:
                    continue  # cancelled by the pop
                target = list(alpha)
                target[var] += e - nu
                if sum(target) > th.trunc:
                    continue
                tkey = (tuple(target), kf - lead_k + kg)
                new = th.reduce(work.get(tkey, 0) - c * lead_inv * gc)
                if new:
                    work[tkey] = new
                else:
                    work.pop(tkey, None)
    return TruncatedSeries(th, f.nvars, done)


def honda_fgl_by_reversion(theory):
    """The height-n Honda law built the direct way: revert the logarithm by
    re-solving log(exp x) = x with a full composition at every degree, compose
    exp(log x + log y), and reduce mod p.  Returns the two-variable series."""
    p, n, D = theory.p, theory.n, theory.trunc
    qt = rational(D)
    terms = {((1,), 0): 1}
    i = 1
    while p ** (n * i) <= D:
        terms[((p ** (n * i),), 0)] = Fraction(1, p ** i)
        i += 1
    log1 = TruncatedSeries(qt, 1, terms)
    x = TruncatedSeries.variable(qt, 1, 0)
    exp1 = x
    for d in range(2, D + 1):
        err = variable_degree_component(log1.substitute([exp1]) - x, d)
        if not err.is_zero():
            exp1 = exp1 - err
    x2 = TruncatedSeries.variable(qt, 2, 0)
    y2 = TruncatedSeries.variable(qt, 2, 1)
    f0 = exp1.substitute([log1.substitute([x2]) + log1.substitute([y2])])
    out = {}
    for ((a, b), _k), c in f0.coeffs.items():
        frac = Fraction(c)
        assert frac.denominator % p != 0
        cm = frac.numerator * pow(frac.denominator, -1, p) % p
        if cm:
            k, rem = divmod(a + b - 1, p ** n - 1)
            assert rem == 0
            out[((a, b), k)] = cm
    return TruncatedSeries(theory, 2, out)


def honda_exp_by_fractions(p, n, D):
    """The pair (delta, g) of fgl._honda_tables by Fraction arithmetic: G_a
    solved from exp(log x) = x one degree at a time, delta the lcm of their
    denominators and g_a = delta G_a."""
    from gkmcalc.fgl import _scaled_logarithm

    plog = _scaled_logarithm(p, n, D)
    A = [[1] + [0] * D]
    for j in range(1, D + 1):
        A.append([sum(c * A[-1][a - e] for e, c in plog if e <= a) for a in range(D + 1)])
    G = [Fraction(0)] * (D + 1)
    for a in range(1, D + 1):
        G[a] = (Fraction(a == 1) - sum(G[s] * A[s][a] for s in range(1, a))) / A[a][a]
    delta = lcm(*(x.denominator for x in G))
    return delta, [x.numerator * (delta // x.denominator) for x in G]


def minors(a, b):
    """The 2x2 minors of the matrix with rows a and b; all vanish exactly
    when a and b are proportional."""
    n = len(a)
    return (a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def _stars(graph):
    """Each vertex's weights, oriented away from it, in edge order."""
    stars = [[] for _ in graph.vertices]
    for e in graph.edges:
        stars[e.tail].append(e.weight)
        stars[e.head].append(tuple(-a for a in e.weight))
    return stars


def validate_graph_by_minors(graph):
    """gkm.validate_graph with each pair of weights at a vertex tested by
    its 2x2 minors, the oracle for the check by lines."""
    violations = []
    m = graph.rank
    k = len(graph.vertices)
    if k == 0:
        return ["graph has no vertices"]
    if len(set(graph.vertices)) != k:
        violations.append("vertex names are not distinct")
    for idx, e in enumerate(graph.edges):
        if len(e.weight) != m:
            violations.append(f"edge {idx}: weight length {len(e.weight)} != torus rank {m}")
        elif not any(e.weight):
            violations.append(f"edge {idx}: weight is zero")
        if not (0 <= e.tail < k and 0 <= e.head < k):
            violations.append(f"edge {idx}: endpoint out of range")
        elif e.tail == e.head:
            violations.append(f"edge {idx}: loop at vertex {graph.vertices[e.tail]}")
    if violations:
        return violations
    stars = _stars(graph)
    for name, ws in zip(graph.vertices, stars):
        for a, b in itertools.combinations(range(len(ws)), 2):
            if not any(minors(ws[a], ws[b])):
                violations.append(f"vertex {name}: dependent weights {ws[a]} and {ws[b]}")
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for e in graph.edges:
            if i in (e.tail, e.head):
                other = e.head if e.tail == i else e.tail
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    if len(seen) != k:
        violations.append("graph is not connected")
    valences = {len(ws) for ws in stars}
    if len(valences) > 1:
        violations.append(f"vertices have unequal valences {sorted(valences)}")
    return violations


def mod_p_weight_warnings_by_minors(graph, p):
    """gkm.mod_p_weight_warnings of a valid graph with each pair of weights
    at a vertex tested by its 2x2 minors mod p, the oracle for the check by
    projective points."""
    warnings = []
    for name, ws in zip(graph.vertices, _stars(graph)):
        for w in ws:
            if all(x % p == 0 for x in w):
                warnings.append(f"vertex {name}: weight {w} vanishes mod {p}")
        for a, b in itertools.combinations(range(len(ws)), 2):
            if all(x % p == 0 for x in minors(ws[a], ws[b])):
                warnings.append(f"vertex {name}: weights {ws[a]} and {ws[b]} dependent mod {p}")
    return list(dict.fromkeys(warnings))
