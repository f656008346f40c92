"""Seeded corpus of moment graphs, with Betti numbers and named classes.

The generated graphs use the torus characters e_j - e_i of T^{n+1} with the
last coordinate dropped, a projection that is unimodular on the sum-zero
lattice.  Every graph carries its Betti numbers (Gaussian binomials and
q-factorials), so the answer oracle can predict solver ranks without running
the solver.  The golden graphs are read from the repository's ``graphs/``.

Nothing here imports gkmcalc: graphs are plain graph-file documents.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "graphs"


@dataclass(frozen=True)
class Graph:
    """A moment graph: edges are (tail, head, weight) with vertex indices."""

    name: str
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    betti: tuple[tuple[int, int], ...]
    scale: int = 1  # common factor of every weight

    def outgoing(self, v: int) -> list[tuple[int, ...]]:
        """Weights of the edges at v, oriented away from v, in edge order."""
        out = []
        for tail, head, w in self.edges:
            if tail == v:
                out.append(w)
            if head == v:
                out.append(tuple(-a for a in w))
        return out

    @property
    def valence(self) -> int:
        return len(self.outgoing(0))

    def document(self, classes: dict[str, tuple[int, list[str]]] | None = None) -> dict:
        """The graph-file JSON document, with the given classes."""
        doc = {
            "torus_rank": self.rank,
            "vertices": list(self.vertices),
            "edges": [
                {"tail": self.vertices[t], "head": self.vertices[h], "weight": list(w)}
                for t, h, w in self.edges
            ],
            "betti": [{"degree": d, "rank": r} for d, r in self.betti],
        }
        if classes:
            doc["classes"] = {
                name: {"degree": deg, "restrictions": exprs}
                for name, (deg, exprs) in classes.items()
            }
        return doc


# ---------------------------------------------------------------------------
# Betti numbers, as polynomials in q = a degree-2 class


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_integer(k: int) -> list[int]:
    """[k]_q = 1 + q + ... + q^{k-1}."""
    return [1] * k


def q_factorial(n: int) -> list[int]:
    out = [1]
    for k in range(1, n + 1):
        out = _poly_mul(out, q_integer(k))
    return out


def gaussian_binomial(n: int, k: int) -> list[int]:
    """[n choose k]_q, by the q-Pascal rule."""
    if k < 0 or k > n:
        return [0]
    if k in (0, n):
        return [1]
    left = gaussian_binomial(n - 1, k - 1)
    right = [0] * k + gaussian_binomial(n - 1, k)
    size = max(len(left), len(right))
    left += [0] * (size - len(left))
    right += [0] * (size - len(right))
    return [x + y for x, y in zip(left, right)]


def _betti(poly: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple((2 * i, r) for i, r in enumerate(poly) if r)


# ---------------------------------------------------------------------------
# graph families


def _root(n: int, i: int, j: int) -> tuple[int, ...]:
    """e_j - e_i in Z^n, with the last coordinate dropped."""
    v = [0] * n
    v[j] += 1
    v[i] -= 1
    return tuple(v[:-1])


def projective_space(n: int) -> Graph:
    """CP^n: the coordinate lines, joined pairwise."""
    edges = tuple(
        (i, j, _root(n + 1, i, j)) for i, j in itertools.combinations(range(n + 1), 2)
    )
    vertices = tuple(f"L{i}" for i in range(n + 1))
    return Graph(f"CP{n}", n, vertices, edges, _betti(q_integer(n + 1)))


def grassmannian(k: int, n: int) -> Graph:
    """Gr(k, n): coordinate k-planes, joined when they differ by one swap."""
    subsets = list(itertools.combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for s in subsets:
        for i in s:
            for j in range(n):
                if j in s:
                    continue
                t = tuple(sorted((set(s) - {i}) | {j}))
                if index[s] < index[t]:
                    edges.append((index[s], index[t], _root(n, i, j)))
    vertices = tuple("S" + "".join(map(str, s)) for s in subsets)
    return Graph(f"Gr{k}_{n}", n - 1, vertices, tuple(edges),
                 _betti(gaussian_binomial(n, k)))


def flag_variety(n: int) -> Graph:
    """Fl(n): permutations, joined by right multiplication with a transposition."""
    perms = list(itertools.permutations(range(n)))
    index = {s: i for i, s in enumerate(perms)}
    edges = []
    for s in perms:
        for a, b in itertools.combinations(range(n), 2):
            t = list(s)
            t[a], t[b] = t[b], t[a]
            t = tuple(t)
            if index[s] < index[t]:
                edges.append((index[s], index[t], _root(n, s[a], s[b])))
    vertices = tuple("P" + "".join(map(str, s)) for s in perms)
    return Graph(f"Fl{n}", n - 1, vertices, tuple(edges), _betti(q_factorial(n)))


def golden(stem: str) -> Graph:
    """One of the repository's golden graph files, by file stem."""
    doc = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    names = tuple(doc["vertices"])
    index = {v: i for i, v in enumerate(names)}
    edges = tuple(
        (index[e["tail"]], index[e["head"]], tuple(e["weight"])) for e in doc["edges"]
    )
    betti = tuple((b["degree"], b["rank"]) for b in doc["betti"])
    return Graph(f"golden-{stem}", doc["torus_rank"], names, edges, betti)


def change_coordinates(g: Graph, matrix, name: str | None = None) -> Graph:
    """Transform every weight by a -> a @ matrix."""
    m = g.rank
    edges = tuple(
        (t, h, tuple(sum(w[i] * matrix[i][j] for i in range(m)) for j in range(m)))
        for t, h, w in g.edges
    )
    return replace(g, name=name or g.name, edges=edges)


def scaled(g: Graph, c: int) -> Graph:
    """The same space with every weight multiplied by c (a non-effective action)."""
    edges = tuple((t, h, tuple(c * a for a in w)) for t, h, w in g.edges)
    return replace(g, name=f"{g.name}x{c}", edges=edges, scale=g.scale * c)


INDEX3 = ((2, 1), (1, 2))  # (a, b) -> (2a + b, a + 2b): an index-3 sublattice

# a signed swap of the last two coordinates; the integer path stalls on CP^3
# with doubled weights in these coordinates, though not in the standard ones
SWAP23 = ((1, 0, 0), (0, 0, 1), (0, -1, 0))


GRAPHS = {
    "CP2": lambda: projective_space(2),
    "CP3": lambda: projective_space(3),
    "CP4": lambda: projective_space(4),
    "Gr2_4": lambda: grassmannian(2, 4),
    "Fl3": lambda: flag_variety(3),
    "Fl4": lambda: flag_variety(4),
    "golden-cp1": lambda: golden("cp1"),
    "golden-cp2": lambda: golden("cp2"),
    "golden-cp1xcp1": lambda: golden("cp1xcp1"),
    "CP2x2": lambda: scaled(projective_space(2), 2),
    "CP3x2": lambda: scaled(projective_space(3), 2),
    "CP2x3": lambda: scaled(projective_space(2), 3),
    "CP3x3": lambda: scaled(projective_space(3), 3),
    "Fl3-index3": lambda: change_coordinates(flag_variety(3), INDEX3, "Fl3-index3"),
    "CP3x2-swap": lambda: change_coordinates(scaled(projective_space(3), 2), SWAP23, "CP3x2-swap"),
}


def graph(name: str) -> Graph:
    return GRAPHS[name]()


# ---------------------------------------------------------------------------
# classes


def _chi(w) -> str:
    return "chi(" + ",".join(str(a) for a in w) + ")"


def point_class(g: Graph, v: int) -> tuple[int, list[str]]:
    """The class of the fixed point v: the product of chi(outgoing weight)
    at v and zero elsewhere.  It integrates to 1 in every theory."""
    exprs = ["0"] * len(g.vertices)
    exprs[v] = "*".join(_chi(w) for w in g.outgoing(v))
    return 2 * g.valence, exprs


def hyperplane_power(g: Graph) -> tuple[int, list[str]]:
    """H^n on CP^n, where H restricts to chi(x_0 - x_i) at the line i of
    character x_i, so that H^n integrates to 1 for every n.

    The generated CP^n joins vertex 0 to every i by an edge of weight
    x_i - x_0 with tail 0."""
    n = g.rank
    exprs = ["0"] * len(g.vertices)
    for t, h, w in g.edges:
        if t == 0:
            exprs[h] = f"{_chi(-a for a in w)}^{n}"
    return 2 * n, exprs


# ---------------------------------------------------------------------------
# seeded transforms; neither changes a solver rank, a divisor or an integral


def relabelled(g: Graph, perm: list[int]) -> Graph:
    """Move vertex i to position perm[i] (names travel with their vertex)."""
    names = [None] * len(g.vertices)
    for i, name in enumerate(g.vertices):
        names[perm[i]] = name
    edges = tuple((perm[t], perm[h], w) for t, h, w in g.edges)
    return replace(g, vertices=tuple(names), edges=edges)


def renamed(g: Graph, perm: list[int]) -> Graph:
    """Give vertex i the name of vertex perm[i], keeping every position."""
    return replace(g, vertices=tuple(g.vertices[perm[i]] for i in range(len(g.vertices))))


def random_permutation(rng: random.Random, k: int) -> list[int]:
    perm = list(range(k))
    rng.shuffle(perm)
    return perm


def permute_class(exprs: list[str], perm: list[int]) -> list[str]:
    out = [None] * len(exprs)
    for i, e in enumerate(exprs):
        out[perm[i]] = e
    return out
