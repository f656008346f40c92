"""Exact linear algebra: the solver's two eliminations and the integer
lattice answers for characters and torus subgroups.

Matrices are plain lists of rows.  Every vector the eliminations take or
return is sparse, {index: nonzero entry}, and every vector they return has
its keys in increasing order, the format the solver hands on to the printer.

Both eliminations run in two passes.  The forward pass lets rows wait under
their leading column and fixes one pivot per column in increasing order; it
never touches a row once it is a pivot row.  Both steps take the shortest
row as pivot (Markowitz's fill rule): over the integers among the rows with
the smallest leading entry, in each round of a Euclid loop; over the graded
fields' degree-0 parts, F_p and Q, among all, scaled to 1.  One final pass,
_back_reduce, then reduces the kept rows from the last pivot back, each only
against rows that are already final: over the integers into [0, pivot),
which gives the canonical row-Hermite form, and over a field by clearing,
which gives the reduced row-echelon form.  hermite_basis returns the first;
kernels, adapted coordinates and invariant factors are read off Hermite
forms of augmented or transposed matrices, and integer_kernel back-reduces
only the rows it keeps.  field_echelon and field_echelon_kernel are the two
passes that read the second, and the solver calls them apart, so that a rank
costs the forward pass alone.  Both normal forms are unique, so every answer
is independent of the elimination order and downstream golden outputs are
reproducible.  field_echelon takes its rows as they are: entries in [1, p)
over F_p, or any nonzero rationals over Q.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


Matrix = list


def vec_mat(v, a: Matrix):
    """Row vector times matrix."""
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def hermite_basis(rows: list[dict]) -> list[dict]:
    """Canonical row-Hermite basis of the lattice spanned by sparse rows
    {column: nonzero entry}; consumes them.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and rows are ordered by pivot column, each with its keys in increasing
    order.  A forward echelon pass with the Euclid step fixes the pivots,
    and one back-reduction then reduces every echelon row.
    """
    echelon = _echelon(rows, _euclid_step)
    _back_reduce(echelon)
    return [dict(sorted(echelon[j].items())) for j in sorted(echelon)]


def _echelon(rows: list[dict], step) -> dict[int, dict]:
    """Row echelon form of sparse rows, as {pivot column: pivot row} in
    increasing pivot column; consumes the rows.

    Rows wait under their leading column.  At each column, in increasing
    order, step(j, live) turns the rows led there into one pivot row and the
    rest, which have lost column j and move on to their new leading columns.
    Echelon rows never take part in a later step, so nothing above a pivot
    is touched here.
    """
    waiting: dict[int, list[dict]] = {}
    heads: list[int] = []  # the keys of waiting, as a heap

    def wait(batch):
        for r in batch:
            if r:
                j = min(r)
                if j in waiting:
                    waiting[j].append(r)
                else:
                    waiting[j] = [r]
                    heappush(heads, j)

    wait(rows)
    echelon = {}
    while heads:
        j = heappop(heads)
        echelon[j], moved = step(j, waiting.pop(j))
        wait(moved)
    return echelon


def _euclid_step(j: int, live: list[dict]) -> tuple[dict, list[dict]]:
    """The integer step: a Euclid loop on the rows led at column j leaves a
    single pivot row, made positive.  Each round reduces the others by the
    shortest row among those with the smallest entry at j."""
    moved = []
    while len(live) > 1:
        live.sort(key=lambda r: (abs(r[j]), len(r)))
        head, *rest = live
        live = [head]
        for r in rest:
            _subtract(r, head, r[j] // head[j])
            (live if j in r else moved).append(r)
    pivot = live[0]
    if pivot[j] < 0:
        for k in pivot:
            pivot[k] = -pivot[k]
    return pivot, moved


def _back_reduce(echelon: dict[int, dict], p: int | None = None) -> None:
    """The final pass, in place, on echelon rows {pivot column: row}: over
    the integers, or over F_p (over Q when p = 0), whose pivots are 1.

    From the last pivot back, each row is reduced left to right at the pivot
    columns it holds, against rows that are already final: over the
    integers into [0, pivot), over a field to zero.  Each final row records
    the pivot columns it kept.  Subtracting the row of pivot c changes
    entries right of c only and brings in none but those, so a heap of the
    row's pivot columns, fed them, visits every column it must and no other.
    Over a field a final row keeps none.
    """
    kept: dict[int, list[int]] = {}
    for j in sorted(echelon, reverse=True):
        row = echelon[j]
        todo = [c for c in row if c in kept]
        heapify(todo)
        kept[j] = held = []
        while todo:
            c = heappop(todo)
            if todo and todo[0] == c:
                continue  # c came back after it vanished: its last copy reduces it
            other = echelon[c]
            q = row.get(c, 0)
            if p is None:
                q //= other[c]
            if q:
                for k in kept[c]:
                    if k not in row:
                        heappush(todo, k)
                _subtract(row, other, q, p)
            if c in row:
                held.append(c)


def _subtract(row: dict, other: dict, q, p: int | None = 0) -> None:
    """row -= q * other on sparse rows, reduced mod p when p is nonzero,
    dropping entries that become zero."""
    for k, x in other.items():
        y = row.get(k, 0) - q * x
        if p:
            y %= p
        if y:
            row[k] = y
        else:
            del row[k]


def integer_kernel(rows: list[dict], cols: int, k: int | None = None) -> list[dict]:
    """Hermite basis of {x in Z^k : A @ (x, y) = 0 for some y}, the right
    kernel of A projected to its first k coordinates (all cols by default).

    Row j of [A^T | I] is (column j of A | e_j), with e_j only for j < k, so
    the rows span {(A @ (x, y), x)}, which meets {0} x Z^k in exactly the
    (0 | x) above.  Its echelon rows whose pivot lies past A^T are therefore
    that lattice's basis; each reduces only against rows of the same kind,
    so only these are back-reduced, and their x parts are the Hermite basis.
    """
    n, k = len(rows), cols if k is None else k
    aug = [{n + j: 1} if j < k else {} for j in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            aug[j][i] = x
    kept = {j: r for j, r in _echelon(aug, _euclid_step).items() if j >= n}
    _back_reduce(kept)
    return [{j - n: x for j, x in sorted(kept[j].items())} for j in sorted(kept)]


def field_echelon(rows: list[dict], p: int) -> dict[int, dict]:
    """The forward pass over F_p, or over Q when p = 0: the echelon form
    {pivot column: pivot row scaled to 1} of the rows, whose entries lie in
    [1, p), or are any nonzero rationals when p = 0, and whose non-pivot
    columns count the kernel; consumes the rows."""

    def step(j, live):  # the shortest row led at j, scaled to 1, is the pivot
        pivot, *rest = sorted(live, key=len)
        inv = pow(pivot[j], -1, p) if p else Fraction(1, pivot[j])
        for k in pivot:
            pivot[k] = pivot[k] * inv % p if p else pivot[k] * inv
        for r in rest:
            _subtract(r, pivot, r[j], p)
        return pivot, rest

    return _echelon(rows, step)


def field_echelon_kernel(echelon: dict[int, dict], columns, p: int) -> list[dict]:
    """The finish of field_echelon's pass: the right kernel's basis, on an
    echelon whose rows hold only the given increasing columns, which it
    back-reduces in place.

    There is one sparse basis vector per free (non-pivot) column f of the
    reduced row-echelon form R, in increasing f: -R[i][f] at the pivot
    column of each row i that has an entry at f, then 1 at f.  Only pivots
    left of f can have one, so the keys come out in increasing order.  R is
    unique, so the basis does not depend on the row order.
    """
    _back_reduce(echelon, p)
    vecs = {f: {} for f in columns if f not in echelon}
    for j, row in echelon.items():  # in increasing pivot column
        for f, x in row.items():
            if f != j:
                vecs[f][j] = p - x if p else -x
    for f, v in vecs.items():
        v[f] = 1
    return list(vecs.values())


def invariant_factors(rows: list[dict]) -> list[int]:
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix given
    by sparse rows {column: nonzero entry}.

    Row Hermite forms of the matrix and of its transpose alternate until each
    row holds a single nonzero entry; a gcd/lcm pass then turns that diagonal
    into the Smith diagonal.
    """
    rows = hermite_basis([dict(r) for r in rows])
    while any(len(r) > 1 for r in rows):
        cols: dict[int, dict] = {}
        for i, r in enumerate(rows):
            for j, x in r.items():
                cols.setdefault(j, {})[i] = x
        rows = hermite_basis(list(cols.values()))
    diag = [x for r in rows for x in r.values()]  # each row's one entry: its pivot
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def primitive_part(a) -> tuple[int, tuple[int, ...]]:
    """Write a = d * theta with d = gcd(entries) > 0 and theta primitive."""
    if not any(a):
        raise ValueError("the zero character has no primitive part")
    d = 0
    for x in a:
        d = gcd(d, x)
    return d, tuple(x // d for x in a)


def adapted_basis(theta) -> Matrix:
    """A unimodular B with theta @ B = (0, ..., 0, 1).

    Row i of [theta^T | I] is (theta_i | e_i).  Its Hermite form has first
    row (1 | x) with theta . x = 1, and its other rows (0 | k) are the
    Hermite basis of ker(theta), which also reduces x.  The columns of B are
    those k, then x.  Downstream results must not depend on this choice,
    only the tests do.
    """
    m = len(theta)
    if gcd(*theta) != 1:
        raise ValueError(f"character {tuple(theta)} is not primitive")
    rows = hermite_basis([{0: t, i + 1: 1} if t else {i + 1: 1} for i, t in enumerate(theta)])
    x, *kernel = [[r.get(i + 1, 0) for i in range(m)] for r in rows]
    cols = kernel + [x]
    b = [[cols[j][i] for j in range(m)] for i in range(m)]
    assert vec_mat(theta, b) == (0,) * (m - 1) + (1,)
    return b
