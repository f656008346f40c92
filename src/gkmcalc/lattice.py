"""Exact linear algebra: the solver's two eliminations and the integer
lattice answers for characters and torus subgroups.

Matrices are plain lists of rows.  Every vector the eliminations take or
return is sparse, {index: nonzero entry}, and every vector they return has
its keys in increasing order, the format the solver hands on to the printer.
Over the integers, hermite_basis puts the lattice spanned by some rows into
its canonical row-Hermite form, and kernels, adapted coordinates and
invariant factors are all read off Hermite forms of augmented or transposed
matrices.  Over the graded fields' degree-0 parts, F_p and Q, field_kernel
reads the kernel off the reduced row-echelon form.  Both normal forms are
unique, so every answer is independent of the elimination order and
downstream golden outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
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
    order.

    Rows wait under their leading column.  At each column, in increasing
    order, a Euclid loop on the rows led there leaves a single pivot row, and
    the others move on to their new leading columns.  As soon as the pivot is
    fixed, the entries above it in the earlier basis rows are reduced into
    [0, pivot), as in Kannan and Bachem's algorithm, so basis entries stay
    below their pivots instead of growing through later steps.
    """
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
                _subtract(r, head, r[j] // head[j])
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
                _subtract(b, pivot, q)
        basis.append(pivot)
    return [dict(sorted(b.items())) for b in basis]


def _subtract(row: dict, other: dict, q, p: int = 0) -> None:
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


def integer_kernel(rows: list[dict], cols: int) -> list[dict]:
    """Hermite basis of the right kernel {x in Z^cols : A @ x = 0}, where A is
    given by sparse rows {column: nonzero entry}.

    Row j of [A^T | I] is (column j of A | e_j).  The rows of its Hermite form
    whose A^T part is zero are (0 | k) with A @ k = 0; they span the kernel,
    and their k parts are already its Hermite basis.
    """
    n = len(rows)
    aug = [{n + j: 1} for j in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            aug[j][i] = x
    return [{j - n: x for j, x in r.items()} for r in hermite_basis(aug) if min(r) >= n]


def field_kernel(rows: list[dict], cols: int, p: int) -> list[dict]:
    """Basis of the right kernel {x : A @ x = 0} over F_p, or over Q when
    p = 0, where A is given by sparse rows {column: entry}.

    There is one sparse basis vector per free (non-pivot) column f of the
    reduced row-echelon form R, in increasing f: -R[i][f] at the pivot
    column of each row i that has an entry at f, then 1 at f.  Only pivots
    left of f can have one, so the keys come out in increasing order.  R is
    unique, so the basis does not depend on the row order.
    """
    scalar = (lambda x: x % p) if p else Fraction
    echelon = _reduced_echelon(
        [{j: y for j, x in r.items() if (y := scalar(x))} for r in rows], p
    )
    vecs = {f: {} for f in range(cols) if f not in echelon}
    for j, row in echelon.items():  # in increasing pivot column
        for f, x in row.items():
            if f != j:
                vecs[f][j] = p - x if p else -x
    for f, v in vecs.items():
        v[f] = 1
    return list(vecs.values())


def _reduced_echelon(rows: list[dict], p: int) -> dict[int, dict]:
    """Reduced row-echelon form of sparse rows over F_p (over Q when p = 0),
    as {pivot column: row with pivot entry 1} in increasing pivot column;
    consumes the rows.

    Rows wait under their leading column, as in hermite_basis.  At each
    column the shortest row led there becomes the pivot row, and the others
    lose that column and move on.  A last pass clears the entries above the
    pivots, from the last pivot back, so each row is reduced only against
    rows that are already final.
    """
    waiting: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            waiting.setdefault(min(r), []).append(r)
    echelon = {}
    while waiting:
        j = min(waiting)
        pivot, *rest = sorted(waiting.pop(j), key=len)
        inv = pow(pivot[j], -1, p) if p else 1 / pivot[j]
        for k in pivot:
            pivot[k] = pivot[k] * inv % p if p else pivot[k] * inv
        for r in rest:
            _subtract(r, pivot, r[j], p)
            if r:
                waiting.setdefault(min(r), []).append(r)
        echelon[j] = pivot
    for j in sorted(echelon, reverse=True):
        row = echelon[j]
        for c in [c for c in row if c != j and c in echelon]:
            _subtract(row, echelon[c], row[c], p)
    return echelon


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
