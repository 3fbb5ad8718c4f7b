"""The one elimination engine: echelon forms of [gamma, x, z] rows over F_p.

A row [gamma, x_1 .. x_n, z_1 .. z_n] is a Pauli product as the package
holds it. `echelon` eliminates rows under a caller-given column order, and
each row operation is one exact Pauli product row * head^f, so phases ride
along. A row operation touches only the head's nonzero columns (retired
qudits and the other pivots are zero there) and copies the rest unreduced,
so rows must come reduced: gamma mod 2D, exponents mod D. Pivots are chosen
mod a prime p while the arithmetic stays exact mod D; for squarefree D
callers run it per prime factor. Plain F_p matrices use the same engine
through `rref`: a vector v goes in as the row [0, *v] (padded to odd
length), and its meaningless phase slot is ignored.
"""

from __future__ import annotations

from itertools import compress

from .modring import inv_mod


def _times_power(row: list[int], head: list[int], f: int, d: int) -> list[int]:
    """row * head^f, equal to row_multiply(row, row_power(head, f)).

    One pass over the head's nonzero exponent columns updates those entries
    mod D and sums the phase terms head x.z and row z.head x; the rest of
    `row` is copied, so it must come reduced.
    """
    n = len(row) // 2
    out = row[:]
    xz = zx = 0
    for c in compress(range(1, 2 * n + 1), head[1:]):
        v = head[c]
        out[c] = (row[c] + f * v) % d
        if c <= n:
            xz += v * head[c + n]
            zx += v * row[c + n]
    out[0] = (row[0] + f * (head[0] - (f - 1) * xz - 2 * zx)) % (2 * d)
    return out


def echelon(rows: list[list[int]], columns, p: int,
            d: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Reduced echelon form of `rows` mod p on `columns`, in that order.

    Rows come reduced (gamma mod 2D, exponents mod D) as the package holds
    them, and are taken in order as an incremental basis, so the basis spans
    the earliest rows independent mod p on `columns`. Returns (basis, pivots,
    rest): basis rows sorted by pivot position in `columns`, each with its
    pivot entry 1 mod p and every other pivot entry 0 mod p; `rest` holds the
    other rows, reduced to 0 mod p on `columns`.
    """
    basis: list[tuple[int, list[int]]] = []
    rest: list[list[int]] = []
    for row in rows:
        for c, head in basis:
            f = row[c] % p
            if f:
                row = _times_power(row, head, -f, d)
        c = next((c for c in columns if row[c] % p), None)
        if c is None:
            rest.append(row)
            continue
        inv = inv_mod(row[c] % p, p)
        head = row if inv == 1 else _times_power([0] * len(row), row, inv, d)
        for i, (ci, other) in enumerate(basis):
            f = other[c] % p
            if f:
                basis[i] = (ci, _times_power(other, head, -f, d))
        basis.append((c, head))
    if len(basis) > 1:
        position = {c: i for i, c in enumerate(columns)}
        basis.sort(key=lambda entry: position[entry[0]])
    return [row for _, row in basis], [c for c, _ in basis], rest


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p.

    Returns (rref_rows, pivot_columns); zero rows are dropped. The RREF of a
    row space is unique, which downstream code relies on for canonical forms.
    """
    width = len(rows[0]) if rows else 0
    pad = [0] * (width % 2)
    basis, pivots, _ = echelon([[0, *(v % p for v in row), *pad] for row in rows],
                               range(1, width + 1), p, p)
    return [row[1:width + 1] for row in basis], [c - 1 for c in pivots]


def rank(rows: list[list[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {c in F_p^ncols : M c = 0} for M = rows."""
    reduced, pivots = rref(rows, p)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[int]] = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-reduced[r][f]) % p
        basis.append(v)
    return basis
