"""The elimination engine against an independent F_p reference.

`reference_rref` is a plain column-by-column Gauss-Jordan over F_p with row
swaps. `linalg.echelon` must agree with it on every projection mod p, under
any column order and at every prime factor of squarefree D, and its row
operations must be exact Pauli products, phases included.
"""

import math

from hypothesis import given, settings, strategies as st

from qstab import linalg
from qstab.modring import factorize, inv_mod
from qstab.pauli import (from_row, multiply, order, power, row_multiply,
                         row_power, to_row)
from qstab.randgen import random_state
from qstab.stabilizer import elements

D_SET = [2, 3, 5, 7, 11, 1009, 2**31 - 1, 6, 10, 15, 30]


def reference_rref(rows, p):
    """Reduced row echelon form over F_p: (rows, pivot columns), zero rows dropped."""
    mat = [[v % p for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = inv_mod(mat[r][c], p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


@st.composite
def pauli_rows(draw):
    d = draw(st.sampled_from(D_SET))
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 7))
    rows = [[draw(st.integers(0, 2 * d - 1))]
            + draw(st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n))
            for _ in range(k)]
    return d, n, rows, draw(some_columns(n))


@st.composite
def some_columns(draw, n):
    columns = draw(st.permutations(range(1, 2 * n + 1)))
    return columns[:draw(st.integers(0, 2 * n))]


@st.composite
def sparse_pauli_rows(draw):
    """Reduced rows that are mostly zero, as retired qudits and reduced heads
    leave them, with all-zero and gamma-only rows among them."""
    d = draw(st.sampled_from(D_SET))
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        row = [0] * (2 * n + 1)
        kind = draw(st.sampled_from(["sparse", "zero", "gamma"]))
        if kind != "zero":
            row[0] = draw(st.integers(kind == "gamma", 2 * d - 1))
        if kind == "sparse" and n:
            for c in draw(st.sets(st.integers(1, 2 * n), max_size=3)):
                row[c] = draw(st.integers(1, d - 1))
        rows.append(row)
    return d, n, rows, draw(some_columns(n))


any_rows = st.one_of(pauli_rows(), sparse_pauli_rows())


@settings(max_examples=300, deadline=None)
@given(any_rows)
def test_echelon_matches_reference_per_prime(case):
    d, n, rows, columns = case
    for p in factorize(d).primes:
        basis, pivots, rest = linalg.echelon(rows, columns, p, d)
        want, want_pivots = reference_rref(
            [[row[c] for c in columns] for row in rows], p)
        assert [[row[c] % p for c in columns] for row in basis] == want
        assert [columns.index(c) for c in pivots] == want_pivots
        assert len(basis) + len(rest) == len(rows)
        assert all(row[c] % p == 0 for row in rest for c in columns)


@settings(max_examples=300, deadline=None)
@given(any_rows)
def test_echelon_keeps_rows_reduced(case):
    d, n, rows, columns = case
    for p in factorize(d).primes:
        basis, _, rest = linalg.echelon(rows, columns, p, d)
        for row in basis + rest:
            assert 0 <= row[0] < 2 * d
            assert all(0 <= v < d for v in row[1:])


@settings(max_examples=300, deadline=None)
@given(any_rows, st.integers(-40, 40))
def test_row_operation_is_one_pauli_product(case, f):
    d, n, rows, _ = case
    for a in rows:
        for b in rows:
            assert linalg._times_power(a, b, f, d) == row_multiply(
                a, row_power(b, f, d), d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([d for d in D_SET if d <= 1009]), st.integers(1, 4),
       st.integers(0, 2**32 - 1),
       st.randoms(use_true_random=False))
def test_echelon_rows_are_exact_group_elements(d, n, seed, rng):
    """Basis rows are group elements and dependent rows leave the exact
    identity, phase included, under any column order."""
    n = max(1, min(n, int(math.log(400, d))))
    group = random_state(d, n, seed)
    members = set(elements(group))
    gens = [from_row(d, g) for g in group.gens]
    extra = []
    for _ in range(3):
        el = gens[0]
        for g in gens[1:]:
            el = multiply(el, power(g, rng.randrange(d)))
        extra.append(el)
    columns = list(range(1, 2 * n + 1))
    rng.shuffle(columns)
    for p in factorize(d).primes:
        sylow = []
        for g in gens + extra:
            if order(g) % p == 0:
                m = order(g) // p
                sylow.append(to_row(power(g, m * inv_mod(m % p, p))))
        basis, _, rest = linalg.echelon(sylow, columns, p, d)
        assert all(tuple(row) in members for row in basis)
        assert all(not any(row) for row in rest)


def test_rref_wrapper_plain_vectors():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rref(rows, 5) == reference_rref(rows, 5)
    assert linalg.rref([[0, 0], [3, 6]], 3) == ([], [])
    assert linalg.rref([], 7) == ([], [])
    assert linalg.rank([[1, 1, 0, 1]], 2) == 1
    assert linalg.nullspace([[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_echelon_on_no_rows_never_reads_the_columns():
    class Unread:
        def __iter__(self):
            raise AssertionError("echelon iterated the columns")

    assert linalg.echelon([], Unread(), 3, 3) == ([], [], [])
