"""Seeded random instance generation.

Random stabilizer states are random graph states conjugated by random local
single-qudit Cliffords (graph states reach every stabilizer state up to local
Cliffords for prime and squarefree D). Random codes pair a random graph with
a random independent Z-type coding group. Everything is a pure function of
the seed via random.Random, so identical seeds give identical instances.
"""

from __future__ import annotations

import math
import random

from .clifford import (
    Gate,
    cnot,
    conjugate_rows,
    cphase,
    fourier,
    pauli_x,
    pauli_z,
    phase_w,
    smult,
)
from .errors import InvalidCode, NonPrimeD, ShapeMismatch
from .pauli import pauli_row
from .stabilizer import GraphAdjacency, StabilizerGroup, from_graph
from . import linalg
from .modring import factorize


def random_graph(d: int, n: int, rng: random.Random) -> GraphAdjacency:
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randrange(d)
    return GraphAdjacency(n, tuple(tuple(r) for r in w))


def _random_unit(d: int, rng: random.Random) -> int:
    while True:
        a = rng.randrange(1, d)
        if math.gcd(a, d) == 1:
            return a


def random_single_qudit_gates(d: int, qudits, rng: random.Random,
                              count: int) -> list[Gate]:
    gates: list[Gate] = []
    qudits = list(qudits)
    for _ in range(count):
        q = rng.choice(qudits)
        kind = rng.randrange(5)
        if kind == 0:
            gates.append(fourier(q))
        elif kind == 1:
            gates.append(smult(q, _random_unit(d, rng)))
        elif kind == 2:
            gates.append(phase_w(q))
        elif kind == 3:
            gates.append(pauli_x(q, rng.randrange(1, d)))
        else:
            gates.append(pauli_z(q, rng.randrange(1, d)))
    return gates


def random_part_gates(d: int, qudits, rng: random.Random,
                      count: int) -> list[Gate]:
    """Random gates confined to one part, two-qudit gates included."""
    gates: list[Gate] = []
    qudits = list(qudits)
    for _ in range(count):
        if len(qudits) >= 2 and rng.random() < 0.4:
            q, r = rng.sample(qudits, 2)
            if rng.random() < 0.5:
                gates.append(cphase(q, r, rng.randrange(1, d)))
            else:
                gates.append(cnot(q, r))
        else:
            gates.extend(random_single_qudit_gates(d, qudits, rng, 1))
    return gates


def scramble_group(group: StabilizerGroup, gates) -> StabilizerGroup:
    rows = conjugate_rows(gates, group.gens, group.d)
    return StabilizerGroup(group.d, group.n, tuple(rows))


def random_state(d: int, n: int, seed: int) -> StabilizerGroup:
    """Seed-deterministic random stabilizer state on n qudits."""
    factorize(d)  # raises InvalidDimension
    if n < 0:
        raise ShapeMismatch(f"n = {n} qudits is negative")
    rng = random.Random(seed)
    group = from_graph(random_graph(d, n, rng), d)
    gates = random_single_qudit_gates(d, range(n), rng, 3 * n)
    return scramble_group(group, gates)


def random_partition(n: int, parts: int, seed: int) -> list[list[int]]:
    """Seed-deterministic partition of range(n) into `parts` blocks."""
    rng = random.Random(seed)
    assignment = [rng.randrange(parts) for _ in range(n)]
    return [[q for q in range(n) if assignment[q] == p] for p in range(parts)]


def random_code(d: int, n: int, k: int, seed: int):
    """Seed-deterministic (graph, Z-type coding generators) for an [[n, k]]_D
    code at prime D. Returns (GraphAdjacency, list of coding generator
    rows)."""
    mod = factorize(d)
    if not mod.is_prime:
        raise NonPrimeD("random codes are generated at prime D")
    if n < 0:
        raise ShapeMismatch(f"n = {n} qudits is negative")
    if not 0 <= k <= n:
        raise InvalidCode(f"k = {k} outside 0..n = {n}")
    rng = random.Random(seed)
    graph = random_graph(d, n, rng)
    rows: list[list[int]] = []
    while len(rows) < k:
        z = [rng.randrange(d) for _ in range(n)]
        if any(z) and linalg.rank(rows + [z], d) == len(rows) + 1:
            rows.append(z)
    return graph, [pauli_row(n, d, z=dict(enumerate(z))) for z in rows]
