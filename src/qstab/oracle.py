"""Brute-force dense ground truth: matrices, states, partial traces, channels.

Everything upstream is exact integer arithmetic; this module realizes the
operators as explicit complex matrices (X = sum_j |j><j+1|, Z = diag(omega^j),
lambda = exp(i pi / D)) and is used to cross-check the algebraic fast path at
desk scale. Tolerances live in two constants: ZERO_TOL for rank/nullity
decisions and EQ_TOL for entrywise equality.

States and isometries act with Pauli products by index arithmetic: one
_pauli_actions call builds the (idx, phase) actions of all of a group's
generators together, one broadcast per qudit, with the phases looked up in
the 2D powers of lambda. Brute-force information groups take, per input X
pattern, one stacked product of V against V^dag over the input index and one
product with the character table omega^{z.m}. None of it goes through
D^n x D^n matrices, the group enumeration or the exact-path Pauli algebra.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .clifford import Gate
from .errors import NotAState, NotRankOne, TooLarge
from .pauli import PauliProduct
from .stabilizer import StabilizerGroup

ZERO_TOL = 1e-9
EQ_TOL = 1e-10
DIMENSION_CAP = 4096
INFO_GROUP_CAP = 1024  # D^(n+k) cap: per X pattern a d_B x d_B x D^k array


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    if dim > DIMENSION_CAP:
        raise TooLarge(f"dense dimension {d}^{n} exceeds {DIMENSION_CAP}")
    return dim


def _lam(d: int) -> complex:
    return np.exp(1j * np.pi / d)


def _omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def x_matrix(d: int, a: int = 1) -> np.ndarray:
    return np.eye(d, dtype=complex)[(np.arange(d) + a) % d]


def z_matrix(d: int, b: int = 1) -> np.ndarray:
    return np.diag([_omega(d) ** ((j * b) % d) for j in range(d)])


def pauli_matrix(p: PauliProduct) -> np.ndarray:
    _check_cap(p.d, p.n)
    m = np.array([[_lam(p.d) ** p.gamma]])
    for x, z in zip(p.x, p.z):
        m = np.kron(m, x_matrix(p.d, x) @ z_matrix(p.d, z))
    return m


def fourier_matrix(d: int) -> np.ndarray:
    om = _omega(d)
    return np.array([[om ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)


def smult_matrix(d: int, alpha: int) -> np.ndarray:
    return np.eye(d, dtype=complex)[alpha * np.arange(d) % d]


def phase_w_matrix(d: int) -> np.ndarray:
    shift = 2 if d % 2 == 0 else 1
    return np.diag([_lam(d) ** (-j * (j + shift)) for j in range(d)])


def _digit_weights(d: int, n: int) -> np.ndarray:
    return d ** (n - 1 - np.arange(n))


def _digits(d: int, n: int) -> np.ndarray:
    idx = np.arange(d**n)
    return (idx[:, None] // _digit_weights(d, n)) % d


def gate_matrix(gate: Gate, d: int, n: int) -> np.ndarray:
    """Full n-qudit matrix of one elementary gate."""
    dim = _check_cap(d, n)
    if gate.name in ("F", "S", "W", "X", "Z"):
        q = gate.qudits[0]
        if gate.name == "F":
            local = fourier_matrix(d)
        elif gate.name == "S":
            local = smult_matrix(d, gate.param)
        elif gate.name == "W":
            local = phase_w_matrix(d)
        elif gate.name == "X":
            local = x_matrix(d, gate.param)
        else:
            local = z_matrix(d, gate.param)
        return np.kron(np.kron(np.eye(d**q), local), np.eye(d ** (n - 1 - q)))
    digs = _digits(d, n)
    q, r = gate.qudits
    if gate.name == "CP":
        return np.diag(_omega(d) ** ((gate.param * digs[:, q] * digs[:, r]) % d))
    if gate.name == "CNOT":
        # CNOT maps a_r to a_r - a_q, so row m is column m with a_r + a_q
        src_shift = (digs[:, r] + digs[:, q]) % d - digs[:, r]
        return np.eye(dim, dtype=complex)[np.arange(dim)
                                          + src_shift * _digit_weights(d, n)[r]]
    raise ValueError(f"unknown gate {gate.name!r}")


def clifford_matrix(d: int, n: int, gates) -> np.ndarray:
    """Replay a gate log as an explicit unitary (later gates act last)."""
    u = np.eye(_check_cap(d, n), dtype=complex)
    for g in gates:
        u = gate_matrix(g, d, n) @ u
    return u


def _outer_sum(tables, rows: tuple[int, ...] = ()) -> np.ndarray:
    """t[..., m] = sum_i tables[i][..., m_i] over big-endian multi-indices m,
    one sum per index of the leading axes `rows` (one broadcast per table)."""
    out = np.zeros(rows + (1,), dtype=int)
    for table in tables:
        out = out[..., :, None] + table[..., None, :]
        out = out.reshape(rows + (out.shape[-2] * out.shape[-1],))
    return out


def _pauli_actions(paulis, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, phase) per [gamma, x, z] row p, with p |m> = phase[m] |idx[m]>:
    X^x Z^z |m> = omega^{z.m} |m - x>, times lambda^gamma. Phases come from
    the 2D powers of lambda, or from exp when the entries are fewer; at n = 0,
    where the dense cap leaves D unbounded, no D-sized table is built."""
    rows = (len(paulis),)
    ket = np.arange(d if n else 1)
    table = np.array(paulis, dtype=int).reshape(rows + (2 * n + 1,))
    xs, zs = (table[:, cols].T[:, :, None]
              for cols in (slice(1, n + 1), slice(n + 1, None)))
    idx = _outer_sum((ket - xs) % d * _digit_weights(d, n)[:, None, None], rows)
    lam_exp = (table[:, :1] + 2 * _outer_sum(ket * zs % d, rows)) % (2 * d)
    if lam_exp.size > 2 * d:
        return idx, np.exp(1j * np.pi / d * np.arange(2 * d))[lam_exp]
    return idx, np.exp(1j * np.pi / d * lam_exp)


def _act(action: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """Apply an (idx, phase) action along the first axis of v."""
    idx, phase = action
    out = np.empty_like(v)
    out[idx] = phase.reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return out


def _orbit(action: tuple[np.ndarray, np.ndarray], v: np.ndarray, d: int):
    """v, g v, ..., g^{D-1} v for the action of g."""
    return itertools.accumulate(range(d - 1), lambda w, _: _act(action, w), initial=v)


def _orbit_sum(action: tuple[np.ndarray, np.ndarray], v: np.ndarray,
               d: int) -> np.ndarray:
    """sum_{k<D} g^k v by doubling, composing g^m by index arithmetic: with
    S(m) = sum_{k<m} g^k v, S(2m) = S(m) + g^m S(m) and S(m+1) = v + g S(m)."""
    total, (idx, phase), bits = v, action, bin(d)[3:]
    for i, bit in enumerate(bits, 1):
        total = total + _act((idx, phase), total)
        if bit == "1":
            total = v + _act(action, total)
        if i < len(bits):  # the power after the last bit goes unused
            idx, phase = idx[idx], phase[idx] * phase
            if bit == "1":
                idx, phase = action[0][idx], action[1][idx] * phase
    return total


def state_from_group(group: StabilizerGroup) -> np.ndarray:
    """Unit vector of the unique stabilizer state of a D^n-element group.

    A seeded random vector is projected through (1/D) sum_{k<D} g^k, the
    projector onto g's +1 eigenspace (g^order(g) = I and order(g) | D), for
    each generator g (summed by doubling); the product has rank D^n / |S| = 1.
    A vanishing projection or a generator that does not fix the normalized
    result means an inconsistent group.
    """
    if not group.is_state():
        raise NotAState(f"group size {group.size} != {group.d}^{group.n}")
    d, dim = group.d, _check_cap(group.d, group.n)
    seed = np.frombuffer(random.Random(0).randbytes(16 * dim), dtype=np.uint64)
    v = (seed / 2.0**64 - 0.5).view(complex)
    actions = list(zip(*_pauli_actions(group.gens, d, group.n)))
    for action in actions:
        v = _orbit_sum(action, v, d) / d
    norm = np.linalg.norm(v)
    if norm <= ZERO_TOL:
        raise NotRankOne("projection onto the group's fixed space vanished")
    v /= norm
    if any(np.max(np.abs(_act(a, v) - v)) > ZERO_TOL for a in actions):
        raise NotRankOne("projector product is not a rank-1 projector")
    return v


def _part_axes(v: np.ndarray, part, d: int, n: int) -> np.ndarray:
    """v with its n qudit axes grouped as (part, rest); later axes follow."""
    part = sorted(part)
    rest = [i for i in range(n) if i not in part]
    t = v.reshape([d] * n + list(v.shape[1:]))
    t = t.transpose(part + rest + list(range(n, t.ndim)))
    return t.reshape(d ** len(part), d ** len(rest), *v.shape[1:])


def reduced_density(v: np.ndarray, part, d: int, n: int) -> np.ndarray:
    """Partial trace of |v><v| keeping `part`."""
    m = _part_axes(v, part, d, n)
    return m @ m.conj().T


def schmidt_rank(v: np.ndarray, part, d: int, n: int) -> int:
    """Number of singular values above ZERO_TOL across the part|rest cut."""
    m = _part_axes(v, part, d, n)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > ZERO_TOL))


def density_rank(rho: np.ndarray) -> int:
    vals = np.linalg.eigvalsh(rho)
    return int(np.sum(vals > ZERO_TOL))


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    return float(abs(np.vdot(u, v)) ** 2)


def isometry_from_code(graph_group: StabilizerGroup, coding_gens) -> np.ndarray:
    """V = sum_i f_1^{i_1} ... f_k^{i_k} |G> <i|  as a D^n x D^k matrix."""
    d = graph_group.d
    n = graph_group.n
    k = len(coding_gens)
    _check_cap(d, n + k)
    # column (i_1 .. i_j) is f_j^{i_j} on column (i_1 .. i_{j-1}), i_j fastest
    v = state_from_group(graph_group)[:, None]
    for action in zip(*_pauli_actions(coding_gens, d, n)):
        v = np.stack(list(_orbit(action, v, d)), axis=2).reshape(d**n, -1)
    return v


def apply_channel(v_iso: np.ndarray, keep, d: int, n: int,
                  rho_in: np.ndarray) -> np.ndarray:
    """E(rho) = Tr_complement{ V rho V^dag } on the kept output qudits."""
    big = v_iso @ rho_in @ v_iso.conj().T
    keep = sorted(keep)
    rest = [i for i in range(n) if i not in keep]
    t = big.reshape([d] * (2 * n))
    perm = keep + rest + [n + i for i in keep] + [n + i for i in rest]
    t = t.transpose(perm)
    dk = d ** len(keep)
    dr = d ** len(rest)
    t = t.reshape(dk, dr, dk, dr)
    return np.einsum("arbr->ab", t)


def pauli_transmitted(v_iso: np.ndarray, keep, d: int, n: int,
                      p: PauliProduct) -> bool:
    """Whether the channel image of the input Pauli p is nonzero."""
    out = apply_channel(v_iso, keep, d, n, pauli_matrix(p))
    return bool(np.max(np.abs(out)) > ZERO_TOL)


def brute_force_info_group(v_iso: np.ndarray, keep, d: int, n: int,
                           k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (x, z) exponent patterns on the k inputs with nonzero channel image.

    The image of X^x Z^z is Tr_rest(V X^x Z^z V^dag) = sum_m omega^{z.m}
    M_x[m] with M_x[m] = V_{m - x} V_m^dag, V_m[a, r] = V[a, r, m]: per x,
    one stacked product over m and one product with the character table.
    The patterns come in itertools.product order, x outer and z inner.
    """
    t = np.ascontiguousarray(np.moveaxis(_part_axes(v_iso, keep, d, n), 2, 0))
    t_dag = t.conj().transpose(0, 2, 1)
    digits, weights = _digits(d, k), _digit_weights(d, k)
    patterns = list(itertools.product(range(d), repeat=k))
    # chars[z, m] = omega^{z.m}, so chars times the stack is every image
    chars = np.exp(2j * np.pi / d * (digits @ digits.T % d))
    out = []
    for xs, x_digits in zip(patterns, digits):
        shifted = (digits - x_digits) % d @ weights
        m_x = np.matmul(t[shifted], t_dag).reshape(len(patterns), -1)
        live = np.max(np.abs(chars @ m_x), axis=1) > ZERO_TOL
        out += [(xs, zs) for zs, on in zip(patterns, live) if on]
    return out


def crt_embedded_state(v: np.ndarray, d: int, n: int, primes) -> np.ndarray:
    """Apply the per-qudit CRT basis map a -> (a mod p_1, ..., a mod p_m) to
    each qudit, then reorder axes factor-major so the result is directly
    comparable with the tensor product of the factor states."""
    primes = list(primes)
    m = len(primes)
    fweights = np.cumprod([1] + primes[:0:-1])[::-1]
    block = int(np.prod(primes))
    local = sum(np.arange(d) % p * w for p, w in zip(primes, fweights))
    out = np.zeros(block**n, dtype=complex)
    out[_outer_sum(local * w for w in _digit_weights(block, n))] = v
    perm = [q * m + f for f in range(m) for q in range(n)]
    return out.reshape(primes * n).transpose(perm).reshape(-1)


def kron_states(states) -> np.ndarray:
    return functools.reduce(np.kron, states, np.array([1.0 + 0j]))


def pauli_order_dense(p: PauliProduct) -> int:
    """Order by repeated dense multiplication (independent of the formula)."""
    m = pauli_matrix(p)
    acc = m.copy()
    for a in range(1, p.d + 1):
        offdiag = acc - np.diag(np.diag(acc))
        if np.max(np.abs(offdiag)) < ZERO_TOL:
            diag = np.diag(acc)
            if np.max(np.abs(diag - diag[0])) < ZERO_TOL:
                return a
        acc = acc @ m
    raise NotRankOne("no power up to D proportional to identity")


def matrices_equal(a: np.ndarray, b: np.ndarray, tol: float = EQ_TOL) -> bool:
    return bool(np.max(np.abs(a - b)) <= tol)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                             tol: float = ZERO_TOL) -> bool:
    return fidelity(a, b) >= 1.0 - tol
