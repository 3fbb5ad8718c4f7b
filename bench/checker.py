"""Independent output checker for qstab reports.

Nothing here imports qstab: the checker parses the QSTAB1 text files itself
and does its own elimination over F_p, so a fault in `qstab.formats`,
`qstab.linalg` or `qstab.stabilizer` cannot hide behind the check.

The counts follow from ranks of local subgroups, the identities behind GHZ
extraction (Bravyi, Fattal, Gottesman, J. Math. Phys. 47, 062106 (2006)).
For a state with exponent row space V over F_p on n qudits, S_X is the
subspace of V that vanishes off the parts X, and

    m_A   = dim S_A                     (likewise m_B, m_C)
    m_ABC = n - dim(S_AB + S_AC + S_BC)
    m_AB  = (dim S_AB - m_A - m_B - m_ABC) / 2   (likewise m_AC, m_BC)

and, for a bipartition, m_AB = (n - m_A - m_B) / 2.

Gate lists are replayed phase-free on exponent vectors with the rules of
the gate alphabet (F, S, W, X, Z, CP, CNOT); the replayed input must span
the same space as the EPR/GHZ/single generators at the reported qudits.
Phases are out of scope: the program's own exactness check and, at desk
scale, its dense oracle cover them.

Every check raises CheckFailed with a message naming what mismatched.
"""

from __future__ import annotations

import math

_COUNT_KEYS = ("m_A", "m_B", "m_C", "m_AB", "m_AC", "m_BC", "m_ABC")
_CHANNEL_KEYS = ("m_ABC", "m_AB", "m_AC", "m_BC", "m_B", "m_C")


class CheckFailed(Exception):
    """An emitted report disagrees with the independent computation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ------------------------------------------------------------- arithmetic

def prime_factors(d: int) -> list[int]:
    out, p, rest = [], 2, d
    while p * p <= rest:
        if rest % p == 0:
            out.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out.append(rest)
    return out


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; zero rows dropped."""
    mat = [[v % p for v in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        row = [(v * inv) % p for v in mat[r]]
        mat[r] = row
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], row)]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(rows: list[list[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def residual(basis: list[list[int]], pivots: list[int], vec: list[int],
             p: int) -> list[int]:
    """vec reduced against an RREF basis; zero iff vec is in its span."""
    v = [a % p for a in vec]
    for row, c in zip(basis, pivots):
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def _qudit_cols(qudits, n: int) -> list[int]:
    return [q for q in qudits] + [n + q for q in qudits]


def local_basis(rows: list[list[int]], on_qudits, n: int,
                p: int) -> list[list[int]]:
    """Basis of the part of span(rows) that vanishes off `on_qudits`.

    Eliminating the off-part columns first leaves, below them, exactly the
    rows that are zero on every off-part column.
    """
    on = set(on_qudits)
    off_cols = _qudit_cols([q for q in range(n) if q not in on], n)
    on_cols = _qudit_cols(sorted(on), n)
    order = off_cols + on_cols
    permuted = [[r[c] for c in order] for r in rows]
    reduced, pivots = rref(permuted, p)
    out = []
    for row, c in zip(reduced, pivots):
        if c >= len(off_cols):
            full = [0] * (2 * n)
            for pos, col in enumerate(order):
                full[col] = row[pos]
            out.append(full)
    return out


def expected_counts(rows: list[list[int]], parts, n: int,
                    p: int) -> dict[str, int]:
    """The seven normal-form counts of a state's exponent rows over F_p."""
    _require(rank(rows, p) == n, f"input is not a state mod {p}")
    if len(parts) == 2:
        a, b = parts
        m_a = len(local_basis(rows, a, n, p))
        m_b = len(local_basis(rows, b, n, p))
        twice = n - m_a - m_b
        _require(twice % 2 == 0 and twice >= 0, "odd EPR count")
        return {"m_A": m_a, "m_B": m_b, "m_C": 0, "m_AB": twice // 2,
                "m_AC": 0, "m_BC": 0, "m_ABC": 0}
    a, b, c = parts
    single = {key: len(local_basis(rows, q, n, p))
              for key, q in (("m_A", a), ("m_B", b), ("m_C", c))}
    pair_bases = {key: local_basis(rows, list(x) + list(y), n, p)
                  for key, x, y in (("AB", a, b), ("AC", a, c), ("BC", b, c))}
    union = [r for basis in pair_bases.values() for r in basis]
    m_abc = n - rank(union, p) if union else n
    out = dict(single)
    out["m_ABC"] = m_abc
    for key, (s1, s2) in (("AB", ("m_A", "m_B")), ("AC", ("m_A", "m_C")),
                          ("BC", ("m_B", "m_C"))):
        twice = len(pair_bases[key]) - single[s1] - single[s2] - m_abc
        _require(twice % 2 == 0 and twice >= 0, f"odd m_{key}")
        out[f"m_{key}"] = twice // 2
    return out


# ---------------------------------------------------------------- parsing

def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _header(lines: list[str], kind: str) -> list[str]:
    _require(bool(lines) and lines[0].split() == ["QSTAB1", kind],
             f"missing 'QSTAB1 {kind}' header")
    return lines[1:]


def _keyed_ints(line: str, keys: tuple[str, ...]) -> list[int]:
    toks = line.split()
    _require(tuple(toks[::2]) == keys and len(toks) == 2 * len(keys),
             f"expected {' '.join(keys)} header, got {line!r}")
    return [int(t) for t in toks[1::2]]


def _pauli_row(line: str, n: int) -> list[int]:
    """Exponents x1..xn z1..zn of a `g | x.. | z..` line (phase dropped)."""
    fields = line.split("|")
    _require(len(fields) == 3, f"bad Pauli line {line!r}")
    x = [int(t) for t in fields[1].split()]
    z = [int(t) for t in fields[2].split()]
    _require(len(x) == n and len(z) == n, f"Pauli line of wrong length {line!r}")
    return x + z


def parse_stabilizer(text: str) -> tuple[int, int, list[list[int]]]:
    lines = _header(_lines(text), "stabilizer")
    d, n, k = _keyed_ints(lines[0], ("D", "n", "gens"))
    _require(len(lines) == 1 + k, "generator count differs from header")
    return d, n, [_pauli_row(ln, n) for ln in lines[1:]]


def parse_code(text: str) -> tuple[int, int, int, list[list[int]],
                                   list[list[int]]]:
    """(D, n, k, symmetric weight matrix, coding Z-exponent rows)."""
    lines = _header(_lines(text), "code")
    d, n, k = _keyed_ints(lines[0], ("D", "n", "k"))
    at = lines.index("CODING")
    w = [[0] * n for _ in range(n)]
    for ln in lines[1:at]:
        i, j, wt = (int(t) for t in ln.split())
        w[i - 1][j - 1] = w[j - 1][i - 1] = wt
    coding = []
    for ln in lines[at + 1:]:
        row = _pauli_row(ln, n)
        _require(not any(row[:n]), "coding generator has X part")
        coding.append(row[n:])
    _require(len(coding) == k, "coding generator count differs from k")
    return d, n, k, w, coding


def _parse_gate(line: str) -> tuple[str, tuple[int, ...], int]:
    toks = line.split()
    name, args = toks[0], [int(t) for t in toks[1:]]
    arity = {"F": (1, 0), "W": (1, 0), "S": (1, 1), "X": (1, 1), "Z": (1, 1),
             "CP": (2, 1), "CNOT": (2, 0)}
    _require(name in arity, f"unknown gate {line!r}")
    nq, npar = arity[name]
    _require(len(args) == nq + npar, f"bad gate arity {line!r}")
    return name, tuple(q - 1 for q in args[:nq]), (args[nq] if npar else 0)


class _Lines:
    def __init__(self, lines: list[str]):
        self.lines, self.pos = lines, 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, tag: str | None = None) -> list[str]:
        _require(self.pos < len(self.lines), "report ends early")
        toks = self.lines[self.pos].split()
        self.pos += 1
        if tag is not None:
            _require(toks[0] == tag, f"expected {tag!r}, got {toks[0]!r}")
        return toks


def _parse_nf_body(cur: _Lines) -> dict:
    counts = {}
    for key in _COUNT_KEYS:
        toks = cur.take(key)
        counts[key] = int(toks[1])
    gate_lists = []
    while (cur.peek() or "").startswith("tableau "):
        toks = cur.take("tableau")
        _require(int(toks[1]) == len(gate_lists) + 1, "tableau out of order")
        gate_lists.append([_parse_gate(" ".join(cur.take()))
                           for _ in range(int(toks[3]))])
    singles = [tuple(int(t) - 1 for t in cur.take("single")[1:])
               for _ in range(int(cur.take("singles")[1]))]
    pairs = [tuple(int(t) - 1 for t in cur.take("pair")[1:])
             for _ in range(int(cur.take("pairs")[1]))]
    triples = [tuple(int(t) - 1 for t in cur.take("triple")[1:])
               for _ in range(int(cur.take("triples")[1]))]
    return {"counts": counts, "gates": gate_lists, "singles": singles,
            "pairs": pairs, "triples": triples}


def parse_normal_form(text: str) -> dict:
    cur = _Lines(_header(_lines(text), "normalform"))
    d, n = _keyed_ints(" ".join(cur.take()), ("D", "n"))
    parts = []
    for i in range(int(cur.take("parts")[1])):
        toks = cur.take("part")
        _require(int(toks[1]) == i + 1, "parts out of order")
        body = toks[2] if len(toks) > 2 else "-"
        parts.append([] if body == "-" else [int(q) - 1 for q in body.split(",")])
    derived = cur.peek() == "composite-min true"
    if derived:
        cur.take()
    top = _parse_nf_body(cur)
    factors = []
    while (cur.peek() or "").startswith("factor "):
        p = int(cur.take("factor")[1])
        factors.append((p, _parse_nf_body(cur)))
        cur.take("end-factor")
    _require(cur.peek() is None, f"trailing content {cur.peek()!r}")
    return {"d": d, "n": n, "parts": parts, "derived": derived, "top": top,
            "factors": factors}


def parse_channel_report(text: str) -> dict:
    cur = _Lines(_header(_lines(text), "channel"))
    d, n, k = _keyed_ints(" ".join(cur.take()), ("D", "n", "k"))
    sides = {}
    for tag in ("B", "C"):
        body = cur.take(tag)[1]
        sides[tag] = [] if body == "-" else [int(q) - 1 for q in body.split(",")]
    counts = {key: int(cur.take(key)[1]) for key in _CHANNEL_KEYS}
    capacities = {}
    for tag in ("Q_B", "C_B", "Q_C", "C_C"):
        toks = cur.take(tag)
        _require(toks[1] in ("=", ">=") and toks[3:] == ["(log2", "units)"],
                 f"bad capacity line for {tag}")
        capacities[tag] = float(toks[2])
    info = {}
    for tag in ("info_B", "info_C"):
        info[tag] = [_pauli_row(" ".join(cur.take()), k)
                     for _ in range(int(cur.take(tag)[1]))]
    gates = [_parse_gate(" ".join(cur.take()))
             for _ in range(int(cur.take("input-gates")[1]))]
    _require(cur.peek() is None, f"trailing content {cur.peek()!r}")
    return {"d": d, "n": n, "k": k, "B": sides["B"], "C": sides["C"],
            "counts": counts, "capacities": capacities, "info": info,
            "gates": gates}


# ----------------------------------------------------------------- replay

def replay(rows: list[list[int]], gates, n: int, p: int) -> list[list[int]]:
    """Phase-free image of exponent rows under conjugation by the gates."""
    out = [list(r) for r in rows]
    for name, qs, param in gates:
        q = qs[0]
        for v in out:
            if name == "F":
                v[q], v[n + q] = v[n + q], (-v[q]) % p
            elif name == "S":
                v[q] = (v[q] * pow(param, -1, p)) % p
                v[n + q] = (v[n + q] * param) % p
            elif name == "W":
                v[n + q] = (v[n + q] + v[q]) % p
            elif name == "CP":
                r = qs[1]
                v[n + q], v[n + r] = ((v[n + q] - param * v[r]) % p,
                                      (v[n + r] - param * v[q]) % p)
            elif name == "CNOT":
                r = qs[1]
                v[n + q] = (v[n + q] + v[n + r]) % p
                v[r] = (v[r] - v[q]) % p
    return out


def _unit_vec(n: int, entries: dict[int, int], p: int) -> list[int]:
    v = [0] * (2 * n)
    for col, val in entries.items():
        v[col] = val % p
    return v


def target_rows(body: dict, n: int, p: int) -> list[list[int]]:
    """Generators of the reported normal form on the reported qudits."""
    rows = [_unit_vec(n, {q: 1}, p) for q, _ in body["singles"]]
    for _, _, qx, qy in body["pairs"]:
        rows.append(_unit_vec(n, {qx: 1, qy: 1}, p))
        rows.append(_unit_vec(n, {n + qx: 1, n + qy: -1}, p))
    for qa, qb, qc in body["triples"]:
        rows.append(_unit_vec(n, {qa: 1, qb: 1, qc: 1}, p))
        rows.append(_unit_vec(n, {n + qa: 1, n + qb: -1}, p))
        rows.append(_unit_vec(n, {n + qa: 1, n + qc: -1}, p))
    return rows


def solve_scale(x_rows: list[list[int]], z_rows: list[list[int]],
                target: list[list[int]], p: int) -> int | None:
    """A unit c with span{x_i + c z_i} = span(target), or None.

    Both sides have dimension len(x_rows) when c exists, so containment of
    every x_i + c z_i in span(target) plus equal ranks decides equality.
    """
    basis, pivots = rref(target, p)
    c = None
    res = [(residual(basis, pivots, xr, p), residual(basis, pivots, zr, p))
           for xr, zr in zip(x_rows, z_rows)]
    for rx, rz in res:
        j = next((i for i, v in enumerate(rz) if v), None)
        if j is not None:
            c = (-rx[j] * pow(rz[j], -1, p)) % p
            break
    if c is None:
        c = 1
    if c == 0:
        return None
    if any(any((a + c * b) % p for a, b in zip(rx, rz)) for rx, rz in res):
        return None
    combined = [[(a + c * b) % p for a, b in zip(xr, zr)]
                for xr, zr in zip(x_rows, z_rows)]
    if rank(combined, p) != len(basis):
        return None
    return c


def _split_xz(rows: list[list[int]], n: int, p: int):
    xs = [[v % p for v in r[:n]] + [0] * n for r in rows]
    zs = [[0] * n + [v % p for v in r[n:]] for r in rows]
    return xs, zs


# ----------------------------------------------------------- normal forms

def _check_assignment(body: dict, parts, n: int, where: str) -> None:
    owner = {q: i for i, part in enumerate(parts) for q in part}
    used: list[int] = []
    counts = body["counts"]
    tally = dict.fromkeys(_COUNT_KEYS, 0)
    letters = "ABC"
    for q, pi in body["singles"]:
        _require(owner.get(q) == pi, f"{where}: single {q + 1} not in part {pi + 1}")
        tally[f"m_{letters[pi]}"] += 1
        used.append(q)
    for pi, pj, qx, qy in body["pairs"]:
        _require(pi < pj and owner.get(qx) == pi and owner.get(qy) == pj,
                 f"{where}: pair {qx + 1},{qy + 1} not across parts {pi + 1},{pj + 1}")
        tally[f"m_{letters[pi]}{letters[pj]}"] += 1
        used.extend((qx, qy))
    for qa, qb, qc in body["triples"]:
        _require((owner.get(qa), owner.get(qb), owner.get(qc)) == (0, 1, 2),
                 f"{where}: triple {qa + 1},{qb + 1},{qc + 1} not across A,B,C")
        tally["m_ABC"] += 1
        used.extend((qa, qb, qc))
    _require(sorted(used) == list(range(n)),
             f"{where}: assignment does not use every qudit exactly once")
    _require(tally == counts, f"{where}: assignment table disagrees with counts")


def _check_nf_body(body: dict, rows: list[list[int]], parts, n: int, p: int,
                   scaled: bool, where: str) -> None:
    want = expected_counts(rows, parts, n, p)
    for key in _COUNT_KEYS:
        _require(body["counts"][key] == want[key],
                 f"{where}: {key} = {body['counts'][key]}, expected {want[key]}")
    _check_assignment(body, parts, n, where)
    _require(len(body["gates"]) == len(parts),
             f"{where}: {len(body['gates'])} gate lists for {len(parts)} parts")
    for i, (gates, part) in enumerate(zip(body["gates"], parts)):
        allowed = set(part)
        for name, qs, _ in gates:
            _require(set(qs) <= allowed,
                     f"{where}: gate {name} on {[q + 1 for q in qs]} "
                     f"escapes part {i + 1}")
    all_gates = [g for gates in body["gates"] for g in gates]
    xs, zs = _split_xz(rows, n, p)
    if not scaled:
        xs = replay([[(a + b) % p for a, b in zip(x, z)] for x, z in zip(xs, zs)],
                    all_gates, n, p)
        zs = [[0] * (2 * n) for _ in xs]
    else:
        xs = replay(xs, all_gates, n, p)
        zs = replay(zs, all_gates, n, p)
    _require(solve_scale(xs, zs, target_rows(body, n, p), p) is not None,
             f"{where}: replayed gates do not reach the reported normal form")


def check_normal_form(state_text: str, report_text: str, parts) -> None:
    """A canonicalize report against its input state and requested parts."""
    d, n, rows = parse_stabilizer(state_text)
    rep = parse_normal_form(report_text)
    _require((rep["d"], rep["n"]) == (d, n), "report shape differs from input")
    _require(rep["parts"] == [sorted(p) for p in parts],
             "report parts differ from the request")
    primes = prime_factors(d)
    if len(primes) == 1:
        _require(not rep["factors"] and not rep["derived"],
                 "prime-D report carries factor blocks")
        _check_nf_body(rep["top"], rows, rep["parts"], n, d, False, "report")
        return
    _require(rep["derived"], "composite report lacks 'composite-min true'")
    _require([p for p, _ in rep["factors"]] == primes,
             f"factor blocks {[p for p, _ in rep['factors']]} != primes {primes}")
    for p, body in rep["factors"]:
        _check_nf_body(body, rows, rep["parts"], n, p, True, f"factor {p}")
    for key in _COUNT_KEYS:
        low = min(body["counts"][key] for _, body in rep["factors"])
        _require(rep["top"]["counts"][key] == low,
                 f"top-level {key} is not the minimum over factors")
    _require(not any(rep["top"][k] for k in ("gates", "singles", "pairs", "triples")),
             "composite top level carries gates or assignments")


def count_gate_lists(report_text: str) -> tuple[int, int]:
    """(gate lines, gate lists) emitted in a normal-form or channel report."""
    gates = lists = 0
    for ln in _lines(report_text):
        toks = ln.split()
        if toks[0] in ("tableau", "input-gates"):
            lists += 1
            gates += int(toks[-1])
    return gates, lists


# -------------------------------------------------------------------- CRT

def check_crt_factors(state_text: str, factor_texts: dict[int, str]) -> None:
    """Each factor file spans the input mod p with its Z half scaled by a unit."""
    d, n, rows = parse_stabilizer(state_text)
    primes = prime_factors(d)
    _require(sorted(factor_texts) == primes,
             f"factor files {sorted(factor_texts)} != primes {primes}")
    for p in primes:
        pd, pn, frows = parse_stabilizer(factor_texts[p])
        _require((pd, pn) == (p, n), f"factor {p} has shape D={pd}, n={pn}")
        _require(rank(frows, p) == n, f"factor {p} is not a state")
        xs, zs = _split_xz(rows, n, p)
        _require(solve_scale(xs, zs, frows, p) is not None,
                 f"factor {p} does not span the input mod {p}")


# ---------------------------------------------------------------- channel

def choi_rows(d: int, n: int, k: int, w, coding) -> list[list[int]]:
    """Exponent rows of the code's Choi state on k inputs then n outputs.

    Output generator j is X_j prod_i Z_i^{-w_ji}, dressed on input l with
    Z^{-f_l[j]}; input generator l is X_l times the inverse of f_l.
    """
    total = k + n
    rows = []
    for j in range(n):
        v = [0] * (2 * total)
        v[k + j] = 1
        for i in range(n):
            v[total + k + i] = (-w[j][i]) % d
        for length in range(k):
            v[total + length] = (-coding[length][j]) % d
        rows.append(v)
    for length in range(k):
        v = [0] * (2 * total)
        v[length] = 1
        for i in range(n):
            v[total + k + i] = (-coding[length][i]) % d
        rows.append(v)
    return rows


def check_channel(code_text: str, report_text: str, out_b, out_c) -> None:
    """A channel report against counts from the checker's own Choi rows."""
    d, n, k, w, coding = parse_code(code_text)
    rep = parse_channel_report(report_text)
    _require((rep["d"], rep["n"], rep["k"]) == (d, n, k),
             "report shape differs from the code")
    _require((rep["B"], rep["C"]) == (sorted(out_b), sorted(out_c)),
             "report B|C split differs from the request")
    parts = [list(range(k)), [k + q for q in sorted(out_b)],
             [k + q for q in sorted(out_c)]]
    want = expected_counts(choi_rows(d, n, k, w, coding), parts, n + k, d)
    _require(want["m_A"] == 0, "Choi input part carries a single qudit")
    got = rep["counts"]
    for key in _CHANNEL_KEYS:
        _require(got[key] == want[key],
                 f"channel {key} = {got[key]}, expected {want[key]}")
    _require(got["m_AB"] + got["m_AC"] + got["m_ABC"] == k,
             "m_AB + m_AC + m_ABC != k")
    unit = math.log2(d)
    for tag, count in (("Q_B", got["m_AB"]), ("C_B", got["m_AB"] + got["m_ABC"]),
                       ("Q_C", got["m_AC"]), ("C_C", got["m_AC"] + got["m_ABC"])):
        _require(abs(rep["capacities"][tag] - count * unit) <= 1e-9 * max(1, count * unit),
                 f"{tag} = {rep['capacities'][tag]}, expected {count * unit}")
    _require(len(rep["info"]["info_B"]) == 1 + 2 * got["m_AB"] + got["m_ABC"],
             "info_B generator count disagrees with the counts")
    _require(len(rep["info"]["info_C"]) == 1 + 2 * got["m_AC"] + got["m_ABC"],
             "info_C generator count disagrees with the counts")
    for name, qs, _ in rep["gates"]:
        _require(all(q < k for q in qs),
                 f"input gate {name} on {[q + 1 for q in qs]} leaves the inputs")


# ----------------------------------------------------------- oracle-verify

def check_oracle_lines(stdout: str, dense_check: str) -> None:
    """Every check line reads ok and the dense check ran (was not skipped)."""
    names = []
    for ln in _lines(stdout):
        name, _, status = ln.partition(": ")
        _require(status == "ok", f"oracle check {name!r} reads {status!r}")
        names.append(name)
    _require(dense_check in names,
             f"dense check {dense_check!r} missing from {names}")
