"""Text file formats, all under the QSTAB1 magic.

One format family: stabilizer files, code files (graph edges `i j w` and
coding generators), gate lists (shapes from clifford.GATE_SHAPES),
normal-form reports, and channel reports. Qudit and part indices are 1-based
in files (0-based in memory). Output is byte-stable: rendering the parse of a
rendered value reproduces the bytes, which is what the golden-file tests pin.
The two report parsers check their input by rendering what they read: the
text must match that rendering token for token (spacing and blank lines are
free). Input files (stabilizer, code) accept unreduced exponents; Pauli
lines parse to reduced [gamma, x, z] rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .canonicalize import COUNT_PARTS, NormalForm, Partition
from .channel import ChannelAnalysis, CodeSpec, bits, capacities
from .clifford import GATE_SHAPES, Gate
from .errors import FormatError
from .modring import factorize
from .pauli import from_text, to_text
from .stabilizer import GraphAdjacency, StabilizerGroup

MAGIC = "QSTAB1"


def _text_parser(parse):
    """Report malformed text as FormatError: the line-by-line parsers meet a
    short line as IndexError, a bad integer as ValueError, and a count too
    large for a capacity line as OverflowError."""
    @functools.wraps(parse)
    def wrapped(text: str):
        try:
            return parse(text)
        except (IndexError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed input to {parse.__name__}: {exc}") from exc
    return wrapped


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines() if ln.strip()]


def _expect_magic(lines: list[str], kind: str) -> list[str]:
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC or head[1] != kind:
        raise FormatError(f"expected '{MAGIC} {kind}' header, got {lines[0]!r}")
    return lines[1:]


def _header_ints(line: str, keys: tuple[str, ...]) -> list[int]:
    toks = line.split()
    if len(toks) != 2 * len(keys) or tuple(toks[::2]) != keys:
        raise FormatError(f"expected header {' '.join(keys)}, got {line!r}")
    try:
        vals = [int(t) for t in toks[1::2]]
    except ValueError as exc:
        raise FormatError(f"bad integer in header {line!r}") from exc
    factorize(vals[0])  # every header leads with D; raises InvalidDimension
    if min(vals[1:]) < 0:
        raise FormatError(f"negative count in header {line!r}")
    return vals


# ---------------------------------------------------------------- stabilizer

def render_stabilizer(group: StabilizerGroup) -> str:
    out = [f"{MAGIC} stabilizer", f"D {group.d} n {group.n} gens {len(group.gens)}"]
    out.extend(to_text(g) for g in group.gens)
    return "\n".join(out) + "\n"


@_text_parser
def parse_stabilizer(text: str) -> StabilizerGroup:
    lines = _expect_magic(_lines(text), "stabilizer")
    d, n, k = _header_ints(lines[0], ("D", "n", "gens"))
    if len(lines) != 1 + k:
        raise FormatError(f"expected {k} generator lines, got {len(lines) - 1}")
    gens = []
    for ln in lines[1:]:
        g = from_text(ln, d)
        if len(g) != 2 * n + 1:
            raise FormatError(f"generator on {len(g) // 2} qudits in an n={n} file")
        gens.append(g)
    return StabilizerGroup(d, n, tuple(gens))


# ---------------------------------------------------------------------- code

def _edge_lines(adj: GraphAdjacency) -> list[str]:
    return [f"{i + 1} {j + 1} {adj.weights[i][j]}" for i in range(adj.n)
            for j in range(i + 1, adj.n) if adj.weights[i][j]]


MAX_GRAPH_N = 1024  # code files build a dense n x n adjacency


def check_graph_size(n: int) -> None:
    """Raise FormatError for a graph larger than a code file holds."""
    if n > MAX_GRAPH_N:
        raise FormatError(f"graph size n={n} outside 0..{MAX_GRAPH_N}")


def _parse_edges(lines: list[str], n: int) -> GraphAdjacency:
    check_graph_size(n)  # the header has rejected a negative n
    edges: dict[tuple[int, int], int] = {}
    for ln in lines:
        toks = ln.split()
        if len(toks) != 3:
            raise FormatError(f"expected 'i j w' edge line, got {ln!r}")
        i, j, w = (int(t) for t in toks)
        if not (1 <= i < j <= n):
            raise FormatError(f"edge {ln!r} out of range or not upper-triangular")
        if (i - 1, j - 1) in edges:
            raise FormatError(f"edge {i} {j} appears twice")
        edges[i - 1, j - 1] = w
    return GraphAdjacency.from_edges(n, [(*e, w) for e, w in edges.items()])


def render_code(code: CodeSpec) -> str:
    out = [f"{MAGIC} code", f"D {code.d} n {code.n} k {code.k}",
           *_edge_lines(code.graph), "CODING"]
    out.extend(to_text(f) for f in code.coding_gens)
    return "\n".join(out) + "\n"


@_text_parser
def parse_code(text: str) -> CodeSpec:
    lines = _expect_magic(_lines(text), "code")
    d, n, k = _header_ints(lines[0], ("D", "n", "k"))
    try:
        coding_at = lines.index("CODING")
    except ValueError:
        raise FormatError("missing CODING section") from None
    coding = tuple(from_text(ln, d) for ln in lines[coding_at + 1:])
    if len(coding) != k:
        raise FormatError(f"expected {k} coding generators, got {len(coding)}")
    if any(len(f) != 2 * n + 1 for f in coding):
        raise FormatError(f"coding generator width differs from n={n}")
    return CodeSpec(n, k, d, _parse_edges(lines[1:coding_at], n), coding)


# --------------------------------------------------------------------- gates

def render_gate(g: Gate) -> str:
    toks = [g.name, *(str(q + 1) for q in g.qudits)]
    if GATE_SHAPES[g.name][1]:
        toks.append(str(g.param))
    return " ".join(toks)


@_text_parser
def parse_gate(line: str) -> Gate:
    name, *toks = line.split()
    width, takes_param = GATE_SHAPES.get(name, (-1, False))
    if len(toks) != width + takes_param:
        raise FormatError(f"unrecognized gate line {line!r}")
    qudits = tuple(int(t) - 1 for t in toks[:width])
    return Gate(name, qudits, int(toks[-1]) if takes_param else 0)


def render_gates(d: int, n: int, gates) -> str:
    out = [f"{MAGIC} gates", f"D {d} n {n}"]
    out.extend(render_gate(g) for g in gates)
    return "\n".join(out) + "\n"


@_text_parser
def parse_gates(text: str) -> tuple[int, int, list[Gate]]:
    lines = _expect_magic(_lines(text), "gates")
    d, n = _header_ints(lines[0], ("D", "n"))
    return d, n, [parse_gate(ln) for ln in lines[1:]]


# --------------------------------------------------------- normal form report

def _render_parts(parts) -> list[str]:
    out = [f"parts {len(parts)}"]
    for i, part in enumerate(parts):
        body = ",".join(str(q + 1) for q in part) if part else "-"
        out.append(f"part {i + 1} {body}")
    return out


def _render_nf_body(nf: NormalForm) -> list[str]:
    # counts block, then per-part gate lists, then the assignment table
    out = []
    for key, val in nf.counts.items():
        out.append(f"{key} {val}")
    for i, circuit in enumerate(nf.circuits):
        out.append(f"tableau {i + 1} gates {len(circuit)}")
        out.extend(render_gate(g) for g in circuit)
    out.append(f"singles {len(nf.singles)}")
    for q, pi in nf.singles:
        out.append(f"single {q + 1} {pi + 1}")
    out.append(f"pairs {len(nf.pairs)}")
    for pi, pj, qx, qy in nf.pairs:
        out.append(f"pair {pi + 1} {pj + 1} {qx + 1} {qy + 1}")
    out.append(f"triples {len(nf.triples)}")
    for qa, qb, qc in nf.triples:
        out.append(f"triple {qa + 1} {qb + 1} {qc + 1}")
    return out


def render_normal_form(nf: NormalForm) -> str:
    out = [f"{MAGIC} normalform", f"D {nf.d} n {nf.n}"]
    out.extend(_render_parts(nf.parts))
    if nf.composite_counts_derived:
        out.append("composite-min true")
    out.extend(_render_nf_body(nf))
    for p, sub in nf.factors:
        out.append(f"factor {p}")
        out.extend(_render_nf_body(sub))
        out.append("end-factor")
    return "\n".join(out) + "\n"


class _Cursor:
    def __init__(self, text: str, kind: str):
        self.text, self.lines = text, _expect_magic(_lines(text), kind)
        self.pos = 0

    def peek(self) -> str:
        """First token of the next line, or "" at the end of the report."""
        return self.lines[self.pos].split()[0] if self.pos < len(self.lines) else ""

    def take(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of report")
        self.pos += 1
        return self.lines[self.pos - 1]

    def block(self, at: int = 1) -> list[str]:
        """The lines announced by the count at token `at` of the next line."""
        count = int(self.take().split()[at])
        return [self.take() for _ in range(count)]

    def expect(self, want: str) -> None:
        """Take the next line, which must read `want` token for token."""
        if [ln.split() for ln in self.lines[self.pos:self.pos + 1]] != [
                want.split()]:
            read = _lines(self.text)[:self.pos + 1] + [want]
            raise _first_difference(self.text, "\n".join(read))
        self.pos += 1


def _index_list(tok: str) -> tuple[int, ...]:
    return () if tok == "-" else tuple(int(q) - 1 for q in tok.split(","))


def _first_difference(text: str, rendered: str) -> FormatError:
    """Name the first line of `text` whose tokens differ from `rendered`'s."""
    got = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
           if ln.strip()]
    want = [ln.split() for ln in rendered.splitlines()]
    # an empty token list on each side stands for the end of input
    got.append((len(text.splitlines()) + 1, []))
    want.append([])
    for (i, toks), expected in zip(got, want):
        if toks != expected:
            break
    return FormatError(f"line {i} reads {' '.join(toks) or 'end of input'!r},"
                       f" expected {' '.join(expected) or 'end of input'!r}")


def _as_rendered(render):
    """Accept only text that reads, token for token, as the rendering of
    what was parsed from it: spacing and blank lines are free."""
    def check(parse):
        @functools.wraps(parse)
        def wrapped(text: str):
            value = parse(text)
            rendered = render(value)
            if rendered.split() != text.split():
                raise _first_difference(text, rendered)
            return value
        return wrapped
    return check


def _parse_nf_body(cur: _Cursor) -> dict:
    """NormalForm fields of one counts/tableaux/roles block; the count lines
    derive from the roles, so the rendering check reads them."""
    for _ in COUNT_PARTS:
        cur.take()
    circuits = []
    while cur.peek() == "tableau":
        circuits.append(tuple(parse_gate(ln) for ln in cur.block(3)))
    body = {"circuits": tuple(circuits)}
    for field, width in (("singles", 2), ("pairs", 4), ("triples", 3)):
        body[field] = tuple(tuple(int(t) - 1 for t in ln.split()[1:1 + width])
                            for ln in cur.block())
    return body


def _nf_from_body(d: int, n: int, parts, body: dict, factors=()) -> NormalForm:
    nf = NormalForm(d=d, n=n, parts=parts, factors=tuple(factors), **body)
    if any(not 0 <= q < n for _, qudits in nf.roles for q in qudits):
        raise FormatError(f"role qudit outside register of size {n}")
    return nf


@_text_parser
@_as_rendered(render_normal_form)
def parse_normal_form(text: str) -> NormalForm:
    cur = _Cursor(text, "normalform")
    d, n = _header_ints(cur.take(), ("D", "n"))
    parts = tuple(_index_list(ln.split()[2]) for ln in cur.block())
    if sum(len(part) for part in parts) != n:
        raise FormatError(f"parts do not hold n={n} qudits")
    Partition(n, parts)  # raises ShapeMismatch unless the parts tile the qudits
    # factor blocks exactly at composite D; a prime D's report renders none
    primes = () if factorize(d).is_prime else factorize(d).primes
    if primes or cur.peek() == "composite-min":
        cur.expect("composite-min true")
    body = _parse_nf_body(cur)
    factors = []
    for p in primes:
        cur.expect(f"factor {p}")
        factors.append((p, _nf_from_body(p, n, parts, _parse_nf_body(cur))))
        cur.expect("end-factor")
    return _nf_from_body(d, n, parts, body, factors)


# ------------------------------------------------------------ channel report

# the channel report's count tags, in report order
CHANNEL_COUNTS = ("m_ABC", "m_AB", "m_AC", "m_BC", "m_B", "m_C")


@dataclass(frozen=True)
class ChannelReport:
    """Parseable image of a ChannelAnalysis (counts, groups, input gates)."""

    d: int
    n: int
    k: int
    out_b: tuple[int, ...]
    out_c: tuple[int, ...]
    counts: dict[str, int]
    info_b: tuple[tuple[int, ...], ...]
    info_c: tuple[tuple[int, ...], ...]
    input_gates: tuple[Gate, ...]
    bounds: bool = False


def report_from_analysis(analysis: ChannelAnalysis,
                         bounds: bool = False) -> ChannelReport:
    nf = analysis.normal_form
    return ChannelReport(
        d=analysis.code.d, n=analysis.code.n, k=analysis.code.k,
        out_b=analysis.out_b, out_c=analysis.out_c,
        counts={tag: nf.counts[tag] for tag in CHANNEL_COUNTS},
        info_b=analysis.info_b, info_c=analysis.info_c,
        input_gates=nf.circuits[0],
        bounds=bounds,
    )


def render_channel_report(rep: ChannelReport) -> str:
    out = [f"{MAGIC} channel", f"D {rep.d} n {rep.n} k {rep.k}"]
    out.append("B " + (",".join(str(q + 1) for q in rep.out_b) or "-"))
    out.append("C " + (",".join(str(q + 1) for q in rep.out_c) or "-"))
    out.extend(f"{tag} {rep.counts[tag]}" for tag in CHANNEL_COUNTS)
    rel = ">=" if rep.bounds else "="
    for tag, count in capacities(rep.counts).items():
        b = bits(count, rep.d)
        out.append(f"{tag} {rel} {int(b) if b == int(b) else b!r} (log2 units)")
    out.append(f"info_B {len(rep.info_b)}")
    out.extend(to_text(p) for p in rep.info_b)
    out.append(f"info_C {len(rep.info_c)}")
    out.extend(to_text(p) for p in rep.info_c)
    out.append(f"input-gates {len(rep.input_gates)}")
    out.extend(render_gate(g) for g in rep.input_gates)
    return "\n".join(out) + "\n"


@_text_parser
@_as_rendered(render_channel_report)
def parse_channel_report(text: str) -> ChannelReport:
    cur = _Cursor(text, "channel")
    d, n, k = _header_ints(cur.take(), ("D", "n", "k"))
    out_b = _index_list(cur.take().split()[1])
    out_c = _index_list(cur.take().split()[1])
    counts = {tag: int(cur.take().split()[1]) for tag in CHANNEL_COUNTS}
    caps = [cur.take() for _ in range(4)]  # Q_B, C_B, Q_C, C_C
    bounds = caps[0].split()[1] == ">="  # the Q_B line sets the relation
    info_b = tuple(from_text(ln, d) for ln in cur.block())
    info_c = tuple(from_text(ln, d) for ln in cur.block())
    gates = tuple(parse_gate(ln) for ln in cur.block())
    return ChannelReport(d=d, n=n, k=k, out_b=out_b, out_c=out_c, counts=counts,
                         info_b=info_b, info_c=info_c, input_gates=gates,
                         bounds=bounds)


def detect_kind(text: str) -> str:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise FormatError(f"not a {MAGIC} file: {lines[0]!r}")
    return head[1]
