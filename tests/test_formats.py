"""Text format round-trips, byte stability and malformed input."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qstab import formats
from qstab.canonicalize import tripartition_normal_form
from qstab.channel import CodeSpec, analyze_channel
from qstab.clifford import (GATE_SHAPES, Gate, cnot, cphase, fourier, pauli_x,
                            pauli_z, phase_w, smult)
from qstab.errors import FormatError, QstabError
from qstab.pauli import to_row, z_op
from qstab.randgen import random_code, random_state
from qstab.stabilizer import GraphAdjacency, ghz_group

GOLDEN = Path(__file__).parent / "golden"


def test_stabilizer_round_trip():
    for d in (2, 6):
        for seed in (1, 2):
            s = random_state(d, 4, seed)
            text = formats.render_stabilizer(s)
            assert formats.parse_stabilizer(text) == s
            assert formats.render_stabilizer(formats.parse_stabilizer(text)) == text


def test_code_round_trip():
    graph, coding = random_code(3, 4, 2, 5)
    code = CodeSpec(4, 2, 3, graph, tuple(coding))
    text = formats.render_code(code)
    assert formats.parse_code(text) == code
    assert formats.render_code(formats.parse_code(text)) == text


def test_gates_round_trip():
    gates = [fourier(0), smult(1, 2), phase_w(2), pauli_x(0, 1),
             pauli_z(1, 2), cphase(0, 2, 1), cnot(2, 1)]
    text = formats.render_gates(3, 3, gates)
    d, n, back = formats.parse_gates(text)
    assert (d, n) == (3, 3)
    assert back == gates


@pytest.mark.parametrize("name", GATE_SHAPES)
def test_each_gate_shape_round_trips(name):
    width, takes_param = GATE_SHAPES[name]
    gate = Gate(name, tuple(range(2, 2 + width)), 5 if takes_param else 0)
    line = formats.render_gate(gate)
    assert len(line.split()) == 1 + width + takes_param
    assert formats.parse_gate(line) == gate


@pytest.mark.parametrize("name", ["d3_pivot.nf", "d2_ghz_rich.nf"])
def test_roles_follow_the_report_order(name):
    text = (GOLDEN / name).read_text()
    # the role lines as the report lists them, as 0-based (parts, qudits)
    want = []
    for tag, *toks in (ln.split() for ln in text.splitlines()):
        if tag in ("single", "pair", "triple"):
            q = tuple(int(t) - 1 for t in toks)
            want.append({"single": (q[1:], q[:1]), "pair": (q[:2], q[2:]),
                         "triple": ((0, 1, 2), q)}[tag])
    assert formats.parse_normal_form(text).roles == tuple(want)


def test_normal_form_round_trip_prime_and_composite():
    for d in (3, 6):
        s = random_state(d, 4, 9 + d)
        nf = tripartition_normal_form(s, [0, 3], [1], [2])
        text = formats.render_normal_form(nf)
        back = formats.parse_normal_form(text)
        assert back == nf
        assert formats.render_normal_form(back) == text


def test_channel_report_round_trip():
    graph, coding = random_code(2, 4, 2, 8)
    code = CodeSpec(4, 2, 2, graph, tuple(coding))
    analysis = analyze_channel(code, [0, 1], [2, 3])
    rep = formats.report_from_analysis(analysis)
    text = formats.render_channel_report(rep)
    back = formats.parse_channel_report(text)
    assert back == rep
    assert formats.render_channel_report(back) == text


def test_channel_report_bounds_phrasing():
    code = CodeSpec(2, 1, 2, GraphAdjacency.from_edges(2, [(0, 1, 1)]),
                    tuple(map(to_row, (z_op(2, 2, 0),))))
    analysis = analyze_channel(code, [0], [1])
    text = formats.render_channel_report(
        formats.report_from_analysis(analysis, bounds=True))
    assert "C_B >= 1 (log2 units)" in text
    assert "Q_B >= 0 (log2 units)" in text


@pytest.mark.parametrize("name", ["pentagon", "pentagon_bounds"])
@pytest.mark.parametrize("fault", ["tag", "mixed relations", "value"])
def test_channel_report_capacity_lines_must_match_counts(name, fault):
    text = (GOLDEN / f"{name}.chan").read_text()
    rel, other = (">=", "=") if name == "pentagon_bounds" else ("=", ">=")
    assert formats.render_channel_report(
        formats.parse_channel_report(text)) == text
    old, new = {
        "tag": ("Q_B ", "Q_X "),
        "mixed relations": (f"C_C {rel} ", f"C_C {other} "),
        "value": (f"C_B {rel} 1 ", f"C_B {rel} 99 "),
    }[fault]
    assert text.count(old) == 1
    with pytest.raises(FormatError):
        formats.parse_channel_report(text.replace(old, new))


REPORTS = {".nf": (formats.parse_normal_form, formats.render_normal_form),
           ".chan": (formats.parse_channel_report, formats.render_channel_report)}
# the normal-form parser looks ahead for these tags to find its blocks, so a
# renamed one is rejected where the block it opened fails to parse
LOOKAHEAD_TAGS = ("tableau",)


@pytest.mark.parametrize("name", sorted(
    path.name for path in GOLDEN.iterdir() if path.suffix in REPORTS))
def test_report_parsers_accept_only_rendered_tokens(name):
    path = GOLDEN / name
    parse, render = REPORTS[path.suffix]
    text = path.read_text()
    assert render(parse(text)) == text
    # spacing and blank lines are free
    assert parse(text.replace(" ", "  ").replace("\n", "\n\n")) == parse(text)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tag, *rest = line.split()
        edits = [line + " 7"]
        if tag != formats.MAGIC and not tag[0].isdigit():  # not a Pauli line
            edits.append(" ".join(["junk", *rest]))
        if path.suffix == ".nf" and tag.startswith("m_"):  # off the role tally
            edits.append(f"{tag} {int(rest[0]) + 1}")
        for edit in edits:
            with pytest.raises(FormatError) as err:
                parse("\n".join(lines[:i] + [edit] + lines[i + 1:]) + "\n")
            if edit.endswith(" 7") or tag not in LOOKAHEAD_TAGS:
                assert edit in str(err.value), (edit, str(err.value))


def test_report_parse_error_names_the_line():
    text = (GOLDEN / "d10_pivot.nf").read_text()
    assert "\npair 1 3 5 3\n" in text
    with pytest.raises(FormatError, match="line 61 reads 'junk 1 3 5 3', "
                                          "expected 'pair 1 3 5 3'"):
        formats.parse_normal_form(text.replace("\npair 1 3 5 3\n",
                                               "\njunk 1 3 5 3\n"))
    with pytest.raises(FormatError, match="expected 'end of input'"):
        formats.parse_normal_form(text + "triple 1 2 3\n")


@pytest.mark.parametrize("name", sorted(
    path.name for path in GOLDEN.iterdir() if path.suffix in (".nf", ".chan")))
def test_truncated_report_names_where_it_ends(name):
    text = (GOLDEN / name).read_text()
    parse = (formats.parse_normal_form if name.endswith(".nf")
             else formats.parse_channel_report)
    lines = text.splitlines(keepends=True)
    for cut in range(1, len(lines)):
        with pytest.raises(FormatError) as err:
            parse("".join(lines[:cut]))
        assert str(err.value).startswith(
            f"line {cut + 1} reads 'end of input', expected "), (cut, err.value)


def test_detect_kind():
    s = ghz_group(2)
    assert formats.detect_kind(formats.render_stabilizer(s)) == "stabilizer"
    with pytest.raises(FormatError):
        formats.detect_kind("nonsense\n")


def test_parse_errors():
    with pytest.raises(FormatError):
        formats.parse_stabilizer("QSTAB1 graph\nD 2 n 2\n")
    with pytest.raises(FormatError):
        formats.parse_stabilizer("QSTAB1 stabilizer\nD 2 n 2 gens 1\n")
    with pytest.raises(FormatError):
        formats.parse_code("QSTAB1 code\nD 2 n 2 k 0\n2 1 1\nCODING\n")
    with pytest.raises(FormatError):
        formats.parse_gate("Q 1")
    with pytest.raises(FormatError):
        formats.parse_code("QSTAB1 code\nD 2 n 2 k 1\n1 2 1\n")
    # n bounded by nothing in the text must not reach the n x n adjacency
    with pytest.raises(FormatError):
        formats.parse_code("QSTAB1 code\nD 2 n 200000 k 0\nCODING\n")
    # a negative count in any header but D's
    for parse, text in (
            (formats.parse_stabilizer, "QSTAB1 stabilizer\nD 3 n -1 gens 0\n"),
            (formats.parse_stabilizer, "QSTAB1 stabilizer\nD 3 n 0 gens -1\n"),
            (formats.parse_code, "QSTAB1 code\nD 3 n 2 k -1\nCODING\n"),
            (formats.parse_gates, "QSTAB1 gates\nD 3 n -2\n")):
        with pytest.raises(FormatError, match="negative count in header"):
            parse(text)
    # a repeated edge, whose later weight would silently win
    with pytest.raises(FormatError, match="edge 1 2 appears twice"):
        formats.parse_code("QSTAB1 code\nD 3 n 2 k 0\n1 2 1\n1 2 2\nCODING\n")
    # factor blocks exactly at composite D, one per prime in ascending order:
    # a D = 5 report wrapped as a composite one, a D = 6 report relabelled
    # or missing a block
    prime = formats.render_normal_form(tripartition_normal_form(
        random_state(5, 3, 2), [0], [1], [2])).splitlines()
    counts = [line for line in prime if line.startswith("m_")]
    wrapped = (prime[:6] + ["composite-min true"] + counts
               + ["singles 0", "pairs 0", "triples 0", "factor 5"]
               + prime[6:] + ["end-factor"])
    d6 = (GOLDEN / "d6_tri.nf").read_text()
    for text, error in (
            ("\n".join(wrapped) + "\n",
             "line 7 reads 'composite-min true', expected 'm_A 0'"),
            (d6.replace("D 6 n 4\n", "D 10 n 4\n"),
             "line 45 reads 'factor 3', expected 'factor 5'"),
            (d6.replace("D 6 n 4\n", "D 2 n 4\n"),
             "line 7 reads 'composite-min true', expected 'm_A 0'"),
            (d6[:d6.index("factor 3\n")],
             "line 45 reads 'end of input', expected 'factor 3'")):
        with pytest.raises(FormatError, match=error):
            formats.parse_normal_form(text)
    # a count whose capacity line overflows a float
    chan = (GOLDEN / "pentagon.chan").read_text()
    assert "\nm_AB 0\n" in chan
    with pytest.raises(FormatError):
        formats.parse_channel_report(
            chan.replace("\nm_AB 0\n", f"\nm_AB {10**400}\n"))


PARSERS = {
    "stab": formats.parse_stabilizer,
    "code": formats.parse_code,
    "gates": formats.parse_gates,
    "nf": formats.parse_normal_form,
    "chan": formats.parse_channel_report,
}
ALL_PARSERS = list(PARSERS.values()) + [formats.parse_gate]
GOLDEN_TEXTS = sorted((path.suffix[1:], path.read_text())
                      for path in GOLDEN.iterdir() if path.suffix[1:] in PARSERS)
TOKENS = list("0123456789 -|,\n") + ["S", "W", "CNOT", "tableau", "part",
                                      "factor", "end-factor", "info_B", "D"]


def _parse_allowing_domain_errors(parse, text):
    try:
        parse(text)
    except QstabError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(), st.sampled_from(ALL_PARSERS))
def test_arbitrary_text_raises_only_domain_errors(text, parse):
    _parse_allowing_domain_errors(parse, text)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(GOLDEN_TEXTS),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                          st.sampled_from(TOKENS)), min_size=1, max_size=3))
def test_mutated_golden_files_raise_only_domain_errors(golden, edits):
    kind, text = golden
    chars = list(text)
    for pos, op, token in edits:
        i = pos % (len(chars) + 1)
        if op == 0:
            del chars[i:i + 1]
        elif op == 1:
            chars.insert(i, token)
        else:
            chars[i:i + 1] = [token]
    _parse_allowing_domain_errors(PARSERS[kind], "".join(chars))
