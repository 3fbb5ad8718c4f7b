"""CLI verbs: determinism, exit codes, report content."""

import subprocess
import sys
from pathlib import Path

import pytest

from qstab.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_random_state_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.stab"
    f2 = tmp_path / "b.stab"
    assert main(["random-state", "--D", "3", "--n", "5", "--seed", "11",
                 "--out", str(f1)]) == 0
    assert main(["random-state", "--D", "3", "--n", "5", "--seed", "11",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert main(["random-state", "--D", "3", "--n", "5", "--seed", "12",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() != f2.read_bytes()


def test_canonicalize_ghz6(tmp_path, capsys):
    state = tmp_path / "ghz6.stab"
    from qstab import formats
    from qstab.stabilizer import ghz_group

    state.write_text(formats.render_stabilizer(ghz_group(6)))
    code, out, _ = run_cli(["canonicalize", "--state", str(state),
                            "--parts", "1/2/3", "--verify"], capsys)
    assert code == 0
    assert "m_ABC 1" in out
    assert "composite-min true" in out
    assert "factor 2" in out and "factor 3" in out


def test_canonicalize_bipartition(tmp_path, capsys):
    state = tmp_path / "epr.stab"
    from qstab import formats
    from qstab.stabilizer import epr_group

    state.write_text(formats.render_stabilizer(epr_group(3)))
    code, out, _ = run_cli(["canonicalize", "--state", str(state),
                            "--parts", "1/2"], capsys)
    assert code == 0
    assert "m_AB 1" in out


def test_canonicalize_emit_gates(tmp_path, capsys):
    from qstab import formats
    from qstab.randgen import random_state

    state = tmp_path / "s.stab"
    state.write_text(formats.render_stabilizer(random_state(3, 4, 5)))
    rc, _, _ = run_cli(["canonicalize", "--state", str(state),
                        "--parts", "1,2/3/4", "--out", str(tmp_path / "r.nf"),
                        "--emit-gates", str(tmp_path / "s")], capsys)
    assert rc == 0
    for part in (1, 2, 3):
        d, n, gates = formats.parse_gates(
            (tmp_path / f"s.p3.part{part}.gates").read_text())
        assert (d, n) == (3, 4)


def test_crt_decompose_files(tmp_path, capsys):
    from qstab import formats
    from qstab.stabilizer import ghz_group

    state = tmp_path / "ghz6.stab"
    state.write_text(formats.render_stabilizer(ghz_group(6)))
    code, out, _ = run_cli(["crt-decompose", "--state", str(state),
                            "--out-prefix", str(tmp_path / "ghz6"),
                            "--verify"], capsys)
    assert code == 0
    for p in (2, 3):
        text = (tmp_path / f"ghz6.p{p}.stab").read_text()
        factor = formats.parse_stabilizer(text)
        assert factor.d == p


def test_crt_decompose_verifies_the_factors_it_writes(tmp_path, capsys,
                                                      monkeypatch):
    # the state is decomposed once, and --verify checks those factors: a
    # wrong factor state (|+++> in place of the D = 2 GHZ) fails the check
    # before any file is written
    from qstab import canonicalize, cli, formats
    from qstab.stabilizer import ghz_group, plus_state_group

    calls = []
    real_decompose = cli.decompose_state

    def tampered_decompose(group):
        calls.append(1)
        return [(p, plus_state_group(2, 3) if p == 2 else f)
                for p, f in real_decompose(group)]

    monkeypatch.setattr(cli, "decompose_state", tampered_decompose)
    monkeypatch.setattr(canonicalize, "decompose_state", tampered_decompose)
    state = tmp_path / "ghz6.stab"
    state.write_text(formats.render_stabilizer(ghz_group(6)))
    code, _, err = run_cli(["crt-decompose", "--state", str(state),
                            "--out-prefix", str(tmp_path / "ghz6"),
                            "--verify"], capsys)
    assert code == 1
    assert "crt-fidelity" in err
    assert len(calls) == 1
    assert not list(tmp_path.glob("ghz6.p*.stab"))


def test_channel_verb_and_oracle_verify(tmp_path, capsys):
    from qstab import formats
    from qstab.channel import CodeSpec
    from qstab.pauli import from_exponents, to_row
    from qstab.stabilizer import GraphAdjacency

    pent = GraphAdjacency.from_edges(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    v0 = CodeSpec(5, 1, 2, pent,
                  tuple(map(to_row, (from_exponents(2, [0] * 5, [1, 1, 0, 1, 0]),))))
    code_file = tmp_path / "v0.code"
    code_file.write_text(formats.render_code(v0))
    report = tmp_path / "v0.chan"
    rc, out, _ = run_cli(["channel", "--code", str(code_file),
                          "--B", "1,2", "--C", "3,4,5", "--bounds",
                          "--out", str(report),
                          "--emit-choi", str(tmp_path / "v0.choi")], capsys)
    assert rc == 0
    text = report.read_text()
    assert "Q_C >= 1 (log2 units)" in text
    choi = formats.parse_stabilizer((tmp_path / "v0.choi").read_text())
    assert choi.n == 6

    rc, out, _ = run_cli(["oracle-verify", "--report", str(report),
                          "--code", str(code_file)], capsys)
    assert rc == 0
    assert "MISMATCH" not in out


def test_oracle_verify_normal_form(tmp_path, capsys):
    from qstab import formats

    state = tmp_path / "s.stab"
    rc, _, _ = run_cli(["random-state", "--D", "5", "--n", "4", "--seed", "3",
                        "--out", str(state)], capsys)
    report = tmp_path / "s.nf"
    rc, _, _ = run_cli(["canonicalize", "--state", str(state),
                        "--parts", "1,2/3/4", "--out", str(report)], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(state)], capsys)
    assert rc == 0
    assert "exactness: ok" in out


def test_oracle_verify_detects_tampering(tmp_path, capsys):
    state = tmp_path / "s.stab"
    run_cli(["random-state", "--D", "3", "--n", "4", "--seed", "4",
             "--out", str(state)], capsys)
    report = tmp_path / "s.nf"
    run_cli(["canonicalize", "--state", str(state), "--parts", "1,2/3/4",
             "--out", str(report)], capsys)
    text = report.read_text()

    def tamper(prefix, change):
        lines = text.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[i] = change(lines[i].split())
        report.write_text("\n".join(lines) + "\n")
        return run_cli(["oracle-verify", "--report", str(report),
                        "--state", str(state)], capsys)

    rc, _, err = tamper("m_A ", lambda t: f"m_A {int(t[1]) + 1}")
    assert rc == 1
    assert err.startswith("FormatError: line 7 reads 'm_A 1', expected 'm_A 0'")
    # the other unit of Z_3 in an `S q a` gate: only the replay can see it
    rc, out, _ = tamper("S ", lambda t: f"S {t[1]} {3 - int(t[2])}")
    assert rc == 1
    assert "exactness: MISMATCH" in out
    # every gate moved under part 1: the same unitary, but not a local one
    lines = text.splitlines()
    heads = [i for i, ln in enumerate(lines) if ln.startswith("tableau ")]
    gates = [ln for i in heads
             for ln in lines[i + 1:i + 1 + int(lines[i].split()[3])]]
    assert len(gates) == 17
    end = heads[-1] + 1 + int(lines[heads[-1]].split()[3])
    lines[heads[0]:end] = ([f"tableau 1 gates {len(gates)}"] + gates
                           + ["tableau 2 gates 0", "tableau 3 gates 0"])
    report.write_text("\n".join(lines) + "\n")
    rc, out, _ = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(state)], capsys)
    assert rc == 1
    assert "exactness: MISMATCH" in out
    # overlapping roles: qudit 2 is both a single and in the GHZ triple
    golden = Path(__file__).parent / "golden"
    pivot = (golden / "d3_pivot.nf").read_text()
    assert "single 1 1\n" in pivot and "triple 2 4 3\n" in pivot
    report.write_text(pivot.replace("single 1 1\n", "single 2 1\n"))
    rc, out, _ = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(golden / "d3_n4.stab")], capsys)
    assert rc == 1
    assert "exactness: MISMATCH" in out


def test_oracle_verify_rejects_a_malformed_normal_form(tmp_path, capsys):
    golden = Path(__file__).parent / "golden"
    text = (golden / "d10_pivot.nf").read_text()
    report = tmp_path / "s.nf"
    report.write_text(text.replace("\ntableau 1 gates 4\n",
                                   "\ntableau 1 gates 4 7\n"))
    rc, out, err = run_cli(["oracle-verify", "--report", str(report),
                            "--state", str(golden / "d10_n6.stab")], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("FormatError: line 26 reads 'tableau 1 gates 4 7'")


def test_oracle_verify_rejects_a_count_larger_than_the_register(tmp_path,
                                                                capsys):
    # the Schmidt rank D^count of such a count is too large to build
    golden = Path(__file__).parent / "golden"
    text = (golden / "d2_bi.nf").read_text()
    assert "\nm_AB 2\n" in text
    report = tmp_path / "s.nf"
    report.write_text(text.replace("\nm_AB 2\n", "\nm_AB 99999999999\n"))
    rc, _, err = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(golden / "d2_n6.stab")], capsys)
    assert rc == 1
    assert err.startswith("FormatError: line 9 reads 'm_AB 99999999999', "
                          "expected 'm_AB 2'")


def test_oracle_verify_needs_every_prime_factor(tmp_path, capsys):
    state = tmp_path / "s.stab"
    run_cli(["random-state", "--D", "6", "--n", "6", "--seed", "2",
             "--out", str(state)], capsys)
    report = tmp_path / "s.nf"
    run_cli(["canonicalize", "--state", str(state), "--parts", "1,2/3,4/5,6",
             "--out", str(report)], capsys)
    text = report.read_text()
    start = text.index("factor 3\n")
    end = text.index("end-factor\n", start) + len("end-factor\n")
    report.write_text(text[:start] + text[end:])
    rc, _, err = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(state)], capsys)
    assert rc == 1
    assert err.startswith("FormatError: line 61 reads 'end of input', "
                          "expected 'factor 3'")


@pytest.mark.parametrize("header, error", [
    ("D 10 n 6", "line 61 reads 'factor 3', expected 'factor 5'"),
    ("D 2 n 6", "line 7 reads 'composite-min true', expected 'm_A 0'"),
], ids=["D 10 n 6", "D 2 n 6"])
def test_oracle_verify_checks_the_composite_header(tmp_path, capsys, header,
                                                   error):
    state = tmp_path / "s.stab"
    run_cli(["random-state", "--D", "6", "--n", "6", "--seed", "2",
             "--out", str(state)], capsys)
    report = tmp_path / "s.nf"
    run_cli(["canonicalize", "--state", str(state), "--parts", "1,2/3,4/5,6",
             "--out", str(report)], capsys)
    text = report.read_text()
    assert text.count("D 6 n 6\n") == 1
    report.write_text(text.replace("D 6 n 6\n", header + "\n"))
    rc, _, err = run_cli(["oracle-verify", "--report", str(report),
                          "--state", str(state)], capsys)
    assert rc == 1
    assert err.startswith("FormatError: " + error)


def test_composite_canonicalize_verify_decomposes_once(tmp_path, capsys,
                                                       monkeypatch):
    # every decomposition goes through crt.decompose_group; the check
    # reuses the factor forms the normal form was built from
    from qstab import crt

    state = tmp_path / "s.stab"
    run_cli(["random-state", "--D", "6", "--n", "12", "--seed", "1",
             "--out", str(state)], capsys)
    calls = []
    real = crt.decompose_group

    def counting(group):
        calls.append(group.d)
        return real(group)

    monkeypatch.setattr(crt, "decompose_group", counting)
    rc, out, _ = run_cli(["canonicalize", "--state", str(state), "--parts",
                          "1,2,3,4/5,6,7,8/9,10,11,12", "--verify"], capsys)
    assert rc == 0 and "composite-min true" in out
    assert calls == [6]


@pytest.mark.parametrize("edit, error", [
    # counts changed consistently with the part sizes, above the dense cap
    ({"m_A 1": "m_A 2", "m_AB 2": "m_AB 1", "m_AC 1": "m_AC 0",
      "m_ABC 0": "m_ABC 1"},
     "FormatError: line 7 reads 'm_A 2', expected 'm_A 1'"),
    # a pair whose qudits swap parts, and a single named in the wrong part
    ({"pair 1 3 4 8": "pair 1 3 8 4"}, None),
    ({"single 1 1": "single 1 2"},
     "FormatError: line 7 reads 'm_A 1', expected 'm_A 0'"),
    # a pair naming its parts as C, A: no kind of role, so no count holds it
    ({"pair 1 3 4 8": "pair 3 1 8 4", "m_AC 1": "m_AC 0"}, None),
], ids=["edit0", "edit1", "edit2", "edit3"])
def test_oracle_verify_checks_counts_against_roles(tmp_path, capsys, edit,
                                                   error):
    state = tmp_path / "s.stab"
    run_cli(["random-state", "--D", "3", "--n", "9", "--seed", "4",
             "--out", str(state)], capsys)
    report = tmp_path / "s.nf"
    run_cli(["canonicalize", "--state", str(state),
             "--parts", "1,2,3,4/5,6,7/8,9", "--out", str(report)], capsys)
    lines = report.read_text().splitlines()
    assert all(old in lines for old in edit)
    report.write_text("\n".join(edit.get(ln, ln) for ln in lines) + "\n")
    rc, out, err = run_cli(["oracle-verify", "--report", str(report),
                            "--state", str(state)], capsys)
    assert rc == 1
    if error:
        assert err.startswith(error)
    else:
        assert "qudit-conservation: MISMATCH" in out


@pytest.mark.parametrize("old, new", [
    ("Q_B = 0 ", "Q_B = 99 "),
    ("C_C = 1.584962500721156 ", "C_C = 7 "),
    ("Q_B ", "Q_X "),
])
def test_oracle_verify_checks_capacity_lines(tmp_path, capsys, old, new):
    code = tmp_path / "c.code"
    run_cli(["random-code", "--D", "3", "--n", "4", "--k", "1", "--seed", "3",
             "--out", str(code)], capsys)
    report = tmp_path / "c.chan"
    run_cli(["channel", "--code", str(code), "--B", "1,2", "--C", "3,4",
             "--out", str(report)], capsys)
    text = report.read_text()
    assert text.count(old) == 1
    report.write_text(text.replace(old, new))
    edited = next(ln for ln in report.read_text().splitlines() if new in ln)
    rc, out, err = run_cli(["oracle-verify", "--report", str(report),
                            "--code", str(code)], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("FormatError: line ")
    assert f"reads {edited!r}" in err


def test_oracle_verify_names_uncovered_code_qudits_from_one(tmp_path, capsys):
    for n in (4, 5):
        run_cli(["random-code", "--D", "3", "--n", str(n), "--k", "1",
                 "--seed", "3", "--out", str(tmp_path / f"c{n}.code")], capsys)
    report = tmp_path / "c4.chan"
    run_cli(["channel", "--code", str(tmp_path / "c4.code"), "--B", "1,2",
             "--C", "3,4", "--out", str(report)], capsys)
    rc, out, err = run_cli(["oracle-verify", "--report", str(report),
                            "--code", str(tmp_path / "c5.code")], capsys)
    assert (rc, out) == (1, "")
    assert err == "ShapeMismatch: qudits [5] not covered by the report's B and C\n"


def test_channel_emit_choi_builds_the_choi_state_once(tmp_path, capsys,
                                                      monkeypatch):
    from qstab import channel, cli, formats
    from qstab.randgen import random_code

    real = channel.code_to_choi_state
    calls = []

    def counting(code):
        calls.append(code)
        return real(code)

    # wherever the function is bound
    for module in (channel, cli):
        monkeypatch.setattr(module, "code_to_choi_state", counting,
                            raising=False)
    graph, coding = random_code(3, 6, 2, 5)
    code = channel.CodeSpec(6, 2, 3, graph, tuple(coding))
    code_file = tmp_path / "c.code"
    code_file.write_text(formats.render_code(code))
    choi_file = tmp_path / "c.choi"
    rc, _, _ = run_cli(["channel", "--code", str(code_file), "--B", "1,2,3",
                        "--C", "4,5,6", "--emit-choi", str(choi_file)], capsys)
    assert rc == 0
    assert len(calls) == 1
    assert choi_file.read_text() == formats.render_stabilizer(real(code))


def test_domain_error_exit_code(tmp_path, capsys):
    from qstab import formats
    from qstab.stabilizer import ghz_group

    state = tmp_path / "ghz.stab"
    state.write_text(formats.render_stabilizer(ghz_group(3)))
    rc, _, err = run_cli(["canonicalize", "--state", str(state),
                          "--parts", "1/1,2/3"], capsys)
    assert rc == 1
    assert "ShapeMismatch" in err


def test_bad_dimension_is_a_domain_error(tmp_path, capsys):
    state = tmp_path / "d0.stab"
    state.write_text("QSTAB1 stabilizer\nD 0 n 1 gens 1\n0 | 1 | 0\n")
    rc, _, err = run_cli(["canonicalize", "--state", str(state),
                          "--parts", "1/-"], capsys)
    assert rc == 1
    assert err.startswith("InvalidDimension:")
    rc, _, err = run_cli(["random-state", "--D", "0", "--n", "2",
                          "--seed", "1"], capsys)
    assert rc == 1
    assert err.startswith("InvalidDimension:")


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    rc, _, err = run_cli(["canonicalize", "--state",
                          str(tmp_path / "missing.stab"), "--parts", "1/2"],
                         capsys)
    assert rc == 1
    assert err.startswith("FileNotFoundError:")
    assert err.count("\n") == 1


def test_leading_empty_part(tmp_path, capsys):
    from qstab import formats
    from qstab.stabilizer import ghz_group

    state = tmp_path / "ghz.stab"
    state.write_text(formats.render_stabilizer(ghz_group(3)))
    rc, out, _ = run_cli(["canonicalize", "--state", str(state),
                          "--parts=-/1,2/3"], capsys)
    assert rc == 0
    assert "part 1 -" in out and "m_BC 1" in out


@pytest.mark.parametrize("parts, message", [
    ("1,2/3,5", "qudit 5 outside register of size 4"),
    ("1,2/2,3,4", "qudit 2 appears twice in --parts"),
    ("1,2/3", "qudits [4] not covered by --parts"),
])
def test_parts_errors_name_one_based_qudits(tmp_path, capsys, parts, message):
    from qstab import formats
    from qstab.randgen import random_state

    state = tmp_path / "s.stab"
    state.write_text(formats.render_stabilizer(random_state(3, 4, 1)))
    rc, out, err = run_cli(["canonicalize", "--state", str(state),
                            "--parts", parts], capsys)
    assert (rc, out) == (1, "")
    assert err == f"ShapeMismatch: {message}\n"


def test_header_only_state_fails_fast_and_briefly(tmp_path, capsys):
    # D^n here has 31 million bits: neither the state check nor the cover
    # message may build or name anything of size n
    state = tmp_path / "huge.stab"
    state.write_text("QSTAB1 stabilizer\nD 2147483647 n 1000000 gens 0\n")
    rc, out, err = run_cli(["crt-decompose", "--state", str(state),
                            "--out-prefix", str(tmp_path / "huge")], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("NotAState: ")
    rc, out, err = run_cli(["canonicalize", "--state", str(state),
                            "--parts", "1/2"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("ShapeMismatch: qudits [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]"
                   " (999998 in all) not covered by --parts\n")


@pytest.mark.parametrize("args, message", [
    (["random-state", "--D", "3", "--n", "-1", "--seed", "1"],
     "ShapeMismatch: n = -1 qudits is negative"),
    (["random-code", "--D", "3", "--n", "-2", "--k", "0", "--seed", "1"],
     "ShapeMismatch: n = -2 qudits is negative"),
    (["random-code", "--D", "3", "--n", "4", "--k", "-1", "--seed", "1"],
     "InvalidCode: k = -1 outside 0..n = 4"),
    (["crt-decompose", "--state", "{neg}", "--out-prefix", "{neg}"],
     "FormatError: negative count in header 'D 3 n -1 gens 0'"),
], ids=["state-n", "code-n", "code-k", "header-n"])
def test_negative_counts_are_named(tmp_path, capsys, args, message):
    neg = tmp_path / "neg.stab"
    neg.write_text("QSTAB1 stabilizer\nD 3 n -1 gens 0\n")
    rc, out, err = run_cli([a.format(neg=neg) for a in args], capsys)
    assert (rc, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("b, c, message", [
    ("1,5", "2,3,4", "qudit 5 outside register of size 4"),
    ("1,2", "2,3,4", "qudit 2 appears twice in --B and --C"),
    ("1,1", "2,3,4", "qudit 1 appears twice in --B and --C"),
    ("1,2", "3", "qudits [4] not covered by --B and --C"),
])
def test_channel_side_errors_name_one_based_qudits(tmp_path, capsys, b, c,
                                                   message):
    code = tmp_path / "c.code"
    assert main(["random-code", "--D", "3", "--n", "4", "--k", "1",
                 "--seed", "1", "--out", str(code)]) == 0
    rc, out, err = run_cli(["channel", "--code", str(code), "--B", b,
                            "--C", c], capsys)
    assert (rc, out) == (1, "")
    assert err == f"ShapeMismatch: {message}\n"


@pytest.mark.parametrize("args", [
    ["canonicalize", "--state", "{bad}", "--parts", "1/2"],
    ["crt-decompose", "--state", "{bad}", "--out-prefix", "{dir}/f"],
    ["channel", "--code", "{bad}", "--B", "1", "--C", "2"],
    ["oracle-verify", "--report", "{bad}", "--state", "{dir}/s.stab"],
    ["oracle-verify", "--report", "{dir}/s.nf", "--state", "{bad}"],
    ["oracle-verify", "--report", "{dir}/c.chan", "--code", "{bad}"],
], ids=["canonicalize-state", "crt-decompose-state", "channel-code",
        "oracle-verify-report", "oracle-verify-state", "oracle-verify-code"])
def test_non_utf8_input_is_a_format_error(tmp_path, capsys, args):
    from qstab import formats
    from qstab.stabilizer import epr_group

    (tmp_path / "s.stab").write_text(formats.render_stabilizer(epr_group(3)))
    run_cli(["canonicalize", "--state", str(tmp_path / "s.stab"),
             "--parts", "1/2", "--out", str(tmp_path / "s.nf")], capsys)
    run_cli(["random-code", "--D", "3", "--n", "2", "--k", "1", "--seed", "1",
             "--out", str(tmp_path / "c.code")], capsys)
    run_cli(["channel", "--code", str(tmp_path / "c.code"), "--B", "1",
             "--C", "2", "--out", str(tmp_path / "c.chan")], capsys)
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfeQSTAB1 stabilizer\n")
    rc, out, err = run_cli([a.format(bad=bad, dir=tmp_path) for a in args],
                           capsys)
    assert (rc, out) == (1, "")
    assert err == (f"FormatError: {bad} is not UTF-8 text: 'utf-8' codec "
                   "can't decode byte 0xff in position 0: invalid start byte\n")


def test_random_code_refuses_a_graph_no_code_file_holds(tmp_path, capsys):
    from qstab import formats

    out = tmp_path / "big.code"
    n = formats.MAX_GRAPH_N + 1
    rc, stdout, err = run_cli(["random-code", "--D", "3", "--n", str(n),
                               "--k", "1", "--seed", "1", "--out", str(out)],
                              capsys)
    assert (rc, stdout) == (1, "")
    assert err == f"FormatError: graph size n={n} outside 0..{formats.MAX_GRAPH_N}\n"
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["canonicalize"])
    assert exc.value.code == 2


def test_cached_parser_keeps_calls_apart(tmp_path, capsys, monkeypatch):
    from qstab import cli, formats
    from qstab.stabilizer import epr_group

    assert cli._build_parser() is cli._build_parser()
    state = tmp_path / "epr.stab"
    state.write_text(formats.render_stabilizer(epr_group(3)))
    argv = ["canonicalize", "--state", str(state), "--parts", "1/2"]
    seen = []
    real = cli.verify.require_all
    monkeypatch.setattr(cli.verify, "require_all",
                        lambda checks: seen.append(checks) or real(checks))
    assert run_cli(argv + ["--verify"], capsys)[0] == 0
    assert run_cli(argv, capsys)[0] == 0
    assert len(seen) == 1
    with pytest.raises(SystemExit) as exc:
        main(["canonicalize", "--state", str(state)])
    assert exc.value.code == 2
    assert run_cli(argv, capsys)[0] == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qstab.cli", "random-code", "--D", "2",
         "--n", "4", "--k", "1", "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("QSTAB1 code")


@pytest.mark.parametrize("kind, body, message", [
    ("stabilizer", "D 3 n 2 gens 2\n0 | 1 0 | 0 0\n0 | 0 0 | 1 0",
     "InvalidStabilizer: generators 0 | 1 0 | 0 0 and 0 | 0 0 | 1 0"
     " do not commute"),
    ("stabilizer", "D 2 n 2 gens 1\n1 | 0 1 | 0 0",
     "InvalidStabilizer: generator 1 | 0 1 | 0 0 has g^order(g) != I"),
    ("stabilizer", "D 3 n 2 gens 2\n0 | 1 0 | 0 0\n0 | 2 0 | 0 0",
     "InvalidStabilizer: generators dependent mod 3"),
    ("stabilizer", "D 6 n 2 gens 2\n0 | 2 0 | 0 0\n0 | 4 0 | 0 0",
     "InvalidStabilizer: generators dependent mod 3"),
    ("stabilizer", "D 3 n 2 gens 1\n0 | 1 0 0 | 0 0 0",
     "FormatError: generator on 3 qudits in an n=2 file"),
    ("code", "D 3 n 2 k 1\n1 2 1\nCODING\n0 | 1 0 | 0 1",
     "InvalidCode: coding generators must be plain Z products"),
    ("code", "D 3 n 2 k 1\n1 2 1\nCODING\n1 | 0 0 | 0 1",
     "InvalidCode: coding generators must be plain Z products"),
    ("code", "D 3 n 2 k 1\n1 2 1\nCODING\n0 | 0 0 0 | 0 1 1",
     "FormatError: coding generator width differs from n=2"),
], ids=["commute", "order", "dependent-d3", "dependent-d6", "state-width",
        "code-x", "code-phase", "code-width"])
def test_validation_errors_read_their_generators(tmp_path, capsys, kind,
                                                  body, message):
    # validation names the generators by their text, as the file gives them
    path = tmp_path / f"bad.{kind}"
    path.write_text(f"QSTAB1 {kind}\n{body}\n")
    if kind == "stabilizer":
        args = ["canonicalize", "--state", str(path), "--parts", "1/2"]
    else:
        args = ["channel", "--code", str(path), "--B", "1", "--C", "2"]
    rc, out, err = run_cli(args, capsys)
    assert (rc, out, err) == (1, "", message + "\n")
