"""The independent checker accepts qstab's reports and rejects corrupted ones.

Run with `python3 -m pytest bench/test_checker.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
from qstab import cli, formats, randgen  # noqa: E402
from qstab.channel import CodeSpec  # noqa: E402


def _spec(parts) -> str:
    return "/".join(",".join(str(q + 1) for q in part) for part in parts)


def _canonicalize(tmp_path: Path, d: int, n: int, parts, seed: int):
    state = tmp_path / "s.stab"
    text = formats.render_stabilizer(randgen.random_state(d, n, seed))
    state.write_text(text)
    out = tmp_path / "s.nf"
    assert cli.main(["canonicalize", "--state", str(state),
                     f"--parts={_spec(parts)}", "--out", str(out)]) == 0
    return text, out.read_text()


def _channel(tmp_path: Path, d: int, n: int, k: int, side_b, side_c, seed: int):
    graph, coding = randgen.random_code(d, n, k, seed)
    text = formats.render_code(CodeSpec(n, k, d, graph, tuple(coding)))
    code = tmp_path / "c.code"
    code.write_text(text)
    out = tmp_path / "c.chan"
    assert cli.main(["channel", "--code", str(code), "--B", _spec([side_b]),
                     "--C", _spec([side_c]), "--out", str(out)]) == 0
    return text, out.read_text()


def _random_parts(n: int, nparts: int, rng: random.Random):
    parts = [[] for _ in range(nparts)]
    for q in range(n):
        parts[rng.randrange(nparts)].append(q)
    return parts


@pytest.mark.parametrize("d", [2, 3, 5, 7, 6, 10, 15, 30])
def test_accepts_program_normal_forms(tmp_path, d):
    rng = random.Random(d)
    for seed in range(6):
        n = rng.randrange(2, 7)
        for nparts in (2, 3):
            parts = _random_parts(n, nparts, rng)
            state, report = _canonicalize(tmp_path, d, n, parts, seed)
            checker.check_normal_form(state, report, parts)


@pytest.mark.parametrize("d", [1009, 2018])
def test_accepts_large_prime_normal_forms(tmp_path, d):
    parts = [[0, 1], [2], [3]]
    state, report = _canonicalize(tmp_path, d, 4, parts, 3)
    checker.check_normal_form(state, report, parts)


@pytest.mark.parametrize("d", [6, 30, 2018])
def test_accepts_program_crt_factors(tmp_path, d):
    state = tmp_path / "s.stab"
    text = formats.render_stabilizer(randgen.random_state(d, 4, 1))
    state.write_text(text)
    prefix = tmp_path / "f"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["crt-decompose", "--state", str(state),
                         "--out-prefix", str(prefix)]) == 0
    files = {p: Path(f"{prefix}.p{p}.stab").read_text()
             for p in checker.prime_factors(d)}
    checker.check_crt_factors(text, files)
    p = min(files)
    lines = files[p].splitlines()
    fields = lines[2].split("|")
    xs = fields[1].split()
    xs[0] = str((int(xs[0]) + 1) % p)
    lines[2] = "|".join([fields[0], " " + " ".join(xs) + " ", fields[2]])
    with pytest.raises(checker.CheckFailed):
        checker.check_crt_factors(text, {**files, p: "\n".join(lines)})


@pytest.mark.parametrize("d", [2, 3, 5])
def test_accepts_program_channels(tmp_path, d):
    rng = random.Random(d)
    for seed in range(4):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, 3)
        outs = list(range(n))
        rng.shuffle(outs)
        cut = rng.randrange(1, n)
        side_b, side_c = sorted(outs[:cut]), sorted(outs[cut:])
        code, report = _channel(tmp_path, d, n, k, side_b, side_c, seed)
        checker.check_channel(code, report, side_b, side_c)


def test_counts_match_hand_examples():
    # EPR pair across A|B, GHZ across A|B|C, product |+>|+>
    epr = [[1, 1, 0, 0], [0, 0, 1, 2]]
    assert checker.expected_counts(epr, [[0], [1]], 2, 3)["m_AB"] == 1
    ghz = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 2, 0], [0, 0, 0, 1, 0, 2]]
    counts = checker.expected_counts(ghz, [[0], [1], [2]], 3, 3)
    assert counts == {"m_A": 0, "m_B": 0, "m_C": 0, "m_AB": 0, "m_AC": 0,
                      "m_BC": 0, "m_ABC": 1}
    plus = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert checker.expected_counts(plus, [[0], [1]], 2, 5)["m_A"] == 1


# ------------------------------------------------------------- mutations

def _tri_report(tmp_path, d=3, n=6, seed=4):
    parts = [[0, 1], [2, 3], [4, 5]]
    state, report = _canonicalize(tmp_path, d, n, parts, seed)
    checker.check_normal_form(state, report, parts)
    return state, report, parts


@pytest.mark.parametrize("d", [3, 6])
def test_rejects_count_off_by_one(tmp_path, d):
    state, report, parts = _tri_report(tmp_path, d)
    for key in ("m_A", "m_AB", "m_ABC"):
        bad = re.sub(rf"^{key} (\d+)$",
                     lambda m: f"{key} {int(m.group(1)) + 1}",
                     report, count=1, flags=re.M)
        assert bad != report
        with pytest.raises(checker.CheckFailed):
            checker.check_normal_form(state, bad, parts)


def _gate_blocks(report: str) -> list[tuple[int, int]]:
    """(header line index, gate count) of every tableau block."""
    lines = report.splitlines()
    return [(i, int(ln.split()[3])) for i, ln in enumerate(lines)
            if ln.startswith("tableau ")]


@pytest.mark.parametrize("d", [3, 5, 6])
def test_rejects_dropped_gate(tmp_path, d):
    state, report, parts = _tri_report(tmp_path, d)
    lines = report.splitlines()
    dropped = 0
    for head, count in _gate_blocks(report):
        for i in range(head + 1, head + 1 + count):
            if lines[i].split()[0] in ("X", "Z"):
                continue    # Pauli gates only move phases, out of scope
            toks = lines[head].split()
            toks[3] = str(count - 1)
            bad = lines[:head] + [" ".join(toks)] + lines[head + 1:i] + lines[i + 1:]
            with pytest.raises(checker.CheckFailed):
                checker.check_normal_form(state, "\n".join(bad) + "\n", parts)
            dropped += 1
            break
    assert dropped >= 2


def test_rejects_gate_moved_to_another_part(tmp_path):
    state, report, parts = _tri_report(tmp_path)
    lines = report.splitlines()
    head, count = _gate_blocks(report)[0]
    assert count > 0
    toks = lines[head + 1].split()
    toks[1] = str(parts[1][0] + 1)
    lines[head + 1] = " ".join(toks)
    with pytest.raises(checker.CheckFailed, match="escapes part"):
        checker.check_normal_form(state, "\n".join(lines) + "\n", parts)


def _asymmetric_channel(tmp_path):
    """A code and split whose B and C capacities differ."""
    for seed in range(50):
        side_b, side_c = [0, 1, 2, 3], [4]
        code, report = _channel(tmp_path, 3, 5, 2, side_b, side_c, seed)
        rep = checker.parse_channel_report(report)
        if rep["capacities"]["Q_B"] != rep["capacities"]["Q_C"]:
            return code, report, side_b, side_c
    raise AssertionError("no asymmetric channel among 50 seeds")


def test_rejects_swapped_capacity_lines(tmp_path):
    code, report, side_b, side_c = _asymmetric_channel(tmp_path)
    checker.check_channel(code, report, side_b, side_c)
    lines = report.splitlines()
    qb = next(i for i, ln in enumerate(lines) if ln.startswith("Q_B "))
    qc = next(i for i, ln in enumerate(lines) if ln.startswith("Q_C "))
    values = [lines[qb].split()[2], lines[qc].split()[2]]
    swapped_values = list(lines)
    swapped_values[qb] = lines[qb].replace(values[0], values[1], 1)
    swapped_values[qc] = lines[qc].replace(values[1], values[0], 1)
    swapped_lines = list(lines)
    swapped_lines[qb], swapped_lines[qc] = lines[qc], lines[qb]
    for bad in (swapped_values, swapped_lines):
        with pytest.raises(checker.CheckFailed):
            checker.check_channel(code, "\n".join(bad) + "\n", side_b, side_c)


def test_rejects_channel_count_off_by_one(tmp_path):
    code, report, side_b, side_c = _asymmetric_channel(tmp_path)
    bad = re.sub(r"^m_AB (\d+)$", lambda m: f"m_AB {int(m.group(1)) + 1}",
                 report, count=1, flags=re.M)
    with pytest.raises(checker.CheckFailed):
        checker.check_channel(code, bad, side_b, side_c)


def test_manifest_matches_runner():
    """BENCHMARK.json declares exactly the metrics the runner prints."""
    import run
    import tracing

    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        tracing.metric_units()
    assert [w["name"] for w in manifest["workloads"]] == \
        list(run.workloads.WORKLOADS)
