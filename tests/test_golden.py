"""Golden files: CLI reports, gate files and oracle verdicts, byte for byte.

Each case runs the CLI on an input stored under tests/golden/ and compares
every file it writes (the report, the per-part `--emit-gates` files and the
`oracle-verify` output) with the stored bytes.

To regenerate the expected files from a trusted checkout:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qstab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (state file, --parts value); D in {2, 3, 6, 10, 30}, n <= 30.
# d3_pivot and d10_pivot pin which group elements the extraction picks:
# eliminating the same rows in another order changes their gates.
# d3_thirds and d2_halves are `random-state --seed 1` at n = 24 and n = 20,
# where retired qudits leave most columns of each row zero.
NF_CASES = {
    "d2_tri_empty": ("d2_n5.stab", "1,3/-/2,4,5"),
    "d3_ghz": ("d3_n6.stab", "1,2/3,4/5,6"),
    "d6_tri": ("d6_n4.stab", "1/2,3/4"),
    "d2_bi": ("d2_n6.stab", "1,2,3/4,5,6"),
    "d3_pivot": ("d3_n4.stab", "1,2/4/3"),
    "d10_pivot": ("d10_n6.stab", "5/1,2/3,4,6"),
    "d3_thirds": ("d3_n24.stab", "1,2,3,4,5,6,7,8/9,10,11,12,13,14,15,16/"
                                 "17,18,19,20,21,22,23,24"),
    "d2_halves": ("d2_n20.stab", "1,2,3,4,5,6,7,8,9,10/"
                                 "11,12,13,14,15,16,17,18,19,20"),
    # group_helpers.planted_state(3, {m_A 1, m_C 1, m_AB 1, m_BC 1,
    # m_ABC 8}, seed 1) and (2, {m_B 1, m_AC 1, m_BC 1, m_ABC 8}, seed 2):
    # eight GHZ steps each, which pin the elements the GHZ phase picks.
    "d3_ghz_rich": ("d3_n30.stab", "1,2,5,7,8,9,12,15,28,29/"
                                   "4,10,14,17,22,23,24,25,26,30/"
                                   "3,6,11,13,16,18,19,20,21,27"),
    "d2_ghz_rich": ("d2_n29.stab", "10,11,12,15,18,24,25,27,29/"
                                   "1,3,6,8,9,19,20,21,23,28/"
                                   "2,4,5,7,13,14,16,17,22,26"),
    # `random-state --D 30 --n 12 --seed 1`: three prime factors
    "d30_thirds": ("d30_n12.stab", "1,2,3,4/5,6,7,8/9,10,11,12"),
}
# name -> state file split by `crt-decompose --verify`
CRT_CASES = {
    "d30_crt": "d30_n12.stab",
}
# name -> extra `channel` flags on the [[5, 1]]_2 pentagon code
CHANNEL_CASES = {
    "pentagon": [],
    "pentagon_bounds": ["--bounds"],
}


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().encode()


def emit_nf(name: str, work: Path) -> dict[str, bytes]:
    state, parts = NF_CASES[name]
    state = str(GOLDEN / state)
    report = work / f"{name}.nf"
    main(["canonicalize", "--state", state, f"--parts={parts}",
          "--out", str(report), "--emit-gates", str(work / name)])
    files = {p.name: p.read_bytes() for p in work.glob(f"{name}.*")}
    files[f"{name}.verify"] = _run(["oracle-verify", "--report", str(report),
                                    "--state", state])
    return files


def emit_channel(name: str, work: Path) -> dict[str, bytes]:
    code = str(GOLDEN / "pentagon.code")
    report = work / f"{name}.chan"
    main(["channel", "--code", code, "--B", "1,2", "--C", "3,4,5",
          "--out", str(report)] + CHANNEL_CASES[name])
    return {report.name: report.read_bytes(),
            f"{name}.verify": _run(["oracle-verify", "--report", str(report),
                                    "--code", code])}


def emit_crt(name: str, work: Path) -> dict[str, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):  # the written paths
        main(["crt-decompose", "--state", str(GOLDEN / CRT_CASES[name]),
              "--out-prefix", str(work / name), "--verify"])
    return {p.name: p.read_bytes() for p in work.glob(f"{name}.*")}


def _expected(files: dict[str, bytes]) -> dict[str, bytes]:
    return {f: (GOLDEN / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(NF_CASES))
def test_normal_form_golden(name, tmp_path):
    files = emit_nf(name, tmp_path)
    stored = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert sorted(files) == stored
    assert files == _expected(files)


@pytest.mark.parametrize("name", sorted(CRT_CASES))
def test_crt_golden(name, tmp_path):
    files = emit_crt(name, tmp_path)
    assert sorted(files) == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert files == _expected(files)


@pytest.mark.parametrize("name", sorted(CHANNEL_CASES))
def test_channel_golden(name, tmp_path):
    files = emit_channel(name, tmp_path)
    assert files == _expected(files)


def _ok(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


def test_verbs_build_no_pauli_product(tmp_path, monkeypatch):
    # every verb works on [gamma, x, z] rows from parse to render: with the
    # PauliProduct constructor disabled, each still exits 0 and writes the
    # bytes of every golden its output has
    from qstab.pauli import PauliProduct

    def forbidden(self):
        raise AssertionError("a CLI path built a PauliProduct")

    monkeypatch.setattr(PauliProduct, "__post_init__", forbidden)
    files = {}
    for name in ("d3_ghz", "d6_tri"):  # prime and composite D
        state, parts = NF_CASES[name]
        report = tmp_path / f"{name}.nf"
        _ok(["canonicalize", "--state", str(GOLDEN / state), f"--parts={parts}",
             "--verify", "--emit-gates", str(tmp_path / name),
             "--out", str(report)])
        files[f"{name}.verify"] = _ok(["oracle-verify", "--report", str(report),
                                       "--state", str(GOLDEN / state)])
    _ok(["crt-decompose", "--state", str(GOLDEN / CRT_CASES["d30_crt"]),
         "--out-prefix", str(tmp_path / "d30_crt"), "--verify"])
    code = str(GOLDEN / "pentagon.code")
    for name, flags in CHANNEL_CASES.items():
        report = tmp_path / f"{name}.chan"
        _ok(["channel", "--code", code, "--B", "1,2", "--C", "3,4,5",
             "--verify", "--emit-choi", str(tmp_path / f"{name}.choi"),
             "--out", str(report)] + flags)
        files[f"{name}.verify"] = _ok(["oracle-verify", "--report", str(report),
                                       "--code", code])
    # the stored states at D = 3 and D = 30 are `random-state --seed 1`
    for d, n in ((3, 24), (30, 12)):
        _ok(["random-state", "--D", str(d), "--n", str(n), "--seed", "1",
             "--out", str(tmp_path / f"d{d}_n{n}.stab")])
    _ok(["random-code", "--D", "2", "--n", "5", "--k", "2", "--seed", "1",
         "--out", str(tmp_path / "random.code")])
    files.update((p.name, p.read_bytes()) for p in tmp_path.iterdir()
                 if (GOLDEN / p.name).exists())
    assert len(files) == 22  # 4 reports, 9 gate files, 4 verdicts, 5 states
    assert files == _expected(files)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in NF_CASES:
            for fname, data in emit_nf(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
        for case in CHANNEL_CASES:
            for fname, data in emit_channel(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
        for case in CRT_CASES:
            for fname, data in emit_crt(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
