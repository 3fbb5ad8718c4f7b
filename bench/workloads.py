"""The benchmark's workloads: seeded instances, their files and operations.

Instance shapes (D, n, k, part sizes, B|C splits) are fixed per workload;
the seed picks the qudit assignments and, on `exact`, the states and codes.
On `dense-desk` and `large-prime` the states and codes are drawn once: the
cost of one op there swings with the random content (where a state's
support starts, for the oracle's column scan; how many W gates each pivot
needs, uniform in [0, D)), and a 30 s run holds too few ops to average that
out. Each operation is one `qstab.cli.main` call with a verb's argv on
files written at set-up, plus the independent check of what it emitted.

Why these three workloads:

* exact       every instance is above the dense caps (D^n > 4096 and
              D^(n+k) > 1024), so the exact path does nearly all the work
              and the oracle does none.
* dense-desk  desk-scale instances, so `--verify` and `oracle-verify` run
              dense states, Schmidt ranks, brute-force information groups
              and the CRT fidelity check: the oracle dominates.
* large-prime few qudits at D just above 1000, so the gate alphabet emits
              about D/2 W gates per pivot and the Clifford gate log
              dominates while elimination is tiny.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker


@dataclass(frozen=True)
class StateSpec:
    """A random state; each listed partition is one `canonicalize --verify`."""

    d: int
    n: int
    partitions: tuple[tuple[int, ...], ...]
    crt: bool = False


@dataclass(frozen=True)
class CodeSpec:
    """A random [[n, k]]_D code; each |B| size is one channel op."""

    d: int
    n: int
    k: int
    b_sizes: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    states: tuple[StateSpec, ...]
    codes: tuple[CodeSpec, ...]
    crt_verify: bool        # pass --verify to crt-decompose
    channel_verify: bool    # pass --verify to channel
    oracle: bool            # oracle-verify a report written at set-up
    fixed_instances: bool = False   # states and codes drawn once, not per seed


# primes just above 1000: gate logs of about D/2 W gates per pivot, at the
# lowest D that makes them dominate, so a run holds many pivots
_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063,
           1069, 1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123, 1129, 1151,
           1153, 1163, 1171, 1181, 1187, 1193, 1201, 1213)

WORKLOADS = {
    "exact": Workload(
        "exact",
        states=(
            StateSpec(2, 16, ((6, 5, 5), (8, 8))),
            StateSpec(2, 32, ((11, 11, 10),)),
            StateSpec(3, 12, ((4, 4, 4), (6, 6))),
            StateSpec(3, 24, ((8, 8, 8),)),
            StateSpec(5, 12, ((5, 7),)),
            StateSpec(5, 20, ((7, 7, 6),)),
            StateSpec(7, 12, ((4, 4, 4),)),
            StateSpec(7, 16, ((8, 8),)),
            StateSpec(6, 12, ((4, 4, 4),), crt=True),
            StateSpec(6, 20, ((10, 10),), crt=True),
            StateSpec(30, 12, ((4, 4, 4),), crt=True),
        ),
        codes=(
            CodeSpec(2, 16, 4, (8, 5)),
            CodeSpec(2, 30, 8, (15,)),
            CodeSpec(3, 12, 3, (6, 4)),
            CodeSpec(5, 16, 4, (8,)),
            CodeSpec(5, 24, 6, (12,)),
        ),
        crt_verify=False, channel_verify=True, oracle=False,
    ),
    "dense-desk": Workload(
        "dense-desk",
        states=(
            StateSpec(2, 8, ((3, 3, 2), (4, 4))),
            StateSpec(2, 9, ((3, 3, 3),)),
            StateSpec(2, 10, ((4, 3, 3),)),
            StateSpec(3, 5, ((2, 2, 1), (2, 3))),
            StateSpec(3, 6, ((2, 2, 2),)),
            StateSpec(5, 4, ((2, 1, 1),)),
            StateSpec(7, 3, ((1, 1, 1),)),
            StateSpec(6, 3, ((1, 1, 1),), crt=True),
            StateSpec(10, 2, ((1, 1),), crt=True),
            StateSpec(15, 2, ((1, 1),), crt=True),
        ),
        codes=(
            CodeSpec(2, 8, 2, (4, 3)),
            CodeSpec(2, 7, 3, (3, 4)),
            CodeSpec(2, 9, 1, (4,)),
            CodeSpec(3, 4, 2, (2, 1)),
            CodeSpec(3, 5, 1, (2, 3)),
            CodeSpec(5, 3, 1, (1, 2)),
        ),
        crt_verify=True, channel_verify=True, oracle=True,
        fixed_instances=True,
    ),
    "large-prime": Workload(
        "large-prime",
        states=tuple(StateSpec(p, 3, ((1, 1, 1),)) for p in _PRIMES)
        + tuple(StateSpec(p, 4, ((2, 1, 1),)) for p in (1499, 2003))
        + tuple(StateSpec(d, 3, ((1, 1, 1),), crt=True)
                for d in (2 * 1009, 3 * 1009, 2 * 1013, 2 * 1019)),
        codes=tuple(CodeSpec(p, 3, 1, (1,)) for p in _PRIMES[:8]),
        crt_verify=False, channel_verify=False, oracle=False,
        fixed_instances=True,
    ),
}


@dataclass
class Op:
    """One CLI call, what it must emit, and how to check that."""

    verb: str
    argv: list[str]
    outputs: list[Path]     # files it writes, compared across passes
    # check(stdout, texts of `outputs`) raises checker.CheckFailed
    check: Callable[[str, list[str]], None]
    emits_gates: bool = False   # outputs[0] counts in gates_per_report


def _spec(parts) -> str:
    return "/".join(",".join(str(q + 1) for q in part) for part in parts)


def _cut(qudits: list[int], sizes) -> list[list[int]]:
    out, at = [], 0
    for size in sizes:
        out.append(sorted(qudits[at:at + size]))
        at += size
    return out


def generate(qstab, workload: Workload, seed: int, work: Path) -> list[Op]:
    """Write the workload's input files for `seed` and return its ops.

    `qstab` is a namespace holding the freshly imported `randgen`, `formats`,
    `channel` and `cli` modules. Reports that `oracle-verify` reads are
    written here too, by the same CLI the ops call.
    """
    randgen, formats, cli = qstab.randgen, qstab.formats, qstab.cli
    ops: list[Op] = []
    key = workload.name if workload.fixed_instances else f"{workload.name}/{seed}"
    for i, st in enumerate(workload.states):
        state_seed = random.Random(f"{key}/state/{i}").randrange(2**31)
        group = randgen.random_state(st.d, st.n, state_seed)
        rng = random.Random(f"{workload.name}/{seed}/state/{i}")
        state = work / f"s{i}.stab"
        text = formats.render_stabilizer(group)
        state.write_text(text)
        for j, sizes in enumerate(st.partitions):
            qudits = list(range(st.n))
            rng.shuffle(qudits)
            parts = _cut(qudits, sizes)
            out = work / f"s{i}.{j}.nf"
            argv = ["canonicalize", "--state", str(state),
                    "--parts", _spec(parts), "--out", str(out), "--verify"]
            ops.append(Op("canonicalize", argv, [out], _nf_check(text, parts),
                          emits_gates=True))
            if workload.oracle:
                ref = work / f"s{i}.{j}.ref.nf"
                cli.main(argv[:5] + ["--out", str(ref)])
                ops.append(Op("oracle-verify",
                              ["oracle-verify", "--report", str(ref),
                               "--state", str(state)], [],
                              _oracle_check("schmidt-ranks", _nf_check(text, parts),
                                            ref.read_text())))
        if st.crt:
            prefix = work / f"s{i}.crt"
            argv = ["crt-decompose", "--state", str(state),
                    "--out-prefix", str(prefix)]
            if workload.crt_verify:
                argv.append("--verify")
            files = {p: Path(f"{prefix}.p{p}.stab")
                     for p in checker.prime_factors(st.d)}
            ops.append(Op("crt-decompose", argv, list(files.values()),
                          _crt_check(text, files)))
    for i, cs in enumerate(workload.codes):
        code_seed = random.Random(f"{key}/code/{i}").randrange(2**31)
        graph, coding = randgen.random_code(cs.d, cs.n, cs.k, code_seed)
        rng = random.Random(f"{workload.name}/{seed}/code/{i}")
        code = work / f"c{i}.code"
        text = formats.render_code(
            qstab.channel.CodeSpec(cs.n, cs.k, cs.d, graph, tuple(coding)))
        code.write_text(text)
        for j, b_size in enumerate(cs.b_sizes):
            outputs = list(range(cs.n))
            rng.shuffle(outputs)
            side_b, side_c = _cut(outputs, (b_size, cs.n - b_size))
            out = work / f"c{i}.{j}.chan"
            argv = ["channel", "--code", str(code), "--B", _spec([side_b]),
                    "--C", _spec([side_c]), "--out", str(out)]
            if workload.channel_verify:
                argv.append("--verify")
            ops.append(Op("channel", argv, [out],
                          _channel_check(text, side_b, side_c), emits_gates=True))
            if workload.oracle:
                ref = work / f"c{i}.{j}.ref.chan"
                cli.main(argv[:7] + ["--out", str(ref)])
                ops.append(Op("oracle-verify",
                              ["oracle-verify", "--report", str(ref),
                               "--code", str(code)], [],
                              _oracle_check("brute-force-info-groups",
                                            _channel_check(text, side_b, side_c),
                                            ref.read_text())))
    return ops


def _nf_check(state_text: str, parts):
    def check(_stdout: str, outputs: list[str]) -> None:
        checker.check_normal_form(state_text, outputs[0], parts)
    return check


def _crt_check(state_text: str, files: dict[int, Path]):
    def check(stdout: str, outputs: list[str]) -> None:
        listed = stdout.split()
        if listed != [str(f) for f in files.values()]:
            raise checker.CheckFailed(f"crt-decompose listed {listed}")
        checker.check_crt_factors(state_text, dict(zip(files, outputs)))
    return check


def _channel_check(code_text: str, side_b, side_c):
    def check(_stdout: str, outputs: list[str]) -> None:
        checker.check_channel(code_text, outputs[0], side_b, side_c)
    return check


def _oracle_check(dense_check: str, report_check, report_text: str):
    """The oracle's verdict lines, and the verified report itself."""
    def check(stdout: str, _outputs: list[str]) -> None:
        checker.check_oracle_lines(stdout, dense_check)
        report_check("", [report_text])
    return check
