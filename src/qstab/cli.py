"""Command-line front door.

Verbs: canonicalize, crt-decompose, channel, oracle-verify, random-state,
random-code. All outputs are stable-ordered text, pure functions of the
input bytes and the seed. Exit codes: 0 success, 1 domain error or unreadable
file (the error class name goes to stderr) or verification mismatch, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import formats, randgen, verify
from .canonicalize import (
    bipartition_normal_form,
    check_cover,
    tripartition_normal_form,
)
from .channel import CodeSpec, analyze_channel
from .crt import decompose_state
from .errors import FormatError, QstabError


def _parse_index_list(spec: str) -> list[int]:
    if spec in ("", "-"):
        return []
    try:
        out = [int(tok) - 1 for tok in spec.split(",")]
    except ValueError:
        raise QstabError(f"bad index list {spec!r}") from None
    if any(q < 0 for q in out):
        raise QstabError(f"indices are 1-based: {spec!r}")
    return out


def _parse_parts(spec: str) -> list[list[int]]:
    return [_parse_index_list(group) for group in spec.split("/")]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_canonicalize(args) -> int:
    group = formats.parse_stabilizer(_read(args.state))
    parts = _parse_parts(args.parts)
    if len(parts) not in (2, 3):
        raise QstabError(f"need 2 or 3 parts, got {len(parts)}")
    check_cover(parts, group.n, 1, "--parts")
    build = bipartition_normal_form if len(parts) == 2 else tripartition_normal_form
    nf = build(group, *parts)
    if args.verify:
        verify.require_all(verify.verify_normal_form(group, nf))
    if args.emit_gates:
        for p, sub in nf.forms:
            for i, circuit in enumerate(sub.circuits):
                path = f"{args.emit_gates}.p{p}.part{i + 1}.gates"
                Path(path).write_text(formats.render_gates(p, nf.n, circuit))
    _emit(formats.render_normal_form(nf), args.out)
    return 0


def _cmd_crt_decompose(args) -> int:
    group = formats.parse_stabilizer(_read(args.state))
    factors = decompose_state(group)
    if args.verify:
        verify.require_all(verify.verify_crt_decomposition(group, factors))
    for p, factor in factors:
        path = f"{args.out_prefix}.p{p}.stab"
        Path(path).write_text(formats.render_stabilizer(factor))
        sys.stdout.write(f"{path}\n")
    return 0


def _cmd_channel(args) -> int:
    code = formats.parse_code(_read(args.code))
    out_b = _parse_index_list(args.B)
    out_c = _parse_index_list(args.C)
    check_cover([out_b, out_c], code.n, 1, "--B and --C")
    analysis = analyze_channel(code, out_b, out_c)
    if args.verify:
        verify.require_all(verify.verify_channel_analysis(analysis))
    if args.emit_choi:
        Path(args.emit_choi).write_text(
            formats.render_stabilizer(analysis.choi))
    report = formats.report_from_analysis(analysis, bounds=args.bounds)
    _emit(formats.render_channel_report(report), args.out)
    return 0


def _cmd_oracle_verify(args) -> int:
    report_text = _read(args.report)
    kind = formats.detect_kind(report_text)
    if kind == "normalform":
        if not args.state:
            raise QstabError("normal-form verification needs --state")
        group = formats.parse_stabilizer(_read(args.state))
        nf = formats.parse_normal_form(report_text)
        checks = verify.verify_normal_form(group, nf)
    elif kind == "channel":
        if not args.code:
            raise QstabError("channel verification needs --code")
        code = formats.parse_code(_read(args.code))
        rep = formats.parse_channel_report(report_text)
        check_cover([rep.out_b, rep.out_c], code.n, 1, "the report's B and C")
        analysis = analyze_channel(code, rep.out_b, rep.out_c)
        fresh = formats.render_channel_report(
            formats.report_from_analysis(analysis, bounds=rep.bounds))
        # token for token: spacing and blank lines are free
        checks = [("report-reproduced", fresh.split() == report_text.split())]
        checks.extend(verify.verify_channel_analysis(analysis))
    else:
        raise QstabError(f"cannot verify a {kind!r} file")
    status = 0
    for name, ok in checks:
        sys.stdout.write(f"{name}: {'ok' if ok else 'MISMATCH'}\n")
        if not ok:
            status = 1
    return status


def _cmd_random_state(args) -> int:
    group = randgen.random_state(args.D, args.n, args.seed)
    _emit(formats.render_stabilizer(group), args.out)
    return 0


def _cmd_random_code(args) -> int:
    formats.check_graph_size(args.n)  # before drawing what no file could hold
    graph, coding = randgen.random_code(args.D, args.n, args.k, args.seed)
    code = CodeSpec(args.n, args.k, args.D, graph, tuple(coding))
    _emit(formats.render_code(code), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qstab",
        description="Exact qudit stabilizer canonicalization and channels")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("canonicalize",
                       help="EPR/GHZ normal form of a bi- or tripartition")
    p.add_argument("--state", required=True, help="stabilizer file")
    p.add_argument("--parts", required=True,
                   help="slash-separated 1-based index groups, e.g. 1,2/3/4; "
                        "'-' marks an empty part, and a leading one needs "
                        "the '=' form: --parts=-/1,2")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--emit-gates",
                   help="also write per-part gate-list files with this prefix")
    p.add_argument("--verify", action="store_true",
                   help="re-check against the dense oracle before emitting")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("crt-decompose",
                       help="split a composite-D state into prime factors")
    p.add_argument("--state", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_crt_decompose)

    p = sub.add_parser("channel", help="analyze a stabilizer code channel")
    p.add_argument("--code", required=True, help="code file")
    p.add_argument("--B", required=True, help="direct-channel outputs, e.g. 1,2")
    p.add_argument("--C", required=True, help="complementary outputs")
    p.add_argument("--emit-choi", help="also write the Choi stabilizer file")
    p.add_argument("--bounds", action="store_true",
                   help="report capacities as subcode lower bounds")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("oracle-verify",
                       help="re-check a report against dense computation")
    p.add_argument("--report", required=True)
    p.add_argument("--state", help="input state for normal-form reports")
    p.add_argument("--code", help="input code for channel reports")
    p.set_defaults(func=_cmd_oracle_verify)

    p = sub.add_parser("random-state", help="seeded random stabilizer state")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_random_state)

    p = sub.add_parser("random-code", help="seeded random graph code")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_random_code)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QstabError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
