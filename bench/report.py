"""Regenerate the figures in bench/README.md.

    python3 bench/report.py                # everything: about 25 minutes
    python3 bench/report.py --only scaling # just the one-shot scaling table

Runs `run.py` on ten seeds per workload (untraced), one traced run per
workload, and the scaling table, one process at a time, and prints the
README's tables as markdown.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDS = tuple(range(1, 11))
TRACE_SEED = 1


def bench(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """One run's result line, plus its unscaled ops/s from standard error."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_ops_per_s"] = float(
        re.search(r"unscaled: .*ops_per_s ([0-9.]+)", proc.stderr).group(1))
    return result


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def spreads(seconds: int) -> None:
    print("| workload | metric | unit | median | IQR / median |")
    print("| --- | --- | --- | --- | --- |")
    for name in workloads.WORKLOADS:
        runs = [bench(name, seed, seconds, False) for seed in SEEDS]
        assert all(r["correct"] and r["failed"] == 0 for r in runs)
        values = {m: [r["metrics"][m]["value"] for r in runs]
                  for m in runs[0]["metrics"]}
        for metric, vals in values.items():
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"| {name} | {metric} | {unit} | "
                  f"{statistics.median(vals):.4g} | {spread(vals):.3f} |")


def traced(seconds: int) -> None:
    """Per-layer figures, and the tracing overhead against an untraced run."""
    plain = {name: bench(name, TRACE_SEED, seconds, False)
             for name in workloads.WORKLOADS}
    results = {name: bench(name, TRACE_SEED, seconds, True)
               for name in workloads.WORKLOADS}
    names = list(next(iter(results.values()))["metrics"])
    print("| metric | unit | " + " | ".join(results) + " |")
    print("| --- | --- |" + " --- |" * len(results))
    for metric in names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        cells = [f"{r['metrics'][metric]['value']:.4g}" for r in results.values()]
        print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
    print()
    print(f"| workload | untraced ops/s (seed {TRACE_SEED}) | traced ops/s | "
          "slowdown |")
    print("| --- | --- | --- | --- |")
    for name, r in results.items():
        ops_traced = r["raw_ops_per_s"]
        ops_plain = plain[name]["raw_ops_per_s"]
        print(f"| {name} | {ops_plain:.3f} | {ops_traced:.3f} | "
              f"{ops_plain / ops_traced:.2f}x |")


def scaling() -> None:
    """One-shot canonicalize --verify timings: growth in n, and in D."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from qstab import cli, formats, randgen

    print("| D | n | parts | canonicalize --verify (s) | gates | W gates |")
    print("| --- | --- | --- | --- | --- | --- |")
    cases = [(3, 12), (3, 24), (3, 48), (3, 6), (101, 6), (1009, 6), (2003, 6)]
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for d, n in cases:
            state = Path(tmp) / "s.stab"
            state.write_text(formats.render_stabilizer(randgen.random_state(d, n, 1)))
            qudits = list(range(n))
            random.Random(1).shuffle(qudits)
            cut = [sorted(qudits[:n // 3]), sorted(qudits[n // 3:2 * n // 3]),
                   sorted(qudits[2 * n // 3:])]
            spec = "/".join(",".join(str(q + 1) for q in p) for p in cut)
            out = Path(tmp) / "s.nf"
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["canonicalize", "--state", str(state), "--parts",
                               spec, "--verify", "--out", str(out)])
            dt = time.perf_counter() - t0
            assert rc == 0
            names = [ln.split()[0] for ln in out.read_text().splitlines()
                     if ln.split()[0] in ("F", "S", "W", "X", "Z", "CP", "CNOT")]
            sizes = "/".join(str(len(p)) for p in cut)
            print(f"| {d} | {n} | {sizes} | {dt:.3f} | {len(names)} | "
                  f"{names.count('W')} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("spreads", "trace", "scaling"))
    parser.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    print(f"nproc: {os.cpu_count()}\n")
    if args.only in (None, "scaling"):
        scaling()
        print()
    if args.only in (None, "spreads"):
        spreads(args.seconds)
        print()
    if args.only in (None, "trace"):
        traced(args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
