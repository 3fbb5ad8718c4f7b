"""qstab benchmark: end-to-end metrics per workload, or per-layer ones traced.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process serves one workload: it imports qstab from the checkout's
`src/`, writes the workload's input files (several times, to time set-up),
then calls `qstab.cli.main` in a closed loop, one client, one op at a time,
in whole passes over the workload's ops until `--seconds` have gone by.
Every output of the first pass goes through the independent checker in
`checker.py`; every later pass must reproduce the first pass byte for byte.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--workload all` runs each workload in
a fresh process, so peak memory belongs to one workload.

Times are scaled to a reference speed. The machine's speed for pure-Python
work drifts by about 20 % over minutes, far more than a performance change
one wants to see, so a fixed kernel of benchmark code (an F_p elimination
from `checker.py`, never qstab) runs before every op and between set-up
repeats, outside the timed spans, and every time metric is multiplied by
REFERENCE_MS / (the run's median kernel time). The raw figures go to
standard error.

With `--trace 1` the qstab functions are wrapped (see `tracing.py`) and the
metrics are the per-layer ones, unscaled; spans go to `bench/_out/`.
"""

from __future__ import annotations

import os

# one thread for numpy/BLAS in this process; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_gmean": "ms",
    "gates_per_report": "gates",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
MIN_PASSES = 3
QSTAB_MODULES = ("cli", "randgen", "formats", "channel") + tracing.TRACED
# the reference kernel's time at the speed the figures are scaled to
REFERENCE_MS = 2.0


class SpeedProbe:
    """Times a fixed pure-Python kernel to track the machine's speed."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.matrix = [[rng.randrange(1009) for _ in range(40)] for _ in range(20)]
        self.samples: list[float] = []

    def sample(self) -> float:
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        checker.rref(self.matrix, 1009)
        dt = time.perf_counter() - t0
        if gc_was_on:
            gc.enable()
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Factor turning a measured time into one at reference speed."""
        return REFERENCE_MS / (1000 * statistics.median(self.samples))


def _import_qstab() -> types.ModuleType:
    """Import qstab afresh from the checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "qstab" or m.startswith("qstab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("qstab")
    for name in QSTAB_MODULES:
        importlib.import_module(f"qstab.{name}")
    if Path(package.__file__).resolve().parent != SRC / "qstab":
        raise SystemExit(f"qstab imported from {package.__file__}, not {SRC}")
    return package


def setup(workload, seed: int, work: Path, probe: SpeedProbe):
    """Import qstab and write the inputs SETUP_REPEATS times; time each."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        for _ in range(5):
            probe.sample()
        t0 = time.perf_counter()
        package = _import_qstab()
        with contextlib.redirect_stdout(io.StringIO()):
            ops = workloads.generate(package, workload, seed, work)
        times.append(time.perf_counter() - t0)
    return package, ops, statistics.median(times)


def _call(cli, op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:           # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:            # a traceback the CLI let through
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def measure(package, ops, seconds: float, probe: SpeedProbe,
            tracer=None) -> dict:
    """Whole passes over `ops` until `seconds` of op time have gone by."""
    cli = package.cli
    latencies = [[] for _ in ops]
    attempted = failed = mismatched = 0
    errors: list[str] = []
    first: dict[int, list[str]] = {}    # op index -> [stdout, *output texts]
    passes = 0
    min_passes = 1 if tracer else MIN_PASSES
    gc.collect()
    start = time.perf_counter()
    probing = 0.0
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            probing += probe.sample()
            t0 = time.perf_counter()
            if tracer:
                rc, out, err = tracer.run_op(op.verb, lambda op=op: _call(cli, op))
            else:
                rc, out, err = _call(cli, op)
            latencies[i].append(time.perf_counter() - t0)
            if rc != 0:
                failed += 1
                errors.append(f"{op.verb}: exit {rc}: {err.strip()}")
                continue
            emitted = [out] + [f.read_text() for f in op.outputs]
            if i not in first:
                first[i] = emitted
            elif emitted != first[i]:
                mismatched += 1
        passes += 1
        elapsed = time.perf_counter() - start - probing
        if elapsed >= seconds and passes >= min_passes:
            break
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "mismatched": mismatched, "errors": errors, "elapsed": elapsed,
            "passes": passes, "first": first}


def check_outputs(ops, first) -> list[str]:
    """Run the independent checker on each op's first successful output."""
    problems = []
    for i, op in enumerate(ops):
        if i not in first:
            continue
        try:
            op.check(first[i][0], first[i][1:])
        except checker.CheckFailed as exc:
            problems.append(f"{' '.join(op.argv)}: {exc}")
    return problems


def gates_per_report(ops, first) -> float:
    gates = lists = 0
    for i, op in enumerate(ops):
        if op.emits_gates and i in first:
            g, n = checker.count_gate_lists(first[i][1])
            gates += g
            lists += n
    return gates / lists if lists else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "qstab" / "__init__.py").is_file():
        raise SystemExit(f"no qstab sources under {SRC}")
    import numpy  # noqa: F401  (a dependency; its import is not set-up)

    workload = workloads.WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    try:
        package, ops, setup_s = setup(workload, seed, work, setup_probe)
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install(package)
        res = measure(package, ops, seconds, probe, tracer)
        problems = check_outputs(ops, res["first"])
        gpr = gates_per_report(ops, res["first"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in res["errors"][:5] + problems[:5]:
        print(f"# {line}", file=sys.stderr)
    correct = not problems and res["mismatched"] == 0
    raw_gmean_s = math.exp(statistics.fmean(
        math.log(statistics.median(lat)) for lat in res["latencies"]))
    raw_ops_per_s = (res["attempted"] - res["failed"]) / res["elapsed"]
    if traced:
        units = tracing.metric_units()
        values = tracer.metrics()
        tracer.write_spans(OUT / f"trace-{name}-seed{seed}.json",
                           {"workload": name, "seed": seed,
                            "passes": res["passes"]})
    else:
        units = END_TO_END
        values = {
            "setup_s": setup_s * setup_probe.scale(),
            "ops_per_s": raw_ops_per_s / probe.scale(),
            "op_ms_gmean": 1000 * raw_gmean_s * probe.scale(),
            "gates_per_report": gpr,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(f"# {name}: seed {seed}, {res['passes']} passes of {len(ops)} ops "
          f"in {res['elapsed']:.2f} s; unscaled: setup_s {setup_s:.4f}, "
          f"ops_per_s {raw_ops_per_s:.4f}, op_ms_gmean {1000 * raw_gmean_s:.3f}; "
          f"reference kernel {1000 * statistics.median(probe.samples):.3f} ms",
          file=sys.stderr)
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def run_all(args) -> dict:
    """Each workload in a fresh process; one table and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
