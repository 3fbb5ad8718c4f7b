"""Traced mode: per-layer counts and times from wrapped qstab functions.

Every public function of each traced module is wrapped in place, under
every name a qstab module binds it to (`qstab.canonicalize.multiply` as
well as `qstab.pauli.multiply`), so calls between modules are seen
wherever they happen. The constructors of `PauliProduct` and
`StabilizerGroup` are wrapped through their `__post_init__`. Nothing under
`src/` changes. `qstab.modring` is left unwrapped: its calls are tiny and
their time stays with the caller.

A wrapper keeps a stack of child-time accumulators, so each call's self
time is its duration minus the time its wrapped callees took. Inclusive
figures for a group of entry points count only the outermost call of the
group. Spans of the coarse layers (everything but the Pauli, Clifford and
linear-algebra primitives and the per-line gate parse/render) are kept in
memory with their parent span and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED = ("pauli", "clifford", "stabilizer", "linalg", "canonicalize", "crt",
          "channel", "oracle", "verify", "formats")
_FINE = ("pauli", "clifford", "linalg")
_PER_LINE = ("formats.parse_gate", "formats.render_gate")

# inclusive groups: metric name -> function keys whose outermost call counts
INCLUSIVE = {
    "canonicalize.normal_form_ms": ("canonicalize.bipartition_normal_form",
                                    "canonicalize.tripartition_normal_form"),
    "crt.decompose_ms": ("crt.decompose_state", "crt.decompose_group"),
    "channel.analyze_ms": ("channel.analyze_channel", "channel.subcode_bounds"),
    "oracle.state_ms": ("oracle.state_from_group",),
    "oracle.schmidt_ms": ("oracle.schmidt_rank",),
    "oracle.info_group_ms": ("oracle.brute_force_info_group",),
    "oracle.crt_embed_ms": ("oracle.crt_embedded_state",),
    "verify.normal_form_ms": ("verify.verify_normal_form",),
    "verify.channel_ms": ("verify.verify_channel_analysis",),
    "verify.crt_ms": ("verify.verify_crt_decomposition",),
}

# metric name -> (kind, keys); "calls" counts calls of exactly these function
# keys, "self" sums the self time of every key starting with one of them
_SELF_OR_CALLS = {
    "pauli.products": ("calls", ("pauli.PauliProduct.__post_init__",)),
    "pauli.multiply_calls": ("calls", ("pauli.multiply",)),
    "pauli.power_calls": ("calls", ("pauli.power",)),
    "pauli.ms": ("self", ("pauli.",)),
    "clifford.gate_conjugations": ("calls", ("clifford.gate_conjugate",)),
    "clifford.apply_gate_calls": ("calls", ("clifford.apply_gate",)),
    "clifford.ms": ("self", ("clifford.",)),
    "stabilizer.reductions": ("calls", ("stabilizer.reduce_generators",)),
    "stabilizer.subgroups": ("calls", ("stabilizer.subgroup_on_part",)),
    "stabilizer.group_builds": ("calls", ("stabilizer.StabilizerGroup.__post_init__",)),
    "stabilizer.elements": ("calls", ("stabilizer.elements.yield",)),
    "stabilizer.ms": ("self", ("stabilizer.",)),
    "linalg.rref_calls": ("calls", ("linalg.rref",)),
    "linalg.ms": ("self", ("linalg.",)),
    "canonicalize.ms": ("self", ("canonicalize.",)),
    "channel.choi_ms": ("self", ("channel.code_to_choi_state",)),
    "channel.duality_ms": ("self", ("channel.verify_duality",
                                    "channel.centralizer_in_pauli",
                                    "channel.pauli_groups_equal")),
}

VERBS = ("canonicalize", "crt-decompose", "channel", "oracle-verify")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, (kind, _) in _SELF_OR_CALLS.items():
        units[name] = "count/op" if kind == "calls" else "ms/op"
    for name in INCLUSIVE:
        units[name] = "ms/op"
    units["formats.parse_ms"] = "ms/op"
    units["formats.render_ms"] = "ms/op"
    units["cli.overhead_ms"] = "ms/op"
    for verb in VERBS:
        units[f"verb.{verb.replace('-', '_')}_p50_ms"] = "ms"
    return dict(sorted(units.items()))


class Tracer:
    """Wraps qstab functions and accumulates per-op counts and times."""

    def __init__(self) -> None:
        self.stack = [0.0]          # child-time accumulator per open call
        self.kept = [0]             # ids of open kept spans (0: the op)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.group_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.op_latency: list[tuple[str, float]] = []
        self.overhead_s = 0.0
        self.op_id = 0
        self.next_span = 1

    # ---------------------------------------------------------- wrapping

    def _groups_of(self, key: str) -> tuple[str, ...]:
        groups = [g for g, keys in INCLUSIVE.items() if key in keys]
        if key.startswith("formats.parse_"):
            groups.append("formats.parse_ms")
        if key.startswith("formats.render_") or key == "formats.report_from_analysis":
            groups.append("formats.render_ms")
        return tuple(groups)

    def _wrap(self, key: str, fn):
        stack, kept, calls, self_s = self.stack, self.kept, self.calls, self.self_s
        depth, group_s, spans = self.depth, self.group_s, self.spans
        groups = self._groups_of(key)
        keep = not key.startswith(_FINE) and key not in _PER_LINE
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for g in groups:
                depth[g] += 1
            if keep:
                sid = tracer.next_span
                tracer.next_span += 1
                kept.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[key] += dt - child
                calls[key] += 1
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += dt
                if keep:
                    kept.pop()
                    spans.append((sid, kept[-1], tracer.op_id, key, t0, dt))
        return wrapper

    def _wrap_generator(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[key + ".yield"] += 1
                yield item
        return wrapper

    def install(self, package) -> None:
        """Wrap the traced modules' public functions under every binding."""
        modules = {name: getattr(package, name) for name in TRACED}
        replaced = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{short}.{name}"
                if inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = self._wrap_generator(key, obj)
                else:
                    replaced[id(obj)] = self._wrap(key, obj)
        loaded = [m for name, m in sys.modules.items()
                  if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])
        for cls, key in ((modules["pauli"].PauliProduct, "pauli.PauliProduct"),
                         (modules["stabilizer"].StabilizerGroup,
                          "stabilizer.StabilizerGroup")):
            cls.__post_init__ = self._wrap(f"{key}.__post_init__",
                                           cls.__post_init__)

    # ----------------------------------------------------------- op roots

    def run_op(self, verb: str, call):
        """Run one op as the root span; its self time is the CLI overhead."""
        self.op_id += 1
        self.stack[:] = [0.0]
        self.kept[:] = [0]
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            dt = time.perf_counter() - t0
            self.overhead_s += dt - self.stack[0]
            self.op_latency.append((verb, dt))
            self.spans.append((0, None, self.op_id, f"op.{verb}", t0, dt))

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        ops = max(1, len(self.op_latency))
        out: dict[str, float] = {}
        for name, (kind, keys) in _SELF_OR_CALLS.items():
            if kind == "calls":
                out[name] = sum(self.calls[k] for k in keys) / ops
            else:
                total = sum(v for k, v in self.self_s.items() if k.startswith(keys))
                out[name] = 1000 * total / ops
        for name in list(INCLUSIVE) + ["formats.parse_ms", "formats.render_ms"]:
            out[name] = 1000 * self.group_s[name] / ops
        out["cli.overhead_ms"] = 1000 * self.overhead_s / ops
        for verb in VERBS:
            lat = [dt for v, dt in self.op_latency if v == verb]
            out[f"verb.{verb.replace('-', '_')}_p50_ms"] = (
                1000 * statistics.median(lat) if lat else 0.0)
        return out

    def write_spans(self, path: Path, meta: dict) -> None:
        """Spans as [id, parent, op, name, start_s, duration_s] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({**meta, "columns": ["id", "parent", "op", "name",
                                           "start_s", "duration_s"],
                       "spans": self.spans}, fh)
