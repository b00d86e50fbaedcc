"""Layer spans for the multifan pipeline, recorded from outside the package.

The package binds most names with ``from .exactla import ...``, so a
function is reachable under several module attributes (for example
``multifan.fan.bareiss_det`` and ``multifan.exactla.bareiss_det``).
``install`` replaces every such binding in every loaded ``multifan`` module
with one wrapper, so each call is recorded once whichever name the caller
used.

Run as a script, it executes one ``multifan`` command line under tracing,
keeps the spans in memory and writes them as JSON when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json check --rays r.rays --kn 2,4

The exit code and standard output are those of the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (module, function, mode).  "span" records name, start, end and parent for
# every call; "count" only counts calls, for functions called millions of
# times per command, where a span per call would dominate the run.
# ``fan._stats`` is the indexed statistics (facet determinants, ridge
# parity over the dual edges, degenerate ranks): ``fan_statistics`` is a
# one-line shim over it and ``certify_fan`` calls it directly, so it is
# reported under the public name.
TRACED = (
    ("cli", "main", "span"),
    ("rays", "build_rays", "span"),
    ("rays", "parse_ray_file", "span"),
    ("subword", "all_facets", "span"),
    ("subword", "root_configuration", "span"),
    ("subword", "positions_of", "count"),
    ("exactla", "bareiss_det", "span"),
    ("exactla", "int_rank", "span"),
    ("exactla", "solve_unique", "span"),
    ("exactla", "feasible_nonneg", "span"),
    ("fan", "certify_fan", "span"),
    ("fan", "_stats", "span"),
    ("fan", "stream_statistics", "span"),
    ("fan", "condition_one", "span"),
    ("fan", "classify_ridge", "span"),
    ("tables", "reproduce_table", "span"),
)


def span_name(layer: str, fn_name: str) -> str:
    name = f"{layer}.{fn_name}"
    return "fan.fan_statistics" if name == "fan._stats" else name


# metric -> (span, fact read off its return value); kept as the maximum
PROBES = {
    "exactla.bareiss_det.bits_max": ("exactla.bareiss_det", lambda det: abs(det).bit_length()),
    "subword.all_facets.facets": ("subword.all_facets", lambda index: index.n_facets),
    "subword.all_facets.ridges": ("subword.all_facets", lambda index: index.n_ridges),
}


class Tracer:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start ns, end ns]
        self.counts: dict[str, list[int]] = {}
        self.probes: dict[str, int] = {}
        self._stack = [-1]

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probes = [(metric, fact) for metric, (src, fact) in PROBES.items() if src == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, stack[-1], clock(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            for metric, fact in probes:
                value = fact(result)
                self.probes[metric] = max(self.probes.get(metric, value), value)
            return result

        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function under every name it is bound to."""
        importlib.import_module("multifan.cli")  # imports every layer
        modules = [m for name, m in sys.modules.items()
                   if name == "multifan" or name.startswith("multifan.")]
        for layer, fn_name, mode in TRACED:
            original = getattr(importlib.import_module(f"multifan.{layer}"), fn_name)
            name = span_name(layer, fn_name)
            wrapped = (self.span if mode == "span" else self.counter)(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "probes": self.probes,
        }


def summarize(doc: dict) -> dict[str, float]:
    """Per-function and per-layer calls, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls in one process do not overlap, so the children never
    double-count.  A layer's total counts only its outermost spans.
    """
    spans = doc["spans"]
    child = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    durations: dict[str, list[int]] = {}
    for sid, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        layer = name.split(".", 1)[0]
        self_ns = dur - child[sid]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0) + self_ns
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0) + self_ns
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            out[f"{layer}.s"] = out.get(f"{layer}.s", 0) + dur
    for name, durs in durations.items():
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.s"] = sum(durs)
    for key in list(out):
        if key.endswith("_s") or key.endswith(".s"):
            out[key] = out[key] / 1e9
    for layer, fn_name, mode in TRACED:
        name = span_name(layer, fn_name)
        out.setdefault(f"{name}.calls", 0)
        if mode == "span":
            out.setdefault(f"{name}.s", 0.0)
            out.setdefault(f"{name}.self_s", 0.0)
        out.setdefault(f"{layer}.s", 0.0)
        out.setdefault(f"{layer}.self_s", 0.0)
    lp = durations.get("exactla.feasible_nonneg", [])
    out["exactla.feasible_nonneg.p50_ms"] = statistics.median(lp) / 1e6 if lp else 0.0
    out["exactla.feasible_nonneg.p99_ms"] = (
        statistics.quantiles(lp, n=100)[98] / 1e6 if len(lp) >= 2 else 0.0)
    for name, n in doc["counts"].items():
        out[f"{name}.calls"] = n
    for metric in PROBES:
        out[metric] = doc["probes"].get(metric, 0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json MULTIFAN-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("multifan.cli")
    try:
        return cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
