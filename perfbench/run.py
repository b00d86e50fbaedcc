"""End-to-end and per-layer benchmark of the multifan certify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process runs one operation at a time (a closed loop of one caller, with
``--threads 1``); every operation is a fresh ``multifan`` process whose
output is checked before it counts.  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced operations on the same input, checks that their
outputs are identical, and reports the per-layer metrics taken from the
spans ``tracer.py`` records.  Operation times are given in reference
units: divided by the time of a fixed kernel timed on the same CPU while
the operation runs, which cancels the drift of the host's CPU speed.
Every metric, plus provenance, is printed as ``name = value unit``; the
last line is the JSON result.  Scratch files, span dumps and a full result
record go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 9
OP_TIMEOUT_S = 100
# An untraced operation is paused this often to time the reference kernel.
PAUSE_EVERY_S = 0.25
REF_PASSES = 5  # reference-kernel passes per sample, about 10 ms
# cones and ridges of Delta(2, n), whatever the rays (golden T2/T4/T6)
TOTALS = {4: (594, 2376), 6: (40898, 245388)}
# The witness search of a rejected candidate scans the dual edges up to
# the first bad ridge.  Over perturbation seeds 1..9 that took 839 to 7,956
# ridges (5 to 60 s), so the perturbation is fixed and the seed varies a
# positive rescaling of the rays, which leaves every ridge status as is.
PERTURB_SEED = 1
RAYS, REPORT = "{rays}", "{report}"
STAT_FIELDS = ("bad_ridges", "degenerate_ridges", "ridges",
               "degenerate_cones", "cones", "min_dimension")


@dataclass
class Op:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float  # one reference-kernel pass, timed around and during the run
    stdout: str
    report: str | None


@dataclass(frozen=True)
class Workload:
    construction: str
    n: int
    cseed: int | None  # construction seed
    rescale: bool  # rays rescaled by factors drawn from --seed
    command: tuple[str, ...]
    check: Callable[[Op, dict], tuple[list[str], dict]]
    prepare: Callable[[Path], dict] = lambda rays: {}


# ---------------------------------------------------------------- gates

def _exit_code(op: Op, want: int, problems: list[str]):
    if op.rc != want:
        problems.append(f"exit code {op.rc}, expected {want}")


def _report(op: Op, problems: list[str]) -> dict:
    try:
        return json.loads(op.report or "")
    except ValueError:
        problems.append("report JSON missing or unreadable")
        return {"stats": {}}


def _expect(doc: dict, want: dict, problems: list[str], where: str):
    for key, value in want.items():
        if doc.get(key) != value:
            problems.append(f"{where}{key} = {doc.get(key)!r}, expected {value!r}")


def _check_totals(stats: dict, n: int, problems: list[str]):
    cones, ridges = TOTALS[n]
    _expect(stats, {"cones": cones, "ridges": ridges}, problems, "stats.")


def check_certify(op: Op, expected: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    _exit_code(op, 0, problems)
    rep = _report(op, problems)
    _expect(rep, {"certified": True, "condition1": "full",
                  "condition1_holds": True, "first_failure": None}, problems, "")
    stats = rep.get("stats", {})
    _check_totals(stats, 4, problems)
    _expect(stats, {"bad_ridges": 0, "degenerate_ridges": 0}, problems, "stats.")
    if "certified: complete simplicial fan" not in op.stdout:
        problems.append("stdout lacks the certificate line")
    return problems, stats


def check_stats(op: Op, expected: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    _exit_code(op, 0, problems)
    cells = {}
    for line in op.stdout.splitlines():
        if line.startswith("PASS T6[n=6, "):
            key, _, value = line[len("PASS T6[n=6, "):].partition("] = ")
            cells[key] = value
    if len(cells) != 8 or "T6: 8/8 cells match" not in op.stdout:
        problems.append(f"{len(cells)} of 8 T6 cells pass")
    stats = {k: int(v) for k, v in cells.items() if v.isdigit()}
    _check_totals(stats, 6, problems)
    return problems, stats


def prepare_reject(rays: Path) -> dict:
    """Reference statistics of the rays by the streamed traversal."""
    from multifan.fan import stream_statistics
    from multifan.rays import parse_ray_file

    ra = parse_ray_file(rays.read_text())
    stats = stream_statistics(ra)
    return {"ra": ra, "stats": {f: getattr(stats, f) for f in STAT_FIELDS}}


def _witness_status(ra, ridge: tuple[int, ...]) -> str:
    """``classify_ridge`` on the two facets that contain ``ridge``."""
    from multifan.fan import classify_ridge
    from multifan.subword import bitset_of, is_face

    base = bitset_of(ridge)
    facets = sorted(base | 1 << (q - 1) for q in range(1, len(ra.word) + 1)
                    if q not in ridge and is_face(ra.word, ridge + (q,)))
    if len(facets) != 2:
        return f"on {len(facets)} facets"
    return classify_ridge(ra, *facets).status


def check_reject(op: Op, expected: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    _exit_code(op, 1, problems)
    rep = _report(op, problems)
    _expect(rep, {"certified": False}, problems, "")
    stats = rep.get("stats", {})
    _check_totals(stats, 6, problems)
    _expect(stats, expected["stats"], problems, "stats vs stream_statistics: ")
    if not stats.get("bad_ridges"):
        problems.append("no bad ridge reported")
    first = rep.get("first_failure") or ""
    if not first.startswith("bad ridge (") or f"not certified: {first}" not in op.stdout:
        problems.append(f"first failure {first!r} is not a bad ridge")
    else:
        ridge = tuple(int(t) for t in first[len("bad ridge ("):-1].split(","))
        status = _witness_status(expected["ra"], ridge)
        if status != "bad":
            problems.append(f"witness ridge {ridge} reclassified {status!r}")
    return problems, stats


WORKLOADS = {
    "certify-pattern-n4": Workload(
        "pattern", 4, None, False,
        ("check", "--rays", RAYS, "--kn", "2,4", "--threads", "1", "--out", REPORT),
        check_certify),
    "stats-linear-n6": Workload(
        "linear", 6, None, False,
        ("reproduce", "T6", "--n", "6", "--tier", "full", "--threads", "1"),
        check_stats),
    "reject-perturbed-n6": Workload(
        "perturbed", 6, PERTURB_SEED, True,
        ("check", "--rays", RAYS, "--kn", "2,6", "--tier", "full", "--threads", "1",
         "--out", REPORT),
        check_reject, prepare_reject),
}


# ---------------------------------------------------------------- host speed

# The CPU speed this guest gets drifts with the load of the shared host, by
# up to a factor of two within a minute, and operation times follow it.  A
# fixed pure-Python kernel, timed on the same CPU around and during each
# operation, measures that speed: an operation's time divided by the time
# of one kernel pass (its time in reference units, "ref") repeats across
# runs far better than its time in seconds.  The kernel is exact rational
# elimination and a dict fill, the kind of work the package does, on a
# working set that stays in cache: a kernel walking 100,000 Fractions in
# random order followed the drift far less closely than the operations do.
_REF_MATRIX = [[random.Random(7 * i + j).randint(-9, 9) for j in range(8)]
               for i in range(8)]


def reference_pass() -> Fraction:
    rows = [[Fraction(x) for x in row] for row in _REF_MATRIX]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    table = {}
    for i in range(3000):
        table[i * 7919 % 1009] = i
    return det


def time_reference() -> float:
    """Seconds of one reference-kernel pass, averaged over ``REF_PASSES``."""
    start = time.perf_counter()
    for _ in range(REF_PASSES):
        reference_pass()
    return (time.perf_counter() - start) / REF_PASSES


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, where the kernel runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---------------------------------------------------------------- processes

def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same str hashing in every operation
    return env


def run_child(argv: list[str], stdout_path: Path, pause_every: float | None = None
              ) -> tuple[int, float, float, float, float]:
    """Run one process to completion.

    Returns exit code, wall s, CPU s, peak RSS MB and the mean time of one
    reference-kernel pass.  The kernel is timed just before the process
    starts and just after it ends; with ``pause_every`` also every that many
    seconds while it runs, with the process stopped so that the kernel has
    the CPU to itself.  Paused time is not counted in the wall time.
    ``os.wait4`` gives the child's own resource usage, so CPU time and
    ``ru_maxrss`` belong to this process alone.
    """
    refs = [time_reference()]
    paused = 0.0
    status = usage = None
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while status is None:
                ready, _, _ = select.select([pidfd], [], [], pause_every or 1.0)
                if ready:
                    break
                if time.perf_counter() - start - paused > OP_TIMEOUT_S:
                    proc.kill()
                    break
                if pause_every is None:
                    continue
                pause = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, st, ru = os.wait4(proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(st):
                    refs.append(time_reference())
                    os.kill(proc.pid, signal.SIGCONT)
                else:  # it ended before the stop; wait4 has reaped it
                    status, usage = st, ru
                paused += time.perf_counter() - pause
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:  # an exception left it running
                proc.kill()
                proc.wait()
            os.close(pidfd)
        wall = time.perf_counter() - start - paused
    refs.append(time_reference())
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, statistics.mean(refs))


def setup(wl: Workload, seed: int, rays: Path) -> list[float]:
    """Times of fresh processes that import multifan and write the rays.

    The first one is not timed: it may compile the bytecode cache.
    """
    argv = [sys.executable, str(HERE / "make_rays.py"), wl.construction, str(wl.n),
            "-" if wl.cseed is None else str(wl.cseed),
            str(seed) if wl.rescale else "-", str(rays)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        rc, wall, _, _, _ = run_child(argv, WORK / "setup.out")
        if rc != 0:
            raise RuntimeError(f"ray generation failed with exit code {rc}")
        if i:
            times.append(wall)
    return times


def run_op(wl: Workload, name: str, rays: Path, tag: str,
           spans: Path | None = None) -> Op:
    report = WORK / f"{name}-{tag}.report.json"
    report.unlink(missing_ok=True)
    args = [a.replace(RAYS, str(rays)).replace(REPORT, str(report)) for a in wl.command]
    if spans is None:
        argv = [sys.executable, "-m", "multifan", *args]
    else:
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
    stdout = WORK / f"{name}-{tag}.stdout"
    # A traced operation is not paused: the pause would fall inside its spans.
    rc, wall, cpu, rss, ref = run_child(argv, stdout,
                                        None if spans else PAUSE_EVERY_S)
    return Op(rc, wall, cpu, rss, ref, stdout.read_text(),
              report.read_text() if report.exists() else None)


# ---------------------------------------------------------------- metrics

def unit_of(metric: str) -> str:
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bits_max"):
        return "bit"
    if metric.endswith((".calls", ".facets", ".ridges", ".samples", "_scanned")):
        return "count"
    return "ratio"


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    for p in (99.9, 99, 90, 50):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cut[round(p * 10) - 1]
    return None


def layer_metrics(spans: Path, facts: dict) -> dict[str, float]:
    from tracer import summarize

    m = summarize(json.loads(spans.read_text()))
    cones = facts.get("cones") or 1  # a failed gate leaves no count
    scanned = m.get("fan.classify_ridge.calls", 0)
    m["exactla.bareiss_det.per_cone"] = m.get("exactla.bareiss_det.calls", 0) / cones
    m["fan.witness.ridges_scanned"] = scanned
    m["fan.witness.useful_ratio"] = 1 / scanned if scanned else 0.0
    m["input.degenerate_cone_share"] = facts.get("degenerate_cones", 0) / cones
    m["input.lp_per_nonbase_facet"] = (
        m.get("exactla.feasible_nonneg.calls", 0) / (cones - 1))
    return m


def provenance(args, name: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "multifan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_metrics(metrics: dict[str, float]):
    for key in sorted(metrics):
        value = metrics[key]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{key} = {shown} {unit_of(key)}")


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multifan" / "__init__.py").is_file():
        print(f"error: no multifan package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    name, wl = args.workload, WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    prov = provenance(args, name)
    for key, value in prov.items():
        print(f"# {key}: {value}")

    rays = WORK / f"{name}.rays"
    setup_times = setup(wl, args.seed, rays)
    expected = wl.prepare(rays)  # reference results, outside the timed region

    ops: list[tuple[str, Op, list[str]]] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        plain = run_op(wl, name, rays, "plain")
        problems, facts = wl.check(plain, expected)
        ops.append(("plain", plain, problems))
        if args.trace:
            spans = WORK / f"{name}.spans.json"
            traced = run_op(wl, name, rays, "traced", spans)
            problems, facts = wl.check(traced, expected)
            if (traced.stdout, traced.report) != (plain.stdout, plain.report):
                problems.append("traced output differs from untraced output")
            ops.append(("traced", traced, problems))
            layers.append(layer_metrics(spans, facts))

    for kind, op, problems in ops:
        for problem in problems:
            print(f"FAILED {kind} operation: {problem}", file=sys.stderr)
    failed = sum(1 for _, _, problems in ops if problems)
    walls = {kind: [op.wall_s for k, op, _ in ops if k == kind] for kind in ("plain", "traced")}
    plain_ops = [op for kind, op, _ in ops if kind == "plain"]
    metrics: dict[str, float] = {
        "wall_ref": statistics.median(op.wall_s / op.ref_s for op in plain_ops),
        "cpu_ref": statistics.median(op.cpu_s / op.ref_s for op in plain_ops),
        "ref_pass_ms": 1000 * statistics.median(op.ref_s for op in plain_ops),
        "wall_s": statistics.median(walls["plain"]),
        "cpu_s": statistics.median(op.cpu_s for op in plain_ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in plain_ops),
        "setup_s": statistics.median(setup_times),
        "wall_s.samples": len(walls["plain"]),
        "setup_s.samples": len(setup_times),
        "failed_ratio": failed / len(ops),
    }
    tail = tail_percentile(walls["plain"])
    if tail:
        metrics[f"wall_s.p{tail[0]:g}"] = tail[1]
    else:
        print("# wall_s tail percentile: none (needs ten samples above it)")
    if args.trace:
        metrics.update({key: statistics.median(m.get(key, 0) for m in layers)
                        for key in layers[0]})
        metrics["trace.samples"] = len(layers)
        metrics["trace.overhead_ratio"] = (
            statistics.median(op.wall_s / op.ref_s for k, op, _ in ops if k == "traced")
            / metrics["wall_ref"])
        top = sorted((k for k in metrics if k.count(".") == 2 and k.endswith(".self_s")),
                     key=metrics.get, reverse=True)[:5]
        print("# largest self times: " + ", ".join(f"{k} {metrics[k]:.3f} s" for k in top))
    print_metrics(metrics)

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items()},
    }
    record = {"provenance": prov, "metrics": metrics, "setup_s": setup_times,
              "operations": [{"kind": kind, "rc": op.rc, "wall_s": op.wall_s,
                              "cpu_s": op.cpu_s, "rss_mb": op.rss_mb,
                              "ref_s": op.ref_s,
                              "problems": problems} for kind, op, problems in ops]}
    (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
