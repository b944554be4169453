"""meanlab benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 20 --trace 0

Workloads: verify_grid, bracket_sweep, scalar_eval (see workloads.py).  The
program is imported from ``src/`` next to this directory; without it the run
exits 2 and prints no result.

With ``--trace 0`` the run runs ops until ``--seconds`` have passed,
measuring set-up (fresh interpreters importing meanlab and building the
chain registry) between ops at even intervals, then checks every output and
prints the end-to-end metrics.  With
``--trace 1`` it runs the same untraced loop, then replays its first ops
with and without wrappers on meanlab's module attributes and prints the
per-layer metrics and the tracing overhead; spans go to ``.bench_work/``.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The lines before it give every metric with its sample count, the
machine record and the workload's input size.  The exit code is 1 when an
output check fails the workload's correctness gate, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from array import array
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("verify_grid", "bracket_sweep", "scalar_eval")
#: Fresh interpreters per run, spread evenly through the timed loop so that
#: a slow spell of the machine does not set the median alone.
SETUP_REPEATS = 16
#: verify_grid's thread pool size; fixed so that machines with more cores run
#: the same op, capped at the cores this process may use.
MAX_THREADS = 2
TAIL_LEVELS = (99.9, 99.0, 90.0)

_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import meanlab\n"
    "t1 = time.perf_counter()\n"
    "meanlab.builtin_suite()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def setup_samples(repeats: int) -> list[tuple[float, float]]:
    """(import seconds, registry seconds) from ``repeats`` fresh interpreters
    that import meanlab and build the chain registry."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        t_import, t_suite = map(float, proc.stdout.split())
        samples.append((t_import, t_suite))
    return samples


def summarize_setup(samples) -> dict:
    return {"setup_s": statistics.median(i + s for i, s in samples),
            "import_s": statistics.median(i for i, _ in samples),
            "suite_s": statistics.median(s for _, s in samples),
            "samples": len(samples)}


def cache_sizes() -> dict:
    """Cache sizes of cpu0, read from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def machine_record(threads: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "meanlab_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": cache_sizes(),
        "machine": platform.machine(),
    }


def tail(times) -> tuple[float, float] | None:
    """(level, seconds) of the highest TAIL_LEVELS percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    for level in TAIL_LEVELS:
        beyond = math.floor(n * (100.0 - level) / 100.0 + 1e-6)
        if beyond >= 10:
            return level, ordered[n - beyond - 1]
    return None


def best_per_input(times, inputs) -> tuple[float, float, int, int]:
    """(median op seconds, ops per second, distinct inputs, fewest repeats)
    from each distinct input's fastest repeat in the run.

    Every input repeats through the run.  On a shared 2-vCPU virtual machine,
    other tenants were seen to slow every op by up to 2x for seconds at a
    time, with thread CPU time slowed alike (contention, not stolen time).
    An input's fastest repeat is its cost with the least disturbance; the
    op time is the median of those over the inputs, and the rate is the
    inputs over the sum of them.
    """
    best: dict[int, float] = {}
    repeats: dict[int, int] = {}
    for t, j in zip(times, inputs):
        if t < best.get(j, math.inf):
            best[j] = t
        repeats[j] = repeats.get(j, 0) + 1
    values = list(best.values())
    return statistics.median(values), len(values) / sum(values), len(values), min(repeats.values())


def timed_loop(workload, seconds: float, setups: int):
    """Run ops until ``seconds`` of loop time have passed (at least one op),
    taking ``setups`` set-up samples spread evenly through the loop, between
    ops.  Returns the per-op times, the loop's wall time without the set-up
    samples, and the samples.  ``keep`` runs outside op times."""
    times = array("d")
    samples = []
    marks = [seconds * (k + 0.5) / setups for k in range(setups)]
    paused = 0.0
    i = 0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.op(i)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        workload.keep(i, result)
        i += 1
        elapsed = t1 - begin - paused
        if elapsed >= seconds:
            break
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            s0 = time.perf_counter()
            samples += setup_samples(1)
            paused += time.perf_counter() - s0
    samples += setup_samples(len(marks))  # those the loop ended before
    return times, elapsed, samples


def build_workload(name: str, modules: dict, workdir: Path, threads: int, **size):
    if name == "verify_grid":
        return workloads.VerifyGrid(modules["cli"], workdir, threads=threads, **size)
    if name == "bracket_sweep":
        return workloads.BracketSweep(modules["chains"], **size)
    return workloads.ScalarEval(modules["chains"], modules["expressions"], **size)


def import_meanlab() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import meanlab
    from meanlab import chains, cli, expressions, means, ratios, series

    if Path(meanlab.__file__).resolve().parent != SRC / "meanlab":
        raise ImportError(f"imported meanlab from {meanlab.__file__}, not from {SRC}")
    return {"means": means, "series": series, "expressions": expressions,
            "chains": chains, "ratios": ratios, "cli": cli}


class WarningCounter:
    """Counts the warnings that reach the benchmark, in place of printing them."""

    def __init__(self):
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int | None = None, **size) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    if not (SRC / "meanlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"meanlab sources not found under {SRC}")
    modules = import_meanlab()
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    os.environ["MEANLAB_THREADS"] = str(threads)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    escaped = WarningCounter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = escaped
            workload = build_workload(workload_name, modules, workdir, threads, **size)
            modules["chains"].builtin_suite()
            workload.prepare(seed)
            for i in range(workload.warmup_ops):
                workload.op(i)
            warmup_warnings = escaped.count
            times, wall, samples = timed_loop(workload, seconds, setup_repeats or SETUP_REPEATS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            warnings_untraced = escaped.count - warmup_warnings
            setup = summarize_setup(samples)
            outcome = workload.check()
            layers = None
            if trace:

                spans_path = WORK / f"trace-{workload_name}-{seed}.jsonl"
                traced_ops = min(len(times), workload.trace_cap)
                layers = traced_replay(workload, modules, traced_ops, threads, escaped, spans_path)
                layers["cli.import_s"] = setup["import_s"]
                layers["chains.builtin_suite_s"] = setup["suite_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(times)
    p50, rate, distinct, repeats = best_per_input(times, map(workload.input_of, range(n)))
    end_to_end = {
        "setup_s": (setup["setup_s"], "s", setup["samples"]),
        "ops_per_s": (rate, "1/s", distinct),
        "op_p50_ms": (p50 * 1e3, "ms", distinct),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "wall_s": (wall, "s", 1),
        "op_p50_all_ms": (statistics.median(times) * 1e3, "ms", n),
        "fail_ratio": (outcome.failed / outcome.attempted, "ratio", outcome.attempted),
    }
    tail_level = tail(times)
    if tail_level is not None:
        end_to_end["op_tail_ms"] = (tail_level[1] * 1e3, "ms", n)
    record = {
        "workload": workload_name,
        "why": workload.why,
        "input_size": workload.size,
        "distinct_inputs": distinct,
        "fewest_repeats": repeats,
        "seed": seed,
        "seconds": seconds,
        "machine": machine_record(threads),
        "end_to_end": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in end_to_end.items()},
        "op_tail_level": tail_level[0] if tail_level else None,
        "warnings_escaped": warnings_untraced,
        "problems": outcome.problems[:20],
        "detail": outcome.detail,
    }
    if trace:
        record["per_layer"] = layers
        record["traced_ops"] = traced_ops
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracer.UNITS.items()}
    else:
        metrics = {k: {"value": end_to_end[k][0], "unit": end_to_end[k][1]} for k in GATED}
    line = {"correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}
    return line, record


#: End-to-end metrics in the result line: those every workload has and that
#: are never zero.  wall_s is set by --seconds, op_tail_ms needs more ops than
#: verify_grid makes, and fail_ratio is 0 on two workloads; they are printed
#: above the result line, and failed ops are counted in "failed".
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")


def traced_replay(workload, modules, count: int, threads: int, escaped: WarningCounter,
                  spans_path: Path) -> dict:
    """Replay ops 0..count-1 twice, untraced and traced, alternating in
    blocks so that a slow spell of the machine hits both alike; per-layer
    metrics of the traced ops and the tracing overhead."""
    t = tracer.Tracer()
    block = max(1, count // 10)
    plain_time = traced_time = 0.0
    traced_warnings = 0
    for start in range(0, count, block):
        ops = range(start, min(start + block, count))
        t0 = time.perf_counter()
        for i in ops:
            workload.op(i)
        plain_time += time.perf_counter() - t0
        before = escaped.count
        t.install(**modules)
        try:
            t0 = time.perf_counter()
            for i in ops:
                t.run_op(i, lambda i=i: workload.op(i))
            traced_time += time.perf_counter() - t0
        finally:
            t.uninstall()
        traced_warnings += escaped.count - before
    layers = t.layer_metrics(count, threads)
    layers["means.warnings_escaped"] = traced_warnings / count
    layers["trace.overhead_s"] = traced_time - plain_time
    layers["trace.overhead_ratio"] = traced_time / plain_time - 1.0
    t.write(spans_path)
    return layers


def print_report(line: dict, record: dict) -> None:
    print(f"workload {record['workload']}: {record['why']}")
    print("input size: " + json.dumps(record["input_size"]))
    print(f"distinct inputs: {record['distinct_inputs']}, each run at least "
          f"{record['fewest_repeats']} times")
    print("machine: " + json.dumps(record["machine"]))
    for key, m in record["end_to_end"].items():
        label = key
        if key == "op_tail_ms":
            label += f" (p{record['op_tail_level']:g})"
        print(f"  {label:<24} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if "op_tail_ms" not in record["end_to_end"]:
        print(f"  {'op_tail_ms':<24} omitted: fewer than 100 ops")
    print(f"  {'warnings_escaped':<24} {record['warnings_escaped']}")
    for key, value in line["metrics"].items():
        if "per_layer" in record:
            print(f"  {key:<36} {value['value']:.6g} {value['unit']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if record["detail"]:
        print("detail: " + json.dumps(record["detail"]))
    print("record: " + json.dumps(record))
    print(json.dumps(line))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0):
        ap.error("--seconds must be positive")
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(line, record)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
