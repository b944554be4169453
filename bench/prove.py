"""Run the benchmark over several seeds and summarise its steadiness.

    python3 bench/prove.py --seeds 10 --out bench/results/baseline.json
    python3 bench/prove.py --workloads scalar_eval --seeds 5

For each workload this runs ``run.py --trace 0`` once per seed (1..N) and,
with ``--traced``, one ``--trace 1`` run on seed 1.  For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles`` with
n=4) and their distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  A spread above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    return json.loads(lines[-1]), record


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread is not None and spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    summary = {"run_seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)),
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        lines, records = zip(*runs)
        first = records[0]
        entry = {
            "why": first["why"],
            "input_size": first["input_size"],
            "machine": first["machine"],
            "correct": all(l["correct"] for l in lines),
            "attempted": [l["attempted"] for l in lines],
            "failed": [l["failed"] for l in lines],
            "metrics": {},
        }
        for key in first["end_to_end"]:
            values = [r["end_to_end"][key]["value"] for r in records if key in r["end_to_end"]]
            if len(values) == len(records):
                entry["metrics"][key] = {"unit": first["end_to_end"][key]["unit"],
                                         **summarise(values, bounds.get(key))}
        if args.traced:
            _, traced = run_once(workload, 1, args.seconds, 1)
            entry["per_layer_seed1"] = traced["per_layer"]
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for key, m in entry["metrics"].items():
            flag = "" if m.get("steady", True) else "  <-- spread above a third of the bound"
            bound = f" bound {m['bound']:.2f}" if "bound" in m else ""
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {key:<14} median {m['median']:.6g} {m['unit']:<5} spread {spread}{bound}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
