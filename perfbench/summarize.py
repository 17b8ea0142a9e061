"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/summarize.py --seeds 1-10 [--workload divergence ...] [--trace-seed 1]
        [--out perfbench/trajectory/NNNN-label.json --label "what changed"]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  With ``--trace-seed`` it also makes one traced
run per workload.  With ``--out`` it writes the whole summary as one JSON
point of the bench trajectory.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"label": args.label, "run_seconds": bench["run_seconds"], "seeds": seeds,
               "workloads": {}}
    for workload in args.workload or names:
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            print(f"  {metric:12s} median {s['median']:12.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[metric]})")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = traced["metrics"]
        summary["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        env_file = HERE / "out" / f"{(args.workload or names)[0]}-seed{seeds[0]}-untraced.json"
        summary["environment"] = json.loads(env_file.read_text())["environment"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
