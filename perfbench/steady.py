#!/usr/bin/env python3
"""Run each workload over several seeds and report how steady its metrics are.

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/baseline/<sha>.json --traced

For every end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median over the seeds, as ``statistics.quantiles(values, n=4)``
gives the quartiles, next to the metric's bound from BENCHMARK.json. A
spread at or above the bound makes the benchmark unusable for that metric;
the target is a third of the bound. ``--traced`` adds one traced run per
workload. ``--out`` saves every run's result lines and the summary in one
JSON file, the format of the committed baselines.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, "trace": trace, "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "bound": bound, "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']}", flush=True)
        summary = summarize(runs, bounds) if len(runs) > 1 else {}
        for name, s in summary.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "WIDE" if s["spread"] < s["bound"] else "OVER BOUND")
            steady &= name == "setup_s" or s["spread"] < s["bound"]
            print(f"  {workload:13s} {name:22s} median {s['median']:12.5g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}  {flag}", flush=True)
        if args.traced:
            runs.append(run(workload, seeds[0], args.seconds, 1))
            m = runs[-1]["result"]["metrics"]
            print(f"  {workload} traced: overhead {m['trace.overhead_pct']['value']:.1f}%  "
                  f"coverage {m['trace.coverage_pct']['value']:.1f}%", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
