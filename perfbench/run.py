#!/usr/bin/env python3
"""Run linkgae benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload train-masked --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it wraps the library's public callables and reports per-layer metrics
instead, and writes its spans under perfbench/out/. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (provenance, gates, known defects, sample counts). ``--workload all``
runs every workload in a process of its own and prints a summary.

The BLAS thread cap is set here, before numpy loads. Exit code 2 means the
run could not start (for example, no linkgae source tree next to this
directory); no result line is printed then.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-masked", "train-raw", "eval-rank")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# At most two BLAS threads, and never more than the CPUs this process may use.
BLAS_THREADS = min(2, available_cpus())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="run a seconds-long toy-size copy of the workload (smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over the package sources, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "linkgae").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "nproc": os.cpu_count(), "cpus_available": available_cpus(),
        "cpu_model": _cpu_model(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_sha": _git_sha(), "src_digest": _src_digest(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    if not (SRC / "linkgae").is_dir():
        print(f"error: no linkgae source tree at {SRC / 'linkgae'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import bench
    from spans import PER_LAYER, Tracer

    w = bench.WORKLOADS[args.workload]
    if args.toy:
        w = bench.toy(w)
    tracer = Tracer() if args.trace else None
    result = bench.run(w, args.seed, args.seconds, tracer)
    units = dict(PER_LAYER) if args.trace else bench.END_TO_END
    metrics = {name: {"value": float(result.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    ledger = result.ledger
    known = {g: {"checked": ledger.checked[g], "failed": ledger.failed[g], "why": why}
             for g, why in bench.KNOWN_DEFECTS.items() if ledger.checked[g]}
    if tracer is not None:
        spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file)
        result.info["spans_file"] = str(spans_file.relative_to(ROOT))
        result.info["spans"] = len(tracer.spans)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  blas_threads {BLAS_THREADS}  nproc {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if "step_ms_p90" in result.info:
        print(f"  {'step_ms_p90 (record only)':48s} "
              f"{result.info['step_ms_p90']:>16.6g} ms over {result.info['samples']['steps']} steps")
    print(f"  operations attempted {ledger.attempted}  failed {ledger.failures}")
    for g, c in ledger.gates().items():
        status = "known defect" if c["known_defect"] else "gate"
        print(f"  {status} {g}: checked {c['checked']} failed {c['failed']}")
    for g, c in known.items():
        if c["failed"]:
            print(f"  FAILED (known defect) {g}: {c['failed']} of {c['checked']}: {c['why']}")
        else:
            print(f"  note: known defect {g} passed all {c['checked']} checks")

    correct = ledger.failures == 0
    record = {"provenance": provenance(args), "workload": dataclasses.asdict(w),
              "gates": ledger.gates(), "known_defects": known, "info": result.info}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failures, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
