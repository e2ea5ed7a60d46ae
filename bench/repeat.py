"""Run workloads over several seeds and summarise the spread of each metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads figure1_hot,cli_cold] \
        [--trace 0] [--seconds 30] [--out FILE]

For each workload and metric it reports the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median.  BENCHMARK.json's bounds are judged against that
spread.  A run that fails or reports ``correct: false`` is listed and makes
the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import BENCH, ROOT, git_commit
from metrics import GATED


def seeds(arg: str) -> list[int]:
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(GATED))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)

    summary = {
        "provenance": {"commit": git_commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
                       "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds},
        "workloads": {},
    }
    bad = []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls, attempted, failed = [], 0, 0
        for seed in args.seeds:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                bad.append(f"{workload} seed {seed}: exit {proc.returncode}, no result: {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"]:
                bad.append(f"{workload} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall", file=sys.stderr)
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "run_wall_s": summarise(walls),
            "metrics": {name: summarise(v) for name, v in values.items()},
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:12s} {name:36s} median {s['median']:14.4f}  spread {spread}")
    summary["failures"] = bad
    for line in bad:
        print(f"failure: {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
