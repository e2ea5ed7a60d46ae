"""flowrank benchmark: seeded, download-free, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: figure1_hot, cli_cold, mcp_serve, which BENCHMARK.json gates, and
bm25_hot, which it does not (see bench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it measures the per-layer metrics, wrapping calls
into flowrank's modules from the benchmark's files.  Every run checks the
program's outputs.  A table of every metric goes to stdout, followed by one
JSON line with ``correct``, ``attempted``, ``failed`` and the metrics named
in BENCHMARK.json; the exit code is 0 only if every output was correct.
The full record (provenance, every metric, spans of a traced run) is
written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import cli_cold
import hot
import mcp_serve
import metrics
from common import BENCH, ROOT, git_commit, import_flowrank, work_dir, write_json

RUNNERS = {"bm25_hot": hot, "figure1_hot": hot, "cli_cold": cli_cold, "mcp_serve": mcp_serve}


@dataclass
class Context:
    fr: object
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny corpora, one set-up: for the smoke test")
    p.add_argument("--out", type=Path, default=BENCH / ".out", help="directory for the full record")
    return p.parse_args(argv)


def gated_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def provenance(args, runner) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "corpus": runner.corpus_params(args.smoke).describe(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    gated = gated_metrics(bool(args.trace))
    fr = import_flowrank()
    runner = RUNNERS[args.workload]
    work = work_dir(args.workload)
    ctx = Context(fr, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    try:
        result = runner.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = result["per_layer"]
        units = {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
        not_fired = metrics.unfired(args.workload, values)
    else:
        values = result["end_to_end"]
        values["error_rate"] = result["failed"] / result["attempted"]
        units = metrics.END_TO_END
        not_fired = []
    correct = result["failed"] == 0

    record = {
        "provenance": provenance(args, runner),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "info": result.get("info", {}),
    }
    if args.trace:
        trace = result["trace"]
        record["unfired"] = not_fired
        record["layers_by_span"] = metrics.span_table(trace["summary"], trace["ops"])
        record["patched_sites"] = trace["summary"].get("sites", {})

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={record['provenance']['commit']} "
          f"python={record['provenance']['python']} nproc={record['provenance']['nproc']}")
    for name, v in values.items():
        print(f"{args.workload:12s} {name:36s} {v:14.6f} {units[name]}")
    for key, v in record["info"].items():
        print(f"{args.workload:12s} info {key:31s} {v}")
    if args.trace:
        for name, incl_ms, self_ms in record["layers_by_span"]:
            print(f"{args.workload:12s} span {name:31s} incl {incl_ms:10.4f} ms/op  self {self_ms:10.4f} ms/op")
        for name in not_fired:
            print(f"warning: {name} was predicted to fire on {args.workload} but read 0", file=sys.stderr)
    for problem in result["problems"]:
        print(f"failure: {problem}", file=sys.stderr)

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(args.out / f"{stem}.json", record)
    if args.trace:
        with open(args.out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for process, spans in enumerate(result["trace"]["spans"]):
                for name, start, end, parent, op in spans:
                    fh.write(json.dumps({"process": process, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")

    missing = sorted(set(gated) - set(values))
    if missing:
        print(f"bench: {args.workload} did not produce {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
