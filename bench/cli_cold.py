"""cli_cold: `flowrank index` then `flowrank search`, each in a fresh interpreter.

An op is one cycle: build the index from the JSONL corpus, then run
``sdm >> wbm25`` over the TSV topics.  Index build, index load and postings
decode dominate; warm query paths barely register.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time

import gen
import metrics
from common import BENCH, latency_metrics, median

PIPELINE = "sdm >> wbm25"
SETUPS = 3
CHILD_TIMEOUT = 120


def corpus_params(smoke: bool) -> gen.CorpusParams:
    return gen.CorpusParams(n_docs=300, vocab=300) if smoke else gen.CorpusParams(n_docs=5000)


def n_topics(smoke: bool) -> int:
    return 10 if smoke else 50


class Cycles:
    """The cycles of one run, their failure accounting and output checks."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.work = ctx.work
        self.corpus = self.work / "corpus.jsonl"
        self.topics = self.work / "topics.tsv"
        self.index = self.work / "index"
        self.first_trec: bytes | None = None
        self.done: list[dict] = []
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def setup(self) -> float:
        t0 = time.perf_counter()
        params = corpus_params(self.ctx.smoke)
        gen.write_corpus_jsonl(gen.make_corpus(params, self.ctx.seed), self.corpus)
        gen.write_topics_tsv(gen.make_queries(params, self.ctx.seed, n_topics(self.ctx.smoke)), self.topics)
        return time.perf_counter() - t0

    def fail(self, op: int, message: str) -> None:
        self.failed.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"cycle {op}: {message}")

    def _child(self, op: int, name: str, args: list[str], trace: bool, capture: bool):
        report = self.work / f"{name}-report.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "cli_child.py"), str(report)]
        argv += ["--trace", str(op)] if trace else []
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv + ["--"] + args,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not report.exists():
            raise RuntimeError(f"`flowrank {name}` exited with code {proc.returncode}")
        return wall, json.loads(report.read_text(encoding="utf-8")), proc.stdout

    def cycle(self, trace: bool) -> None:
        op = len(self.done)
        shutil.rmtree(self.index, ignore_errors=True)
        record = {"op": op, "traced": trace}
        self.done.append(record)
        try:
            build_wall, build_rep, _ = self._child(
                op, "index", ["index", "--corpus", str(self.corpus), "--out", str(self.index)], trace, False
            )
            record["index_files"] = _digests(self.index)
            search_wall, search_rep, stdout = self._child(
                op, "search",
                ["search", "--index", str(self.index), "--pipeline", PIPELINE, "--topics", str(self.topics)],
                trace, True,
            )
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            self.fail(op, str(exc))
            return
        record.update(
            build_s=build_wall,
            search_s=search_wall,
            reports=(build_rep, search_rep),
            trec=hashlib.sha256(stdout).hexdigest(),
            index_bytes=sum(size for size, _ in record["index_files"].values()),
        )
        if op == 0:
            self.first_trec = stdout
        first = self.done[0]
        if record["index_files"] != first.get("index_files"):
            self.fail(op, "index files differ from the first cycle's")
        if record["trec"] != first.get("trec"):
            self.fail(op, "TREC output differs from the first cycle's")

    def run_for(self, seconds: float, trace: bool, cycles: int | None = None) -> float:
        t0 = time.perf_counter()
        while True:
            self.cycle(trace)
            n = sum(1 for r in self.done if r["traced"] == trace)
            if (cycles is not None and n >= cycles) or (cycles is None and time.perf_counter() - t0 >= seconds):
                return time.perf_counter() - t0

    def check_in_process(self, fr) -> None:
        """The CLI's run must equal ``format_trec_run`` of the same pipeline in-process."""
        good = [r for r in self.done if "trec" in r]
        if not good:
            return
        index = fr.load_index(self.index)
        node = fr.dsl.elaborate(fr.dsl.parse(PIPELINE), fr.registry(index))
        expected = fr.format_trec_run(fr.execute(node, fr.read_topics(self.topics)), "flowrank")
        if expected.encode("utf-8") != self.first_trec:
            for r in good:
                self.fail(r["op"], "TREC output differs from in-process format_trec_run")


def _digests(directory) -> dict:
    return {
        p.name: (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(directory.iterdir())
    }


def run(ctx) -> dict:
    cycles = Cycles(ctx)
    setup_s = median([cycles.setup() for _ in range(1 if ctx.smoke else SETUPS)])
    result: dict = {}
    if not ctx.trace:
        wall = cycles.run_for(ctx.seconds, trace=False)
        cycles.check_in_process(ctx.fr)
        good = [r for r in cycles.done if "trec" in r and r["op"] not in cycles.failed]
        latency, counts = latency_metrics([r["build_s"] + r["search_s"] for r in good], wall)
        result["end_to_end"] = {
            "setup_s": setup_s,
            **latency,
            "peak_rss_mb": median([r["reports"][1]["peak_rss_mb"] for r in good]),
            "build_s": median([r["build_s"] for r in good]),
            "search_s": median([r["search_s"] for r in good]),
            "index_bytes_per_corpus_byte": median([r["index_bytes"] for r in good]) / cycles.corpus.stat().st_size,
        }
        result["info"] = counts
    else:
        cycles.run_for(ctx.seconds / 2, trace=False)
        untraced = list(cycles.done)
        cycles.run_for(0, trace=True, cycles=len(untraced))
        cycles.check_in_process(ctx.fr)
        traced = [r for r in cycles.done if r["traced"] and "trec" in r]
        ops = max(1, len(traced))
        summary = metrics.merge_summaries(rep["summary"] for r in traced for rep in r["reports"])
        startups = [
            wall - rep["main_s"]
            for r in untraced if "trec" in r
            for wall, rep in ((r["build_s"], r["reports"][0]), (r["search_s"], r["reports"][1]))
        ]
        a = [r["build_s"] + r["search_s"] for r in untraced if "trec" in r]
        b = [r["build_s"] + r["search_s"] for r in traced]
        result["per_layer"] = metrics.per_layer(
            summary, ops,
            {
                "cli.startup_s": sum(startups) / len(startups) if startups else 0.0,
                "bench.trace_overhead_pct": 100.0 * (median(b) / median(a) - 1.0) if a and b else 0.0,
            },
        )
        result["trace"] = {"summary": summary, "ops": ops,
                           "spans": [rep["spans"] for r in traced for rep in r["reports"]]}
    result.update(attempted=len(cycles.done), failed=len(cycles.failed), problems=cycles.problems)
    return result
