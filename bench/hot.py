"""bm25_hot and figure1_hot: one query per ``execute`` call on a warm index.

Closed loop, one client, in the benchmark's own process, which therefore is
the process holding the index.  Set-up generates the corpus, builds and
opens the index, makes the first data access (the lazy load) and warms the
pipeline on a few queries; the timed loop then runs fresh queries from the
seeded stream until the run's time is up.
"""

from __future__ import annotations

import itertools
import time

import gen
import metrics
import oracle
from common import latency_metrics, median, peak_rss_mb, timed
from tracing import Tracer

FIGURE1 = "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore >> answer"
FIGURE1_RESCORED = "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore"
PIPELINES = {"bm25_hot": "bm25", "figure1_hot": FIGURE1}
RANKING_COLUMNS = ("qid", "query", "docno", "score", "rank")
WARM_QUERIES = 4  # one query of each length, 1-4 terms
CHECKED_OPS = 8
CHECKED_ANSWERS = 4  # each check re-runs most of the figure-1 pipeline
STREAM = 20000
# The ROADMAP baseline used 20k documents; at that size set-up alone takes
# about 15 s of a run, which leaves too short a measuring window for steady
# figures inside the benchmark's time budget.
HOT_DOCS = 10000


def corpus_params(smoke: bool) -> gen.CorpusParams:
    return gen.CorpusParams(n_docs=400, vocab=300) if smoke else gen.CorpusParams(n_docs=HOT_DOCS)


def run(ctx) -> dict:
    fr, workload = ctx.fr, ctx.workload
    params = corpus_params(ctx.smoke)
    queries = gen.make_queries(params, ctx.seed, STREAM)

    t_setup = time.perf_counter()
    docs = gen.make_corpus(params, ctx.seed)
    _, build_s = timed(fr.build_index, docs, ctx.work / "index")
    del docs
    index = fr.load_index(ctx.work / "index")
    _, load_s = timed(index.postings, queries[0][1].split()[0])
    node = fr.dsl.elaborate(fr.dsl.parse(PIPELINES[workload]), fr.registry(index))
    for qid, query in queries[:WARM_QUERIES]:
        fr.execute(node, _qframe(fr, qid, query))
    setup_s = time.perf_counter() - t_setup
    stream = queries[WARM_QUERIES:]

    loop = Loop(fr, workload, node)
    if not ctx.trace:
        t0 = time.perf_counter()
        loop.measure(stream, ctx.seconds, keep=CHECKED_OPS)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
    else:
        loop.measure(stream, ctx.seconds / 2, keep=None)
        untraced = list(loop.latencies)
        tracer = Tracer()
        traced = loop.replay(tracer)
    loop.check_samples(params, ctx.seed, index)

    result = {"attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems}
    if not ctx.trace:
        latency, counts = latency_metrics(loop.latencies, wall)
        result["end_to_end"] = {"setup_s": setup_s, **latency, "peak_rss_mb": rss}
        result["info"] = {**counts, "index.build_s": build_s, "index.load_s": load_s}
    else:
        summary = tracer.summary()
        overhead = 100.0 * (median(traced) / median(untraced) - 1.0)
        result["per_layer"] = metrics.per_layer(
            summary, len(traced),
            {"index.build_s": build_s, "index.load_s": load_s, "bench.trace_overhead_pct": overhead},
        )
        result["trace"] = {"summary": summary, "ops": len(traced), "spans": [tracer.spans]}
    return result


def _qframe(fr, qid, query):
    return fr.Relation.from_dicts([{"qid": qid, "query": query}], ["qid", "query"])


class Loop:
    """The timed closed loop, its failure accounting and its output checks."""

    def __init__(self, fr, workload, node):
        self.fr, self.workload, self.node = fr, workload, node
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.done: list[tuple[str, str, object]] = []  # (qid, query, output) per completed op

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _op(self, qid, query, rel):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.fr.execute(self.node, rel)
        except Exception as exc:  # every failure is counted, none stops the run
            self.fail(f"{qid}: {type(exc).__name__}: {exc}")
            return None, 0.0
        elapsed = time.perf_counter() - t0
        problem = self._shape_problem(qid, out)
        if problem:
            self.fail(f"{qid}: {problem}")
            return None, elapsed
        return out, elapsed

    def measure(self, stream, seconds: float, keep: int | None) -> None:
        """Run queries from *stream* until *seconds* have passed."""
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            if time.perf_counter() >= deadline:
                break
            qid, query = stream[i % len(stream)]
            out, elapsed = self._op(qid, query, _qframe(self.fr, qid, query))
            if out is None:
                continue
            self.latencies.append(elapsed)
            if keep is None or len(self.done) < keep:
                self.done.append((qid, query, out))

    def replay(self, tracer: Tracer) -> list[float]:
        """Re-run the completed ops traced; outputs must match byte for byte."""
        rels = [_qframe(self.fr, qid, query) for qid, query, _ in self.done]
        latencies = []
        tracer.install()
        try:
            for op, ((qid, query, expected), rel) in enumerate(zip(self.done, rels)):
                tracer.set_op(op)
                out, elapsed = self._op(qid, query, rel)
                if out is None:
                    continue
                latencies.append(elapsed)
                if out.columns != expected.columns or out.rows != expected.rows:
                    self.fail(f"{qid}: traced output differs from the untraced one")
        finally:
            tracer.uninstall()
        return latencies

    def _shape_problem(self, qid, out) -> str | None:
        if self.workload == "bm25_hot":
            if out.columns != RANKING_COLUMNS:
                return f"unexpected columns {out.columns}"
            if any(q != qid for q in out.column("qid")) or len(out) > 1000:
                return "rows for another qid or more than 1000 rows"
            return None
        if out.columns != ("qid", "qanswer") or out.column("qid") != (qid,):
            return f"expected exactly one answer for {qid}, got {out.rows!r:.200}"
        return None

    def check_samples(self, params, seed, index) -> None:
        samples = self.done[:CHECKED_OPS]
        if self.workload == "bm25_hot":
            reference = oracle.Bm25Oracle(gen.make_corpus(params, seed))
            for qid, query, out in samples:
                top = sorted(out.to_dicts(), key=lambda row: row["rank"])[:10]
                got = [(row["docno"], row["score"]) for row in top]
                if not oracle.same_ranking(reference.top(query, 10), got):
                    self.fail(f"{qid}: top-10 differs from the BM25 oracle for {query!r}")
            return
        fr = self.fr
        rescored = fr.dsl.elaborate(fr.dsl.parse(FIGURE1_RESCORED), fr.registry(index))
        for qid, query, out in samples[:CHECKED_ANSWERS]:
            ranked = fr.execute(rescored, _qframe(fr, qid, query)).to_dicts()
            top = [row for row in ranked if row["rank"] == 0]
            want = oracle.first_sentence(top[0]["text"]) if top else None
            if out.column("qanswer") != (want,):
                self.fail(f"{qid}: answer is not the first sentence of the rank-0 rescored doc")
