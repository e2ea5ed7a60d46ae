"""Metric names, units, and the workloads each per-layer metric should fire on.

End-to-end metrics are measured with tracing off; per-layer metrics come
from the traced run (see tracing.py).  Per-layer values are per op unless
the name ends in ``_s`` for a one-off (build, load, interpreter start-up)
or the metric is a ratio.
"""

from __future__ import annotations

# The workloads BENCHMARK.json lists.  bm25_hot runs too but is not gated:
# every layer it exercises also runs in figure1_hot or mcp_serve, and the
# time its runs would take goes to longer runs of the other three.
GATED = ("figure1_hot", "cli_cold", "mcp_serve")
WORKLOADS = ("bm25_hot", *GATED)
ALL = WORKLOADS

# name -> unit; bench/README.md defines each metric
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "build_s": "s",
    "search_s": "s",
    "index_bytes_per_corpus_byte": "ratio",
}

# name -> (unit, workloads on which it must be non-zero at this commit)
PER_LAYER = {
    "frames.build_ms": ("ms", ALL),
    "frames.rows_checked": ("count", ALL),
    "frames.relations_built": ("count", ALL),
    "frames.rank_ms": ("ms", ALL),
    "frames.rerank_rows": ("count", ("figure1_hot",)),
    "frames.join_ms": ("ms", ("figure1_hot",)),
    "frames.trec_format_ms": ("ms", ("cli_cold",)),
    "index.build_s": ("s", ALL),
    "index.load_s": ("s", ALL),
    "index.postings_entries": ("count", ALL),
    "index.doc_lookups": ("count", ALL),
    "transformers.bm25_ms": ("ms", ("bm25_hot", "figure1_hot", "mcp_serve")),
    "transformers.sdm_ms": ("ms", ("figure1_hot", "cli_cold")),
    "transformers.wbm25_ms": ("ms", ("figure1_hot", "cli_cold")),
    "transformers.text_loader_ms": ("ms", ("figure1_hot",)),
    "transformers.rescore_ms": ("ms", ("figure1_hot",)),
    "transformers.answer_ms": ("ms", ("figure1_hot",)),
    "transformers.tokenize_calls": ("count", ALL),
    "transformers.matched_per_returned": ("ratio", ALL),
    "algebra.execute_ms": ("ms", ALL),
    "algebra.fuse_ms": ("ms", ALL),
    "inspect.validate_ms": ("ms", ALL),
    "mcp.execute_ms": ("ms", ("mcp_serve",)),
    "mcp.serialize_ms": ("ms", ("mcp_serve",)),
    "mcp.overhead_ms": ("ms", ("mcp_serve",)),
    "mcp.response_bytes": ("bytes", ("mcp_serve",)),
    "cli.startup_s": ("s", ("cli_cold",)),
    "bench.trace_overhead_pct": ("%", ()),
}

LEAVES = ("bm25", "sdm", "wbm25", "text_loader", "rescore", "answer")


def merge_summaries(summaries) -> dict:
    """Add up tracer summaries from several processes."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    sites: dict[str, list[str]] = {}
    for summary in summaries:
        sites.update(summary["sites"])
        for name, agg in summary["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += agg[i]
        for name, n in summary["counts"].items():
            counts[name] = counts.get(name, 0.0) + n
    return {"spans": spans, "counts": counts, "sites": sites}


def per_layer(summary: dict, ops: int, one_off: dict) -> dict[str, float]:
    """Per-layer metrics from a (merged) tracer summary over *ops* ops.

    *one_off* supplies values measured outside the traced ops: index build
    and load times taken during set-up, cli start-up, mcp client figures and
    the trace overhead.  Every metric in :data:`PER_LAYER` is returned.
    """
    spans, counts = summary["spans"], summary["counts"]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    def per_op_ms(seconds):
        return 1000.0 * seconds / ops

    def leaf_self(leaf):
        return sum(agg[2] for name, agg in spans.items() if name.startswith("leaf[") and name.endswith("]:" + leaf))

    returned = counts.get("retrieval.returned", 0.0)
    out = {
        "frames.build_ms": per_op_ms(self_s("frames.from_dicts", "frames.post_init")),
        "frames.rows_checked": counts.get("frames.rows_checked", 0.0) / ops,
        "frames.relations_built": spans.get("frames.post_init", [0])[0] / ops,
        "frames.rank_ms": per_op_ms(self_s("frames.rank_rows", "frames.sort_and_rank")),
        "frames.rerank_rows": counts.get("frames.rerank_rows", 0.0) / ops,
        "frames.join_ms": per_op_ms(self_s("frames.join_on_docno")),
        "frames.trec_format_ms": per_op_ms(self_s("frames.format_trec_run")),
        "index.postings_entries": counts.get("index.postings_entries", 0.0) / ops,
        "index.doc_lookups": counts.get("index.doc_lookups", 0.0) / ops,
        "transformers.tokenize_calls": counts.get("transformers.tokenize_calls", 0.0) / ops,
        "transformers.matched_per_returned": counts.get("retrieval.matched", 0.0) / returned if returned else 0.0,
        "algebra.execute_ms": per_op_ms(incl("algebra.execute")),
        "algebra.fuse_ms": per_op_ms(self_s("algebra.execute")),
        "inspect.validate_ms": per_op_ms(incl("inspect.validate")),
        "mcp.execute_ms": 0.0,
        "mcp.serialize_ms": 0.0,
        "mcp.overhead_ms": 0.0,
        "mcp.response_bytes": 0.0,
        "cli.startup_s": 0.0,
        "index.build_s": incl("index.build_index") / ops,
        "index.load_s": incl("index.first_access") / ops,
    }
    for leaf in LEAVES:
        out[f"transformers.{leaf}_ms"] = per_op_ms(leaf_self(leaf))
    out.update(one_off)
    return {name: float(out[name]) for name in PER_LAYER}


def span_table(summary: dict, ops: int) -> list[tuple[str, float, float]]:
    """(span name, inclusive ms/op, self ms/op) for every span name; leaves by tree path."""
    rows = [(name, 1000.0 * agg[1] / ops, 1000.0 * agg[2] / ops) for name, agg in summary["spans"].items()]
    return sorted(rows)


def unfired(workload: str, values: dict[str, float]) -> list[str]:
    """Per-layer metrics predicted to fire on *workload* that read zero."""
    return [name for name, (_, where) in PER_LAYER.items() if workload in where and not values.get(name)]
