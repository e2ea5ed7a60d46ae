"""Serve one tool, ``search`` = ``bm25``, over MCP from this process.

    python3 bench/mcp_child.py INDEX_DIR

Speaks JSON lines.  Once serving it prints ``{"port", "load_s"}``, where
``load_s`` is the index's first data access, made before serving so the
first request does not pay it.  A ``trace`` line on stdin installs the
tracer and is acknowledged; ``stop`` (or end of input) shuts the server
down and prints the peak resident set and, if traced, the tracer summary
and spans.
"""

from __future__ import annotations

import json
import sys
import time

from common import import_flowrank, peak_rss_mb
from tracing import Tracer


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(index_dir: str) -> int:
    fr = import_flowrank()
    index = fr.load_index(index_dir)
    t0 = time.perf_counter()
    index.postings("")
    load_s = time.perf_counter() - t0
    node = fr.dsl.elaborate(fr.dsl.parse("bm25"), fr.registry(index))
    config = fr.ServerConfig(host="127.0.0.1", port=0, pipelines={"search": (node, "BM25 search")})
    tracer = None
    with fr.serve(config) as handle:
        _reply({"port": handle.port, "load_s": load_s})
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "trace" and tracer is None:
                tracer = Tracer(auto_ops=True)
                tracer.install()
                _reply({"traced": True})
    report = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        report["summary"] = tracer.summary()
        report["spans"] = tracer.spans
    _reply(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
