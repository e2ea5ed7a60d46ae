"""mcp_serve: ``tools/call`` requests against a ``serve`` child process.

A launcher child (mcp_child.py) serves one tool, ``search`` = ``bm25`` with
its default 1000 rows, over a 5k-doc index.  The load generator runs a
closed loop on one connection, one query per call; JSON-RPC handling, HTTP
and row serialisation are a large share of each call, and ``cli`` is not
involved.  Two connections gave lower throughput than one on a 2-vCPU host
(the server's request threads contend for one interpreter lock) and a
run-to-run spread above the largest bound the benchmark may set.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import time

import gen
import metrics
import oracle
from common import BENCH, LineChild, latency_metrics, median, timed

SETUPS = 3
CHECKED_OPS = 8
STREAM = 50000
READY_TIMEOUT = 120


def corpus_params(smoke: bool) -> gen.CorpusParams:
    return gen.CorpusParams(n_docs=300, vocab=300) if smoke else gen.CorpusParams(n_docs=5000)


def rpc(port: int, body: bytes) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/mcp", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise OSError(f"HTTP {response.status}")
        return data
    finally:
        conn.close()


def call_body(op: int, qid: str, query: str) -> bytes:
    request = {
        "jsonrpc": "2.0",
        "id": op,
        "method": "tools/call",
        "params": {"name": "search", "arguments": {"queries": [{"qid": qid, "query": query}]}},
    }
    return json.dumps(request).encode("utf-8")


def reply_problem(data: bytes, qid: str) -> str | None:
    """Why a tools/call reply is a failure, or None."""
    try:
        reply = json.loads(data)
    except ValueError:
        return "reply is not JSON"
    if "error" in reply:
        return f"JSON-RPC error {reply['error']}"
    result = reply.get("result") or {}
    if result.get("isError") is not False:
        return f"isError: {result.get('content')}"
    rows = result.get("rows")
    if not isinstance(rows, list) or any(r.get("qid") != qid for r in rows) or len(rows) > 1000:
        return "rows missing, for another qid, or more than 1000"
    return None


class Server:
    """One set-up: build the index, start the child, wait until it answers."""

    def __init__(self, ctx, params, n: int, warm: tuple[str, str]):
        t0 = time.perf_counter()
        index_dir = ctx.work / f"index-{n}"
        _, self.build_s = timed(ctx.fr.build_index, gen.make_corpus(params, ctx.seed), index_dir)
        env_port = os.environ.pop("FLOWRANK_MCP_PORT", None)  # it would override port=0
        try:
            self.child = LineChild([sys.executable, str(BENCH / "mcp_child.py"), str(index_dir)])
        finally:
            if env_port is not None:
                os.environ["FLOWRANK_MCP_PORT"] = env_port
        try:
            hello = self.child.receive(READY_TIMEOUT)
            self.port, self.load_s = hello["port"], hello["load_s"]
            listed = json.loads(rpc(self.port, b'{"jsonrpc":"2.0","id":0,"method":"tools/list"}'))
            if [t["name"] for t in listed["result"]["tools"]] != ["search"]:
                raise RuntimeError(f"unexpected tools/list reply {listed}")
            problem = reply_problem(rpc(self.port, call_body(0, *warm)), warm[0])
            if problem:
                raise RuntimeError(f"warm-up call failed: {problem}")
        except BaseException:
            self.child.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> dict:
        try:
            self.child.send("stop")
            return self.child.receive(READY_TIMEOUT)
        finally:
            self.child.close()


class Load:
    """A closed-loop client on one connection; every attempted call is counted."""

    def __init__(self, port: int, queries):
        self.port, self.queries = port, queries
        self.attempted = 0
        self.failed: list[str] = []
        self.done: dict[int, tuple[float, bytes]] = {}  # op -> (seconds, reply)

    def run(self, ops) -> float:
        """Issue *ops* (an iterable of op numbers) one after another; returns wall seconds."""
        t_start = time.perf_counter()
        for op in ops:
            qid, query = self.queries[op % len(self.queries)]
            body = call_body(op, qid, query)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                data = rpc(self.port, body)
            except (OSError, http.client.HTTPException) as exc:
                self.failed.append(f"op {op}: connection: {exc}")
                continue
            self.done[op] = (time.perf_counter() - t0, data)
        return time.perf_counter() - t_start

    def check_replies(self) -> None:
        """Move ops whose reply is an error, or malformed, to the failures."""
        for op in sorted(self.done):
            problem = reply_problem(self.done[op][1], self.queries[op % len(self.queries)][0])
            if problem:
                del self.done[op]
                self.failed.append(f"op {op}: {problem}")


def until(seconds: float):
    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline:
        yield op
        op += 1


def run(ctx) -> dict:
    params = corpus_params(ctx.smoke)
    queries = gen.make_queries(params, ctx.seed, STREAM)
    setups = []
    for n in range(1 if ctx.smoke else SETUPS):
        if setups:
            setups[-1].stop()
        setups.append(Server(ctx, params, n, warm=queries[-1]))
    server = setups[-1]
    setup_s = median([s.setup_s for s in setups])
    result: dict = {}
    try:
        load = Load(server.port, queries)
        if not ctx.trace:
            wall = load.run(until(ctx.seconds))
            load.check_replies()
        else:
            load.run(until(ctx.seconds / 2))
            load.check_replies()
            untraced = dict(load.done)
            server.child.send("trace")
            server.child.receive(READY_TIMEOUT)
            load.done = {}
            load.run(iter(sorted(untraced)))
            load.check_replies()
            traced = load.done
    finally:
        report = server.stop()
    failed = list(load.failed)

    reference = oracle.Bm25Oracle(gen.make_corpus(params, ctx.seed))
    for op in sorted(load.done)[:CHECKED_OPS]:
        qid, query = queries[op % len(queries)]
        rows = sorted(json.loads(load.done[op][1])["result"]["rows"], key=lambda row: row["rank"])[:10]
        if not oracle.same_ranking(reference.top(query, 10), [(r["docno"], r["score"]) for r in rows], places=6):
            failed.append(f"op {op}: top-10 differs from the BM25 oracle for {query!r}")

    if not ctx.trace:
        latency, counts = latency_metrics([s for s, _ in load.done.values()], wall)
        result["end_to_end"] = {"setup_s": setup_s, **latency, "peak_rss_mb": report["peak_rss_mb"]}
        result["info"] = {**counts, "index.build_s": server.build_s, "index.load_s": server.load_s}
    else:
        for op, (_, data) in traced.items():
            if data != untraced[op][1]:
                failed.append(f"op {op}: traced reply differs from the untraced one")
        summary = report["summary"]
        ops = max(1, len(traced))
        spans = summary["spans"]
        execute_ms = 1000 * spans.get("algebra.execute", [0, 0.0])[1] / ops
        serialize_ms = 1000 * sum(
            spans.get(n, [0, 0.0])[1] for n in ("mcp.relation_to_json_rows", "mcp.relation_to_text")
        ) / ops
        client_ms = 1000 * sum(s for s, _ in traced.values()) / ops
        a = [s for s, _ in untraced.values()]
        b = [s for s, _ in traced.values()]
        result["per_layer"] = metrics.per_layer(
            summary, ops,
            {
                "index.build_s": server.build_s,
                "index.load_s": server.load_s,
                "mcp.execute_ms": execute_ms,
                "mcp.serialize_ms": serialize_ms,
                "mcp.overhead_ms": client_ms - execute_ms - serialize_ms,
                "mcp.response_bytes": sum(len(d) for _, d in traced.values()) / ops,
                "bench.trace_overhead_pct": 100.0 * (median(b) / median(a) - 1.0),
            },
        )
        result["trace"] = {"summary": summary, "ops": ops, "spans": [report["spans"]]}
    result.update(attempted=load.attempted, failed=len(failed), problems=failed[:20])
    return result
