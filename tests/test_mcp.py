import json
import math
import socket
import urllib.request

import pytest

from flowrank.algebra import Leaf, execute, then
from flowrank.dsl import elaborate, parse
from flowrank.errors import BindError, NotServable
from flowrank.frames import Relation
from flowrank.mcp import (
    ServerConfig,
    relation_to_json_rows,
    serve,
    tool_descriptor,
)
from flowrank.transformers import Transformer, bm25_retriever, lexical_rescorer, registry, spec


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def rpc(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.headers["Content-Type"] == "application/json"
        return json.loads(resp.read(), parse_constant=_no_constant)


@pytest.fixture(scope="module")
def server(toy_registry, figure1):
    bm25 = elaborate(parse("bm25"), toy_registry)
    sdm_pipe = elaborate(parse("sdm >> wbm25"), toy_registry)
    config = ServerConfig(
        port=0,
        pipelines={
            "bm25": (bm25, "BM25 search over the toy corpus"),
            "qa": (figure1, "fusion retrieval with re-ranking and answer extraction"),
            "sdm": (sdm_pipe, "sequential-dependence retrieval"),
        },
    )
    with serve(config) as handle:
        yield handle


class TestToolDescriptor:
    def test_bm25_schema_and_outputs(self, toy_index):
        desc = tool_descriptor("bm25", Leaf(bm25_retriever(toy_index)), "BM25 search")
        items = desc.input_schema["properties"]["queries"]["items"]
        assert items["required"] == ["qid", "query"]
        assert desc.input_schema["required"] == ["queries"]
        assert list(desc.output_columns) == ["qid", "query", "docno", "score", "rank"]

    def test_figure1_outputs(self, figure1):
        desc = tool_descriptor("qa", figure1, "answer questions")
        assert list(desc.output_columns) == ["qid", "qanswer"]

    def test_rescorer_not_servable(self):
        with pytest.raises(NotServable):
            tool_descriptor("rescore", Leaf(lexical_rescorer()), "needs text")


class TestProtocol:
    def test_initialize(self, server):
        resp = rpc(server.url, {"jsonrpc": "2.0", "id": 1, "method": "initialize"})
        assert resp["jsonrpc"] == "2.0" and resp["id"] == 1
        assert resp["result"]["protocolVersion"] == "2025-03-26"
        assert resp["result"]["serverInfo"]["name"] == "flowrank-mcp"

    def test_tools_list_stable_order(self, server):
        resp = rpc(server.url, {"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
        tools = resp["result"]["tools"]
        assert [t["name"] for t in tools] == ["bm25", "qa", "sdm"]
        assert all(t["description"] for t in tools)
        again = rpc(server.url, {"jsonrpc": "2.0", "id": 3, "method": "tools/list"})
        assert again["result"] == resp["result"]

    def test_tools_call_matches_local_execution(self, server, toy_registry):
        resp = rpc(
            server.url,
            {
                "jsonrpc": "2.0",
                "id": 4,
                "method": "tools/call",
                "params": {
                    "name": "bm25",
                    "arguments": {"queries": [{"qid": "q1", "query": "quick fox"}]},
                },
            },
        )
        result = resp["result"]
        assert result["isError"] is False
        node = elaborate(parse("bm25"), toy_registry)
        local = execute(node, Relation.from_dicts([{"qid": "q1", "query": "quick fox"}], ["qid", "query"]))
        assert result["rows"] == relation_to_json_rows(local)
        assert result["content"][0]["type"] == "text"
        assert "d3" in result["content"][0]["text"]

    def test_malformed_json(self, server):
        resp = rpc(server.url, None, raw=b"not json")
        assert resp["error"]["code"] == -32700
        assert resp["id"] is None

    def test_unknown_method_echoes_id(self, server):
        resp = rpc(server.url, {"jsonrpc": "2.0", "id": 77, "method": "resources/list"})
        assert resp["error"]["code"] == -32601
        assert resp["id"] == 77

    def test_invalid_request_object(self, server):
        resp = rpc(server.url, {"id": 5, "method": "initialize"})
        assert resp["error"]["code"] == -32600
        assert resp["id"] == 5
        resp = rpc(server.url, [1, 2, 3])
        assert resp["error"]["code"] == -32600

    def test_unknown_tool_is_invalid_params(self, server):
        resp = rpc(
            server.url,
            {"jsonrpc": "2.0", "id": 6, "method": "tools/call",
             "params": {"name": "nosuch", "arguments": {"queries": []}}},
        )
        assert resp["error"]["code"] == -32602

    def test_bad_query_items_are_invalid_params(self, server):
        resp = rpc(
            server.url,
            {"jsonrpc": "2.0", "id": 7, "method": "tools/call",
             "params": {"name": "bm25", "arguments": {"queries": [{"qid": 1}]}}},
        )
        assert resp["error"]["code"] == -32602

    def test_execution_error_returns_is_error(self, server):
        resp = rpc(
            server.url,
            {"jsonrpc": "2.0", "id": 8, "method": "tools/call",
             "params": {"name": "sdm", "arguments": {"queries": [{"qid": "q1", "query": ""}]}}},
        )
        result = resp["result"]
        assert result["isError"] is True
        assert "zero tokens" in result["content"][0]["text"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_invalid_request(self, server, length):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(f"POST /mcp HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"200"
        resp = json.loads(body)
        assert resp["error"]["code"] == -32600
        assert resp["id"] is None

    def test_oversized_body_refused_unread(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"POST /mcp HTTP/1.1\r\nHost: x\r\nContent-Length: 1073741824\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"200"
        resp = json.loads(body)
        assert resp["error"]["code"] == -32600
        assert resp["id"] is None

    def test_non_finite_weight_is_tool_error(self, toy_registry):
        config = ServerConfig(port=0, pipelines={"w": (elaborate(parse("wbm25"), toy_registry), "d")})
        with serve(config) as handle:
            resp = rpc(
                handle.url,
                {"jsonrpc": "2.0", "id": 9, "method": "tools/call",
                 "params": {"name": "w", "arguments": {"queries": [{"qid": "q1", "query": "#w(nan) fox"}]}}},
            )
        assert resp["result"]["isError"] is True
        assert "not finite" in resp["result"]["content"][0]["text"]

    def test_score_overflow_is_tool_error(self, overflow_index):
        config = ServerConfig(port=0, pipelines={"w": (elaborate(parse("wbm25"), registry(overflow_index)), "d")})
        with serve(config) as handle:
            resp = rpc(
                handle.url,
                {"jsonrpc": "2.0", "id": 10, "method": "tools/call",
                 "params": {"name": "w", "arguments": {"queries": [{"qid": "q1", "query": "#w(6e307) alpha beta"}]}}},
            )
        assert resp["result"]["isError"] is True
        assert "scores do not sum to a finite number" in resp["result"]["content"][0]["text"]

    def test_replies_are_strict_json(self, overflow_index):
        """No reply carries Infinity or NaN: a weight that overflows, or a
        custom stage's infinite score, is a tool error."""

        def infinite(rel):
            return Relation(rel.columns, [row[:3] + (math.inf,) + row[4:] for row in rel.rows])

        ranked = ("qid", "query", "docno", "score", "rank")
        stage = Transformer("inf", "scores everything inf", (), spec(ranked, ranked), infinite)
        retrieve = elaborate(parse("wbm25"), registry(overflow_index))
        config = ServerConfig(port=0, pipelines={"w": (retrieve, "d"), "inf": (then(retrieve, Leaf(stage)), "d")})
        calls = [("w", "#w(1.79e308) alpha"), ("w", "#w(-1.79e308) alpha"), ("inf", "alpha")]
        with serve(config) as handle:
            for i, (tool, query) in enumerate(calls):
                reply = rpc(
                    handle.url,
                    {"jsonrpc": "2.0", "id": i, "method": "tools/call",
                     "params": {"name": tool, "arguments": {"queries": [{"qid": "q1", "query": query}]}}},
                )
                assert reply["result"]["isError"] is True
                assert "not finite" in reply["result"]["content"][0]["text"]

    def test_notification_gets_202_and_no_response(self, server):
        body = json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"}).encode()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                f"POST /mcp HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"202"
        assert rest == b""
        # an invalid request and one with an id still get their replies
        assert rpc(server.url, {"method": "notifications/initialized"})["error"]["code"] == -32600
        assert rpc(server.url, {"jsonrpc": "2.0", "id": None, "method": "initialize"})["id"] is None

    def test_answer_pipeline_over_http(self, server):
        resp = rpc(
            server.url,
            {"jsonrpc": "2.0", "id": 9, "method": "tools/call",
             "params": {"name": "qa",
                        "arguments": {"queries": [{"qid": "q1", "query": "quick fox"},
                                                   {"qid": "q2", "query": "lazy dog"}]}}},
        )
        rows = resp["result"]["rows"]
        assert [set(r) for r in rows] == [{"qid", "qanswer"}, {"qid", "qanswer"}]
        assert [r["qid"] for r in rows] == ["q1", "q2"]


class TestServeLifecycle:
    def test_env_port_override(self, toy_registry, monkeypatch):
        node = elaborate(parse("bm25"), toy_registry)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        monkeypatch.setenv("FLOWRANK_MCP_PORT", str(free_port))
        config = ServerConfig(port=1, pipelines={"bm25": (node, "d")})
        with serve(config) as handle:
            assert handle.port == free_port

    def test_bind_error_on_busy_port(self, toy_registry):
        node = elaborate(parse("bm25"), toy_registry)
        config = ServerConfig(port=0, pipelines={"bm25": (node, "d")})
        with serve(config) as handle:
            with pytest.raises(BindError):
                serve(ServerConfig(port=handle.port, pipelines={"bm25": (node, "d")}))

    def test_registering_unservable_pipeline_fails_at_startup(self):
        config = ServerConfig(port=0, pipelines={"bad": (Leaf(lexical_rescorer()), "d")})
        with pytest.raises(NotServable):
            serve(config)

    def test_concurrent_identical_requests_identical_bodies(self, server):
        import concurrent.futures

        payload = {
            "jsonrpc": "2.0", "id": 1, "method": "tools/call",
            "params": {"name": "bm25", "arguments": {"queries": [{"qid": "q1", "query": "fox dog"}]}},
        }
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            bodies = list(pool.map(lambda _: json.dumps(rpc(server.url, payload)), range(16)))
        assert len(set(bodies)) == 1
