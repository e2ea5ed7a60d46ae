import json
import math
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowrank
from flowrank.algebra import Leaf, execute, then
from flowrank.dsl import elaborate, parse
from flowrank._mcp_http import Handler
from flowrank.errors import BindError, DataError, NotServable
from flowrank.frames import KNOWN_COLUMN_TYPES, Relation, canonical_columns
from flowrank.mcp import (
    ServerConfig,
    _Dispatcher,
    relation_to_json_rows,
    relation_to_text,
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


@pytest.fixture(scope="module")
def dispatcher(toy_registry):
    """The protocol logic of a server with one bm25 tool, without HTTP."""
    return _Dispatcher(ServerConfig(pipelines={"bm25": (elaborate(parse("bm25"), toy_registry), "d")}))


class TestToolDescriptor:
    def test_bm25_schema_and_outputs(self, toy_index):
        desc = tool_descriptor("bm25", Leaf(bm25_retriever(toy_index)), "BM25 search")
        schema = desc.to_wire()["inputSchema"]
        items = schema["properties"]["queries"]["items"]
        assert items["required"] == ["qid", "query"]
        assert schema["required"] == ["queries"]
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

    @pytest.mark.parametrize(
        "params, message",
        [
            ([1], "params must be an object"),
            ("bm25", "params must be an object"),
            ({"name": "bm25"}, "arguments.queries must be an array"),
            ({"name": "bm25", "arguments": ["q1"]}, "arguments.queries must be an array"),
            ({"name": "bm25", "arguments": {"queries": {"qid": "q1"}}}, "arguments.queries must be an array"),
        ],
    )
    def test_params_of_the_wrong_shape_are_invalid_params(self, dispatcher, params, message):
        reply = dispatcher.dispatch({"jsonrpc": "2.0", "id": 9, "method": "tools/call", "params": params})
        assert json.loads(reply) == {"jsonrpc": "2.0", "id": 9, "error": {"code": -32602, "message": message}}

    def test_a_batch_is_one_invalid_request(self, dispatcher):
        # protocol 2025-03-26 allows JSON-RPC batches; this server does not take them
        batch = [{"jsonrpc": "2.0", "id": 1, "method": "initialize"}, {"jsonrpc": "2.0", "id": 2, "method": "tools/list"}]
        reply = dispatcher.dispatch_bytes(json.dumps(batch).encode("utf-8"))
        assert reply == b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32600, "message": "Invalid Request"}}'

    def test_unknown_tool_is_invalid_params(self, server):
        resp = rpc(
            server.url,
            {"jsonrpc": "2.0", "id": 6, "method": "tools/call",
             "params": {"name": "nosuch", "arguments": {"queries": []}}},
        )
        assert resp["error"]["code"] == -32602

    @pytest.mark.parametrize("name", [["bm25"], {"bm25": "bm25"}, [], {}])
    def test_tool_name_that_is_not_a_string_is_unknown(self, dispatcher, name):
        params = {"name": name, "arguments": {"queries": []}}
        reply = dispatcher.dispatch({"jsonrpc": "2.0", "id": 7, "method": "tools/call", "params": params})
        error = {"code": -32602, "message": f"unknown tool: {name!r}"}
        assert json.loads(reply) == {"jsonrpc": "2.0", "id": 7, "error": error}

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
        resp = json.loads(body, parse_constant=_no_constant)
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
        resp = json.loads(body, parse_constant=_no_constant)
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
        for method in ("notifications/initialized", "ping"):
            body = json.dumps({"jsonrpc": "2.0", "method": method}).encode()
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

    @pytest.mark.parametrize("method, path", [("GET", "/mcp"), ("POST", "/other")])
    def test_only_post_mcp_is_served(self, server, method, path):
        url = server.url.removesuffix("/mcp") + path
        request = urllib.request.Request(url, data=b"{}" if method == "POST" else None, method=method)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        err.value.close()
        assert err.value.code == 404

    def test_ping_gets_an_empty_result_echoing_its_id(self, server):
        for id_ in (3, "p"):
            assert rpc(server.url, {"jsonrpc": "2.0", "id": id_, "method": "ping"}) == {
                "jsonrpc": "2.0",
                "id": id_,
                "result": {},
            }

    def test_body_shorter_than_its_length_is_invalid_and_not_run(self, server, monkeypatch):
        monkeypatch.setattr(Handler, "timeout", 2)
        # a whole request, which would be answered if it were dispatched
        body = json.dumps({"jsonrpc": "2.0", "id": 4, "method": "initialize"}).encode()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(f"POST /mcp HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body) + 50}\r\n\r\n".encode() + body)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.split(b" ")[1] == b"200"
        resp = json.loads(rest, parse_constant=_no_constant)
        assert resp["error"] == {"code": -32600, "message": "Invalid Request: body shorter than its Content-Length"}
        assert resp["id"] is None

    def test_stalled_body_is_dropped_and_frees_its_thread(self, server, monkeypatch):
        assert Handler.timeout is not None and 0 < Handler.timeout < math.inf
        monkeypatch.setattr(Handler, "timeout", 0.3)  # the same path, sooner
        threads = threading.active_count()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"POST /mcp HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n" + b'{"jsonrpc"')
            # the socket stays open for writing: only the server's timeout ends the wait
            assert sock.recv(4096) == b""
        deadline = time.monotonic() + 5
        while threading.active_count() > threads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads

    @pytest.mark.parametrize(
        "raw_id", [b"1e400", b"-1e400", b"NaN", b"Infinity", b"-Infinity", b'{"a": [1]}', b"[1]", b"true", b"false"]
    )
    def test_id_that_is_not_a_string_finite_number_or_null_is_invalid(self, server, raw_id):
        body = b'{"jsonrpc": "2.0", "id": %s, "method": "initialize"}' % raw_id
        resp = rpc(server.url, None, raw=body)
        assert resp == {"jsonrpc": "2.0", "id": None, "error": {"code": -32600, "message": "Invalid Request"}}

    @pytest.mark.parametrize("id_", ["x", "", 0, -3, 1.5, -0.0, 1e308, 10**30, None])
    def test_string_finite_number_and_null_ids_are_echoed(self, server, id_):
        resp = rpc(server.url, {"jsonrpc": "2.0", "id": id_, "method": "initialize"})
        assert resp["id"] == id_ and type(resp["id"]) is type(id_)
        assert resp["result"]["protocolVersion"] == "2025-03-26"

    @pytest.mark.parametrize("raw", [b'{"jsonrpc": "2.0", "id": 1' + b"0" * 5000 + b"}", b"[" * 100_000])
    def test_json_the_decoder_refuses_is_a_parse_error(self, server, raw):
        # an integer literal longer than int() takes, and nesting deeper
        # than the decoder recurses: a reply, not a dropped connection
        resp = rpc(server.url, None, raw=raw)
        assert resp["error"]["code"] == -32700 and resp["id"] is None

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
    def test_port_zero_binds_a_free_port_whatever_the_environment(self, toy_registry, monkeypatch):
        node = elaborate(parse("bm25"), toy_registry)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            # an environment variable must not move the configured port
            monkeypatch.setenv("FLOWRANK_MCP_PORT", str(busy.getsockname()[1]))
            with serve(ServerConfig(port=0, pipelines={"bm25": (node, "d")})) as handle:
                assert handle.port not in (0, busy.getsockname()[1])

    def test_bind_error_on_busy_port(self, toy_registry):
        node = elaborate(parse("bm25"), toy_registry)
        config = ServerConfig(port=0, pipelines={"bm25": (node, "d")})
        with serve(config) as handle:
            with pytest.raises(BindError):
                serve(ServerConfig(port=handle.port, pipelines={"bm25": (node, "d")}))

    @pytest.mark.parametrize("port", [70000, -1])
    def test_a_port_outside_0_65535_is_a_bind_error(self, toy_registry, port):
        node = elaborate(parse("bm25"), toy_registry)
        with pytest.raises(BindError, match=f"^cannot bind 127\\.0\\.0\\.1:{port}: "):
            serve(ServerConfig(port=port, pipelines={"bm25": (node, "d")}))

    def test_registering_unservable_pipeline_fails_at_startup(self):
        config = ServerConfig(port=0, pipelines={"bad": (Leaf(lexical_rescorer()), "d")})
        with pytest.raises(NotServable):
            serve(config)

    def test_http_stack_loads_only_when_serving(self):
        src = str(Path(flowrank.__file__).resolve().parent.parent)
        script = (
            f"import sys; sys.path.insert(0, {src!r}); import flowrank, flowrank.cli; "
            "print(sorted(m for m in ('http.server', 'http.client', 'ssl', 'email') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"

    def test_concurrent_identical_requests_identical_bodies(self, server):
        import concurrent.futures

        payload = {
            "jsonrpc": "2.0", "id": 1, "method": "tools/call",
            "params": {"name": "bm25", "arguments": {"queries": [{"qid": "q1", "query": "fox dog"}]}},
        }
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            bodies = list(pool.map(lambda _: json.dumps(rpc(server.url, payload)), range(16)))
        assert len(set(bodies)) == 1


# ---------------------------------------------------------------------------
# The column-wise tools/call encoder against the per-cell reference
# ---------------------------------------------------------------------------

_TEXTS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", '"', "\\", "\x00", "\x1f\n\t", "\u2028", "\u0085", "é", "\U0001f600", "%", "%s", "100%"]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-5, 1e-7, 1e16, 1e300, -2.5, -1e-7]),
)
_EXTRA_NAMES = st.lists(
    st.one_of(st.sampled_from(["x%", "%s", "a%%b", "%(q)s", "ü", 'say "hi"']), st.text(min_size=1, max_size=4)),
    max_size=2,
    unique=True,
)


@st.composite
def _free_relations(draw):
    """No qid or docno: no keys, required columns or ranks, so any cell may be null."""
    known = draw(st.lists(st.sampled_from(["query", "query_vec", "text", "score", "rank"]), unique=True))
    extras = [n for n in draw(_EXTRA_NAMES) if n not in KNOWN_COLUMN_TYPES]
    columns = canonical_columns(known + extras)
    cell = {
        "score": _FLOATS,
        "rank": st.integers(-(2**63), 2**63 - 1),
        "query_vec": st.lists(_FLOATS, max_size=3),
    }
    rows = draw(
        st.lists(st.tuples(*(st.one_of(st.none(), cell.get(name, _TEXTS)) for name in columns)), max_size=6)
    )
    return Relation(columns, rows)


@st.composite
def _ranked_relations(draw):
    """An R frame for one qid, ranked by its scores."""
    extras = [n for n in draw(_EXTRA_NAMES) if n not in KNOWN_COLUMN_TYPES]
    scores = sorted(draw(st.lists(_FLOATS, max_size=6)), reverse=True)
    docnos = draw(st.lists(_TEXTS, min_size=len(scores), max_size=len(scores), unique=True))
    qid, query = draw(_TEXTS), draw(_TEXTS)
    cells = [draw(st.tuples(*(st.one_of(st.none(), _TEXTS) for _ in extras))) for _ in scores]
    columns = ("qid", "query", "docno", "score", "rank", *extras)
    return Relation(columns, [(qid, query, d, s, r, *x) for r, (d, s, x) in enumerate(zip(docnos, scores, cells))])


def _float_bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return list(map(_float_bits, value))
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    return value


def _call_returning(rel, id_) -> bytes:
    """The reply to one tools/call to a tool whose pipeline returns *rel*."""
    stage = Transformer("fixed", "returns a fixed relation", (), spec({"qid", "query"}, rel.columns), lambda _: rel)
    dispatcher = _Dispatcher(ServerConfig(pipelines={"t": (Leaf(stage), "d")}))
    request = {
        "jsonrpc": "2.0", "id": id_, "method": "tools/call",
        "params": {"name": "t", "arguments": {"queries": [{"qid": "q1", "query": "fox"}]}},
    }
    return dispatcher.dispatch(request)


class TestReplyEncoding:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rel=st.one_of(_free_relations(), _ranked_relations()), id_=st.one_of(st.none(), st.integers(), _TEXTS))
    def test_reply_parses_to_the_per_cell_payload(self, rel, id_):
        reply = json.loads(_call_returning(rel, id_), parse_constant=_no_constant)
        assert reply["jsonrpc"] == "2.0" and reply["id"] == id_
        result = reply["result"]
        assert result["isError"] is False
        expected = relation_to_json_rows(rel)
        assert result["rows"] == expected
        assert _float_bits(result["rows"]) == _float_bits(expected)
        assert [list(row) for row in result["rows"]] == [list(rel.columns)] * len(rel.rows)
        assert result["content"] == [{"type": "text", "text": relation_to_text(rel)}]

    def test_rows_and_text_share_six_decimal_floats(self):
        rel = Relation(("qid", "docno", "score", "rank"), [("q1", "d1", 12.3456, 0), ("q1", "d2", -0.0, 1)])
        body = _call_returning(rel, 1)
        assert b'"score": 12.345600' in body and b'"score": -0.000000' in body
        assert b"d1\\t12.345600\\t0" in body

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("qid", "docno", "score", "rank"), [("q1", "d1", math.inf, 0), ("q1", "d2", 1.0, 1)]),
            # the first value in row order, not in column order, names the error
            (("query_vec", "score"), [((1.0,), math.inf), ((math.nan,), 1.0)]),
            (("query_vec", "score"), [(None, 1.0), ((1.0,), -math.inf)]),
        ],
    )
    def test_non_finite_value_is_tool_error(self, columns, rows):
        rel = Relation(columns, rows)
        with pytest.raises(DataError) as reference:
            relation_to_json_rows(rel)
        result = json.loads(_call_returning(rel, 3), parse_constant=_no_constant)["result"]
        assert result["isError"] is True
        assert result["content"] == [{"type": "text", "text": str(reference.value)}]
