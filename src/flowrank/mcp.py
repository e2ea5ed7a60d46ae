"""Serve pipelines as remotely callable tools over JSON-RPC 2.0 on HTTP.

The server speaks a minimal Model Context Protocol subset on ``POST /mcp``:
``initialize``, ``tools/list``, and ``tools/call``.  Tool metadata (the
input JSON Schema and advertised output columns) is derived from static
inspection, so a listed tool is guaranteed executable from a query batch.
Per-request failures are JSON-RPC responses, never dropped connections;
pipeline execution errors come back as ``isError: true`` tool results.  A
body longer than ``MAX_BODY_BYTES`` is refused unread.  A
notification (a request without an ``id``, such as
``notifications/initialized``) gets HTTP 202, an empty body and no
JSON-RPC response.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .algebra import PipelineNode, execute
from .errors import BindError, FlowrankError, NotSatisfied, NotServable
from .frames import Relation, canonical_columns
from .inspect import output_columns

PROTOCOL_VERSION = "2025-03-26"
SERVER_NAME = "flowrank-mcp"
SERVER_VERSION = "0.1.0"

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# a larger Content-Length is refused before any of the body is read
MAX_BODY_BYTES = 8 * 1024 * 1024

_SERVABLE_INPUT = frozenset({"qid", "query"})


@dataclass(frozen=True)
class ToolDescriptor:
    """MCP-facing tool metadata derived from pipeline inspection."""

    name: str
    description: str
    input_schema: dict
    output_columns: tuple[str, ...]

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "inputSchema": self.input_schema,
            "outputColumns": list(self.output_columns),
        }


def _queries_schema() -> dict:
    return {
        "type": "object",
        "properties": {
            "queries": {
                "type": "array",
                "description": "search requests to run through the pipeline",
                "items": {
                    "type": "object",
                    "properties": {
                        "qid": {"type": "string", "description": "query identifier"},
                        "query": {"type": "string", "description": "query text"},
                    },
                    "required": ["qid", "query"],
                },
            }
        },
        "required": ["queries"],
    }


def tool_descriptor(name: str, node: PipelineNode, description: str) -> ToolDescriptor:
    """Describe a pipeline as a tool; only query-frame-rooted pipelines serve."""
    try:
        produced = canonical_columns(output_columns(node, _SERVABLE_INPUT))
    except NotSatisfied as exc:
        raise NotServable(name, exc.diagnostic) from None
    return ToolDescriptor(name, description, _queries_schema(), tuple(produced))


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    pipelines: dict = field(default_factory=dict)  # name -> (PipelineNode, description)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.6f}")
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def relation_to_json_rows(rel: Relation) -> list[dict]:
    """Rows as flat JSON objects with canonical float formatting (6 decimals)."""
    names = rel.columns
    return [{k: _json_value(v) for k, v in zip(names, row)} for row in rel.rows]


def relation_to_text(rel: Relation) -> str:
    """Human-readable tab-separated rendering for chat clients."""
    names = rel.columns
    lines = ["\t".join(names)]
    for row in rel.rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.6f}")
            else:
                cells.append(str(value))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _rpc_error(id_, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": id_, "error": {"code": code, "message": message}}


def _rpc_result(id_, result) -> dict:
    return {"jsonrpc": "2.0", "id": id_, "result": result}


class _Dispatcher:
    """Protocol logic, independent of the HTTP plumbing for testability."""

    def __init__(self, config: ServerConfig):
        self.tools: dict[str, tuple[PipelineNode, ToolDescriptor]] = {}
        for name, (node, description) in config.pipelines.items():
            if name in self.tools:
                raise ValueError(f"duplicate tool name {name!r}")
            self.tools[name] = (node, tool_descriptor(name, node, description))

    def dispatch_bytes(self, body: bytes) -> dict | None:
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _rpc_error(None, PARSE_ERROR, "Parse error")
        return self.dispatch(request)

    def dispatch(self, request) -> dict | None:
        """The response to *request*, or None for a notification."""
        if not isinstance(request, dict):
            return _rpc_error(None, INVALID_REQUEST, "Invalid Request")
        id_ = request.get("id")
        if request.get("jsonrpc") != "2.0" or not isinstance(request.get("method"), str):
            return _rpc_error(id_, INVALID_REQUEST, "Invalid Request")
        if "id" not in request:
            # JSON-RPC 2.0 section 4.1: a notification gets no response; none
            # of the served methods has an effect worth running without one
            return None
        method = request["method"]
        params = request.get("params") or {}
        try:
            if method == "initialize":
                return _rpc_result(
                    id_,
                    {
                        "protocolVersion": PROTOCOL_VERSION,
                        "capabilities": {"tools": {}},
                        "serverInfo": {"name": SERVER_NAME, "version": SERVER_VERSION},
                    },
                )
            if method == "tools/list":
                return _rpc_result(
                    id_, {"tools": [desc.to_wire() for _, desc in self.tools.values()]}
                )
            if method == "tools/call":
                return self._call(id_, params)
            return _rpc_error(id_, METHOD_NOT_FOUND, f"Method not found: {method}")
        except Exception as exc:  # never drop the connection
            return _rpc_error(id_, INTERNAL_ERROR, f"Internal error: {exc}")

    def _call(self, id_, params) -> dict:
        if not isinstance(params, dict):
            return _rpc_error(id_, INVALID_PARAMS, "params must be an object")
        name = params.get("name")
        if name not in self.tools:
            return _rpc_error(id_, INVALID_PARAMS, f"unknown tool: {name!r}")
        arguments = params.get("arguments")
        if not isinstance(arguments, dict) or not isinstance(arguments.get("queries"), list):
            return _rpc_error(id_, INVALID_PARAMS, "arguments.queries must be an array")
        rows = []
        for i, item in enumerate(arguments["queries"]):
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("qid"), str)
                or not isinstance(item.get("query"), str)
            ):
                return _rpc_error(
                    id_, INVALID_PARAMS, f"queries[{i}] must have string qid and query"
                )
            rows.append({"qid": item["qid"], "query": item["query"]})
        node, _ = self.tools[name]
        try:
            queries = Relation.from_dicts(rows, ["qid", "query"])
        except FlowrankError as exc:
            return _rpc_error(id_, INVALID_PARAMS, str(exc))
        try:
            result = execute(node, queries)
        except FlowrankError as exc:
            return _rpc_result(
                id_, {"content": [{"type": "text", "text": str(exc)}], "isError": True}
            )
        return _rpc_result(
            id_,
            {
                "content": [{"type": "text", "text": relation_to_text(result)}],
                "rows": relation_to_json_rows(result),
                "isError": False,
            },
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = f"{SERVER_NAME}/{SERVER_VERSION}"

    def log_message(self, fmt, *args):  # keep test output clean
        pass

    def _send_json(self, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        if self.path != "/mcp":
            self.send_error(404, "only POST /mcp is served")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client closes
            self._send_json(_rpc_error(None, INVALID_REQUEST, "Invalid Request: bad Content-Length"))
            return
        if length > MAX_BODY_BYTES:
            self._send_json(
                _rpc_error(None, INVALID_REQUEST, f"Invalid Request: body exceeds {MAX_BODY_BYTES} bytes")
            )
            return
        body = self.rfile.read(length)
        response = self.server.dispatcher.dispatch_bytes(body)
        if response is None:
            self.send_response(202)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._send_json(response)

    def do_GET(self):
        self.send_error(404, "only POST /mcp is served")


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, dispatcher: _Dispatcher):
        super().__init__(address, _Handler)
        self.dispatcher = dispatcher


class ServerHandle:
    """A running MCP server; close() stops it. Usable as a context manager."""

    def __init__(self, httpd: _Server, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/mcp"

    def join(self):
        """Block until the server is shut down."""
        self._thread.join()

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc):
        self.close()


def serve(config: ServerConfig) -> ServerHandle:
    """Start serving the configured pipelines; returns a running handle.

    The ``FLOWRANK_MCP_PORT`` environment variable overrides the configured
    port.  Raises :class:`BindError` if the address cannot be bound and
    :class:`NotServable` if a registered pipeline cannot run from a query
    frame.
    """
    dispatcher = _Dispatcher(config)
    port = config.port
    env_port = os.environ.get("FLOWRANK_MCP_PORT")
    if env_port:
        port = int(env_port)
    try:
        httpd = _Server((config.host, port), dispatcher)
    except OSError as exc:
        raise BindError(config.host, port, str(exc)) from exc
    thread = threading.Thread(target=httpd.serve_forever, name="flowrank-mcp", daemon=True)
    thread.start()
    return ServerHandle(httpd, thread)
