"""Serve pipelines as remotely callable tools over JSON-RPC 2.0 on HTTP.

The server speaks a minimal Model Context Protocol subset on ``POST /mcp``:
``initialize``, ``ping`` (answered with an empty result), ``tools/list``,
and ``tools/call``.  Tool metadata (the input JSON Schema and advertised
output columns) is derived from static inspection, so a listed tool is
guaranteed executable from a query batch.  Per-request failures are
JSON-RPC responses, never dropped connections; pipeline execution errors
come back as ``isError: true`` tool results.  A body longer than
``MAX_BODY_BYTES`` is refused unread, and one shorter than its
``Content-Length`` is refused without running.  A request whose
``id`` is not a string, a finite number or null is invalid and is answered
with ``id: null``.  A notification (a request without an ``id``, such as
``notifications/initialized``) gets HTTP 202, an empty body and no
JSON-RPC response.  The HTTP stack is imported only by :func:`serve`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .algebra import PipelineNode, execute
from .errors import BindError, DataError, FlowrankError, NotServable, ValidationError
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


# every served pipeline runs from a query frame, so every tool takes this input
_QUERIES_SCHEMA = {
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

# MCP 2025-03-26 tool hints: a pipeline reads its index and nothing else,
# and the same queries give the same reply
_TOOL_ANNOTATIONS = {"readOnlyHint": True, "idempotentHint": True, "openWorldHint": False}


@dataclass(frozen=True)
class ToolDescriptor:
    """MCP-facing tool metadata derived from pipeline inspection."""

    name: str
    description: str
    output_columns: tuple[str, ...]

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "inputSchema": _QUERIES_SCHEMA,
            "outputColumns": list(self.output_columns),
            "annotations": _TOOL_ANNOTATIONS,
        }


def tool_descriptor(name: str, node: PipelineNode, description: str) -> ToolDescriptor:
    """Describe a pipeline as a tool; only query-frame-rooted pipelines serve."""
    try:
        produced = canonical_columns(output_columns(node, _SERVABLE_INPUT))
    except ValidationError as exc:
        raise NotServable(name, exc.diagnostic) from None
    return ToolDescriptor(name, description, tuple(produced))


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    pipelines: dict = field(default_factory=dict)  # name -> (PipelineNode, description)


def _json_value(value):
    if isinstance(value, float):
        if not math.isfinite(value):  # JSON (RFC 8259) has no inf or nan
            raise DataError(f"a result value is not finite ({value}), which JSON cannot carry")
        return float(f"{value:.6f}")
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def relation_to_json_rows(rel: Relation) -> list[dict]:
    """Rows as flat JSON objects with canonical float formatting (6 decimals).

    A float that is not finite raises :class:`DataError`.
    """
    names = rel.columns
    return [{k: _json_value(v) for k, v in zip(names, row)} for row in rel.rows]


def _text_cell(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def relation_to_text(rel: Relation) -> str:
    """Human-readable tab-separated rendering for chat clients."""
    return "\n".join(["\t".join(rel.columns), *("\t".join(map(_text_cell, row)) for row in rel.rows)])


def _escaped(text: str) -> str:
    """*text* as ``json.dumps`` writes it between a JSON string's quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _encode_column(values: tuple) -> tuple:
    """One column's (JSON cells, JSON cell format, text cells), each cell formatted once.

    Text cells are escaped for the inside of a JSON string.  A float is
    written ``%.6f``: as JSON that parses to exactly ``float(f"{v:.6f}")``,
    the value :func:`relation_to_json_rows` gives.  A text column is
    escaped as ``json.dumps`` escapes it, each distinct value once, and one
    list of its cells serves both renderings under the format ``"%s"``; when
    the joined column needs no escaping, that list is *values* itself.  Any
    other column (float vectors, nulls, a float that is not finite) goes
    through :func:`_json_value` cell by cell.
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        joined = "".join(values)
        if len(encode_basestring_ascii(joined)) != len(joined) + 2:  # some character is escaped
            escaped = {text: _escaped(text) for text in set(values)}
            values = list(map(escaped.__getitem__, values))
        return values, '"%s"', values
    if kinds == {float} and all(map(math.isfinite, values)):
        cells = list(map("%.6f".__mod__, values))
        return cells, "%s", cells
    if kinds == {int}:
        cells = list(map(repr, values))
        return cells, "%s", cells
    return [json.dumps(_json_value(v)) for v in values], "%s", [_escaped(_text_cell(v)) for v in values]


def _interleaved(columns: list, n_rows: int) -> tuple:
    """The cells of *columns* in row order, one flat tuple of ``n_rows * len(columns)``."""
    flat = [None] * (n_rows * len(columns))
    for i, cells in enumerate(columns):
        flat[i :: len(columns)] = cells
    return tuple(flat)


def _encode_result(id_, rel: Relation) -> bytes:
    """The ``tools/call`` reply for *rel*, built column by column.

    Its bytes are those of ``json.dumps`` of :func:`relation_to_json_rows`
    and :func:`relation_to_text` in the result envelope, except that a
    float in ``rows`` is written ``%.6f``.  ``rows`` and ``text`` are each
    one ``%`` over a repeated row template, filled with every cell of
    :func:`_encode_column` in row order.  A float that is not finite raises
    :class:`DataError`.
    """
    try:
        columns = list(map(_encode_column, zip(*rel.rows)))
    except DataError:
        relation_to_json_rows(rel)  # raises for the first value, in row order, that is not finite
        raise
    n = len(rel.rows)
    # a relation without rows has no column cells: its templates repeat zero times
    names = [_escaped(name).replace("%", "%%") for name in rel.columns]
    row = "{%s}" % ", ".join(f'"{name}": {fmt}' for name, (_, fmt, _) in zip(names, columns))
    json_cells, text_cells = [cells for cells, _, _ in columns], [cells for _, _, cells in columns]
    flat = _interleaved(json_cells, n)
    rows = ", ".join(repeat(row, n)) % flat
    if text_cells != json_cells:  # only a column encoded cell by cell has two lists
        flat = _interleaved(text_cells, n)
    line = "\\t".join(repeat("%s", len(names)))
    text = "\\n".join(["\\t".join(names), *repeat(line, n)]) % flat
    return (
        '{"jsonrpc": "2.0", "id": %s, "result": {"content": [{"type": "text", "text": "%s"}], '
        '"rows": [%s], "isError": false}}' % (json.dumps(id_), text, rows)
    ).encode("ascii")


def _rpc_error(id_, code: int, message: str) -> bytes:
    return json.dumps({"jsonrpc": "2.0", "id": id_, "error": {"code": code, "message": message}}).encode("utf-8")


def _rpc_result(id_, result) -> bytes:
    return json.dumps({"jsonrpc": "2.0", "id": id_, "result": result}).encode("utf-8")


def _valid_id(id_) -> bool:
    """A string, a finite number or null: JSON-RPC 2.0 section 4 allows no
    other id, and only a finite number can be echoed back as JSON."""
    if isinstance(id_, float):
        return math.isfinite(id_)
    return id_ is None or isinstance(id_, str) or (isinstance(id_, int) and not isinstance(id_, bool))


class _Dispatcher:
    """Protocol logic, independent of the HTTP plumbing for testability."""

    def __init__(self, config: ServerConfig):
        self.tools: dict[str, tuple[PipelineNode, ToolDescriptor]] = {
            name: (node, tool_descriptor(name, node, description))
            for name, (node, description) in config.pipelines.items()
        }

    def dispatch_bytes(self, body: bytes) -> bytes | None:
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):
            # ValueError covers bad UTF-8, bad JSON and an integer literal
            # longer than int() accepts; RecursionError, arrays nested deeper
            # than the decoder recurses
            return _rpc_error(None, PARSE_ERROR, "Parse error")
        return self.dispatch(request)

    def dispatch(self, request) -> bytes | None:
        """The encoded response to *request*, or None for a notification."""
        if not isinstance(request, dict) or not _valid_id(request.get("id")):
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
            if method == "ping":
                return _rpc_result(id_, {})
            if method == "tools/list":
                return _rpc_result(
                    id_, {"tools": [desc.to_wire() for _, desc in self.tools.values()]}
                )
            if method == "tools/call":
                return self._call(id_, params)
            return _rpc_error(id_, METHOD_NOT_FOUND, f"Method not found: {method}")
        except Exception as exc:  # never drop the connection
            return _rpc_error(id_, INTERNAL_ERROR, f"Internal error: {exc}")

    def _call(self, id_, params) -> bytes:
        if not isinstance(params, dict):
            return _rpc_error(id_, INVALID_PARAMS, "params must be an object")
        name = params.get("name")
        if name not in self.tools:
            return _rpc_error(id_, INVALID_PARAMS, f"unknown tool: {name!r}")
        arguments = params.get("arguments")
        if not isinstance(arguments, dict) or not isinstance(arguments.get("queries"), list):
            return _rpc_error(id_, INVALID_PARAMS, "arguments.queries must be an array")
        pairs = []
        for i, item in enumerate(arguments["queries"]):
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("qid"), str)
                or not isinstance(item.get("query"), str)
            ):
                return _rpc_error(
                    id_, INVALID_PARAMS, f"queries[{i}] must have string qid and query"
                )
            pairs.append((item["qid"], item["query"]))
        node, _ = self.tools[name]
        try:
            queries = Relation(("qid", "query"), pairs)
        except FlowrankError as exc:
            return _rpc_error(id_, INVALID_PARAMS, str(exc))
        try:
            return _encode_result(id_, execute(node, queries))
        except FlowrankError as exc:
            return _rpc_result(
                id_, {"content": [{"type": "text", "text": str(exc)}], "isError": True}
            )


def serve(config: ServerConfig):
    """Start serving the configured pipelines; returns the running server.

    The server has ``host``, ``port``, ``url``, ``join()`` and ``close()``,
    and ``with`` closes it.  It binds ``config.port`` on ``config.host``;
    port 0 takes a free port.  Raises :class:`BindError` if the address
    cannot be bound, a port outside 0-65535 among them, and
    :class:`NotServable` if a registered pipeline cannot run from a query
    frame.  The HTTP stack is imported here, on the first call, not with
    this module.
    """
    from ._mcp_http import Server

    dispatcher = _Dispatcher(config)
    try:
        return Server((config.host, config.port), dispatcher)
    except (OSError, OverflowError) as exc:  # OverflowError: a port outside 0-65535
        raise BindError(config.host, config.port, str(exc)) from exc
