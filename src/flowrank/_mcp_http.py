"""The HTTP plumbing of the MCP server: one handler class and one server class.

Only :func:`flowrank.mcp.serve` imports this module.  ``http.server``
brings in ``http.client``, ``email`` and ``ssl``, so keeping it here keeps
them out of every process that does not serve (``flowrank search`` and
``flowrank index`` among them).
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .mcp import INVALID_REQUEST, MAX_BODY_BYTES, SERVER_NAME, SERVER_VERSION, _rpc_error


class Handler(BaseHTTPRequestHandler):
    server_version = f"{SERVER_NAME}/{SERVER_VERSION}"
    # TCP_NODELAY: the body's last partial segment is not held back behind
    # the unacknowledged header segment
    disable_nagle_algorithm = True
    # seconds a read or write on the connection may block: a client that
    # stalls mid-request would otherwise hold its server thread forever
    timeout = 30

    def log_message(self, fmt, *args):  # keep test output clean
        pass

    def _send_json(self, body: bytes):
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
        if len(body) < length:
            # the client closed its side early: what came is not the request it declared
            self._send_json(
                _rpc_error(None, INVALID_REQUEST, "Invalid Request: body shorter than its Content-Length")
            )
            return
        response = self.server.dispatcher.dispatch_bytes(body)
        if response is None:
            self.send_response(202)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._send_json(response)

    def do_GET(self):
        self.send_error(404, "only POST /mcp is served")


class Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, dispatcher):
        super().__init__(address, Handler)
        self.dispatcher = dispatcher
