"""The HTTP plumbing of the MCP server: one handler class and one server class.

Only :func:`flowrank.mcp.serve` imports this module.  ``http.server``
brings in ``http.client``, ``email`` and ``ssl``, so keeping it here keeps
them out of every process that does not serve (``flowrank search`` and
``flowrank index`` among them).
"""

from __future__ import annotations

import threading
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

    def _refuse(self, detail: str):
        """Answer a request refused before dispatch with a JSON-RPC Invalid Request."""
        self._send_json(_rpc_error(None, INVALID_REQUEST, f"Invalid Request: {detail}"))

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
            return self._refuse("bad Content-Length")
        if length > MAX_BODY_BYTES:
            return self._refuse(f"body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        if len(body) < length:
            # the client closed its side early: what came is not the request it declared
            return self._refuse("body shorter than its Content-Length")
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
    """A running MCP server: it serves from its own thread until close(), which ``with`` calls."""

    daemon_threads = True

    def __init__(self, address, dispatcher):
        super().__init__(address, Handler)
        self.dispatcher = dispatcher
        self._thread = threading.Thread(target=self.serve_forever, name="flowrank-mcp", daemon=True)
        self._thread.start()

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/mcp"

    def join(self):
        """Block until the server is shut down."""
        self._thread.join()

    def close(self):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)

    def __exit__(self, *exc):
        self.close()
