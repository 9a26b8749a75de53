"""JSON-over-HTTP prediction service for a loaded model bundle."""

from __future__ import annotations

import json
import sys
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .bundle import ModelBundle, bundle_predict
from .errors import EmptyNameError, EmptySequenceError, InvalidNameError, ToolkitError

# Larger request bodies are refused unread; a name is a few dozen bytes.
MAX_BODY_BYTES = 64 * 1024
# Errors that say what is wrong with the name, by their `error` code.
_NAME_ERRORS = (
    (InvalidNameError, "invalid_name"),
    (EmptyNameError, "empty_name"),
    (EmptySequenceError, "empty_components"),
)


def _error_response(exc: Exception) -> tuple[int, dict]:
    """Status and JSON body for an error raised while predicting: 400 for a
    bad name, 422 for any other `ToolkitError`, 500 for anything else."""
    for error_type, code in _NAME_ERRORS:
        if isinstance(exc, error_type):
            return 400, {"error": code}
    if isinstance(exc, ToolkitError):
        return 422, {"error": "prediction_failed"}
    return 500, {"error": "internal"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "vngender"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, code: int, payload: dict, extra_headers: dict | None = None):
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    def do_GET(self):
        route = self._route()
        if route == "/health":
            self._send(200, {"status": "ok", "model_id": self.server.bundle.model_id})
        elif route == "/predict":
            self._send(405, {"error": "method_not_allowed"}, {"Allow": "POST"})
        else:
            self._send(404, {"error": "not_found"})

    def do_POST(self):
        route = self._route()
        if route == "/health":
            self._send(405, {"error": "method_not_allowed"}, {"Allow": "GET"})
            return
        if route != "/predict":
            self._send(404, {"error": "not_found"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request, so the
            # "Connection: close" header also ends this connection.
            self._send(413, {"error": "body_too_large"}, {"Connection": "close"})
            return
        body = self.rfile.read(length) if length > 0 else b""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._send(400, {"error": "malformed_json"})
            return
        name = payload.get("name") if isinstance(payload, dict) else None
        if not isinstance(name, str):
            self._send(400, {"error": "invalid_name"})
            return
        try:
            response = bundle_predict(self.server.bundle, name)
        except Exception as exc:
            code, body = _error_response(exc)
            if code == 500:
                traceback.print_exc()
            self._send(code, body)
            return
        self._send(200, response)


class PredictionServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, bundle: ModelBundle, host: str, port: int):
        super().__init__((host, port), _Handler)
        self.bundle = bundle


def make_server(bundle: ModelBundle, host: str = "127.0.0.1", port: int = 0) -> PredictionServer:
    """Bind a threaded server; port 0 picks a free ephemeral port."""
    return PredictionServer(bundle, host, port)


def serve(bundle: ModelBundle, bind: str = "127.0.0.1:8000") -> None:
    """Run the service until interrupted; says on stderr once it listens."""
    host, _, port_text = bind.rpartition(":")
    if not (port_text.isascii() and port_text.isdigit() and int(port_text) <= 65535):
        raise ToolkitError(f"bind address {bind!r} is not HOST:PORT with a port in 0-65535")
    server = make_server(bundle, host or "127.0.0.1", int(port_text))
    sys.stderr.write(f"serving {bundle.model_id} on {bind}\n")
    try:
        server.serve_forever()
    finally:
        server.server_close()
