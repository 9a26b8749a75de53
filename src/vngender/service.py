"""JSON-over-HTTP prediction service for a loaded model bundle.

Routes:

- ``GET /health``: 200 ``{"status": "ok", "model_id": ...}``.
- ``POST /predict`` with ``{"name": "..."}``: 200 with the `bundle_predict`
  response: ``label``, ``gender``, ``score``, ``components`` and
  ``model_id``.
- ``POST /predict`` with ``{"names": ["...", ...]}``: 200
  ``{"results": [...]}``, one element per name and in order. An element is
  the single-name 200 body, or ``{"error": code}`` for a name that cannot be
  scored (``invalid_name``, ``empty_name`` or ``empty_components``). The
  scorable names are scored in one batch.

Every other response is ``{"error": code}``:

- 400 ``bad_content_length``: a ``Content-Length`` that is not all ASCII
  digits once spaces and tabs around it are trimmed (``-14``, ``abc``,
  ``1_4``), refused unread.
- 400 ``malformed_json``: the body is not UTF-8 JSON, or JSON that
  ``json.loads`` refuses: nested too deep for the parser, or an integer of
  more digits than Python converts.
- 400 ``invalid_name``: no string ``name``, a ``names`` that is not a list
  of strings, or a name holding a lone surrogate.
- 400 ``empty_name``: the name is blank.
- 400 ``empty_components``: the bundle's component mask keeps no token of
  the name.
- 404 ``not_found``: any other path.
- 405 ``method_not_allowed``: GET on ``/predict`` or POST on ``/health``,
  with an ``Allow`` header.
- 408 ``request_timeout``: the headers or the body of a request did not
  arrive within ``SOCKET_TIMEOUT_S``.
- 413 ``body_too_large``: a body over ``MAX_BODY_BYTES``, refused unread.
- 422 ``prediction_failed``: the model refused the input.
- 500 ``internal``: any other failure; the traceback goes to stderr. A
  failure of the handler itself, outside scoring, also ends the
  connection.
- ``http.server``'s own protocol errors, named after their status: 400
  ``bad_request`` (a malformed request line), 414 ``request_uri_too_long``,
  431 ``request_header_fields_too_large`` (a header line over 64 KiB or more
  than 100 headers), 501 ``not_implemented`` (a method other than GET and
  POST) and 505 ``http_version_not_supported``.

``bad_content_length``, 408, 413 and the protocol errors carry ``Connection:
close`` and end the connection. A connection with no request in flight for ``SOCKET_TIMEOUT_S``
is closed without a response, and so is one the client resets. A HEAD
request gets the headers of its response without the body.

Each response leaves in one write on a socket with ``TCP_NODELAY`` set. Sent
as separate writes, the body of a response would wait for the client's
delayed ACK of the headers (Nagle's algorithm), about 40 ms per request.

Processes: `serve` runs one worker process per CPU in the process's affinity
set, the multi-process design of Flash (Pai, Druschel & Zwaenepoel, USENIX
ATC 1999): under one interpreter lock, the threads of one process score one
request at a time. The process that loaded the bundle binds and listens,
then forks the workers, so they share the model copy-on-write and never load
it again; it has started no thread when it forks. Worker k is pinned to CPU
k (``sched_setaffinity``): unpinned, the scheduler often ran two busy
workers on one CPU, and they scored no faster than one process. The
worker count is the size of the affinity set: a cgroup CPU quota does not
lower it, ``taskset`` does. Every worker accepts from the shared,
non-blocking listener and serves each connection on a thread, as the
in-process server of `make_server` does, so every response above is the
same. Which worker takes a connection is the kernel's race: two
connections can land on one worker, and then share one CPU for as long as
they stay open. A worker whose descriptor table is full (``RLIMIT_NOFILE``)
leaves new connections to the others, or in the listen queue until one of
its own closes. Each worker holds one end of an ``AF_UNIX``
``SOCK_SEQPACKET`` socketpair whose other end only the parent holds, and
exits when it reads EOF there, so none outlives a parent killed by
``SIGKILL``; a datagram channel would report no EOF. The parent watches
those channels: a worker that dies is reaped with one line on stderr, and
the connections it held are lost. Once no worker is left, `serve` raises
`ToolkitError`. ``SIGTERM`` or ``SIGINT`` stops the parent: it terminates
and reaps every worker, closes the listener and returns. State kept in a
worker, such as a future ``/metrics`` counter, is that worker's own: each
process counts only the requests it served.
"""

from __future__ import annotations

import io
import json
import os
import re
import selectors
import signal
import socket
import sys
import traceback
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .bundle import ModelBundle, bundle_predict, bundle_predict_many
from .errors import EmptyNameError, EmptySequenceError, InvalidNameError, ToolkitError

# Larger request bodies are refused unread; a name is a few dozen bytes.
MAX_BODY_BYTES = 64 * 1024
# Seconds a connection may wait on the client; a stalled client then loses
# its connection instead of holding a server thread forever.
SOCKET_TIMEOUT_S = 30.0
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


def _batch_response(bundle: ModelBundle, names: list[str]) -> dict:
    """The batch 200 body: each name's response or its `{"error": code}`."""
    return {"results": [_error_response(result)[1] if isinstance(result, ToolkitError) else result
                        for result in bundle_predict_many(bundle, names)]}


class _Handler(BaseHTTPRequestHandler):
    server_version = "vngender"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Socket timeout, read from the module constant as each connection
        is set up."""
        return SOCKET_TIMEOUT_S

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, code: int, payload: dict, extra_headers: dict | None = None):
        """Send a JSON response in one write: the status line and headers are
        composed in memory with the body, then written together."""
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        socket_writer, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra_headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)
            response = self.wfile.getvalue()
        finally:
            self.wfile = socket_writer
        self.wfile.write(response)

    def send_error(self, code, message=None, explain=None):
        """`http.server`'s own errors as JSON, named after their status; the
        connection closes, as it does in the base class."""
        if self.command is None:
            # The request line was refused before its version was known;
            # answer with a status line, not with HTTP/0.9's bare body.
            self.request_version = self.protocol_version
        name = re.sub(r"\W+", "_", HTTPStatus(code).phrase.lower())
        self._send(code, {"error": name}, {"Connection": "close"})

    def handle_one_request(self):
        """The base class's, except that a client which resets the connection,
        while its request is read or its response written, loses the
        connection quietly instead of leaving a traceback on stderr. Any
        other exception that escapes a `do_*` method is answered with a 500
        that closes the connection, whose state is then unknown; its
        traceback goes to stderr."""
        try:
            super().handle_one_request()
        except ConnectionError:
            self.close_connection = True
        except Exception:
            traceback.print_exc()
            self._send(500, {"error": "internal"}, {"Connection": "close"})

    def parse_request(self) -> bool:
        """The base parser, with a 408 for headers that stop arriving."""
        try:
            return super().parse_request()
        except TimeoutError:
            self.send_error(HTTPStatus.REQUEST_TIMEOUT)
            return False

    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    def _answer(self, predict):
        """Send the 200 body that `predict()` returns, or the JSON error for
        what it raises."""
        try:
            response = predict()
        except Exception as exc:
            code, body = _error_response(exc)
            if code == 500:
                traceback.print_exc()
            self._send(code, body)
            return
        self._send(200, response)

    def do_GET(self):
        if self._read_body() is None:
            return
        route = self._route()
        if route == "/health":
            self._send(200, {"status": "ok", "model_id": self.server.bundle.model_id})
        elif route == "/predict":
            self._send(405, {"error": "method_not_allowed"}, {"Allow": "POST"})
        else:
            self._send(404, {"error": "not_found"})

    def _read_body(self) -> bytes | None:
        """The request body, or None once a 400, 413 or 408 response is sent.
        Every route reads it: left unread, it would be parsed as the next
        request on this connection."""
        text = self.headers.get("Content-Length", "0").strip(" \t")
        # The unread body would be parsed as the next request, so the
        # "Connection: close" header also ends this connection.
        if not (text.isascii() and text.isdigit()):
            self._send(400, {"error": "bad_content_length"}, {"Connection": "close"})
            return None
        length = int(text)
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": "body_too_large"}, {"Connection": "close"})
            return None
        try:
            return self.rfile.read(length) if length > 0 else b""
        except TimeoutError:
            self.send_error(HTTPStatus.REQUEST_TIMEOUT)
            return None

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        route = self._route()
        if route == "/health":
            self._send(405, {"error": "method_not_allowed"}, {"Allow": "GET"})
            return
        if route != "/predict":
            self._send(404, {"error": "not_found"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
            self._send(400, {"error": "malformed_json"})
            return
        bundle = self.server.bundle
        if isinstance(payload, dict) and "names" in payload:
            names = payload["names"]
            if isinstance(names, list) and all(isinstance(name, str) for name in names):
                self._answer(lambda: _batch_response(bundle, names))
                return
        else:
            name = payload.get("name") if isinstance(payload, dict) else None
            if isinstance(name, str):
                self._answer(lambda: bundle_predict(bundle, name))
                return
        self._send(400, {"error": "invalid_name"})


class PredictionServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, bundle: ModelBundle, host: str, port: int):
        super().__init__((host, port), _Handler)
        self.bundle = bundle


def make_server(bundle: ModelBundle, host: str = "127.0.0.1", port: int = 0) -> PredictionServer:
    """Bind a threaded server; port 0 picks a free ephemeral port."""
    return PredictionServer(bundle, host, port)


@dataclass
class _Worker:
    pid: int
    cpu: int
    channel: socket.socket  # the parent's end of the worker's socketpair


def _work(server: PredictionServer, channel: socket.socket) -> None:
    """Accept connections on the shared listener and serve each on a thread
    of its own, until `channel` reads EOF."""
    with selectors.DefaultSelector() as selector:
        selector.register(server.socket, selectors.EVENT_READ)
        selector.register(channel, selectors.EVENT_READ)
        while True:
            for key, _ in selector.select():
                if key.fileobj is channel:  # the parent never writes: EOF
                    return
                try:
                    conn, address = server.socket.accept()
                except OSError:  # another worker took it, or no descriptor is free
                    continue
                server.process_request(conn, address)


def _fork_worker(server: PredictionServer, cpu: int, inherited: list[socket.socket]) -> _Worker:
    """Fork a worker pinned to `cpu`. The child closes the `inherited`
    sockets, which belong to the parent alone."""
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            # Ctrl-C reaches the whole process group; the parent stops the
            # workers itself.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for sock in [ours, *inherited]:
                sock.close()
            _work(server, theirs)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    theirs.close()
    # Pinned by the parent, so every worker is pinned once `serve` says it
    # is serving.
    os.sched_setaffinity(pid, {cpu})
    return _Worker(pid, cpu, ours)


def _reap(worker: _Worker) -> int:
    """Close a worker's channel and wait for it; returns its wait status."""
    worker.channel.close()
    return os.waitpid(worker.pid, 0)[1]


def _supervise(workers: list[_Worker], wake: socket.socket) -> None:
    """Wait until a signal byte arrives on `wake`. A worker whose channel
    reads EOF has died: it is dropped, and `ToolkitError` is raised once
    none is left."""
    with selectors.DefaultSelector() as selector:
        selector.register(wake, selectors.EVENT_READ)
        for worker in workers:
            selector.register(worker.channel, selectors.EVENT_READ, worker)
        while True:
            for key, _ in selector.select():
                if key.fileobj is wake:
                    return
                worker = key.data
                selector.unregister(worker.channel)
                workers.remove(worker)
                code = os.waitstatus_to_exitcode(_reap(worker))
                sys.stderr.write(f"worker {worker.pid} on CPU {worker.cpu} exited with code "
                                 f"{code}; {len(workers)} left\n")
                if not workers:
                    raise ToolkitError("every worker process has exited")


def serve(bundle: ModelBundle, bind: str = "127.0.0.1:8000") -> None:
    """Serve on every CPU of the affinity set until SIGTERM or SIGINT (see
    Processes in the module docstring); says on stderr where it listens once
    its workers run. Call it from the main thread; Linux only."""
    host, _, port_text = bind.rpartition(":")
    if not (port_text.isascii() and port_text.isdigit() and int(port_text) <= 65535):
        raise ToolkitError(f"bind address {bind!r} is not HOST:PORT with a port in 0-65535")
    if not hasattr(os, "sched_setaffinity"):
        raise ToolkitError("serve needs Linux: os.sched_setaffinity is missing")
    server = make_server(bundle, host or "127.0.0.1", int(port_text))
    # Every worker waits on the listener; those that lose the race for a
    # connection must not block in accept.
    server.socket.setblocking(False)
    wake, wake_writer = socket.socketpair()
    with server, wake, wake_writer:
        wake_writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(wake_writer.fileno())
        previous = {signum: signal.signal(signum, lambda *_: None)
                    for signum in (signal.SIGTERM, signal.SIGINT)}
        workers: list[_Worker] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                workers.append(_fork_worker(server, cpu, [wake, wake_writer,
                                                          *(w.channel for w in workers)]))
            sys.stderr.write(f"serving {bundle.model_id} on "
                             f"{server.server_address[0]}:{server.server_address[1]}\n")
            sys.stderr.flush()
            _supervise(workers, wake)
        finally:
            for worker in workers:
                os.kill(worker.pid, signal.SIGTERM)
            for worker in workers:
                _reap(worker)
            signal.set_wakeup_fd(previous_fd)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
