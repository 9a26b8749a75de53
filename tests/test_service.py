import dataclasses
import http.client
import json
import os
import queue
import resource
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from vngender import bundle as bm
from vngender import classical
from vngender import service
from vngender.errors import PredictionError


class Client:
    def __init__(self, port: int):
        self.port = port

    def request(self, method, path, body=None, headers=None):
        """(status, headers, decoded JSON body) of one request on a new connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body, headers or {})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), json.loads(response.read())
        finally:
            conn.close()

    def post(self, payload):
        status, _, body = self.request("POST", "/predict", json.dumps(payload).encode("utf-8"),
                                       {"Content-Type": "application/json"})
        return status, body


@pytest.fixture
def serve_bundle():
    """Start a service for a bundle; yields a `start(path or bundle) -> Client`."""
    servers = []

    def start(source, handler=None):
        loaded = source if isinstance(source, bm.ModelBundle) else bm.load_model(source)
        server = service.make_server(loaded)
        if handler is not None:
            server.RequestHandlerClass = handler
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return Client(server.server_address[1])

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def client(bundle_paths, serve_bundle):
    return serve_bundle(bundle_paths["multinomial_nb", "full"])


@pytest.mark.parametrize("kind", ["multinomial_nb", "lstm"])
def test_mask_selecting_nothing_is_empty_components(bundle_paths, serve_bundle, kind):
    client = serve_bundle(bundle_paths[kind, "fan"])
    assert client.post({"name": "Lan"}) == (400, {"error": "empty_components"})


def test_prediction_matches_in_process(bundle_paths, serve_bundle):
    path = bundle_paths["random_forest", "full"]
    client = serve_bundle(path)
    status, body = client.post({"name": "Nguyễn Thị Lan"})
    assert status == 200
    assert body == bm.bundle_predict(bm.load_model(path), "Nguyễn Thị Lan")


def test_health(bundle_paths, client):
    status, _, body = client.request("GET", "/health")
    model_id = bm.load_model(bundle_paths["multinomial_nb", "full"]).model_id
    assert (status, body) == (200, {"status": "ok", "model_id": model_id})


@pytest.mark.parametrize("method, path, allow", [("GET", "/predict", "POST"),
                                                 ("POST", "/health", "GET")])
def test_wrong_method(client, method, path, allow):
    status, headers, body = client.request(method, path, b"{}" if method == "POST" else None)
    assert (status, body) == (405, {"error": "method_not_allowed"})
    assert headers["Allow"] == allow


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_unknown_path(client, method):
    status, _, body = client.request(method, "/nowhere", b"{}" if method == "POST" else None)
    assert (status, body) == (404, {"error": "not_found"})


# Bodies under MAX_BODY_BYTES that `json.loads` refuses with a RecursionError
# (nested too deep) or a ValueError (more digits than Python converts).
DEEP_LIST = b'{"names": ' + b"[" * 30_000
DEEP_OBJECT = b'{"a": ' * 6_000 + b"1" + b"}" * 6_000
LONG_INTEGER = b'{"name": ' + b"9" * 5_000 + b"}"


@pytest.mark.parametrize("raw, error", [
    (b'{"name": "Nguy', "malformed_json"),
    (b"\xff\xfe", "malformed_json"),
    pytest.param(DEEP_LIST, "malformed_json", id="deep_list"),
    pytest.param(DEEP_OBJECT, "malformed_json", id="deep_object"),
    pytest.param(LONG_INTEGER, "malformed_json", id="long_integer"),
    (b'["Nguyen Lan"]', "invalid_name"),
    (b'{"name": 5}', "invalid_name"),
    (b'{"surname": "Lan"}', "invalid_name"),
    # A lone surrogate is valid JSON but no UTF-8 string.
    (b'{"name": "Nguy\\ud800n Lan"}', "invalid_name"),
    (b'{"name": " \\t "}', "empty_name"),
])
def test_bad_bodies(client, raw, error):
    status, _, body = client.request("POST", "/predict", raw)
    assert (status, body) == (400, {"error": error})


@pytest.mark.parametrize("length", ["-14", "abc", "1_4"])
def test_content_length_that_is_not_digits_is_refused_unread(client, length):
    status, headers, body = client.request("POST", "/predict", b'{"name": "Vy"}',
                                           {"Content-Length": length})
    assert (status, body) == (400, {"error": "bad_content_length"})
    assert headers["Connection"] == "close"
    assert client.post({"name": "Lê Minh"})[0] == 200


def test_content_length_with_spaces_around_it_is_read(client):
    status, headers, body = client.request("POST", "/predict", b'{"name": "Vy"}',
                                           {"Content-Length": " 14\t"})
    assert status == 200 and "Connection" not in headers
    assert body["components"]["given"] == "vy"


def test_oversized_body_refused_unread(client):
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Length", str(10**15))
        conn.endheaders(b"{}")
        response = conn.getresponse()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert json.loads(response.read()) == {"error": "body_too_large"}
    finally:
        conn.close()
    assert client.post({"name": "Lê Minh"})[0] == 200


def test_body_at_the_limit_is_read(client):
    raw = json.dumps({"name": "Lê Minh"}).encode("utf-8")
    raw += b" " * (service.MAX_BODY_BYTES - len(raw))
    assert client.request("POST", "/predict", raw)[0] == 200


def raising_bundle(path, error: Exception) -> bm.ModelBundle:
    """The bundle at `path` with a model whose scoring raises `error`."""
    loaded = bm.load_model(path)
    model = loaded.model

    class RaisingModel(type(model)):
        def score(self, x):
            raise error

    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    return dataclasses.replace(loaded, model=RaisingModel(**fields))


@pytest.mark.parametrize("error, status, code", [
    (PredictionError("feature index out of range"), 422, "prediction_failed"),
    (RuntimeError("boom"), 500, "internal"),
    (MemoryError(), 500, "internal"),
])
def test_model_errors_are_json_and_keep_the_connection(bundle_paths, serve_bundle,
                                                       error, status, code):
    handler, writes, _ = recording_handler()
    client = serve_bundle(raising_bundle(bundle_paths["multinomial_nb", "full"], error), handler)
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        for payload in ({"name": "Lê Minh"}, {"names": ["Lê Minh", ""]}):
            conn.request("POST", "/predict", json.dumps(payload).encode("utf-8"))
            response = conn.getresponse()
            assert (response.status, json.loads(response.read())) == (status, {"error": code})
        conn.request("GET", "/health")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    finally:
        conn.close()
    assert len(writes) == 3


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_a_handler_failure_is_a_500_that_closes_the_connection(bundle_paths, serve_bundle,
                                                              monkeypatch, capsys, method):
    def failing_route(self):
        raise RuntimeError("route table broken")

    handler, writes, _ = recording_handler()
    monkeypatch.setattr(handler, "_route", failing_route)
    client = serve_bundle(bundle_paths["multinomial_nb", "full"], handler)
    status, headers, body = exchange(client.port, post_raw(b"{}", "/health", method), method)
    assert (status, json.loads(body)) == (500, {"error": "internal"})
    assert headers["Connection"] == "close"
    assert len(writes) == 1
    assert "RuntimeError: route table broken" in capsys.readouterr().err


def exchange(port: int, raw: bytes, method: str = "GET"):
    """(status, headers, body bytes) of the response to raw request bytes sent
    on a new connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock, method=method)
        response.begin()
        return response.status, dict(response.getheaders()), response.read()


def post_raw(body: bytes, path: str = "/predict", method: str = "POST") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode("ascii") + body)


BATCH_NAMES = ["Nguyễn Thị Lan", "  TRẦN văn nam ", " \t ", "Nguy\ud800n Lan", "Lê Minh",
               "Phạm Hữu Đức Anh", "Vy", "Hoàng Xuân"]


def length_raw(length: bytes) -> bytes:
    """A 14-byte /predict body sent with the Content-Length header `length`."""
    return b"POST /predict HTTP/1.1\r\nContent-Length: " + length + b'\r\n\r\n{"name": "Vy"}'


def get_raw(path: str, version: str = "HTTP/1.1") -> bytes:
    return f"GET {path} {version}\r\nHost: x\r\n\r\n".encode("ascii")


# (case, raw request, status, error code or None for a 200, connection closed)
ROUTES = [
    ("health", get_raw("/health"), 200, None, False),
    ("predict", post_raw(json.dumps({"name": "Lê Minh"}).encode("utf-8")), 200, None, False),
    # A response of about 55 KB, larger than a default 8 KiB write buffer.
    ("batch", post_raw(json.dumps({"names": BATCH_NAMES * 50}).encode("utf-8")), 200, None,
     False),
    ("get_predict", get_raw("/predict"), 405, "method_not_allowed", False),
    ("post_health", post_raw(b"{}", "/health"), 405, "method_not_allowed", False),
    ("not_found", get_raw("/nowhere"), 404, "not_found", False),
    ("malformed_json", post_raw(b'{"name": "Nguy'), 400, "malformed_json", False),
    ("deep_list", post_raw(DEEP_LIST), 400, "malformed_json", False),
    ("deep_object", post_raw(DEEP_OBJECT), 400, "malformed_json", False),
    ("long_integer", post_raw(LONG_INTEGER), 400, "malformed_json", False),
    ("names_not_strings", post_raw(b'{"names": ["Lan", 5]}'), 400, "invalid_name", False),
    ("empty_name", post_raw(b'{"name": " "}'), 400, "empty_name", False),
    ("too_large", b"POST /predict HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n{}", 413,
     "body_too_large", True),
    ("negative_length", length_raw(b"-14"), 400, "bad_content_length", True),
    ("letters_length", length_raw(b"abc"), 400, "bad_content_length", True),
    ("underscore_length", length_raw(b"1_4"), 400, "bad_content_length", True),
    ("padded_length", length_raw(b" 14 "), 200, None, False),
    ("short_body", b"POST /predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 408,
     "request_timeout", True),
    ("stalled_headers", b"GET /health HTTP/1.1\r\nHost: x\r\n", 408, "request_timeout", True),
    ("put", post_raw(b"{}", method="PUT"), 501, "not_implemented", True),
    ("garbage_line", b"GARBAGE\r\n\r\n", 400, "bad_request", True),
    ("bad_version", b"GET /health HTCPCP/1.0\r\n\r\n", 400, "bad_request", True),
    ("http2", get_raw("/health", "HTTP/2.0"), 505, "http_version_not_supported", True),
    ("many_headers",
     b"GET /health HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(120)) + b"\r\n",
     431, "request_header_fields_too_large", True),
    ("long_uri", get_raw("/" + "a" * 70_000), 414, "request_uri_too_long", True),
]


class CountingSocket:
    """A socket that records the size of every `sendall` in `log`."""

    def __init__(self, sock, log: list):
        self._sock = sock
        self._log = log

    def sendall(self, data, *args):
        self._log.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def recording_handler():
    """A handler class, and the lists it fills: the sizes of its socket
    writes and the TCP_NODELAY value of each accepted socket."""
    writes, nodelay = [], []

    class RecordingHandler(service._Handler):
        def setup(self):
            self.request = CountingSocket(self.request, writes)
            super().setup()
            nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    return RecordingHandler, writes, nodelay


@pytest.mark.parametrize("case, raw, status, error, closes", ROUTES, ids=[r[0] for r in ROUTES])
def test_every_response_is_json_in_one_write_on_a_nodelay_socket(
        bundle_paths, serve_bundle, monkeypatch, case, raw, status, error, closes):
    monkeypatch.setattr(service, "SOCKET_TIMEOUT_S", 0.3)
    handler, writes, nodelay = recording_handler()
    client = serve_bundle(bundle_paths["multinomial_nb", "full"], handler)
    got_status, headers, body = exchange(client.port, raw)
    assert got_status == status
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    payload = json.loads(body)
    if error is not None:
        assert payload == {"error": error}
    assert (headers.get("Connection") == "close") == closes
    assert len(writes) == 1 and writes[0] > len(body)
    assert nodelay == [1]


def test_bodies_are_read_on_every_route(client):
    """A body sent to a route that ignores it is not taken for the next
    request on the connection."""
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        for method, path, status in [("POST", "/health", 405), ("POST", "/nowhere", 404),
                                     ("GET", "/health", 200), ("GET", "/predict", 405)]:
            conn.request(method, path, b'{"name": "L\xc3\xaa Minh"}')
            response = conn.getresponse()
            response.read()
            assert (response.status, response.getheader("Connection")) == (status, None)
        conn.request("GET", "/health")
        assert conn.getresponse().status == 200
    finally:
        conn.close()


def test_head_gets_headers_without_a_body(client):
    status, headers, body = exchange(client.port, b"HEAD /health HTTP/1.1\r\n\r\n", "HEAD")
    assert (status, body) == (501, b"")
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(json.dumps({"error": "not_implemented"}))


@pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
def test_batch_matches_single_name_responses(bundle_paths, serve_bundle, kind):
    client = serve_bundle(bundle_paths[kind, "full"])
    status, body = client.post({"names": BATCH_NAMES})
    assert status == 200
    singles = [client.post({"name": name}) for name in BATCH_NAMES]
    assert [s for s, _ in singles] == [200, 200, 400, 400, 200, 200, 200, 200]
    # Equal floats after a JSON round trip: the scores are bit-identical.
    assert body == {"results": [single for _, single in singles]}


def test_batch_element_errors(bundle_paths, serve_bundle):
    client = serve_bundle(bundle_paths["multinomial_nb", "fan"])
    status, body = client.post({"names": ["Lan", "Nguyễn Văn Nam", ""]})
    assert status == 200
    assert body["results"][0] == {"error": "empty_components"}
    assert body["results"][1] == client.post({"name": "Nguyễn Văn Nam"})[1]
    assert body["results"][2] == {"error": "empty_name"}
    assert client.post({"names": []}) == (200, {"results": []})


@pytest.mark.parametrize("names", ["Lan", None, [["Lan"]], {"0": "Lan"}])
def test_batch_names_must_be_a_list_of_strings(client, names):
    assert client.post({"names": names}) == (400, {"error": "invalid_name"})


def test_stalled_clients_lose_their_connection(client, monkeypatch):
    monkeypatch.setattr(service, "SOCKET_TIMEOUT_S", 0.2)
    status, headers, body = exchange(
        client.port, b"POST /predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"name\"")
    assert (status, json.loads(body)) == (408, {"error": "request_timeout"})
    assert headers["Connection"] == "close"
    # An idle keep-alive connection is closed without a response.
    with socket.create_connection(("127.0.0.1", client.port), timeout=10) as idle:
        idle.sendall(get_raw("/health"))
        response = http.client.HTTPResponse(idle)
        response.begin()
        assert response.status == 200
        response.read()
        assert idle.recv(1) == b""
    assert client.request("GET", "/health")[0] == 200


@pytest.mark.parametrize("raw", [
    b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{\"na",
    b"POST /predict HTTP/1.1\r\nHost: x\r\nConte",
    b"POST /pre",
], ids=["body", "headers", "request_line"])
def test_a_client_reset_closes_the_connection_quietly(client, monkeypatch, capsys, raw):
    closed = threading.Event()
    shutdown_request = service.PredictionServer.shutdown_request

    def signal_shutdown(server, request):
        shutdown_request(server, request)
        closed.set()

    monkeypatch.setattr(service.PredictionServer, "shutdown_request", signal_shutdown)
    sock = socket.create_connection(("127.0.0.1", client.port), timeout=10)
    # A zero linger time makes close() send an RST instead of a FIN.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.sendall(raw)
    sock.close()
    assert closed.wait(10)
    assert capsys.readouterr().err == ""
    assert client.request("GET", "/health")[0] == 200


# ---------------------------------------------------------------------------
# `vngender serve`: the parent process and its workers, run as a child
# process so that the test process never forks.
# ---------------------------------------------------------------------------

needs_workers = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="serve's workers need os.sched_getaffinity")
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def children(pid: int) -> list[int]:
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def running(pid: int) -> bool:
    """Whether `pid` exists and has not exited (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class ServeProcess:
    """`vngender serve --bind 127.0.0.1:0` as a child process in a session of
    its own, with its stderr read line by line on a thread."""

    def __init__(self, path, preexec_fn=None):
        src = str(Path(service.__file__).parents[1])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "vngender.cli", "serve", "--model", str(path),
             "--bind", "127.0.0.1:0"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True, preexec_fn=preexec_fn)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.serving = self.line()
            self.port = int(self.serving.rsplit(":", 1)[1])
            # The workers are forked before the serving line is written.
            self.workers = children(self.proc.pid)
        except BaseException:
            self.close()
            raise

    def _read(self):
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(None)

    def line(self, timeout: float = 30.0) -> str | None:
        return self.lines.get(timeout=timeout)

    def rest(self) -> str:
        """The rest of stderr, once every process holding it has exited."""
        self.reader.join(10)
        assert not self.reader.is_alive()
        return "".join(iter(self.lines.get_nowait, None))

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(10)
        self.reader.join(10)
        if self.reader.is_alive():  # a worker outlived the parent
            for pid in getattr(self, "workers", []):
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
            self.reader.join(10)
        self.proc.stderr.close()


@pytest.fixture
def serve_process():
    """Start `vngender serve` children; yields a `start(path, preexec_fn=None)
    -> ServeProcess`. A worker exits once its parent is gone, so killing
    the parents stops every process started."""
    started = []

    def start(path, preexec_fn=None):
        started.append(ServeProcess(path, preexec_fn))
        return started[-1]

    yield start
    for served in started:
        served.close()


def health(port: int) -> int:
    return Client(port).request("GET", "/health")[0]


@needs_workers
@pytest.mark.parametrize("stop", [
    pytest.param(lambda pid: os.kill(pid, signal.SIGTERM), id="sigterm"),
    # Ctrl-C sends SIGINT to the whole foreground process group.
    pytest.param(lambda pid: os.killpg(pid, signal.SIGINT), id="ctrl_c"),
])
def test_a_stopped_server_exits_quietly_and_reaps_its_workers(bundle_paths, serve_process,
                                                              stop):
    path = bundle_paths["multinomial_nb", "full"]
    served = serve_process(path)
    model_id = bm.load_model(path).model_id
    assert served.serving == f"serving {model_id} on 127.0.0.1:{served.port}\n"
    assert health(served.port) == 200
    # One worker pinned to each CPU of the affinity set.
    assert sorted(os.sched_getaffinity(pid) for pid in served.workers) == [{c} for c in CPUS]
    stop(served.proc.pid)
    assert served.proc.wait(10) == 0
    assert served.rest() == ""
    assert not any(running(pid) for pid in served.workers)


@needs_workers
def test_workers_exit_when_the_parent_is_killed(bundle_paths, serve_process):
    served = serve_process(bundle_paths["multinomial_nb", "full"])
    assert len(served.workers) == len(CPUS)
    # Each connection wakes every worker, and those that lose the race for
    # it must be back waiting on their channels too.
    assert [health(served.port) for _ in range(4)] == [200] * 4
    served.proc.kill()
    served.proc.wait(10)
    deadline = time.monotonic() + 2.0
    while any(running(pid) for pid in served.workers) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(running(pid) for pid in served.workers)
    assert served.rest() == ""


def server_socket_owners(server_port: int, client_port: int, pids: list[int]) -> list[int]:
    """The processes among `pids` that hold the server side of the loopback
    TCP connection between the two ports."""
    inodes = []
    for row in Path("/proc/net/tcp").read_text().splitlines()[1:]:
        fields = row.split()
        ports = tuple(int(address.rsplit(":", 1)[1], 16) for address in fields[1:3])
        if ports == (server_port, client_port):
            inodes.append(fields[9])
    assert len(inodes) == 1
    target = f"socket:[{inodes[0]}]"
    owners = []
    for pid in pids:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                if os.readlink(f"/proc/{pid}/fd/{fd}") == target:
                    owners.append(pid)
            except FileNotFoundError:  # closed while listed
                pass
    return owners


@needs_workers
@pytest.mark.skipif(len(CPUS) < 2, reason="needs two CPUs in the affinity set")
def test_two_workers_serve_two_connections(bundle_paths, serve_process):
    path = bundle_paths["random_forest", "full"]
    served = serve_process(path)
    loaded = bm.load_model(path)
    names = [name for name in BATCH_NAMES if name.strip() and "\ud800" not in name]
    # Which worker accepts a connection is the kernel's race: connect until
    # two connections are held by two workers.
    conns, held = [], {}
    try:
        while len(held) < 2:
            assert len(conns) < 100
            conns.append(http.client.HTTPConnection("127.0.0.1", served.port, timeout=10))
            conns[-1].connect()
            client_port = conns[-1].sock.getsockname()[1]
            deadline = time.monotonic() + 10.0
            while not (owners := server_socket_owners(served.port, client_port, served.workers)):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            held.setdefault(owners[0], conns[-1])
        for i in range(50):
            for j, conn in enumerate(held.values()):
                name = names[(2 * i + j) % len(names)]
                conn.request("POST", "/predict", json.dumps({"name": name}).encode("utf-8"))
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == bm.bundle_predict(loaded, name)
        assert [server_socket_owners(served.port, conn.sock.getsockname()[1], served.workers)
                for conn in held.values()] == [[pid] for pid in held]
    finally:
        for conn in conns:
            conn.close()


@needs_workers
def test_one_cpu_runs_one_worker(bundle_paths, serve_process):
    cpu = CPUS[-1]
    path = bundle_paths["multinomial_nb", "full"]
    served = serve_process(path, lambda: os.sched_setaffinity(0, {cpu}))
    assert len(served.workers) == 1
    assert os.sched_getaffinity(served.workers[0]) == {cpu}
    status, _, body = Client(served.port).request("GET", "/health")
    assert (status, body) == (200, {"status": "ok", "model_id": bm.load_model(path).model_id})



def cpu_seconds(pid: int) -> float:
    """The user and system CPU time of process `pid` (`/proc/<pid>/stat`)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15; the rest starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@needs_workers
def test_a_full_descriptor_table_delays_connections_until_one_closes(bundle_paths,
                                                                     serve_process):
    cpu, limit = CPUS[0], 64

    def confine():
        os.sched_setaffinity(0, {cpu})
        resource.setrlimit(resource.RLIMIT_NOFILE,
                           (limit, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))

    served = serve_process(bundle_paths["multinomial_nb", "full"], confine)
    fds = f"/proc/{served.workers[0]}/fd"
    idle = []
    try:
        # Fill the worker's descriptor table with idle connections, one at a
        # time: each is accepted before the table is counted again.
        while len(os.listdir(fds)) < limit:
            assert len(idle) < limit
            idle.append(socket.create_connection(("127.0.0.1", served.port), timeout=10))
            client_port = idle[-1].getsockname()[1]
            deadline = time.monotonic() + 10.0
            while not server_socket_owners(served.port, client_port, served.workers):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        # More idle connections than the table holds, then a request.
        idle += [socket.create_connection(("127.0.0.1", served.port), timeout=10)
                 for _ in range(3)]
        late = socket.create_connection(("127.0.0.1", served.port), timeout=10)
        with late, late.makefile("rb") as reader:
            late.sendall(get_raw("/health"))
            # Its descriptor table full, the worker leaves the connection in
            # the listen queue, without spinning on the listener...
            used = cpu_seconds(served.workers[0])
            waited = time.monotonic()
            with selectors.DefaultSelector() as selector:
                selector.register(late, selectors.EVENT_READ)
                assert not selector.select(0.3)
            waited = time.monotonic() - waited
            assert cpu_seconds(served.workers[0]) - used < waited / 10
            # ...and accepts it once an idle connection closes.
            for sock in idle:
                sock.close()
            assert reader.readline().split()[1] == b"200"
    finally:
        for sock in idle:
            sock.close()
    assert served.proc.poll() is None
    assert children(served.proc.pid) == served.workers
    assert served.lines.empty()


@needs_workers
def test_a_dead_worker_is_reaped_and_the_rest_serve(bundle_paths, serve_process):
    served = serve_process(bundle_paths["multinomial_nb", "full"])
    for left, pid in reversed(list(enumerate(served.workers))):
        os.kill(pid, signal.SIGKILL)
        line = served.line()
        assert line.startswith(f"worker {pid} on CPU ") and line.endswith(f"; {left} left\n")
        if left:
            # Every connection now goes to the workers still running.
            assert [health(served.port) for _ in range(2 * left)] == [200] * (2 * left)
    assert served.proc.wait(10) == 1
    assert served.rest() == "error: every worker process has exited\n"
