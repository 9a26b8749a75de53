import dataclasses
import http.client
import json
import threading

import pytest

from vngender import bundle as bm
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

    def start(source):
        loaded = source if isinstance(source, bm.ModelBundle) else bm.load_model(source)
        server = service.make_server(loaded)
        threading.Thread(target=server.serve_forever, daemon=True).start()
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


@pytest.mark.parametrize("raw, error", [
    (b'{"name": "Nguy', "malformed_json"),
    (b"\xff\xfe", "malformed_json"),
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
    client = serve_bundle(raising_bundle(bundle_paths["multinomial_nb", "full"], error))
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        for _ in range(2):
            conn.request("POST", "/predict", json.dumps({"name": "Lê Minh"}).encode("utf-8"))
            response = conn.getresponse()
            assert (response.status, json.loads(response.read())) == (status, {"error": code})
        conn.request("GET", "/health")
        assert conn.getresponse().status == 200
    finally:
        conn.close()
