import http.client
import json
import threading

import pytest

from vngender import bundle as bm
from vngender import service


@pytest.fixture
def serve_bundle():
    """Start a service for a bundle; yields a `post(body) -> (status, json)`."""
    servers = []

    def start(path):
        server = service.make_server(bm.load_model(path))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)

        def post(payload):
            conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
            try:
                conn.request("POST", "/predict", json.dumps(payload).encode("utf-8"),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                return response.status, json.loads(response.read())
            finally:
                conn.close()

        return post

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("kind", ["multinomial_nb", "lstm"])
def test_mask_selecting_nothing_is_empty_components(bundle_paths, serve_bundle, kind):
    post = serve_bundle(bundle_paths[kind, "fan"])
    assert post({"name": "Lan"}) == (400, {"error": "empty_components"})


def test_prediction_matches_in_process(bundle_paths, serve_bundle):
    path = bundle_paths["random_forest", "full"]
    post = serve_bundle(path)
    status, body = post({"name": "Nguyễn Thị Lan"})
    assert status == 200
    assert body == bm.bundle_predict(bm.load_model(path), "Nguyễn Thị Lan")
