"""HTTP client side of the `serve` workload: server start-up, open-loop load
over a fixed number of keep-alive connections, and response checking."""

from __future__ import annotations

import http.client
import itertools
import json
import math
import socket
import subprocess
import threading
import time
from dataclasses import dataclass

HOST = "127.0.0.1"
SCORE_TOL = 1e-12


@dataclass
class Request:
    body: bytes
    expect_status: int
    expect: dict              # the exact JSON body expected (score within SCORE_TOL)
    name: str | None = None   # the name sent, for valid requests


@dataclass
class Outcome:
    due: float
    done: float
    late: float             # send delay beyond the due time or the connection freeing
    ok: bool


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def start_server(argv: list[str], env: dict, port: int, log, timeout_s: float = 60.0):
    """Spawn the server; return (process, seconds until /health first answered 200)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
    while time.perf_counter() - start < timeout_s:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode} during start-up")
        conn = http.client.HTTPConnection(HOST, port, timeout=5)
        try:
            conn.request("GET", "/health")
            if conn.getresponse().status == 200:
                return proc, time.perf_counter() - start
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.002)
    stop_server(proc)
    raise RuntimeError("server did not answer /health in time")


def stop_server(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def check(req: Request, status: int, raw: bytes) -> bool:
    """Whether a response is exactly the expected one."""
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    if status != req.expect_status or not isinstance(body, dict):
        return False
    if status != 200:
        return body == req.expect
    try:
        score_ok = abs(float(body.pop("score")) - req.expect["score"]) <= SCORE_TOL
    except (KeyError, TypeError, ValueError):
        return False
    rest = {k: v for k, v in req.expect.items() if k != "score"}
    return score_ok and body == rest


class _Conn:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def send(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body, headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def open_loop(port: int, requests: list[Request], rate: float, connections: int,
              give_up_s: float = math.inf) -> list[Outcome | None]:
    """Send request i at start + i/rate on whichever connection is free.

    Latency counts from the due time, so waiting for a busy connection is
    charged to the request; `late` is only the sender's own delay. A request
    not sent within `give_up_s` of its due time is dropped (None), which
    bounds an overloaded step. With rate=inf every request is due at once,
    so the connections run closed-loop.
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    counter = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        conn = _Conn(port)
        free_at = start
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(requests):
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                elif -delay > give_up_s:
                    continue
                sent = time.perf_counter()
                req = requests[i]
                try:
                    status, raw = conn.send("POST", "/predict", req.body)
                    done = time.perf_counter()
                    ok = check(req, status, raw)
                except (OSError, http.client.HTTPException):
                    done = time.perf_counter()
                    ok = False
                outcomes[i] = Outcome(due, done, sent - max(due, free_at), ok)
                free_at = done
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def health_latencies(port: int, n: int, model_id: str) -> tuple[list[float], int]:
    """Closed-loop GET /health on one keep-alive connection: (latencies, failures)."""
    conn = _Conn(port)
    lat, failed = [], 0
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            try:
                status, raw = conn.send("GET", "/health")
                ok = status == 200 and json.loads(raw) == {"status": "ok", "model_id": model_id}
            except (OSError, http.client.HTTPException, ValueError):
                ok = False
            lat.append(time.perf_counter() - t0)
            failed += not ok
    finally:
        conn.close()
    return lat, failed
