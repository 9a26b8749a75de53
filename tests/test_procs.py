import os
import signal
import socket
import sys
import time

import pytest

from vngender import procs

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="procs forks")


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def blocked(channel):
    """A worker target that says it is running, then waits for EOF."""
    channel.sendall(b"+")
    return channel.recv(1)


def started(worker):
    """`worker` once its target has begun."""
    assert worker[1].recv(1) == b"+"
    return worker


def alive(pid: int) -> bool:
    return os.waitpid(pid, os.WNOHANG) == (0, 0)


def test_a_result_makes_the_round_trip():
    result = {"cells": list(range(100_000)), "text": "Nguyễn Thị Hiền"}
    assert procs.join(*procs.fork(lambda channel: result)) == (result, 0)


def test_a_worker_that_exits_or_is_killed_returns_its_code():
    assert procs.join(*procs.fork(lambda channel: os._exit(3))) == (None, 3)
    pid, channel = started(procs.fork(blocked))
    os.kill(pid, signal.SIGKILL)
    assert procs.join(pid, channel) == (None, -signal.SIGKILL)


def test_a_target_that_raises_exits_1_with_its_traceback(capfd):
    def fails(channel):
        raise ValueError("cell 7 failed")

    assert procs.join(*procs.fork(fails)) == (None, 1)
    err = capfd.readouterr().err
    assert err.startswith("Traceback") and err.endswith("ValueError: cell 7 failed\n")


def test_a_worker_exits_quietly_once_the_parent_closes_its_end(capfd):
    # The path a `serve` worker takes when its parent is gone: EOF, then a
    # send that fails.
    pid, channel = started(procs.fork(blocked))
    channel.close()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert capfd.readouterr().err == ""


def test_a_worker_ignores_sigint_and_dies_on_sigterm():
    pid, channel = started(procs.fork(blocked))
    os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    assert alive(pid)
    os.kill(pid, signal.SIGTERM)
    channel.settimeout(10)
    assert procs.join(pid, channel) == (None, -signal.SIGTERM)


def test_stop_reaps_every_worker_even_one_already_reaped():
    workers = [started(procs.fork(blocked)) for _ in range(3)]
    procs.stop(workers[:1], signal.SIGKILL)
    procs.stop(workers, signal.SIGTERM)
    assert all(channel.fileno() == -1 for _, channel in workers)
    # The autouse fixture checks that no child is left, running or exited.


def test_a_failed_fork_closes_both_ends(monkeypatch):
    pairs = []
    socketpair = socket.socketpair

    def recorded(*args):
        pairs.append(socketpair(*args))
        return pairs[-1]

    def no_fork():
        raise OSError("fork failed")

    monkeypatch.setattr(socket, "socketpair", recorded)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="fork failed"):
        procs.fork(lambda channel: None)
    assert [end.fileno() for end in pairs[0]] == [-1, -1]


def test_text_buffered_before_the_fork_is_written_once(capfd, monkeypatch):
    # Unflushed, the parent's half line would be written by the worker with
    # its traceback, and again by the parent.
    def fails(channel):
        raise ValueError("cell 7 failed")

    stderr = open(os.dup(2), "w", buffering=1)  # line-buffered, as Python's own
    monkeypatch.setattr(sys, "stderr", stderr)
    with stderr:
        stderr.write("a half line, ")
        assert procs.join(*procs.fork(fails)) == (None, 1)
        stderr.write("the rest\n")
    err = capfd.readouterr().err
    assert err.startswith("a half line, Traceback") and err.count("a half line") == 1
