"""Forked worker processes: the one way `serve` and `ablate` start a worker,
hear back from it and stop it. Linux only.

Fork: `fork` flushes stdout and stderr, so that no buffered text is written
twice, and forks. The worker shares the parent's memory copy-on-write, so a
loaded bundle or an encoded split reaches it without pickling. Unless
`cpu` is None, the parent pins the worker to that CPU before `fork`
returns, so every worker is pinned once its caller goes on.

Signals: the worker stops writing signal bytes to the parent's wakeup fd,
takes SIGTERM's default action, which kills it, and ignores SIGINT. Ctrl-C
reaches the whole process group, and the parent stops its workers itself.

Channel: parent and worker hold the two ends of an ``AF_UNIX`` stream
socketpair that no other process holds; the worker closes the parent's end
and the sockets in `close`. The worker runs ``target(channel)`` and sends
the pickled result down its end. A parent that closes its end, or dies,
gives the worker EOF there, and a worker that exits gives the parent EOF.
A worker whose send fails because the parent is gone exits quietly.

Exit: the worker leaves by ``os._exit``, never through its caller's
frames: with status 0 once its result is sent, or 1 after printing the
traceback of an exception `target` raised.

Reap: `join` reads a worker's result to EOF and reaps it. `stop` signals and
reaps every worker given. A worker stays on its caller's list until `join`
returns, so a caller that stops all of them on an error reaps every worker
it forked: a worker ignores the Ctrl-C that interrupts its parent.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import socket
import sys
import traceback
from typing import Any, Callable, Collection, Iterable


def fork(target: Callable[[socket.socket], Any], cpu: int | None = None,
         close: Iterable = ()) -> tuple[int, socket.socket]:
    """Fork a worker that runs ``target(channel)``; returns its pid and the
    parent's end of its channel. The worker closes each object of `close`."""
    ours, theirs = socket.socketpair()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
    except BaseException:
        ours.close()
        theirs.close()
        raise
    if pid == 0:
        code = 1
        try:
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for obj in [ours, *close]:
                obj.close()
            result = pickle.dumps(target(theirs))
            with contextlib.suppress(BrokenPipeError):  # the parent is gone
                theirs.sendall(result)
            code = 0
        except Exception:  # the parent sees the exit status; this says why
            traceback.print_exc()
        finally:
            os._exit(code)
    theirs.close()
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})
    return pid, ours


def join(pid: int, channel: socket.socket) -> tuple[Any, int]:
    """Read a worker's result to EOF, close `channel` and reap the worker:
    (its result, or None if it sent none, and its exit code, which is
    minus the signal number for a worker a signal killed)."""
    with channel:
        data = b"".join(iter(lambda: channel.recv(1 << 16), b""))
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return (pickle.loads(data) if data and code == 0 else None), code


def stop(workers: Collection[tuple[int, socket.socket]], signum: int) -> None:
    """Send `signum` to each (pid, channel) worker, then close its channel
    and reap it. A worker already reaped is passed over."""
    for pid, _ in workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signum)
    for pid, channel in workers:
        channel.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
