"""One forked worker that does a share of the caller's work and sends it
back through a pipe; where there is one CPU, or no process to spare, the
caller does all of the work."""

from __future__ import annotations

import contextlib
import os


class Worker:
    """A forked child: ``pipe`` reads what it writes, and ``wait()``, once
    ``pipe`` is at EOF, reaps it and returns its exit status."""

    def __init__(self, pid: int, pipe) -> None:
        self.pid, self.pipe = pid, pipe

    def wait(self) -> int:
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@contextlib.contextmanager
def forked(serve):
    """Yield a ``Worker`` running ``serve(pipe)``, ``pipe`` being the write
    end of a pipe as a binary file, or None where nothing was forked.  The
    child ends in ``os._exit``: status 0 once ``serve`` has returned and
    the pipe is closed, else 1, flushing no inherited stdio buffer and
    running no exit handler.  A child not reaped by ``wait`` when the block
    is left, as when the caller raises, is killed and reaped."""
    # sched_getaffinity is missing on macOS, where forking after Accelerate
    # has started is unsafe
    cpus, pid = getattr(os, "sched_getaffinity", None), None
    if cpus is not None and len(cpus(0)) >= 2:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield None
        return
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                serve(pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    worker = Worker(pid, os.fdopen(read_fd, "rb"))
    try:
        yield worker
    finally:
        worker.pipe.close()
        if worker.pid is not None:
            import signal  # only this path needs it

            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
