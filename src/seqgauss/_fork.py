"""One forked worker that does a share of the caller's work and hands it
back in a temporary file; where there is one CPU, or no file or process
to spare, the caller does all of the work."""

from __future__ import annotations

import contextlib
import os
import tempfile


class Worker:
    """A forked child writing to ``spool`` and reading what the caller
    writes to ``orders``, the unbuffered binary write end of a pipe;
    ``wait()`` closes ``orders``, reaps the child, rewinds ``spool`` for
    reading and returns the child's exit status."""

    def __init__(self, pid: int, spool, orders) -> None:
        self.pid, self.spool, self.orders = pid, spool, orders

    def wait(self) -> int:
        self.orders.close()
        pid, self.pid = self.pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.spool.seek(0)
        return status


@contextlib.contextmanager
def forked(serve):
    """Yield a ``Worker`` running ``serve(spool, orders)``, ``spool`` being
    an unlinked text temporary file opened with ``newline=""`` and
    ``orders`` the read end of the pipe whose write end is the worker's
    ``orders``, or None where nothing was forked.  The child ends in
    ``os._exit``: status 0 once ``serve`` has returned and ``spool`` is
    flushed, else 1, flushing no inherited stdio buffer and running no
    exit handler.  A child not reaped by ``wait`` when the block is left,
    as when the caller raises, is killed and reaped; every file is closed
    then."""
    with contextlib.ExitStack() as stack:
        # sched_getaffinity is missing on macOS, where forking after
        # Accelerate has started is unsafe
        cpus, pid = getattr(os, "sched_getaffinity", None), None
        if cpus is not None and len(cpus(0)) >= 2:
            with contextlib.suppress(OSError):  # no file or no process to spare
                spool = stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
                read_end, write_end = os.pipe()
                inbox = stack.enter_context(open(read_end, "rb"))
                orders = stack.enter_context(open(write_end, "wb", buffering=0))
                pid = os.fork()
        if pid is None:
            yield None
            return
        if pid == 0:
            try:
                orders.close()  # so that the caller's close is an end of file here
                serve(spool, inbox)
                spool.flush()
                os._exit(0)
            finally:
                os._exit(1)
        inbox.close()
        worker = Worker(pid, spool, orders)
        try:
            yield worker
        finally:
            if worker.pid is not None:
                import signal  # only this path needs it

                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
