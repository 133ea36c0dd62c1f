"""One forked worker that does a share of the caller's work and hands it
back in its spool, a temporary file and the one channel made here; where
there is one CPU, or no file or process to spare, the caller does it all."""

from __future__ import annotations

import contextlib
import os
import tempfile


class Worker:
    """A forked child writing to ``spool``; ``wait()`` reaps the child,
    rewinds ``spool`` for reading and returns the child's exit status."""

    def __init__(self, pid: int, spool) -> None:
        self.pid, self.spool = pid, spool

    def wait(self) -> int:
        pid, self.pid = self.pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.spool.seek(0)
        return status


@contextlib.contextmanager
def forked(serve):
    """Yield a ``Worker`` running ``serve(spool)``, ``spool`` being an
    unlinked text temporary file opened with ``newline=""``, or None where
    nothing was forked.  The child ends in ``os._exit``: status 0 once
    ``serve`` has returned and ``spool`` is flushed, else 1, flushing no
    inherited stdio buffer and running no exit handler.  A child not
    reaped by ``wait`` when the block is left, as when the caller raises,
    is killed and reaped; ``spool`` is closed then."""
    with contextlib.ExitStack() as stack:
        # sched_getaffinity is missing on macOS, where forking after
        # Accelerate has started is unsafe
        cpus, pid = getattr(os, "sched_getaffinity", None), None
        if cpus is not None and len(cpus(0)) >= 2:
            with contextlib.suppress(OSError):  # no file or no process to spare
                spool = stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
                pid = os.fork()
        if pid is None:
            yield None
            return
        if pid == 0:
            try:
                serve(spool)
                spool.flush()
                os._exit(0)
            finally:
                os._exit(1)
        worker = Worker(pid, spool)
        try:
            yield worker
        finally:
            if worker.pid is not None:
                import signal  # only this path needs it

                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
