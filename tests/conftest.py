"""Fakes for the forked worker of ``seqgauss._fork``, shared by the CSV
writer's and verify's tests, which import the plain functions from here."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process: a forked worker is always
    reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch, cpus, fork=None):
    """Report ``cpus`` as this process's CPUs, fork through ``fork`` (by
    default ``os.fork``), and count the forks attempted."""
    count = []
    fork = fork or os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs, so that a worker is forked on any machine; the forks
    attempted, counted."""
    return count_forks(monkeypatch, {0, 1})


def refuse_fork():
    raise AssertionError("forked")


def fork_fails():
    raise BlockingIOError("resource temporarily unavailable")


def no_temporary_file(*args, **kwargs):
    raise OSError(28, "No space left on device")
