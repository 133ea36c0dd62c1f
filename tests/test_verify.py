import inspect
import json
import math
import os
import tempfile
import time
from collections import Counter

import pytest

from conftest import count_forks, fork_fails, no_temporary_file, refuse_fork
from seqgauss import core, verify
from seqgauss.verify import _assert_close


@pytest.mark.parametrize(
    "value, target, tol",
    [
        (1.0, 1.2, 0.1),
        (math.nan, 1.0, 1.0),
        ([0.0, math.nan], [0.0, 0.0], 1.0),
        (1.0, 1.0, math.nan),
    ],
)
def test_assert_close_fails_outside_the_tolerance_and_on_nan(value, target, tol):
    with pytest.raises(AssertionError, match="label"):
        _assert_close(value, target, tol, "label")


@pytest.mark.parametrize(
    "value, target, tol",
    [(math.nan, 1.0, 1.0), (1, 1, math.nan), (math.inf, math.inf, 1.0), (2.0, 1, 0.5)],
)
def test_assert_close_on_two_python_numbers_touches_no_numpy_and_fails_alike(
    monkeypatch, value, target, tol
):
    monkeypatch.setattr(verify, "np", None)
    with pytest.raises(AssertionError, match="^label: error "):
        _assert_close(value, target, tol, "label")
    _assert_close(0.1 + 0.2, 0.3, 1e-16, "label")
    _assert_close(3, 3.0, 0.0, "label")


def test_assert_close_on_arrays_reports_the_largest_error():
    with pytest.raises(AssertionError, match=r"^label: error 5\.000e-01 exceeds 1\.0e-01$"):
        _assert_close([1.0, 1.5, 0.75], [1.0, 1.0, 1.0], 0.1, "label")
    with pytest.raises(AssertionError, match=r"^label: error 2\.500e-01 exceeds 1\.0e-01$"):
        _assert_close(1.25, [1.0, 1.0], 0.1, "label")


def test_every_shared_check_runs_in_a_suite(monkeypatch):
    # counted one suite at a time: a single suite always runs in this
    # process, while "all" may run some suites in a forked worker
    calls = Counter()

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)

        return wrapper

    names = [name for name in verify.__all__ if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    suites = {suite: verify.run_suite(suite, samples=2000) for suite in verify.SUITE_NAMES}
    assert [name for name in names if not calls[name]] == []
    results = verify.run_suite("all", samples=2000)
    assert len({r.name for r in results}) == len(results)
    # "all" is the six suites in order, each name prefixed with its suite
    assert results == [
        verify.CheckResult(f"{suite}: {r.name}", r.passed, r.detail)
        for suite in verify.SUITE_NAMES
        for r in suites[suite]
    ]


def _concatenated(seed, samples=2000):
    return [
        verify.CheckResult(f"{suite}: {r.name}", r.passed, r.detail)
        for suite in verify.SUITE_NAMES
        for r in verify.run_suite(suite, seed=seed, samples=samples)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_all_suites_equal_the_suites_run_one_at_a_time(forks, monkeypatch, seed):
    expected = _concatenated(seed)
    assert verify.run_suite("all", seed=seed, samples=2000) == expected
    assert len(forks) == 1
    # on one CPU every suite runs in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert verify.run_suite("all", seed=seed, samples=2000) == expected


@pytest.mark.parametrize(
    "name, seed, samples, argument",
    [
        ("nope", 0, 2000, "name"),
        ("all", -1, 2000, "seed"),
        ("all", 1.5, 2000, "seed"),
        ("all", True, 2000, "seed"),
        ("all", 0, 1, "samples"),
        ("measure", -1, 2000, "seed"),
        ("measure", 0, 1, "samples"),
    ],
)
def test_run_suite_refuses_its_inputs_before_forking(forks, name, seed, samples, argument):
    with pytest.raises(core.InputError) as exc:
        verify.run_suite(name, seed=seed, samples=samples)
    assert exc.value.argument == argument
    assert forks == []


def _no_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", refuse_fork)


def _no_process(monkeypatch):
    count_forks(monkeypatch, {0, 1}, fork_fails)


def _no_temporary_file(monkeypatch):
    count_forks(monkeypatch, {0, 1}, refuse_fork)
    monkeypatch.setattr(tempfile, "TemporaryFile", no_temporary_file)


@pytest.mark.parametrize("without_worker", [_no_affinity, _no_process, _no_temporary_file])
def test_without_a_worker_every_suite_runs_in_process(monkeypatch, without_worker):
    expected = _concatenated(0)
    without_worker(monkeypatch)
    assert verify.run_suite("all", samples=2000) == expected


def _raising(*args, **kwargs):
    raise ValueError("boom")


def test_a_check_that_raises_in_the_worker_fails_as_it_does_in_process(forks, monkeypatch):
    monkeypatch.setattr(verify, "check_span_invariance", _raising)
    results = verify.run_suite("all", samples=2000)
    assert len(forks) == 1
    assert results == _concatenated(0)
    failed = [r for r in results if not r.passed]
    assert failed == [verify.CheckResult("chaos: span invariance", False, "boom")]


def _dying(*args):
    os._exit(3)


def test_a_dead_worker_is_a_failed_check_naming_its_status(forks, monkeypatch):
    monkeypatch.setattr(verify, "check_cond_exp_example", _dying)
    results = verify.run_suite("all", samples=2000)
    assert len(forks) == 1
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [f"{suite}: worker process" for suite in ("hermite", "chaos")]
    assert all("exit status 3" in r.detail for r in failed)
    # the suites of the calling process are reported as usual
    assert [r for r in results if r.passed] == [
        verify.CheckResult(f"{suite}: {r.name}", r.passed, r.detail)
        for suite in verify.SUITE_NAMES if suite not in verify.FORKED_SUITES
        for r in verify.run_suite(suite, samples=2000)
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_fan_out_leaves_no_descriptor_open(forks, monkeypatch):
    verify.run_suite("all", samples=2000)  # anything opened once and kept is opened now
    for check, failed in ((None, 0), (_dying, 2)):
        with monkeypatch.context() as patch:
            if check is not None:
                patch.setattr(verify, "check_cond_exp_example", check)
            before = os.listdir("/proc/self/fd")
            results = verify.run_suite("all", samples=2000)
            assert os.listdir("/proc/self/fd") == before
        assert len([r for r in results if not r.passed]) == failed
    assert len(forks) == 3


@pytest.mark.parametrize("sent", [b"", b"not json\n", b'[["chaos", "x"]]\n', b"{}\n"])
def test_missing_or_malformed_worker_lines_fail_their_suites(sent):
    received = verify._received(sent, 0)
    assert list(received) == list(verify.FORKED_SUITES)
    for rows in received.values():
        assert rows == [verify.CheckResult(
            "worker process", False, "sent no results for this suite (exit status 0)"
        )]


def test_a_suite_sent_before_the_worker_died_is_kept():
    line = json.dumps([["chaos", "a", True, ""], ["chaos", "b", False, "why"]]).encode()
    received = verify._received(line + b"\ngarbage\n", -9)
    assert received["chaos"] == [verify.CheckResult("a", True), verify.CheckResult("b", False, "why")]
    assert received["hermite"][0].detail == "sent no results for this suite (exit status -9)"


def test_the_worker_is_killed_and_reaped_when_the_caller_raises(forks, monkeypatch):
    monkeypatch.setattr(verify, "check_cond_exp_example", lambda rng: time.sleep(60))
    monkeypatch.setitem(verify._SUITES, "closure", _raising)
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        verify.run_suite("all", samples=2000)
    assert time.monotonic() - start < 30
    assert len(forks) == 1


def test_each_row_declares_what_its_check_takes():
    # the runner passes a row's inputs positionally, so they must be the
    # check's own parameters in order; batch seeds must not repeat
    offsets = []
    for _, _, check, inputs in verify._CHECKS:
        tokens = [token.partition("+") for token in inputs.split()]
        params = list(inspect.signature(getattr(verify, check)).parameters)
        assert [name for name, _, _ in tokens] == params, check
        offsets += [int(k) for name, _, k in tokens if name == "seed"]
    assert len(offsets) == len(set(offsets)) == 7
    assert list(dict.fromkeys(suite for suite, *_ in verify._CHECKS)) == list(verify.SUITE_NAMES)
    checks = sorted(check for _, _, check, _ in verify._CHECKS)
    assert checks == sorted(name for name in vars(verify) if name.startswith("check_"))
