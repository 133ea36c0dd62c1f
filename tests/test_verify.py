import inspect
import math
from collections import Counter

import pytest

from seqgauss import verify
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


def test_every_shared_check_runs_in_a_suite(monkeypatch):
    calls = Counter()

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)

        return wrapper

    names = [name for name in verify.__all__ if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    results = verify.run_suite("all", samples=2000)
    assert [name for name in names if not calls[name]] == []
    assert len({r.name for r in results}) == len(results)
    # "all" is the six suites in order, each name prefixed with its suite
    assert results == [
        verify.CheckResult(f"{suite}: {r.name}", r.passed, r.detail)
        for suite in verify.SUITE_NAMES
        for r in verify.run_suite(suite, samples=2000)
    ]


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
