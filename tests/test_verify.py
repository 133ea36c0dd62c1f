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
