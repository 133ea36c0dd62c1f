import math

import pytest

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
