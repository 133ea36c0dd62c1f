import math

import numpy as np
import pytest

from seqgauss import hermite
from seqgauss.verify import (
    check_binomial_expansion,
    check_convention_relations,
    check_quadrature_sanity,
    check_recurrence_vs_sum,
)

# frozen low-degree values: H2(x) = x^2 - 1, H3(x) = x^3 - 3x,
# physicists' G2(x) = 4x^2 - 2


def test_degree_zero_and_one():
    for x in (-2.0, 0.0, 1.5):
        assert hermite.hermite_prob(0, x) == 1.0
        assert hermite.hermite_prob(1, x) == x
        assert hermite.hermite_phys(0, x) == 1.0
        assert hermite.hermite_phys(1, x) == 2.0 * x


def test_frozen_values():
    assert hermite.hermite_prob(2, 2.0) == pytest.approx(3.0, abs=1e-14, rel=0)
    assert hermite.hermite_prob(3, 1.0) == pytest.approx(-2.0, abs=1e-14, rel=0)
    assert hermite.hermite_phys(2, 1.0) == pytest.approx(2.0, abs=1e-14, rel=0)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        hermite.hermite_prob(-1, 0.0)
    with pytest.raises(ValueError):
        hermite.hermite_phys(-2, 0.0)


def test_recurrence_matches_alternating_sum():
    rng = np.random.default_rng(0)
    # 16 degrees at 16 points each
    check_recurrence_vs_sum(rng)
    check_recurrence_vs_sum(rng)


def test_array_evaluation_matches_scalar():
    xs = np.linspace(-3.0, 3.0, 7)
    vals = hermite.hermite_prob(5, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == pytest.approx(hermite.hermite_prob(5, float(x)), rel=1e-14)


def test_convention_cross_relations():
    check_convention_relations(np.random.default_rng(1))


def test_binomial_expansion():
    check_binomial_expansion(np.random.default_rng(2))


def test_binomial_expansion_degenerate_direction():
    # alpha = 0 exercises the 0^0 = 1 convention at k = 0
    x, y = 0.7, -1.3
    for n in range(6):
        lhs = hermite.hermite_prob(n, y)
        rhs = hermite.hermite_binomial_sum(n, 0.0, 1.0, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_quadrature_rule_invariants():
    check_quadrature_sanity()


def test_quadrature_rule_is_cached():
    assert hermite.gaussian_quadrature() is hermite.gaussian_quadrature()


def test_gh_expectation_orthogonality():
    for n in range(13):
        for m in range(13):
            val = hermite.gh_expectation(
                lambda t: hermite.hermite_prob(n, t) * hermite.hermite_prob(m, t)
            )
            target = float(math.factorial(n)) if n == m else 0.0
            assert val == pytest.approx(target, abs=1e-8 * max(1.0, target), rel=0)


def test_gh_expectation_centered_polynomials():
    check_quadrature_sanity()


def test_gh_expectation_scalar_only_function():
    val = hermite.gh_expectation(lambda t: math.cos(t))
    assert val == pytest.approx(np.exp(-0.5), abs=1e-6, rel=0)
