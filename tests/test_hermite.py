import math

import numpy as np
import pytest

from seqgauss import hermite
from seqgauss.core import InputError
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


def test_binomial_sum_is_bitwise_the_per_degree_sum():
    """One pass over the degrees gives the bytes of the sum that evaluates
    H_k(x) and H_{n-k}(y) from scratch for every k."""
    rng = np.random.default_rng(3)
    for i in range(200):
        n = int(rng.integers(0, 40))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        alpha, beta = [(np.cos(theta), np.sin(theta)), (0.0, 1.0), (1.0, 0.0)][i % 3]
        x, y = rng.uniform(-4.0, 4.0, size=2)
        per_degree = 0.0
        for k in range(n + 1):
            per_degree += (math.comb(n, k) * alpha**k * beta ** (n - k)
                           * hermite.hermite_prob(k, x) * hermite.hermite_prob(n - k, y))
        fast = hermite.hermite_binomial_sum(n, alpha, beta, x, y)
        assert np.float64(fast).tobytes() == np.float64(per_degree).tobytes(), (n, alpha, x, y)
    with pytest.raises(InputError, match=r"^n must be an integer >= 0, got -1") as exc:
        hermite.hermite_binomial_sum(-1, 0.6, 0.8, 0.0, 0.0)
    assert exc.value.argument == "n"


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


@pytest.mark.parametrize(
    "g, shape",
    [
        (lambda t: np.ones(3), r"\(3,\)"),
        (lambda t: 1.0, r"\(\)"),
        (lambda t: np.outer(t, t), r"\(40, 40\)"),
    ],
    ids=["three values", "one value", "a matrix"],
)
def test_gh_expectation_refuses_g_of_the_wrong_shape(g, shape):
    with pytest.raises(ValueError, match=r"g must return one value per node, got shape " + shape):
        hermite.gh_expectation(g)


def test_gh_expectation_calls_g_once_on_every_node():
    calls = []
    val = hermite.gh_expectation(lambda t: calls.append(t.shape) or np.cos(t))
    assert calls == [(hermite.QUADRATURE_ORDER,)]
    assert val == pytest.approx(np.exp(-0.5), abs=1e-6, rel=0)
    with pytest.raises(TypeError):  # a scalar-only g fails inside g, on the node array
        hermite.gh_expectation(lambda t: math.cos(t))
