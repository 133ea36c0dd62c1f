"""Hermite polynomials in both normalizations plus a Gaussian quadrature oracle.

``hermite_prob`` evaluates the probabilists' polynomials (orthogonal under
the standard normal distribution with squared norms n!), ``hermite_phys``
the physicists' ones.  Both come from one stable three-term recurrence,
with s = 1 (probabilists') or s = 2 (physicists'),

    H_{n+1}(x) = s x H_n(x) - s n H_{n-1}(x),    H_0 = 1,  H_1 = s x,

while ``hermite_prob_sum`` keeps the explicit alternating factorial sum as
an independent cross-check.  Writing H_n for the probabilists' and G_n
for the physicists' polynomials, the two conventions are linked by
H_n(x) = 2^(-n/2) G_n(x / sqrt(2)) and G_n(x) = 2^(n/2) H_n(sqrt(2) x).

``gh_expectation`` integrates against the standard normal density by
Gauss-Hermite quadrature of ``QUADRATURE_ORDER`` nodes, exact for
polynomials of degree < 2 * QUADRATURE_ORDER.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count, islice
from math import comb, factorial
from typing import Callable

import numpy as np

from .core import InputError, _as_array, _check_count

__all__ = [
    "QuadratureRule",
    "hermite_prob",
    "hermite_phys",
    "hermite_prob_sum",
    "hermite_binomial_sum",
    "gaussian_quadrature",
    "gh_expectation",
]

QUADRATURE_ORDER = 40


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights normalized so the weights sum to one, making
    ``sum(weights * g(nodes))`` an expectation under the standard normal."""

    nodes: np.ndarray
    weights: np.ndarray


def _degrees(xa: np.ndarray, s: int):
    """Yield H_0(xa), H_1(xa), ... by the recurrence, each degree when it is asked for."""
    prev = np.ones_like(xa)
    yield prev
    ax = s * xa
    cur = ax
    for k in count(1):
        yield cur
        prev, cur = cur, ax * cur - s * k * prev


def _recurrence(n: int, x, s: int):
    """H_n(x) for s = 1 (probabilists') or s = 2 (physicists')."""
    _check_count(n, 0, "n")
    xa = _as_array(x, None, "x")
    value = next(islice(_degrees(xa, s), n, None))
    return value if xa.ndim else float(value)


def hermite_prob(n: int, x):
    """Probabilists' Hermite polynomial of degree n at x (scalar or array)."""
    return _recurrence(n, x, 1)


def hermite_phys(n: int, x):
    """Physicists' Hermite polynomial of degree n at x (scalar or array)."""
    return _recurrence(n, x, 2)


def hermite_prob_sum(n: int, x) -> float:
    """Closed alternating sum form of ``hermite_prob``; cross-check only.

    sum_{k=0}^{floor(n/2)} (-1)^k n! / (2^k k! (n-2k)!) x^(n-2k)
    """
    _check_count(n, 0, "n")
    x = float(_as_array(x, 0, "x"))
    total = 0.0
    for k in range(n // 2 + 1):
        coeff = (-1) ** k * factorial(n) / (2**k * factorial(k) * factorial(n - 2 * k))
        total += coeff * x ** (n - 2 * k)
    return total


def hermite_binomial_sum(n: int, alpha: float, beta: float, x: float, y: float) -> float:
    """Right side of the binomial expansion of H_n(alpha x + beta y) for
    alpha^2 + beta^2 = 1, with the convention 0^0 = 1:

    sum_k C(n, k) alpha^k beta^(n-k) H_k(x) H_{n-k}(y)
    """
    _check_count(n, 0, "n")
    alpha, beta = float(_as_array(alpha, 0, "alpha")), float(_as_array(beta, 0, "beta"))
    hx = [float(h) for h in islice(_degrees(_as_array(x, 0, "x"), 1), n + 1)]
    hy = [float(h) for h in islice(_degrees(_as_array(y, 0, "y"), 1), n + 1)]
    total = 0.0
    for k in range(n + 1):
        # float exponentiation already follows 0.0 ** 0 == 1.0
        total += comb(n, k) * alpha**k * beta ** (n - k) * hx[k] * hy[n - k]
    return total


@cache
def gaussian_quadrature() -> QuadratureRule:
    """Gauss-Hermite rule of ``QUADRATURE_ORDER`` nodes for the standard normal."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(QUADRATURE_ORDER)
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def gh_expectation(g: Callable) -> float:
    """Expectation of g under the standard normal by the Gauss-Hermite rule
    of ``QUADRATURE_ORDER`` nodes.

    Exact (to rounding) for polynomial g of degree < 2 * QUADRATURE_ORDER.
    g is called once, on the array of all nodes, and must return one value
    per node; any other shape raises ``InputError("g")``.
    """
    rule = gaussian_quadrature()
    values = np.asarray(g(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        raise InputError("g", f"g must return one value per node, got shape {values.shape}")
    return float(np.sum(rule.weights * values))
