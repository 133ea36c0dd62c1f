"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
inline) and enforces the stated numeric tolerance and runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from seqgauss import core
from seqgauss.verify import (
    check_advection_coefficients,
    check_binomial_expansion,
    check_block_projection_algebra,
    check_characteristic_function,
    check_cond_exp_example,
    check_cond_exp_idempotence,
    check_conditional_residuals,
    check_conservation,
    check_convention_relations,
    check_degree_one_additivity,
    check_divergence_diagnostic,
    check_gram_schmidt_example,
    check_hermite_orthogonality,
    check_identity_correlation_truncation,
    check_mc_moments,
    check_monomials_from_wick,
    check_polarized_evaluation,
    check_pushforward,
    check_refinement_monotone,
    check_span_invariance,
    check_weak_form_projection,
    check_wick_orthogonality,
    check_wick_recursion,
)


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f} s, budget {budget_s:.0f} s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s} s budget"


def test_criterion_1_hermite_suite():
    with criterion("1 Hermite orthogonality and relations", 1.0):
        check_hermite_orthogonality()
        rng = np.random.default_rng(101)
        check_convention_relations(rng)
        check_binomial_expansion(rng)


def test_criterion_2_wick_equivalence():
    with criterion("2 Wick recursion/closed-form equivalence", 10.0):
        rng = np.random.default_rng(202)
        check_wick_recursion(rng)
        # 50 draws of polarized against dense evaluation
        check_polarized_evaluation(rng)
        check_polarized_evaluation(rng)
        # inverse identity rebuilds plain monomials
        check_monomials_from_wick(rng)


def test_criterion_3_exact_wick_orthogonality():
    with criterion("3 exact Wick orthogonality via pair partitions", 10.0):
        check_wick_orthogonality(np.random.default_rng(303))


def test_criterion_4_measure_suite():
    with criterion("4 Monte Carlo measure suite", 30.0):
        rng = np.random.default_rng(404)
        check_characteristic_function(rng, 100_000, 4040)
        check_pushforward(rng, 100_000, 4041)
        check_mc_moments(rng, 100_000, 4042)


def test_criterion_5_conditional_expectation():
    with criterion("5 conditional expectation", 60.0):
        rng = np.random.default_rng(505)
        # worked example with the coupled two-by-two block
        check_cond_exp_example(rng)
        check_gram_schmidt_example()
        # 100 draws of each projection identity
        for _ in range(5):
            check_cond_exp_idempotence(rng)
            check_span_invariance(rng)
            check_degree_one_additivity(rng)
        # 24 Monte Carlo residual tests
        for k in range(3):
            check_conditional_residuals(rng, 100_000, 5050 + k)


def test_criterion_6_block_projection():
    with criterion("6 block projection algebra", 30.0):
        rng = np.random.default_rng(606)
        # 220 or more draws each: as many as 20 matrices of d <= 12 with every cut
        for _ in range(22):
            check_block_projection_algebra(rng)
            check_weak_form_projection(rng)


def test_criterion_7_closure_solver():
    with criterion("7 moment-closure solver", 60.0):
        check_advection_coefficients()
        check_identity_correlation_truncation()
        rng = np.random.default_rng(707)
        # 60 conserving steps
        for _ in range(3):
            check_conservation(rng)
        check_refinement_monotone()


def test_criterion_8_psd_appendix():
    with criterion("8 Schur products and entrywise exponentials", 30.0):
        rng = np.random.default_rng(808)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            g1 = rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n))
            m1, m2 = g1 @ g1.T, g2 @ g2.T
            assert core.psd_check(core.hadamard(m1, m2))
            assert core.psd_check(np.exp(m1))
            assert core.psd_check(np.exp(m2))


def test_criterion_9_divergence_diagnostic():
    with criterion("9 unbounded contraction diagnostic", 30.0):
        check_divergence_diagnostic()
