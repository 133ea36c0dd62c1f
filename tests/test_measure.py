import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from seqgauss import core, measure, verify
from seqgauss.verify import (
    check_characteristic_function,
    check_isserlis_base_cases,
    check_mc_moments,
    check_pairing_variance,
    check_pushforward,
    check_sampling_determinism,
    check_wick_orthogonality,
    random_cov,
    wick_pair_expectation,
)

M, D = 2, 3
DIMS = core.TruncationDims(M, D)


def brute_isserlis(phis, cov):
    """Independent oracle: explicit enumeration of perfect matchings."""
    n = len(phis)
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1 :]):
                yield [(first, other)] + tail

    total = 0.0
    for pairing in pairings(list(range(n))):
        prod = 1.0
        for i, j in pairing:
            prod *= core.inner_a(phis[i], phis[j], cov)
        total += prod
    return total


def test_same_seed_reproduces_batch_bitwise():
    check_sampling_determinism(np.random.default_rng(0))


def test_samples_are_cholesky_transformed_normals():
    # pins the construction contract W = Z L^T
    cov = core.Covariance([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    batch = measure.sample_mu_a(cov, DIMS, 50, seed=7)
    z = np.random.default_rng(7).standard_normal((50, M, D))
    assert np.array_equal(batch.samples, z @ cov.chol.T)


def test_sample_count_validation():
    cov = core.Covariance.identity(D)
    with pytest.raises(ValueError, match="count"):
        measure.sample_mu_a(cov, DIMS, 0, seed=1)
    with pytest.raises(ValueError, match="dims"):
        measure.sample_mu_a(cov, core.TruncationDims(2, 4), 10, seed=1)


def test_pairing_basics():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((M, D))
    # the Frobenius pairing <phi, w> is core.inner_l2; its rank-one
    # factorization is test_core's test_inner_l2_rank_one_factorization
    assert core.inner_l2(np.zeros((M, D)), w) == 0.0
    phi, psi = rng.standard_normal((2, M, D))
    a, b = 1.7, -0.3
    assert core.inner_l2(a * phi + b * psi, w) == pytest.approx(
        a * core.inner_l2(phi, w) + b * core.inner_l2(psi, w), rel=1e-12
    )


def test_pairing_variance_matches_weighted_norm():
    check_pairing_variance(np.random.default_rng(2), 100_000, 11)


def test_unit_frobenius_identity_weight_variance_is_one():
    rng = np.random.default_rng(3)
    cov = core.Covariance.identity(D)
    batch = measure.sample_mu_a(cov, DIMS, 100_000, seed=12)
    phi = rng.standard_normal((M, D))
    phi /= np.linalg.norm(phi)
    p = measure.pairings(phi, batch)
    var = p.var(ddof=1)
    se = var * np.sqrt(2.0 / (batch.count - 1))
    assert abs(var - 1.0) < 4.0 * se


def test_stacked_pairings_match_per_vector_pairings():
    rng = np.random.default_rng(32)
    batch = measure.sample_mu_a(random_cov(rng, D), DIMS, 500, seed=15)
    phis = rng.standard_normal((4, M, D))
    stacked = measure.pairings(phis, batch)
    assert stacked.shape == (500, 4)
    for k, phi in enumerate(phis):
        single = measure.pairings(phi, batch)
        assert np.allclose(stacked[:, k], single, rtol=1e-12, atol=1e-12 * np.abs(single).max())
    with pytest.raises(ValueError, match="does not match batch sample shape"):
        measure.pairings(phis[:, :, :2], batch)
    with pytest.raises(ValueError, match="does not match batch sample shape"):
        measure.pairings(phis[np.newaxis], batch)


def test_pairings_match_the_per_sample_pairing_oracle():
    rng = np.random.default_rng(33)
    batch = measure.sample_mu_a(random_cov(rng, D), DIMS, 300, seed=16)
    phis = rng.standard_normal((4, M, D))
    stacked = measure.pairings(phis, batch)
    assert stacked.shape == (300, 4)
    assert stacked.flags.f_contiguous
    for k, phi in enumerate(phis):
        single = measure.pairings(phi, batch)
        assert single.shape == (300,)
        for i, w in enumerate(batch.samples):
            expected = core.inner_l2(phi, w)
            bound = 1e-12 * np.abs(phi * w).sum()
            assert abs(single[i] - expected) <= bound
            assert abs(stacked[i, k] - expected) <= bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_phi_is_refused(bad):
    cov = core.Covariance.identity(D)
    batch = measure.sample_mu_a(cov, DIMS, 20, seed=5)
    phi = np.ones((M, D))
    phi[1, 2] = bad
    with pytest.raises(ValueError, match="f contains non-finite"):
        core.inner_l2(phi, batch.samples[0])
    with pytest.raises(ValueError, match="g contains non-finite"):
        core.inner_l2(np.ones((M, D)), phi)
    with pytest.raises(ValueError, match="phi contains non-finite"):
        measure.pairings(phi, batch)
    with pytest.raises(ValueError, match="phi contains non-finite"):
        measure.pairings(np.stack([np.ones((M, D)), phi]), batch)
    with pytest.raises(ValueError, match="phi contains non-finite"):
        measure.char_function_mc(phi, batch)


def test_char_function_at_zero_is_exact():
    cov = core.Covariance.identity(D)
    batch = measure.sample_mu_a(cov, DIMS, 100, seed=13)
    est = measure.char_function_mc(np.zeros((M, D)), batch)
    assert est.value == 1.0 + 0.0j
    assert est.std_error == 0.0 + 0.0j


def test_char_function_matches_gaussian_transform():
    check_characteristic_function(np.random.default_rng(4), 100_000, 14)


def test_char_function_empty_batch_rejected():
    batch = measure.SampleBatch(np.zeros((0, M, D)))
    with pytest.raises(ValueError, match="empty"):
        measure.char_function_mc(np.ones((M, D)), batch)


def test_isserlis_pair_and_odd_and_quartic():
    check_isserlis_base_cases(np.random.default_rng(5))


def test_isserlis_matches_brute_force_enumeration():
    rng = np.random.default_rng(6)
    cov = random_cov(rng, D)
    for n in (2, 4, 6):
        phis = list(0.8 * rng.standard_normal((n, M, D)))
        assert measure.isserlis_moment(phis, cov) == pytest.approx(
            brute_isserlis(phis, cov), rel=1e-11, abs=1e-11
        )


def test_isserlis_factor_limit():
    cov = core.Covariance.identity(D)
    with pytest.raises(ValueError, match="factors"):
        measure.isserlis_moment([np.ones((M, D))] * 12, cov)


def test_mc_product_moments_match_oracle():
    check_mc_moments(np.random.default_rng(7), 100_000, 15)


def test_exact_wick_orthogonality_via_oracle():
    check_wick_orthogonality(np.random.default_rng(8))


def test_wick_pair_expectation_is_exactly_zero_off_the_diagonal():
    # the expansion is summed exactly, so unequal degrees cancel to 0.0; the
    # draws of seed 18 lost about 3e-9 to cancellation in a float sum
    rng = np.random.default_rng(18)
    for _ in range(20):
        cov = random_cov(rng, D)
        phi, psi = rng.standard_normal((2, M, D))
        for n in range(6):
            for m in range(6):
                if n != m:
                    assert wick_pair_expectation(phi, n, psi, m, cov) == 0.0


def test_pushforward_check_passes_for_orthonormal_family():
    check_pushforward(np.random.default_rng(9), 100_000, 16)


def test_pushforward_identity_weight_unit_entries():
    cov = core.Covariance.identity(D)
    batch = measure.sample_mu_a(cov, DIMS, 100_000, seed=17)
    basis = []
    for i, k in ((0, 0), (1, 1), (0, 2)):
        phi = np.zeros((M, D))
        phi[i, k] = 1.0
        basis.append(phi)
    report = measure.pushforward_check(basis, batch, cov)
    assert report.passed, report.failures


def test_pushforward_check_rejects_non_orthonormal_input():
    cov = core.Covariance.identity(D)
    batch = measure.sample_mu_a(cov, DIMS, 100, seed=18)
    phi = np.zeros((M, D))
    phi[0, 0] = 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        measure.pushforward_check([phi], batch, cov)


@pytest.mark.parametrize("count", [0, 1])
def test_pushforward_check_refuses_fewer_than_two_samples(count):
    cov = core.Covariance.identity(D)
    phi = np.zeros((M, D))
    phi[0, 0] = 1.0
    batch = measure.SampleBatch(np.zeros((count, M, D)))
    with pytest.raises(ValueError, match="at least 2 samples"):
        measure.pushforward_check([phi], batch, cov)


def test_pushforward_check_flags_statistics_that_overflow():
    # a finite sample of 1e200 overflows the variance to inf, so its standard
    # error was inf too and |x| <= 4 * inf passed every statistic
    cov = core.Covariance.identity(D)
    samples = measure.sample_mu_a(cov, DIMS, 1000, seed=1).samples.copy()
    samples[3, 0, 0] = 1e200
    basis = np.zeros((2, M, D))
    basis[0, 0, 0] = basis[1, 1, 1] = 1.0
    report = measure.pushforward_check(basis, measure.SampleBatch(samples), cov)
    assert not report.passed
    assert np.isinf(report.variances[0])
    assert "var[0] = inf (se inf)" in report.failures


def test_sample_batch_refuses_non_finite_samples():
    # such a batch reached the estimators: char_function_mc returned
    # (nan+nanj) and only pushforward_check flagged it
    samples = measure.sample_mu_a(core.Covariance.identity(D), DIMS, 100, seed=19).samples.copy()
    for bad in (np.nan, np.inf, -np.inf):
        samples[3, 0, 0] = bad
        with pytest.raises(ValueError, match="samples contains non-finite entries"):
            measure.SampleBatch(samples)
    with pytest.raises(ValueError, match="samples"):
        measure.SampleBatch(np.full((100, M, D), np.nan))


def test_product_moments_factorize_for_orthonormal_family():
    check_pushforward(np.random.default_rng(10), 100_000, 19)


def test_mc_estimate_rejects_negative_errors():
    with pytest.raises(ValueError):
        measure.McEstimate(value=0.0, std_error=-1.0, count=10)


def test_diagonal_sampling_equals_the_explicit_factor_product():
    rng = np.random.default_rng(42)
    for d in (1, 3, 16, 33):
        diagonal = np.exp(rng.uniform(-345.0, 345.0, size=d))
        chol = np.diag(np.sqrt(diagonal))
        for cov in (core.Covariance(diagonal), core.Covariance(np.diag(diagonal))):
            batch = measure.sample_mu_a(cov, core.TruncationDims(4, d), 500, seed=d)
            z = np.random.default_rng(d).standard_normal((500, 4, d))
            expected = (z.reshape(-1, d) @ chol.T).reshape(z.shape)
            assert np.array_equal(batch.samples, expected)
            assert batch.samples.tobytes() == expected.tobytes()


def test_sampling_is_one_product_on_the_chaos_benchmark_shape():
    # dense A: one GEMM over all count * m rows (a GEMM split into row
    # blocks is not bitwise equal to it for every d on every BLAS)
    cov = random_cov(np.random.default_rng(43), 16)
    batch = measure.sample_mu_a(cov, core.TruncationDims(4, 16), 20_000, seed=11)
    z = np.random.default_rng(11).standard_normal((20_000, 4, 16))
    assert batch.samples.tobytes() == (z.reshape(-1, 16) @ cov.chol.T).reshape(z.shape).tobytes()


def test_diagonal_sampling_scales_the_draws_in_place():
    cov = core.Covariance(np.linspace(0.5, 2.0, 16))
    nbytes = 20_000 * 4 * 16 * 8
    tracemalloc.start()
    try:
        measure.sample_mu_a(cov, core.TruncationDims(4, 16), 20_000, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * nbytes


def _fraction_wick_pair_expectation(phi, n, psi, m_deg, cov):
    """The expansion of ``wick_pair_expectation`` summed in ``Fraction``."""
    aa, bb, ab = (
        Fraction(core.inner_a(f, g, cov)) for f, g in ((phi, phi), (psi, psi), (phi, psi))
    )
    total = Fraction(0)
    for k in range(n // 2 + 1):
        ck = (-1) ** k * (factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k)))
        for l in range(m_deg // 2 + 1):
            cl = (-1) ** l * (factorial(m_deg) // (2**l * factorial(l) * factorial(m_deg - 2 * l)))
            p, q = n - 2 * k, m_deg - 2 * l
            gram = [[aa] * p + [ab] * q] * p + [[ab] * p + [bb] * q] * q
            total += ck * cl * aa**k * bb**l * measure._sum_matchings(gram)
    return float(total)


def test_integer_wick_oracle_is_bitwise_the_fraction_sum(monkeypatch):
    calls = []

    def recording(*args):
        calls.append((args, wick_pair_expectation(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "wick_pair_expectation", recording)
    for seed in (0, 1, 2, 3, 8, 18):
        check_wick_orthogonality(np.random.default_rng(seed))
    assert len(calls) == 6 * 20 * 25
    for args, value in calls:
        assert value.hex() == _fraction_wick_pair_expectation(*args).hex()
