import itertools

import numpy as np
import pytest

from seqgauss import core, wick
from seqgauss.verify import check_wick_recursion, random_cov

M, D = 2, 3


def brute_symmetric_product(vectors):
    """Independent oracle: average the plain tensor product over all
    permutations of the factors."""
    n = len(vectors)
    flat = [v.ravel() for v in vectors]
    acc = np.zeros((flat[0].size,) * n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        piece = np.array(1.0)
        for i in perm:
            piece = np.multiply.outer(piece, flat[i])
        acc += piece
    return acc / len(perms)


def test_polarize_pair_matches_brute_force():
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, M, D))
    kernel = wick.polarize([x1, x2])
    assert len(kernel.terms) == 4
    dense = wick.dense_from_kernel(kernel)
    assert np.allclose(dense.array, brute_symmetric_product([x1, x2]), atol=1e-12, rtol=0)


def test_polarize_triple_matches_brute_force():
    rng = np.random.default_rng(1)
    xs = list(rng.standard_normal((3, M, D)))
    dense = wick.dense_from_kernel(wick.polarize(xs))
    assert np.allclose(dense.array, brute_symmetric_product(xs), atol=1e-12, rtol=0)


def test_polarize_repeated_vector_is_plain_power():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((M, D))
    dense = wick.dense_from_kernel(wick.polarize([x, x, x]))
    power = np.array(1.0)
    for _ in range(3):
        power = np.multiply.outer(power, x.ravel())
    assert np.allclose(dense.array, power, atol=1e-12, rtol=0)


def test_polarize_output_is_permutation_invariant():
    rng = np.random.default_rng(3)
    xs = list(rng.standard_normal((3, M, D)))
    arr = wick.dense_from_kernel(wick.polarize(xs)).array
    for perm in itertools.permutations(range(3)):
        assert np.allclose(np.transpose(arr, perm), arr, atol=1e-12, rtol=0)


def test_polarize_rejects_empty_input():
    with pytest.raises(ValueError):
        wick.polarize([])


def test_symmetrize_dense_idempotent_and_pair_average():
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((M * D, M * D))
    t = wick.DenseTensor(degree=2, dims=(M, D), array=arr)
    sym1 = wick.symmetrize_dense(t)
    assert np.allclose(sym1.array, 0.5 * (arr + arr.T), atol=1e-15, rtol=0)
    sym2 = wick.symmetrize_dense(sym1)
    assert np.allclose(sym2.array, sym1.array, atol=1e-15, rtol=0)


def test_dense_tensor_size_limits():
    with pytest.raises(ValueError, match="degree"):
        wick.DenseTensor(degree=5, dims=(1, 5), array=np.zeros((5,) * 5))
    with pytest.raises(ValueError, match="m\\*d"):
        wick.DenseTensor(degree=2, dims=(2, 4), array=np.zeros((8, 8)))


def test_wick_eval_low_degrees():
    rng = np.random.default_rng(5)
    cov = random_cov(rng, D)
    phi = rng.standard_normal((M, D))
    w = rng.standard_normal((M, D))
    p = float(np.sum(phi * w))
    na2 = core.inner_a(phi, phi, cov)
    assert wick.wick_eval(wick.SymKernel.constant(1.0, M, D), cov, w) == 1.0
    assert wick.wick_eval(wick.SymKernel.rank_one(phi, 1), cov, w) == pytest.approx(
        p, rel=1e-12
    )
    assert wick.wick_eval(wick.SymKernel.rank_one(phi, 2), cov, w) == pytest.approx(
        p * p - na2, rel=1e-10, abs=1e-10
    )


def test_wick_eval_zero_norm_base():
    cov = core.Covariance.identity(D)
    w = np.ones((M, D))
    zero = np.zeros((M, D))
    assert wick.wick_eval(wick.SymKernel.rank_one(zero, 3), cov, w) == 0.0
    assert wick.wick_eval(wick.SymKernel.rank_one(zero, 0, coeff=2.5), cov, w) == 2.5
    empty = wick.SymKernel(degree=2, terms=())
    assert wick.wick_eval(empty, cov, w) == 0.0
    assert np.array_equal(wick.wick_eval(empty, cov, np.ones((5, M, D))), np.zeros(5))


def test_wick_eval_mixed_zero_norm_terms_match_per_term_sum():
    rng = np.random.default_rng(22)
    cov = random_cov(rng, D)
    bases = [rng.standard_normal((M, D)), np.zeros((M, D)), rng.standard_normal((M, D))]
    terms = tuple(wick.RankOnePower(c, b, 3) for c, b in zip((0.5, 2.0, -1.5), bases))
    batch = rng.standard_normal((6, M, D))
    per_term = sum(wick.wick_eval(wick.SymKernel(3, (t,)), cov, batch) for t in terms)
    vals = wick.wick_eval(wick.SymKernel(3, terms), cov, batch)
    assert np.allclose(vals, per_term, rtol=1e-12, atol=1e-12)


def test_wick_eval_batch_broadcasting():
    rng = np.random.default_rng(6)
    cov = random_cov(rng, D)
    kernel = wick.polarize(list(rng.standard_normal((2, M, D))))
    batch = rng.standard_normal((7, M, D))
    vals = wick.wick_eval(kernel, cov, batch)
    assert vals.shape == (7,)
    for i in range(7):
        assert vals[i] == pytest.approx(wick.wick_eval(kernel, cov, batch[i]), rel=1e-12)


def test_wick_eval_dense_degree_one_is_plain_pairing():
    rng = np.random.default_rng(7)
    cov = random_cov(rng, D)
    w = rng.standard_normal((M, D))
    phi = rng.standard_normal((M, D))
    t = wick.dense_from_kernel(wick.SymKernel.rank_one(phi, 1))
    assert wick.wick_eval_dense(1, cov, w, t) == pytest.approx(
        float(np.sum(phi * w)), rel=1e-12
    )


def test_wick_eval_dense_degree_two_unrolled():
    rng = np.random.default_rng(8)
    cov = random_cov(rng, D)
    w = rng.standard_normal((M, D))
    phi = rng.standard_normal((M, D))
    t = wick.dense_from_kernel(wick.SymKernel.rank_one(phi, 2))
    p = float(np.sum(phi * w))
    expected = p * p - core.inner_a(phi, phi, cov)
    assert wick.wick_eval_dense(2, cov, w, t) == pytest.approx(expected, rel=1e-10)


def test_recursion_matches_closed_form():
    check_wick_recursion(np.random.default_rng(9))


def test_dense_and_polarized_evaluation_agree():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        cov = random_cov(rng, D)
        w = rng.standard_normal((M, D))
        kernel = wick.polarize(list(rng.standard_normal((n, M, D))))
        a = wick.wick_eval(kernel, cov, w)
        b = wick.wick_eval_dense(n, cov, w, wick.dense_from_kernel(kernel))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_monomials_rebuilt_from_wick_terms():
    rng = np.random.default_rng(11)
    cov = random_cov(rng, D)
    w = rng.standard_normal((M, D))
    phi = rng.standard_normal((M, D))
    for n in range(5):
        rebuilt = wick.monomial_dense_from_wick(n, cov, w)
        power = np.array(1.0)
        for _ in range(n):
            power = np.multiply.outer(power, phi.ravel())
        lhs = float(np.sum(rebuilt * power))
        rhs = float(np.sum(phi * w)) ** n
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_kernel_inner_rank_one_powers():
    rng = np.random.default_rng(12)
    cov = random_cov(rng, D)
    phi, psi = rng.standard_normal((2, M, D))
    for n in range(1, 5):
        val = wick.kernel_inner_a(
            wick.SymKernel.rank_one(phi, n), wick.SymKernel.rank_one(psi, n), cov
        )
        assert val == pytest.approx(core.inner_a(phi, psi, cov) ** n, rel=1e-12)


def test_kernel_inner_degree_zero_is_coefficient_product():
    cov = core.Covariance.identity(D)
    k1 = wick.SymKernel.constant(3.0, M, D)
    k2 = wick.SymKernel.constant(-2.0, M, D)
    assert wick.kernel_inner_a(k1, k2, cov) == -6.0


def test_kernel_inner_matches_dense_contraction():
    rng = np.random.default_rng(13)
    for n in range(1, 5):
        cov = random_cov(rng, D)
        k1 = wick.polarize(list(rng.standard_normal((n, M, D))))
        k2 = wick.polarize(list(rng.standard_normal((n, M, D))))
        a = wick.kernel_inner_a(k1, k2, cov)
        b = wick.dense_inner_a(
            wick.dense_from_kernel(k1), wick.dense_from_kernel(k2), cov
        )
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_kernel_inner_degree_mismatch():
    cov = core.Covariance.identity(D)
    k1 = wick.SymKernel.rank_one(np.ones((M, D)), 1)
    k2 = wick.SymKernel.rank_one(np.ones((M, D)), 2)
    with pytest.raises(ValueError, match="degree"):
        wick.kernel_inner_a(k1, k2, cov)


def test_weight_pairing_matrix_reproduces_inner_a():
    rng = np.random.default_rng(14)
    cov = random_cov(rng, D)
    f, g = rng.standard_normal((2, M, D))
    t = wick.weight_pairing_matrix(cov, M)
    assert float(f.ravel() @ t @ g.ravel()) == pytest.approx(
        core.inner_a(f, g, cov), rel=1e-12
    )


def test_repolarization_invariance():
    rng = np.random.default_rng(15)
    cov = random_cov(rng, D)
    w = rng.standard_normal((M, D))
    x1, x2 = rng.standard_normal((2, M, D))
    k_a = wick.polarize([x1, x2])
    # parallelogram form of the same symmetric pair product
    k_b = wick.SymKernel(
        degree=2,
        terms=(
            wick.RankOnePower(0.25, x1 + x2, 2),
            wick.RankOnePower(-0.25, x1 - x2, 2),
        ),
    )
    assert np.allclose(
        wick.dense_from_kernel(k_a).array, wick.dense_from_kernel(k_b).array, atol=1e-12, rtol=0
    )
    assert wick.wick_eval(k_a, cov, w) == pytest.approx(
        wick.wick_eval(k_b, cov, w), rel=1e-9, abs=1e-9
    )


def test_symkernel_validation():
    with pytest.raises(ValueError, match="degree"):
        wick.SymKernel(degree=2, terms=(wick.RankOnePower(1.0, np.ones((M, D)), 1),))
    with pytest.raises(ValueError, match="shapes"):
        wick.SymKernel(
            degree=1,
            terms=(
                wick.RankOnePower(1.0, np.ones((2, 3)), 1),
                wick.RankOnePower(1.0, np.ones((3, 2)), 1),
            ),
        )
