import tracemalloc
import warnings

import numpy as np
import pytest

from seqgauss import chaos, closure, core, hermite, measure, wick
from seqgauss.verify import (
    check_bilinear_identities,
    check_block_projection_algebra,
    check_block_projection_example,
    check_divergence_diagnostic,
    check_gram_schmidt_example,
    check_norm_identities,
    check_operator_extension,
    check_operator_norm_transfer,
    check_parseval,
    random_cov,
)


def test_bullet_is_outer_product():
    out = core.bullet([1.0, 2.0], [3.0, 0.0, 4.0])
    assert np.array_equal(out, [[3.0, 0.0, 4.0], [6.0, 0.0, 8.0]])


def test_bullet_zero_vector_gives_zero():
    assert not core.bullet(np.zeros(3), [1.0, 2.0]).any()


def test_bullet_norm_identity():
    check_norm_identities(np.random.default_rng(0))


def test_bracket_of_embedding_scales_by_squared_norm():
    h = np.array([1.0, 2.0])
    x = np.array([3.0, 0.0, 4.0])
    out = core.bracket(core.bullet(h, x), x)
    assert out == pytest.approx([25.0, 50.0], rel=1e-12)


def test_bracket_with_unit_vector_extracts_column():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((3, 5))
    for k in range(5):
        e = np.zeros(5)
        e[k] = 1.0
        assert np.array_equal(core.bracket(f, e), f[:, k])


def test_bracket_respects_cauchy_schwarz():
    check_norm_identities(np.random.default_rng(2))


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        core.bracket(np.ones((2, 3)), np.ones(4))


def test_inner_l2_rank_one_factorization():
    check_bilinear_identities(np.random.default_rng(3))


def test_inner_l2_definiteness():
    f = np.zeros((2, 3))
    assert core.inner_l2(f, f) == 0.0
    f[1, 2] = 1e-8
    assert core.inner_l2(f, f) > 0.0


def test_inner_l2_adjoint_identity():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 4))
    h = rng.standard_normal(3)
    x = rng.standard_normal(4)
    assert core.inner_l2(f, core.bullet(h, x)) == pytest.approx(
        float(core.bracket(f, x) @ h), rel=1e-12
    )


def test_inner_a_worked_off_diagonal_value():
    cov = core.Covariance([[1.0, 0.5], [0.5, 1.0]])
    e1 = core.bullet([1.0], [1.0, 0.0])
    e2 = core.bullet([1.0], [0.0, 1.0])
    assert core.inner_a(e1, e2, cov) == pytest.approx(0.5, abs=1e-15, rel=0)


def test_inner_a_identity_weight_reduces_to_frobenius():
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    cov = core.Covariance.identity(4)
    assert core.inner_a(f, g, cov) == pytest.approx(core.inner_l2(f, g), rel=1e-13)


def test_inner_a_rank_one_factorization():
    check_bilinear_identities(np.random.default_rng(6))


def test_inner_a_bracket_identity():
    check_bilinear_identities(np.random.default_rng(7))


def test_gram_a_matches_inner_a_and_validates_stacks():
    rng = np.random.default_rng(20)
    g_mat = rng.standard_normal((4, 4))
    cov = core.Covariance(g_mat @ g_mat.T + 2 * np.eye(4))
    fs, gs = rng.standard_normal((5, 3, 4)), rng.standard_normal((2, 3, 4))
    expected = [[core.inner_a(f, g, cov) for g in gs] for f in fs]
    assert np.allclose(core.gram_a(fs, gs, cov), expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        core.gram_a(fs, gs[:, :2], cov)
    with pytest.raises(ValueError, match="covariance dim"):
        core.gram_a(fs[..., :3], gs[..., :3], cov)


def test_apply_extended_diagonal_weight_scales_columns():
    cov = core.Covariance(np.diag([1.0, 0.25, 1.0 / 9.0]))
    f = np.arange(6.0).reshape(2, 3)
    out = core.apply_extended(cov, f)
    assert np.allclose(out, f * np.array([1.0, 0.25, 1.0 / 9.0]))


def test_apply_extended_commutes_with_embedding():
    check_operator_extension(np.random.default_rng(8))


def test_apply_extended_identity_is_noop():
    rng = np.random.default_rng(9)
    f = rng.standard_normal((2, 5))
    assert np.array_equal(core.apply_extended(core.Covariance.identity(5), f), f)


def test_apply_extended_basis_independence():
    check_operator_extension(np.random.default_rng(10))


def test_parseval_over_random_basis():
    check_parseval(np.random.default_rng(11))


def test_gram_schmidt_a_reproduces_worked_example():
    check_gram_schmidt_example()


def test_gram_schmidt_a_keeps_orthonormal_input():
    cov = core.Covariance.identity(3)
    basis = core.gram_schmidt_a(np.eye(3), cov)
    assert np.allclose(basis, np.eye(3), atol=1e-15, rtol=0)


def test_gram_schmidt_a_drops_dependent_vectors():
    cov = core.Covariance.identity(2)
    x = np.array([1.0, 2.0])
    basis = core.gram_schmidt_a([x, 2 * x], cov)
    assert len(basis) == 1
    assert np.allclose(basis[0], x / np.linalg.norm(x), atol=1e-14, rtol=0)


def test_gram_schmidt_a_rejects_empty_and_zero_input():
    cov = core.Covariance.identity(2)
    with pytest.raises(ValueError):
        core.gram_schmidt_a([], cov)
    with pytest.raises(ValueError, match="zero or dependent"):
        core.gram_schmidt_a([np.zeros(2)], cov)


def _per_pair_gram_schmidt(vectors, cov, tol=1e-12):
    """The callable-driven loop gram_schmidt replaced: every coefficient is
    a fresh inner_a call."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=float)
        scale = np.sqrt(max(core.inner_a(w, w, cov), 0.0))
        for _ in range(2):
            for b in basis:
                w = w - core.inner_a(w, b, cov) * b
        residual = np.sqrt(max(core.inner_a(w, w, cov), 0.0))
        if residual <= tol * scale or residual == 0.0:
            continue
        basis.append(w / residual)
    return np.stack(basis)


def test_gram_schmidt_is_bitwise_the_per_pair_loop():
    rng = np.random.default_rng(30)
    for _ in range(40):
        m, d, q = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 7))
        cov = random_cov(rng, d)
        vectors = rng.standard_normal((q, m, d))
        vectors = np.concatenate([vectors, [vectors[0] - 2.0 * vectors[-1]]])
        expected = _per_pair_gram_schmidt(vectors, cov).tobytes()
        assert core.gram_schmidt(vectors, cov).tobytes() == expected
        assert chaos.ConditioningSet.from_vectors(list(vectors), cov).basis.tobytes() == expected


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([np.full((2, 3), np.nan)], "contains non-finite entries"),
        ([np.ones((2, 4))], "sequence length 4 does not match covariance dim 3"),
        ([], "cannot orthonormalize an empty list"),
    ],
)
def test_gram_schmidt_rejects_bad_stacks_with_the_parent_messages(vectors, message):
    cov = core.Covariance.identity(3)
    with pytest.raises(ValueError, match=message):
        core.gram_schmidt(vectors, cov)
    with pytest.raises(ValueError, match=message):
        chaos.ConditioningSet.from_vectors(vectors, cov)


def test_block_projection_worked_example():
    check_block_projection_example()


def test_block_projection_identity_weight():
    blocks = core.block_projection(core.Covariance.identity(4), 2)
    assert np.array_equal(blocks.p, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_block_projection_fixes_leading_coordinates():
    check_block_projection_algebra(np.random.default_rng(12))


def test_block_projection_residual_orthogonality():
    check_block_projection_algebra(np.random.default_rng(13))


def test_block_projection_rejects_bad_cut():
    cov = core.Covariance.identity(3)
    with pytest.raises(ValueError):
        core.block_projection(cov, 0)
    with pytest.raises(ValueError):
        core.block_projection(cov, 3)


def test_psd_check_examples():
    assert core.psd_check([[1.0, 0.5], [0.5, 1.0]])
    assert not core.psd_check([[1.0, 2.0], [2.0, 1.0]])
    assert core.psd_check(np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (0, 3)], ids=str)
def test_psd_check_refuses_empty_and_non_square_matrices(shape):
    message = fr"matrix must be square and non-empty, got \({shape[0]}, {shape[1]}\)"
    with pytest.raises(ValueError, match=message):
        core.psd_check(np.zeros(shape))


def test_psd_check_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        core.psd_check([[1.0, 2.0], [0.0, 1.0]])


def test_hadamard_identities_and_schur_product():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 4))
    gram = g @ g.T
    assert np.array_equal(core.hadamard(gram, np.ones_like(gram)), gram)
    g2 = rng.standard_normal((4, 4))
    assert core.psd_check(core.hadamard(gram, g2 @ g2.T))
    with pytest.raises(ValueError, match="mismatch"):
        core.hadamard(np.ones((2, 2)), np.ones((3, 3)))


def test_entrywise_exponential_series_stays_psd():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((4, 4))
    gram = g @ g.T
    scaled = gram / np.abs(gram).max()
    series = np.zeros_like(scaled)
    power = np.ones_like(scaled)
    fact = 1.0
    for j in range(25):
        series = series + power / fact
        power = core.hadamard(power, scaled)
        fact *= j + 1
    assert core.psd_check(series)
    assert np.allclose(series, np.exp(scaled), atol=1e-12, rtol=0)


def test_covariance_validation():
    with pytest.raises(ValueError, match="symmetric"):
        core.Covariance([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        core.Covariance([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        core.Covariance(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        core.Covariance(np.zeros((0, 0)))
    cov = core.Covariance([[2.0, 0.4], [0.4, 1.0]])
    assert np.allclose(cov.chol @ cov.chol.T, cov.matrix, atol=1e-14, rtol=0)


def dense_reference(a):
    """The stored matrix and factor of the dense path: the symmetrised
    input and its LAPACK Cholesky factor."""
    sym = 0.5 * (a + a.T)
    return sym, np.linalg.cholesky(sym)


def assert_stored_bytes(cov, a):
    matrix, chol = dense_reference(a)
    assert cov.matrix.tobytes() == matrix.tobytes()
    assert cov.chol.tobytes() == chol.tobytes()
    assert not cov.matrix.flags.writeable and not cov.chol.flags.writeable


def test_diagonal_covariance_matches_dense_cholesky_bitwise():
    rng = np.random.default_rng(21)
    k = np.arange(1, 2049)
    diagonals = [np.ones(d) for d in range(1, 65)]
    diagonals += [rng.uniform(1e-6, 1e6, size=d) for d in (1, 2, 7, 64, 300)]
    diagonals.append(1.0 / k**2)
    for diagonal in diagonals:
        a = np.diag(diagonal)
        assert_stored_bytes(core.Covariance(a), a)


def test_diagonal_covariance_positivity_and_signed_zeros():
    for bad in ([1.0, 0.0, 2.0], [1.0, -3.0]):
        with pytest.raises(ValueError, match="positive definite"):
            core.Covariance(np.diag(bad))
    a = np.diag([4.0, 9.0, 1.0])
    a[0, 2] = a[1, 0] = -0.0
    cov = core.Covariance(a)
    assert np.array_equal(cov.matrix, a)
    assert cov.chol.tobytes() == np.diag([2.0, 3.0, 1.0]).tobytes()


def test_diagonal_covariance_stores_a_private_copy():
    a = np.diag([1.0, 2.0, 3.0])
    cov = core.Covariance(a)
    assert a.flags.writeable
    assert not np.shares_memory(a, cov.matrix)
    a[0, 0] = 5.0
    assert cov.matrix[0, 0] == 1.0


def test_tiny_off_diagonal_entry_takes_the_dense_path():
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 1] = 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        core.Covariance(a)
    a[0, 1] = a[1, 0] = 1e-300
    cov = core.Covariance(a)
    assert_stored_bytes(cov, a)
    assert cov.chol[1, 0] != 0.0


def test_dense_covariance_bytes_are_unchanged(monkeypatch):
    inputs = []

    class Recording(core.Covariance):
        def __init__(self, matrix):
            inputs.append(np.array(matrix))
            super().__init__(matrix)

    monkeypatch.setattr(core, "Covariance", Recording)
    rng = np.random.default_rng(22)
    covs = [random_cov(rng, d) for d in rng.integers(2, 12, size=50)]
    assert len(inputs) == 50
    for cov, a in zip(covs, inputs):
        assert_stored_bytes(cov, a)


def test_huge_finite_covariance_stays_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = core.Covariance([[1e308, 1e307], [1e307, 1e308]])
        with pytest.raises(ValueError, match="symmetric"):
            core.Covariance([[1.0, 1e308], [-1e308, 1.0]])
    assert np.array_equal(cov.matrix, [[1e308, 1e307], [1e307, 1e308]])
    assert np.isfinite(cov.chol).all()
    assert np.allclose(cov.chol @ cov.chol.T, cov.matrix, rtol=1e-14, atol=0)


def test_psd_check_huge_finite_matrix_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert core.psd_check([[1e308, 1e307], [1e307, 1e308]])
        assert not core.psd_check([[1e307, 1e308], [1e308, 1e307]])
        with pytest.raises(ValueError, match="symmetric"):
            core.psd_check([[1.0, 1e308], [-1e308, 1.0]])


def test_apply_extended_checks_the_sequence_vector():
    cov = core.Covariance(np.eye(3) + 0.1)
    with pytest.raises(ValueError, match="operator of shape \\(3, 3\\) cannot act on sequence of length 4"):
        core.apply_extended(cov, np.ones((2, 4)))
    with pytest.raises(ValueError, match="f must be a 2-D array"):
        core.apply_extended(cov, np.ones(3))
    with pytest.raises(ValueError, match="f contains non-finite"):
        core.apply_extended(cov, [[1.0, np.inf, 0.0]])
    f = np.random.default_rng(23).standard_normal((4, 3))
    assert np.array_equal(core.apply_extended(cov, f), f @ cov.matrix.T)


def test_divergence_diagnostic_small_scale():
    # diagonal weight k^-2: weighted increments are summable while the
    # contraction against x_k = 1/k grows like the harmonic series
    d = 64
    k = np.arange(1, d + 1)
    cov = core.Covariance(np.diag(1.0 / k**2))
    x = 1.0 / k
    for n_lo, n_hi in ((2, 8), (8, 64)):
        f_lo = np.zeros((1, d))
        f_lo[0, :n_lo] = 1.0
        f_hi = np.zeros((1, d))
        f_hi[0, :n_hi] = 1.0
        assert core.inner_a(f_hi - f_lo, f_hi - f_lo, cov) == pytest.approx(
            float(np.sum(1.0 / k[n_lo:n_hi] ** 2)), abs=1e-12, rel=0
        )
    for n in (8, 64):
        f = np.zeros((1, d))
        f[0, :n] = 1.0
        assert np.linalg.norm(core.bracket(f, x)) == pytest.approx(
            float(np.sum(1.0 / k[:n])), abs=1e-10, rel=0
        )
        assert core.norm_a(f, cov) < np.pi / np.sqrt(6.0) + 1e-6


def test_operator_norm_transfer_by_assembled_extension():
    check_operator_norm_transfer(np.random.default_rng(16))


def _wide_diagonals(rng):
    """Positive diagonals with entries from 1e-150 to 1e150."""
    return [np.exp(rng.uniform(-345.0, 345.0, size=d)) for d in (1, 2, 5, 16, 33)]


def _dense_gram_schmidt(vectors, a, tol=1e-12):
    """gram_schmidt's loop with every weighted product taken against the
    explicit matrix ``a``."""
    basis, images = [], []
    for w in vectors:
        scale = np.sqrt(max(np.vdot(w, w @ a), 0.0))
        for _ in range(2):
            for b, b_a in zip(basis, images):
                w = w - np.vdot(w, b_a) * b
        residual = np.sqrt(max(np.vdot(w, w @ a), 0.0))
        if residual <= tol * scale or residual == 0.0:
            continue
        basis.append(w / residual)
        images.append(basis[-1] @ a)
    return np.array(basis)


def test_diagonal_covariance_products_equal_the_explicit_matrix_products():
    rng = np.random.default_rng(40)
    for diagonal in _wide_diagonals(rng):
        d = len(diagonal)
        a = np.diag(diagonal)
        for cov in (core.Covariance(diagonal), core.Covariance(a)):
            f, g = rng.standard_normal((2, 3, d))
            fs, gs = rng.standard_normal((4, 3, d)), rng.standard_normal((2, 3, d))
            x, y = rng.standard_normal((2, d))
            assert core.inner_a(f, g, cov) == float(np.vdot(f, g @ a))
            assert core.norm_a(f, cov) == float(np.sqrt(max(np.vdot(f, f @ a), 0.0)))
            expected = (fs @ a).reshape(4, -1) @ gs.reshape(2, -1).T
            assert np.array_equal(core.gram_a(fs, gs, cov), expected)
            vectors = np.concatenate([fs, [fs[0] - 2.0 * fs[-1]]])
            assert np.array_equal(core.gram_schmidt(vectors, cov), _dense_gram_schmidt(vectors, a))
            assert np.array_equal(core.apply_extended(cov, f), f @ a)
            assert np.array_equal(cov.apply(x), a @ x)
            assert cov.inner(x, y) == float(x @ a @ y)
            xs = list(rng.standard_normal((min(d, 2), d)))
            basis = core.gram_schmidt_a(xs, cov)
            assert np.array_equal(chaos.cond_exp_monomial(f, xs, cov), f @ a @ basis.T @ basis)


@pytest.mark.parametrize(
    "diagonal, message",
    [
        ([1.0, 0.0, 2.0], "covariance matrix is not positive definite"),
        ([1.0, -3.0], "covariance matrix is not positive definite"),
        ([1.0, np.nan], "covariance matrix contains non-finite entries"),
        ([np.inf, 1.0], "covariance matrix contains non-finite entries"),
        ([], "covariance matrix must be square and non-empty"),
    ],
)
def test_diagonal_vector_input_is_checked_like_a_matrix(diagonal, message):
    with pytest.raises(ValueError, match=message):
        core.Covariance(diagonal)


def test_diagonal_vector_input_gives_read_only_dense_views_of_a_private_copy():
    diagonal = np.exp(np.random.default_rng(41).uniform(-345.0, 345.0, size=9))
    kept = diagonal.copy()
    cov = core.Covariance(diagonal)
    assert cov.dim == 9
    diagonal[:] = 1.0
    assert cov.matrix.tobytes() == np.diag(kept).tobytes()
    assert cov.chol.tobytes() == np.diag(np.sqrt(kept)).tobytes()
    assert cov.matrix is cov.matrix and cov.chol is cov.chol
    assert not cov.matrix.flags.writeable and not cov.chol.flags.writeable
    assert diagonal.flags.writeable
    with pytest.raises(ValueError, match="sequence length 2 does not match covariance dim 9"):
        cov.apply([1.0, 2.0])
    message = r"operator of shape \(9, 9\) cannot act on sequence of length 1"
    with pytest.raises(ValueError, match=message):
        core.apply_extended(cov, np.ones((2, 1)))


def test_divergence_diagnostic_holds_no_dense_weight():
    tracemalloc.start()
    try:
        check_divergence_diagnostic()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one 2048 x 2048 array of doubles is 32 MiB


def test_identity_of_a_million_positions_costs_vectors_not_a_matrix():
    d = 10**6
    tracemalloc.start()
    try:
        cov = core.Covariance.identity(d)
        f = np.ones((1, d))
        assert core.inner_a(f, f, cov) == d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * d  # a d x d array would take 8 * d * d bytes


_NAN_W = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]])
_DENSE = wick.DenseTensor(degree=1, dims=(2, 3), array=np.arange(6.0))
_MATERIAL = dict(a=0.0, b=1.0, cells=4, sigma=0.0, kappa=0.0, source=0.0)


def _closure_run(**run):
    """A P_1 run on 4 cells, valid but for what ``run`` changes."""
    initial = closure.MomentGrid(t=0.0, values=np.ones((4, 2)))
    run = {"t_final": 0.5, "dt": 0.1, **run}
    return closure.solve_closure(initial, closure.MaterialParams(**_MATERIAL), None, **run)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: wick.DenseTensor(degree=1, dims=(2, 3), array=np.full(6, np.nan)), "array"),
        (lambda: wick.wick_dense_tensor(2, core.Covariance.identity(3), _NAN_W), "w"),
        (lambda: wick.wick_dense_closed_form(2, core.Covariance.identity(3), _NAN_W), "w"),
        (lambda: wick.monomial_dense_from_wick(2, core.Covariance.identity(3), _NAN_W), "w"),
        (lambda: wick.wick_eval_dense(1, core.Covariance.identity(3), _NAN_W, _DENSE), "w"),
        (lambda: wick.wick_dense_closed_form(2, core.Covariance.identity(2), np.ones((2, 3))), "w"),
        (lambda: wick.dense_inner_a(_DENSE, _DENSE, core.Covariance.identity(2)), "t1"),
        (lambda: wick.wick_eval_dense(
            1, core.Covariance.identity(2), np.ones((3, 2)), _DENSE), "t"),
        (lambda: core.inner_a("ab", np.ones((2, 3)), core.Covariance.identity(3)), "f"),
        (lambda: chaos.ConditioningSet(basis=[np.ones((2, 3)), np.ones((2, 2))]), "basis"),
        (lambda: core.Covariance([[1.0, 0.0], [0.0]]), "matrix"),
        (lambda: wick.polarize([np.ones((2, 3)), np.ones((3, 2))]), "xs"),
        (lambda: measure.isserlis_moment([np.ones((2, 3)), _NAN_W], core.Covariance.identity(3)),
         "phis"),
        (lambda: hermite.hermite_prob(2, np.nan), "x"),
        (lambda: hermite.hermite_prob(2, "ab"), "x"),
        (lambda: hermite.hermite_prob(1.5, 0.0), "n"),
        (lambda: hermite.hermite_prob(True, 0.0), "n"),
        (lambda: hermite.hermite_prob_sum(2, np.nan), "x"),
        (lambda: hermite.hermite_binomial_sum(2, 0.6, 0.8, np.nan, 0.0), "x"),
        (lambda: hermite.hermite_binomial_sum(2, np.nan, 0.8, 0.0, 0.0), "alpha"),
        (lambda: hermite.hermite_binomial_sum(2, 0.6, np.nan, 0.0, 0.0), "beta"),
        (lambda: _closure_run(output_stride=True), "output_stride"),
        (lambda: closure.MaterialParams(**{**_MATERIAL, "a": "ab"}), "a"),
        (lambda: closure.MaterialParams(**{**_MATERIAL, "b": "ab"}), "b"),
        (lambda: _closure_run(t_final="ab"), "t_final"),
        (lambda: _closure_run(cfl="ab"), "cfl"),
        (lambda: closure.MomentGrid(t="ab", values=np.ones((4, 2))), "t"),
        (lambda: closure.build_moment_system(1.5), "order"),
        (lambda: closure.closure_row([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], 1),
         "correlation"),
    ],
    ids=[
        "DenseTensor NaN array", "wick_dense_tensor NaN w", "wick_dense_closed_form NaN w",
        "monomial_dense_from_wick NaN w", "wick_eval_dense NaN w",
        "wick_dense_closed_form covariance dim", "dense_inner_a covariance dim",
        "wick_eval_dense transposed sample",
        "inner_a string f", "ConditioningSet ragged basis", "Covariance ragged matrix",
        "polarize ragged xs", "isserlis_moment NaN phis",
        "hermite_prob NaN x", "hermite_prob string x", "hermite_prob fractional n",
        "hermite_prob bool n", "hermite_prob_sum NaN x", "hermite_binomial_sum NaN x",
        "hermite_binomial_sum NaN alpha", "hermite_binomial_sum NaN beta",
        "solve_closure bool output_stride", "MaterialParams string a",
        "MaterialParams string b", "solve_closure string t_final", "solve_closure string cfl",
        "MomentGrid string t", "build_moment_system fractional order",
        "closure_row ragged correlation",
    ],
)
def test_array_arguments_are_refused_by_name(call, name):
    with pytest.raises(core.InputError) as exc:
        call()
    assert exc.value.argument == name


@pytest.mark.parametrize(
    "build, shape, held",
    [
        (lambda a: wick.RankOnePower(1.0, a, 2), (2, 3), lambda v: v.base),
        (lambda a: wick.DenseTensor(degree=1, dims=(2, 3), array=a), (6,), lambda v: v.array),
        (lambda a: closure.MomentGrid(t=0.0, values=a), (2, 3), lambda v: v.values),
        (lambda a: chaos.ConditioningSet(basis=a), (1, 2, 3), lambda v: v.basis),
    ],
    ids=["RankOnePower", "DenseTensor", "MomentGrid", "ConditioningSet"],
)
def test_held_arrays_are_read_only_copies(build, shape, held):
    caller = np.arange(6.0).reshape(shape)
    value = build(caller)
    kept = held(value).copy()
    assert not held(value).flags.writeable
    caller[:] = -1.0
    assert np.array_equal(held(value), kept)
    assert caller.flags.writeable
