import itertools
import tracemalloc

import numpy as np
import pytest

from seqgauss import chaos, core, wick
from seqgauss.hermite import hermite_prob
from seqgauss.verify import (
    check_kernel_inner_routes,
    check_low_degree_wick_values,
    check_monomials_from_wick,
    check_permutation_invariance,
    check_polarization,
    check_polarized_evaluation,
    check_repolarization,
    check_symmetrization,
    check_wick_recursion,
    random_cov,
)

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
    check_polarization(np.random.default_rng(2))


def test_polarize_output_is_permutation_invariant():
    check_permutation_invariance(np.random.default_rng(3))


def test_polarize_rejects_empty_input():
    with pytest.raises(ValueError):
        wick.polarize([])


def test_symmetrize_dense_idempotent_and_pair_average():
    check_symmetrization(np.random.default_rng(4))


def test_dense_tensor_size_limits():
    with pytest.raises(ValueError, match="degree"):
        wick.DenseTensor(degree=5, dims=(1, 5), array=np.zeros((5,) * 5))
    with pytest.raises(ValueError, match="m\\*d"):
        wick.DenseTensor(degree=2, dims=(2, 4), array=np.zeros((8, 8)))


def test_wick_eval_low_degrees():
    check_low_degree_wick_values(np.random.default_rng(5))


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
    check_polarized_evaluation(np.random.default_rng(10))


def test_monomials_rebuilt_from_wick_terms():
    check_monomials_from_wick(np.random.default_rng(11))


def test_kernel_inner_rank_one_powers():
    check_kernel_inner_routes(np.random.default_rng(12))


def test_kernel_inner_degree_zero_is_coefficient_product():
    cov = core.Covariance.identity(D)
    k1 = wick.SymKernel.constant(3.0, M, D)
    k2 = wick.SymKernel.constant(-2.0, M, D)
    assert wick.kernel_inner_a(k1, k2, cov) == -6.0


def test_kernel_inner_matches_dense_contraction():
    check_kernel_inner_routes(np.random.default_rng(13))


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
    check_repolarization(np.random.default_rng(15))


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
    # a numpy integer is an integer degree
    assert wick.RankOnePower(1.0, np.ones((M, D)), np.int64(2)).degree == 2


def per_term_wick_eval(kernel, cov, w):
    """Reference: one Hermite call per polarized term, summed term by term.
    Returns the value and the sum of the absolute term contributions."""
    w_arr = np.asarray(w, dtype=float)
    total = np.zeros(w_arr.shape[:-2])
    magnitude = np.zeros(w_arr.shape[:-2])
    n = kernel.degree
    for t in kernel.terms:
        na = core.norm_a(t.base, cov)
        if n == 0:
            part = t.coeff
        elif na == 0.0:
            continue
        else:
            p = np.tensordot(w_arr, t.base, axes=([-2, -1], [0, 1]))
            part = t.coeff * na**n * hermite_prob(n, p / na)
        total = total + part
        magnitude = magnitude + np.abs(part)
    return total, magnitude


def _kernel(rng, n, count, zero=(), dims=(M, D)):
    bases = rng.standard_normal((count, *dims))
    bases[list(zero)] = 0.0
    coeffs = rng.standard_normal(count)
    return wick.SymKernel(n, tuple(wick.RankOnePower(c, b, n) for c, b in zip(coeffs, bases)))


# term counts of degrees 0..6: degree 2 is an empty kernel and degree 5
# is absent, so the degree-sorted prefix skips both
_MIXED_COUNTS = {0: 2, 1: 3, 2: 0, 3: 4, 4: 1, 6: 2}
_MIXED_ZERO = {1: (0,), 3: (1, 2), 6: (1,)}  # zero-norm terms


def _mixed_expansion(rng):
    return chaos.ChaosExpansion(
        kernels={
            n: _kernel(rng, n, count, _MIXED_ZERO.get(n, ()))
            for n, count in _MIXED_COUNTS.items()
        }
    )


def _deep_expansion(rng):
    """One rank-one term of each degree 0..40."""
    return chaos.ChaosExpansion(kernels={n: _kernel(rng, n, 1) for n in range(41)})


def _assert_matches_per_term(kernel, cov, w):
    got = wick.wick_eval(kernel, cov, w)
    ref, magnitude = per_term_wick_eval(kernel, cov, w)
    if np.ndim(w) == 2:
        assert isinstance(got, float)
    assert np.shape(got) == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-10 * magnitude)


# rows of samples per block for a 5-term kernel
_ROWS_5 = wick._BLOCK_VALUES // 5


@pytest.mark.parametrize("n", [0, 1, 6])
@pytest.mark.parametrize(
    "terms, zero, shape",
    [
        (5, (), ()),  # one sample
        (5, (1, 3), (3, 4)),  # two leading axes, mixed zero-norm terms
        (5, (), (2 * _ROWS_5 + 17,)),  # more than one block, the last one short
        (3, (0, 1, 2), (6,)),  # every term has zero norm
        (0, (), (6,)),  # empty kernel
    ],
)
def test_wick_eval_matches_per_term_loop(n, terms, zero, shape):
    rng = np.random.default_rng(23)
    cov = random_cov(rng, D)
    w = rng.standard_normal(shape + (M, D))
    _assert_matches_per_term(_kernel(rng, n, terms, zero), cov, w)


@pytest.mark.parametrize("n", [1, 6])
def test_wick_eval_more_terms_than_block_values(monkeypatch, n):
    # 6 nonzero-norm terms against a block of 4 values: one sample per block
    monkeypatch.setattr(wick, "_BLOCK_VALUES", 4)
    rng = np.random.default_rng(24)
    cov = random_cov(rng, D)
    _assert_matches_per_term(_kernel(rng, n, 7, zero=(2,)), cov, rng.standard_normal((5, M, D)))


def test_wick_eval_peak_memory_does_not_grow_with_samples():
    rng = np.random.default_rng(25)
    cov = random_cov(rng, D)
    kernel = _kernel(rng, 6, 32)
    w = rng.standard_normal((20_000, M, D))
    tracemalloc.start()
    try:
        out = wick.wick_eval(kernel, cov, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output plus a few blocks of (sample, term) values; the (20 000, 32)
    # pairing array alone would be 5 MB
    assert peak <= out.nbytes + 8 * wick._BLOCK_VALUES * 8


def _column_reference(kernels, cov, w):
    """The evaluator with each step's (r, 1) column of t broadcast in every
    block: the same blocks, GEMMs and operations in the same order as
    ``wick._eval_terms``, which must match it bit for bit."""
    coeffs, bases, degrees = wick._term_arrays(kernels, w.shape[-2:], "w")
    total = np.full(w.shape[:-2], coeffs[degrees == 0].sum())
    order = np.argsort(-degrees, kind="stable")[: np.count_nonzero(degrees)]
    if order.size:
        coeffs, bases, degrees = coeffs[order], bases[order], degrees[order]
        t = np.diagonal(core.gram_a(bases, bases, cov))[:, np.newaxis]
        ends = np.searchsorted(-degrees, -np.arange(degrees[0] + 2), side="right")
        bases_flat = bases.reshape(len(bases), -1)
        w_flat = w.reshape(-1, bases_flat.shape[1])
        out = total.reshape(-1)
        rows = max(1, wick._BLOCK_VALUES // len(bases))
        for start in range(0, len(w_flat), rows):
            x = bases_flat @ w_flat[start:start + rows].T
            values = coeffs[ends[2]:ends[1]] @ x[ends[2]:ends[1]]
            prev, cur = None, x
            for k in range(1, len(ends) - 2):
                r = ends[k + 1]
                if k == 1:
                    nxt = x[:r] * x[:r]
                    nxt -= t[:r]
                elif k == 2:
                    nxt = cur[:r] - 2 * t[:r]
                    nxt *= x[:r]
                else:
                    nxt = prev[:r]
                    nxt *= -k * t[:r]
                    nxt += x[:r] * cur[:r]
                prev, cur = cur, nxt
                values += coeffs[ends[k + 2]:r] @ cur[ends[k + 2]:r]
            out[start:start + rows] += values
    return total


def _assert_bitwise_the_column_reference(expansion, cov, w):
    kernels = list(expansion.kernels.values())
    got = chaos.eval_expansion(expansion, cov, w)
    assert np.asarray(got).tobytes() == _column_reference(kernels, cov, w).tobytes()
    for kernel in kernels:
        got = wick.wick_eval(kernel, cov, w)
        assert np.asarray(got).tobytes() == _column_reference([kernel], cov, w).tobytes()


@pytest.mark.parametrize(
    "shape",
    [
        (),  # one sample
        (3, 4),  # two leading axes
        (2 * (wick._BLOCK_VALUES // 10) + 17,),  # three blocks, the last one short
        # enough blocks for built factors, the last one short
        (wick._FACTOR_BLOCKS * (wick._BLOCK_VALUES // 10) + 17,),
    ],
)
def test_eval_is_bitwise_the_column_reference(shape):
    rng = np.random.default_rng(33)
    cov = random_cov(rng, D)
    _assert_bitwise_the_column_reference(
        _mixed_expansion(rng), cov, rng.standard_normal(shape + (M, D))
    )


def test_eval_is_bitwise_the_column_reference_where_the_factors_run_out(monkeypatch):
    # 40 terms of degree >= 1 in blocks of 10 samples, the last one short.
    # At 16 blocks and more, steps 1-3 (39, 38 and 37 rows) fit the
    # 3 * 400 values of factors, and the 36 rows of step 4 do not, so steps
    # 4-39 keep their column; below 16 blocks every step keeps its column
    monkeypatch.setattr(wick, "_BLOCK_VALUES", 400)
    step_factors, widths = wick._step_factors, []

    def recorded(t, ends, width):
        factors = step_factors(t, ends, width)
        widths.append([f.shape[1] for f in factors])
        return factors

    monkeypatch.setattr(wick, "_step_factors", recorded)
    rng = np.random.default_rng(34)
    cov = random_cov(rng, D)
    expansion = _deep_expansion(rng)
    for blocks, expected in ((wick._FACTOR_BLOCKS, [10] * 3 + [1] * 36),
                             (wick._FACTOR_BLOCKS - 1, [1] * 39)):
        widths.clear()
        w = rng.standard_normal((10 * blocks + 5, M, D))
        _assert_bitwise_the_column_reference(expansion, cov, w)
        assert widths[0] == expected  # the call of eval_expansion


def test_deep_eval_peak_memory_does_not_grow_with_samples():
    rng = np.random.default_rng(35)
    cov = random_cov(rng, D)
    expansion = _deep_expansion(rng)
    w = rng.standard_normal((20_000, M, D))
    tracemalloc.start()
    try:
        out = chaos.eval_expansion(expansion, cov, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the built factors stay within 3 * _BLOCK_VALUES values, however many
    # steps the recurrence takes
    assert peak <= out.nbytes + 8 * wick._BLOCK_VALUES * 8


@pytest.mark.parametrize("n, e", [(1, -600), (1, -540), (2, -500), (3, -300)])
def test_wick_eval_keeps_terms_whose_squared_norm_underflows(n, e):
    # ||2^e phi||_A^2 underflows to 0 for e <= -540; at every e the term is
    # 2^(n e) times that of phi, since scaling by a power of two is exact
    rng = np.random.default_rng(26)
    cov = random_cov(rng, D)
    phi = rng.standard_normal((M, D))
    w = rng.standard_normal((4, M, D))
    got = wick.wick_eval(wick.SymKernel.rank_one(np.ldexp(phi, e), n), cov, w)
    ref = np.ldexp(wick.wick_eval(wick.SymKernel.rank_one(phi, n), cov, w), n * e)
    assert np.all(ref != 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def per_pair_kernel_inner(k1, k2, cov):
    """Reference: ``sum_ij a_i b_j (base_i, base_j)_A^n`` as a double loop
    over the term pairs, one ``inner_a`` each.  Returns the value and the
    sum of the absolute pair terms."""
    total = magnitude = 0.0
    for t1 in k1.terms:
        for t2 in k2.terms:
            part = t1.coeff * t2.coeff * core.inner_a(t1.base, t2.base, cov) ** k1.degree
            total += part
            magnitude += abs(part)
    return total, magnitude


def _assert_inner_matches_per_pair(k1, k2, cov):
    got = wick.kernel_inner_a(k1, k2, cov)
    ref, magnitude = per_pair_kernel_inner(k1, k2, cov)
    assert isinstance(got, float)
    assert abs(got - ref) <= 1e-12 * magnitude


@pytest.mark.parametrize("diagonal", [False, True])
def test_kernel_inner_matches_per_pair_loop(diagonal):
    rng = np.random.default_rng(26)
    for _ in range(40):
        t1, t2 = rng.choice(9, size=2, replace=False)
        n = int(rng.integers(0, 7))
        cov = core.Covariance(rng.uniform(0.5, 2.0, D)) if diagonal else random_cov(rng, D)
        _assert_inner_matches_per_pair(_kernel(rng, n, t1), _kernel(rng, n, t2), cov)


def test_kernel_inner_matches_per_pair_loop_at_benchmark_shape():
    # the chaos-project benchmark's kernels: 32 terms of 4-by-16 bases
    rng = np.random.default_rng(27)
    cov = random_cov(rng, 16)
    for n in (1, 6):
        k1, k2 = (_kernel(rng, n, 32, dims=(4, 16)) for _ in range(2))
        _assert_inner_matches_per_pair(k1, k2, cov)


def test_kernel_inner_edges():
    cov = core.Covariance.identity(D)
    full = wick.SymKernel.rank_one(np.ones((M, D)), 2)
    empty = wick.SymKernel(degree=2, terms=())
    assert wick.kernel_inner_a(empty, full, cov) == 0.0
    assert wick.kernel_inner_a(full, empty, cov) == 0.0
    wide = wick.SymKernel.rank_one(np.ones((M + 1, D)), 2)
    with pytest.raises(ValueError, match="shape"):
        wick.kernel_inner_a(full, wide, cov)
    bad = np.ones((M, D))
    bad[0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        wick.kernel_inner_a(full, wick.SymKernel.rank_one(bad, 2), cov)


def _sample_with(value):
    w = np.ones((M, D))
    w[0, 1] = value
    return w


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda k, cov: wick.wick_eval(k, cov, _sample_with(np.nan)), "w"),
        (lambda k, cov: wick.wick_eval(k, cov, np.stack([_sample_with(1.0), _sample_with(np.inf)])),
         "w"),
        (lambda k, cov: chaos.eval_expansion(
            chaos.ChaosExpansion(kernels={2: k}), cov, _sample_with(np.nan)), "w"),
        (lambda k, cov: wick.SymKernel.rank_one(np.ones((M, D)), 2, coeff=np.nan), "coeff"),
        (lambda k, cov: wick.SymKernel.rank_one(_sample_with(-np.inf), 2), "base"),
    ],
    ids=["wick_eval-nan", "wick_eval-inf-batch", "eval_expansion-nan", "coeff-nan", "base-inf"],
)
def test_non_finite_input_is_refused_naming_its_field(call, field):
    # each was accepted: the sample cases returned nan or inf, the NaN
    # coefficient gave a kernel whose inner product is nan, and the
    # infinite base was refused only later under an internal name
    kernel = wick.SymKernel.rank_one(np.ones((M, D)), 2)
    with pytest.raises(ValueError, match=rf"^{field} .*finite"):
        call(kernel, core.Covariance.identity(D))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda b: wick.RankOnePower(1.0, b, 1.5), "degree"),
        (lambda b: wick.RankOnePower(1.0, b, True), "degree"),
        (lambda b: wick.RankOnePower(1.0, b, -1), "degree"),
        (lambda b: wick.SymKernel(1.5, ()), "degree"),
        (lambda b: wick.SymKernel(-1, ()), "degree"),
        (lambda b: chaos.ChaosExpansion({-1: wick.SymKernel(-1, ())}), "degree"),
        (lambda b: core.TruncationDims(2.5, 3), "m"),
        (lambda b: core.TruncationDims(2, 0), "d"),
        (lambda b: core.TruncationDims(True, 3), "m"),
    ],
    ids=["RankOnePower 1.5", "RankOnePower True", "RankOnePower -1", "SymKernel 1.5",
         "SymKernel -1", "ChaosExpansion -1", "TruncationDims m 2.5", "TruncationDims d 0",
         "TruncationDims m True"],
)
def test_degrees_and_truncation_sizes_must_be_integers(build, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        build(np.ones((M, D)))
