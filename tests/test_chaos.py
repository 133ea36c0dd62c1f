import tracemalloc

import numpy as np
import pytest
from test_wick import _kernel, per_term_wick_eval

from seqgauss import chaos, core, measure, wick
from seqgauss.verify import (
    check_chaos_inner_structure,
    check_cond_exp_example,
    check_cond_exp_idempotence,
    check_conditional_residuals,
    check_degree_one_additivity,
    check_expansion_mean,
    check_kernelwise_projection,
    check_span_invariance,
    random_cov,
    random_expansion,
)

M, D = 2, 3
DIMS = core.TruncationDims(M, D)


def coupled_cov():
    a = np.eye(4)
    a[0, 1] = a[1, 0] = 0.5
    return core.Covariance(a)


def test_worked_example_single_vector():
    check_cond_exp_example(np.random.default_rng(0))


def test_worked_example_two_vectors():
    check_cond_exp_example(np.random.default_rng(1))


def test_worked_example_later_coordinates_untouched():
    cov = coupled_cov()
    rng = np.random.default_rng(2)
    f = rng.standard_normal((3, 4))
    e3 = np.array([0.0, 0.0, 1.0, 0.0])
    out = chaos.cond_exp_monomial(f, [e3], cov)
    assert np.allclose(out, core.bullet(f[:, 2], e3), atol=1e-12, rtol=0)


def test_full_span_projection_is_identity():
    rng = np.random.default_rng(3)
    cov = random_cov(rng, D)
    f = rng.standard_normal((M, D))
    out = chaos.cond_exp_monomial(f, list(np.eye(D)), cov)
    assert np.allclose(out, f, atol=1e-12, rtol=0)


def test_cond_exp_monomial_degenerate_span_rejected():
    cov = core.Covariance.identity(D)
    with pytest.raises(ValueError):
        chaos.cond_exp_monomial(np.ones((M, D)), [np.zeros(D)], cov)


def test_degree_one_additivity():
    check_degree_one_additivity(np.random.default_rng(4))


def test_span_invariance():
    check_span_invariance(np.random.default_rng(5))


def test_cond_exp_monomial_matches_gaussian_regression_oracle():
    # independent route: regress <f, W> onto the generating observables
    # h_i bullet x_k by solving against their weighted Gram matrix
    rng = np.random.default_rng(42)
    for _ in range(10):
        m, d, q = 3, 5, 2
        cov = random_cov(rng, d)
        f = rng.standard_normal((m, d))
        xs = [rng.standard_normal(d) for _ in range(q)]
        obs = [core.bullet(np.eye(m)[i], x) for x in xs for i in range(m)]
        c = np.array([core.inner_a(f, o, cov) for o in obs])
        gram = np.array([[core.inner_a(a, b, cov) for b in obs] for a in obs])
        coef = np.linalg.solve(gram, c)
        kernel = sum(w * o for w, o in zip(coef, obs))
        assert np.allclose(chaos.cond_exp_monomial(f, xs, cov), kernel, atol=1e-12, rtol=0)


def test_conditioning_set_from_vectors_is_orthonormal():
    rng = np.random.default_rng(6)
    cov = random_cov(rng, D)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((3, M, D))), cov)
    cond.validate(cov)
    assert len(cond.basis) == 3


def test_conditioning_set_basis_is_one_read_only_array():
    vectors = np.random.default_rng(31).standard_normal((3, M, D))
    sets = [chaos.ConditioningSet(basis=b) for b in (tuple(vectors), list(vectors), vectors)]
    for cond in sets:
        assert cond.basis.shape == (3, M, D) and not cond.basis.flags.writeable
        assert cond.basis.tobytes() == vectors.tobytes()
    assert sets[2].basis is not vectors and vectors.flags.writeable
    with pytest.raises(ValueError, match="must be non-empty"):
        chaos.ConditioningSet(basis=())
    with pytest.raises(ValueError, match="basis is not a numeric array"):
        chaos.ConditioningSet(basis=(vectors[0], vectors[1, :, :2]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="basis contains non-finite entries"):
            chaos.ConditioningSet(basis=np.where(vectors > 1.0, bad, vectors))


NOT_ORTHONORMAL = r"^conditioning set is not A-orthonormal: worst pair \(0, 0\)_A = 4\.000e\+00$"


def _doubled_unit_vector():
    phi = np.zeros((M, D))
    phi[0, 0] = 2.0
    return phi


def test_cond_exp_chaos_rejects_non_orthonormal_set():
    cov = core.Covariance.identity(D)
    phi = _doubled_unit_vector()
    cond = chaos.ConditioningSet(basis=(phi,))
    expansion = chaos.ChaosExpansion(kernels={1: wick.SymKernel.rank_one(phi, 1)})
    with pytest.raises(core.InputError, match=NOT_ORTHONORMAL) as exc:
        chaos.cond_exp_chaos(expansion, cond, cov)
    assert exc.value.argument == "conditioning"


def test_mc_cond_check_rejects_non_orthonormal_set():
    cov = core.Covariance.identity(D)
    phi = _doubled_unit_vector()
    expansion = chaos.ChaosExpansion(kernels={1: wick.SymKernel.rank_one(phi, 1)})
    batch = measure.sample_mu_a(cov, DIMS, 10, seed=3)
    with pytest.raises(core.InputError, match=NOT_ORTHONORMAL) as exc:
        chaos.mc_cond_check(
            expansion, chaos.ConditioningSet(basis=(phi,)), cov, lambda c: c[:, 0], batch,
        )
    assert exc.value.argument == "conditioning"


def test_project_onto_set_stack_matches_single_vectors():
    rng = np.random.default_rng(21)
    cov = random_cov(rng, D)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    stack = rng.standard_normal((4, M, D))
    loop = [sum(core.inner_a(phi, psi, cov) * psi for psi in cond.basis) for phi in stack]
    assert np.allclose(chaos.project_onto_set(stack, cond, cov), loop, rtol=1e-12, atol=1e-12)


def test_project_onto_set_refuses_a_single_vector():
    rng = np.random.default_rng(21)
    cov = random_cov(rng, D)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    with pytest.raises(ValueError, match=r"phi must be a 3-D array, got shape \(2, 3\)"):
        chaos.project_onto_set(rng.standard_normal((M, D)), cond, cov)


def test_cond_exp_chaos_fixes_kernels_in_span():
    rng = np.random.default_rng(7)
    cov = random_cov(rng, D)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    psi = 1.3 * cond.basis[0] - 0.4 * cond.basis[1]
    expansion = chaos.ChaosExpansion(kernels={2: wick.SymKernel.rank_one(psi, 2)})
    out = chaos.cond_exp_chaos(expansion, cond, cov)
    assert np.allclose(out.kernels[2].terms[0].base, psi, atol=1e-12, rtol=0)


def test_cond_exp_chaos_annihilates_orthogonal_kernels():
    cov = core.Covariance.identity(D)
    psi = np.zeros((M, D))
    psi[0, 0] = 1.0
    phi = np.zeros((M, D))
    phi[1, 2] = 1.0
    cond = chaos.ConditioningSet(basis=(psi,))
    expansion = chaos.ChaosExpansion(kernels={3: wick.SymKernel.rank_one(phi, 3)})
    out = chaos.cond_exp_chaos(expansion, cond, cov)
    assert not out.kernels[3].terms[0].base.any()
    # evaluation of the projected functional vanishes identically
    w = np.random.default_rng(8).standard_normal((M, D))
    assert chaos.eval_expansion(out, cov, w) == 0.0


def test_cond_exp_chaos_keeps_constants():
    rng = np.random.default_rng(9)
    cov = random_cov(rng, D)
    cond = chaos.ConditioningSet.from_vectors([rng.standard_normal((M, D))], cov)
    expansion = chaos.ChaosExpansion(kernels={0: wick.SymKernel.constant(4.2, M, D)})
    out = chaos.cond_exp_chaos(expansion, cond, cov)
    assert out.kernels[0].terms[0].coeff == 4.2


def test_cond_exp_chaos_idempotent_and_contractive():
    check_cond_exp_idempotence(np.random.default_rng(10))


def test_chaos_and_monomial_projections_agree_for_degree_one():
    check_kernelwise_projection(np.random.default_rng(11))


def test_eval_expansion_low_degrees():
    rng = np.random.default_rng(12)
    cov = random_cov(rng, D)
    w = rng.standard_normal((M, D))
    const = chaos.ChaosExpansion(kernels={0: wick.SymKernel.constant(2.5, M, D)})
    assert chaos.eval_expansion(const, cov, w) == 2.5
    phi = rng.standard_normal((M, D))
    linear = chaos.ChaosExpansion(kernels={1: wick.SymKernel.rank_one(phi, 1)})
    assert chaos.eval_expansion(linear, cov, w) == pytest.approx(
        core.inner_l2(phi, w), rel=1e-12
    )


# term counts of degrees 0..6: degree 2 is an empty kernel and degree 5
# is absent, so the degree-sorted prefix skips both
_MIXED_COUNTS = {0: 2, 1: 3, 2: 0, 3: 4, 4: 1, 6: 2}
_MIXED_ZERO = {1: (0,), 3: (1, 2), 6: (1,)}  # zero-norm terms
# rows of samples per block for the 10 terms of degree >= 1
_ROWS_MIXED = wick._BLOCK_VALUES // 10


def _mixed_expansion(rng):
    return chaos.ChaosExpansion(
        kernels={
            n: _kernel(rng, n, count, _MIXED_ZERO.get(n, ()))
            for n, count in _MIXED_COUNTS.items()
        }
    )


def _assert_matches_per_degree(expansion, cov, w):
    got = chaos.eval_expansion(expansion, cov, w)
    ref = magnitude = 0.0
    for kernel in expansion.kernels.values():
        value, size = per_term_wick_eval(kernel, cov, w)
        ref, magnitude = ref + value, magnitude + size
    if np.ndim(w) == 2:
        assert isinstance(got, float)
    assert np.shape(got) == np.shape(ref)
    assert np.all(np.abs(got - ref) <= 1e-10 * magnitude)


@pytest.mark.parametrize(
    "shape",
    [
        (),  # one sample
        (3, 4),  # two leading axes
        (2 * _ROWS_MIXED + 17,),  # more than one block, the last one short
    ],
)
def test_eval_expansion_matches_per_degree_sum(shape):
    rng = np.random.default_rng(28)
    cov = random_cov(rng, D)
    expansion = _mixed_expansion(rng)
    _assert_matches_per_degree(expansion, cov, rng.standard_normal(shape + (M, D)))


def test_eval_expansion_more_terms_than_block_values(monkeypatch):
    # 10 terms of degree >= 1 against a block of 4 values: one sample per block
    monkeypatch.setattr(wick, "_BLOCK_VALUES", 4)
    rng = np.random.default_rng(29)
    cov = random_cov(rng, D)
    _assert_matches_per_degree(_mixed_expansion(rng), cov, rng.standard_normal((5, M, D)))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_eval_expansion_rejects_a_kernel_of_other_dims(n):
    rng = np.random.default_rng(30)
    cov = random_cov(rng, D)
    kernels = {k: _kernel(rng, k, 2) for k in range(4)}
    kernels[n] = _kernel(rng, n, 2, dims=(M + 1, D))
    with pytest.raises(ValueError, match="do not match sample dims"):
        chaos.eval_expansion(
            chaos.ChaosExpansion(kernels=kernels), cov, rng.standard_normal((M, D))
        )


def test_eval_expansion_rejects_a_non_finite_base():
    rng = np.random.default_rng(31)
    cov = random_cov(rng, D)
    base = rng.standard_normal((M, D))
    base[0, 2] = np.nan
    # refused where the term is built, so no such expansion reaches evaluation
    with pytest.raises(ValueError, match="^base contains non-finite"):
        expansion = chaos.ChaosExpansion(
            kernels={1: _kernel(rng, 1, 2), 3: wick.SymKernel.rank_one(base, 3)}
        )
        chaos.eval_expansion(expansion, cov, rng.standard_normal((4, M, D)))


def test_eval_expansion_peak_memory_does_not_grow_with_samples():
    rng = np.random.default_rng(32)
    cov = random_cov(rng, D)
    expansion = chaos.ChaosExpansion(kernels={n: _kernel(rng, n, 32) for n in range(1, 7)})
    w = rng.standard_normal((20_000, M, D))
    tracemalloc.start()
    try:
        out = chaos.eval_expansion(expansion, cov, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the same bound as wick_eval's: the output plus a few blocks of values
    assert peak <= out.nbytes + 8 * wick._BLOCK_VALUES * 8


def test_mc_cond_check_residual_is_f_minus_its_conditional_expectation():
    rng = np.random.default_rng(33)
    cov = random_cov(rng, D)
    batch = measure.sample_mu_a(cov, DIMS, 3_000, seed=34)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    expansion = _mixed_expansion(rng)
    est = chaos.mc_cond_check(expansion, cond, cov, lambda c: c[:, 1], batch)
    conditioned = chaos.cond_exp_chaos(expansion, cond, cov)
    f_vals = chaos.eval_expansion(expansion, cov, batch.samples)
    p_vals = chaos.eval_expansion(conditioned, cov, batch.samples)
    gvals = measure.pairings(cond.basis, batch)[:, 1]
    scale = np.mean(np.abs(f_vals * gvals)) + np.mean(np.abs(p_vals * gvals))
    assert abs(est.value - np.mean((f_vals - p_vals) * gvals)) <= 1e-12 * scale


def test_expansion_mean_is_constant_coefficient():
    check_expansion_mean(np.random.default_rng(13), 100_000, 21)


def test_chaos_inner_structure():
    check_chaos_inner_structure(np.random.default_rng(14), 100_000, 20)


def test_chaos_inner_matches_monte_carlo():
    check_chaos_inner_structure(np.random.default_rng(15), 100_000, 22)


def test_mc_cond_check_degree_one_with_unit_test_function():
    rng = np.random.default_rng(16)
    cov = random_cov(rng, D)
    batch = measure.sample_mu_a(cov, DIMS, 100_000, seed=23)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    expansion = chaos.ChaosExpansion(
        kernels={1: wick.SymKernel.rank_one(rng.standard_normal((M, D)), 1)}
    )
    est = chaos.mc_cond_check(expansion, cond, cov, lambda c: np.ones(c.shape[0]), batch)
    assert abs(est.value) <= 4.0 * est.std_error + 1e-12


def test_mc_cond_check_measurable_expansion_has_zero_residual():
    check_conditional_residuals(np.random.default_rng(17), 5_000, 24)


def test_mc_cond_check_quadratic_expansions():
    rng = np.random.default_rng(18)
    cov = random_cov(rng, D)
    batch = measure.sample_mu_a(cov, DIMS, 100_000, seed=25)
    cond = chaos.ConditioningSet.from_vectors(list(rng.standard_normal((2, M, D))), cov)
    for _ in range(5):
        expansion = random_expansion(rng)
        est = chaos.mc_cond_check(
            expansion, cond, cov, lambda c: c[:, 0] ** 2 - c[:, 0] * c[:, 1], batch
        )
        assert abs(est.value) <= 4.0 * est.std_error + 1e-12


@pytest.mark.parametrize(
    "g, shape",
    [
        (lambda c: c, r"\(200, 1\)"),
        (lambda c: 1.0, r"\(\)"),
        (lambda row: row[0], r"\(1,\)"),
    ],
    ids=["the coordinates", "one value", "a per-sample function"],
)
def test_mc_cond_check_refuses_g_of_the_wrong_shape(g, shape):
    rng = np.random.default_rng(19)
    cov = random_cov(rng, D)
    batch = measure.sample_mu_a(cov, DIMS, 200, seed=26)
    cond = chaos.ConditioningSet.from_vectors([rng.standard_normal((M, D))], cov)
    with pytest.raises(ValueError, match=r"g must return one value per sample, got shape " + shape):
        chaos.mc_cond_check(random_expansion(rng), cond, cov, g, batch)


@pytest.mark.parametrize("basis", [(np.ones(3),), np.ones((2, 3)), np.ones((1, 2, 3, 1))])
def test_conditioning_set_requires_a_stack_of_sequence_vectors(basis):
    with pytest.raises(ValueError, match=r"basis must be a 3-D array"):
        chaos.ConditioningSet(basis=basis)
