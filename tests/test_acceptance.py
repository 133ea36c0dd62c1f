"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
inline) and enforces the stated numeric tolerance and runtime budget.
"""

import time
from contextlib import contextmanager
from math import comb

import numpy as np

from seqgauss import chaos, closure, core, hermite, measure, wick
from seqgauss.verify import (
    check_cond_exp_example,
    check_divergence_diagnostic,
    check_gram_schmidt_example,
    check_hermite_orthogonality,
    check_monomials_from_wick,
    check_wick_orthogonality,
    random_cov,
    random_expansion,
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
        for _ in range(100):
            n = int(rng.integers(0, 11))
            x, y = rng.uniform(-3.0, 3.0, size=2)
            lhs = hermite.hermite_prob(n, float(x))
            rhs = 2.0 ** (-n / 2) * hermite.hermite_phys(n, float(x) / np.sqrt(2.0))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
            lhs2 = hermite.hermite_phys(n, float(x))
            rhs2 = 2.0 ** (n / 2) * hermite.hermite_prob(n, np.sqrt(2.0) * float(x))
            assert abs(lhs2 - rhs2) <= 1e-9 * max(1.0, abs(lhs2), abs(rhs2))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            alpha, beta = float(np.cos(theta)), float(np.sin(theta))
            bin_lhs = hermite.hermite_prob(n, alpha * x + beta * y)
            bin_rhs = hermite.hermite_binomial_sum(n, alpha, beta, float(x), float(y))
            scale = max(
                1.0,
                sum(
                    abs(comb(n, k) * alpha**k * beta ** (n - k))
                    * abs(hermite.hermite_prob(k, float(x)))
                    * abs(hermite.hermite_prob(n - k, float(y)))
                    for k in range(n + 1)
                ),
            )
            assert abs(bin_lhs - bin_rhs) <= 1e-9 * scale


def test_criterion_2_wick_equivalence():
    with criterion("2 Wick recursion/closed-form equivalence", 10.0):
        rng = np.random.default_rng(202)
        m, d = 2, 3
        for _ in range(50):
            n = int(rng.integers(0, 5))
            cov = random_cov(rng, d)
            w = rng.standard_normal((m, d))
            rec = wick.wick_dense_tensor(n, cov, w)
            closed = wick.wick_dense_closed_form(n, cov, w)
            assert np.abs(rec - closed).max() <= 1e-10 * max(1.0, np.abs(closed).max())
            if n >= 1:
                kernel = wick.polarize(list(rng.standard_normal((n, m, d))))
                dense = wick.dense_from_kernel(kernel)
                a = wick.wick_eval(kernel, cov, w)
                b = wick.wick_eval_dense(n, cov, w, dense)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        # inverse identity rebuilds plain monomials
        check_monomials_from_wick(rng)


def test_criterion_3_exact_wick_orthogonality():
    with criterion("3 exact Wick orthogonality via pair partitions", 10.0):
        check_wick_orthogonality(np.random.default_rng(303))


def test_criterion_4_measure_suite():
    with criterion("4 Monte Carlo measure suite", 30.0):
        rng = np.random.default_rng(404)
        m, d = 2, 3
        dims = core.TruncationDims(m, d)
        count = 100_000
        cov = random_cov(rng, d)
        batch = measure.sample_mu_a(cov, dims, count, seed=4040)

        phi = 0.6 * rng.standard_normal((m, d))
        est = measure.char_function_mc(phi, batch)
        target = float(np.exp(-0.5 * core.inner_a(phi, phi, cov)))
        assert abs(est.value.real - target) < 4.0 * est.std_error.real

        basis = core.gram_schmidt(
            list(rng.standard_normal((3, m, d))), lambda f, g: core.inner_a(f, g, cov)
        )
        for size in (1, 2, 3):
            report = measure.pushforward_check(basis[:size], batch, cov)
            assert report.passed, report.failures

        for n in (2, 3, 4):
            phis = [0.8 * rng.standard_normal((m, d)) for _ in range(n)]
            prod = np.ones(count)
            for p in phis:
                prod = prod * measure.pairings(p, batch)
            mean = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(count)
            assert abs(mean - measure.isserlis_moment(phis, cov)) < 4.0 * se


def test_criterion_5_conditional_expectation():
    with criterion("5 conditional expectation", 60.0):
        rng = np.random.default_rng(505)
        # worked example with the coupled two-by-two block
        check_cond_exp_example(rng)
        check_gram_schmidt_example()

        m, d = 2, 3
        for _ in range(100):
            cov = random_cov(rng, d)
            expansion = random_expansion(rng, m, d)
            cond = chaos.ConditioningSet.from_vectors(
                list(rng.standard_normal((2, m, d))), cov
            )
            once = chaos.cond_exp_chaos(expansion, cond, cov)
            twice = chaos.cond_exp_chaos(once, cond, cov)
            for n in once.degrees:
                for t1, t2 in zip(once.kernels[n].terms, twice.kernels[n].terms):
                    scale = max(1.0, float(np.abs(t1.base).max()))
                    assert np.abs(t1.base - t2.base).max() <= 1e-10 * scale
            assert chaos.chaos_norm(once, cov) <= chaos.chaos_norm(expansion, cov) + 1e-10

            f = rng.standard_normal((m, d))
            xs = list(rng.standard_normal((2, d)))
            mix = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            ys = [
                mix[0, 0] * xs[0] + mix[0, 1] * xs[1],
                mix[1, 0] * xs[0] + mix[1, 1] * xs[1],
            ]
            assert np.abs(
                chaos.cond_exp_monomial(f, xs, cov) - chaos.cond_exp_monomial(f, ys, cov)
            ).max() <= 1e-10
            ortho = core.gram_schmidt_a(xs, cov)
            joint = chaos.cond_exp_monomial(f, ortho, cov)
            separate = sum(chaos.cond_exp_monomial(f, [x], cov) for x in ortho)
            assert np.abs(joint - separate).max() <= 1e-10

        dims = core.TruncationDims(m, d)
        count = 100_000
        cov = random_cov(rng, d)
        batch = measure.sample_mu_a(cov, dims, count, seed=5050)
        cond = chaos.ConditioningSet.from_vectors(
            list(rng.standard_normal((2, m, d))), cov
        )
        tests = [
            lambda c: np.ones(c.shape[0]),
            lambda c: c[:, 0],
            lambda c: c[:, 0] * c[:, 1],
            lambda c: c[:, 0] ** 2 - 1.0,
        ]
        for i in range(20):
            expansion = random_expansion(rng, m, d)
            est = chaos.mc_cond_check(expansion, cond, cov, tests[i % 4], batch)
            assert abs(est.value) <= 4.0 * est.std_error + 1e-12


def test_criterion_6_block_projection():
    with criterion("6 block projection algebra", 30.0):
        rng = np.random.default_rng(606)
        for _ in range(20):
            d = int(rng.integers(2, 13))
            cov = random_cov(rng, d)
            a = cov.matrix
            for cut in range(1, d):
                blocks = core.block_projection(cov, cut)
                p, pt = blocks.p, blocks.pt
                assert np.abs(p @ p - p).max() <= 1e-10
                assert np.abs(a @ p - pt @ a).max() <= 1e-10
                x = rng.standard_normal(d)
                npx = np.sqrt(max(cov.inner(p @ x, p @ x), 0.0))
                nx = np.sqrt(cov.inner(x, x))
                assert npx <= nx * (1.0 + 1e-10)
                phi = rng.standard_normal((2, d))
                omega = rng.standard_normal((2, d))
                lhs = measure.pairing(core.apply_matrix(p, phi), omega)
                rhs = measure.pairing(phi, core.apply_matrix(pt, omega))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_criterion_7_closure_solver():
    with criterion("7 moment-closure solver", 60.0):
        coeffs = closure.build_moment_system(3)
        assert coeffs.b[0, 1] == 1.0
        assert coeffs.b[1, 0] == 1.0 / 3.0
        assert coeffs.b[1, 2] == 2.0 / 3.0

        params = closure.MaterialParams(
            a=0.0, b=1.0, cells=100, sigma=0.2, kappa=0.1, source=0.05
        )
        x = params.x_centers
        order = 3
        values = np.zeros((100, order + 1))
        values[:, 0] = np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
        initial = closure.MomentGrid(t=0.0, values=values)
        dt = 0.004
        pn = closure.solve_closure(
            initial, params, closure.ClosureSpec(kind="pn"), t_final=200 * dt, dt=dt
        )
        op = closure.solve_closure(
            initial,
            params,
            closure.ClosureSpec(kind="optimal_prediction", correlation=np.eye(order + 2)),
            t_final=200 * dt,
            dt=dt,
        )
        for g1, g2 in zip(pn, op):
            assert np.abs(g1.values - g2.values).max() <= 1e-12

        free = closure.MaterialParams(
            a=0.0, b=1.0, cells=100, sigma=0.0, kappa=0.0, source=0.0
        )
        state = initial
        sums = state.values.sum(axis=0)
        spec = closure.ClosureSpec(kind="pn")
        for _ in range(50):
            state = closure.step(state, coeffs, free, spec, dt=dt)
            assert np.abs(state.values.sum(axis=0) - sums).max() <= 1e-12

        finals = {}
        for run_order in (3, 5, 7):
            run_values = np.zeros((100, run_order + 1))
            run_values[:, 0] = values[:, 0]
            run = closure.solve_closure(
                closure.MomentGrid(t=0.0, values=run_values),
                free,
                closure.ClosureSpec(kind="pn"),
                t_final=0.4,
                dt=dt,
                output_stride=1_000_000,
            )
            finals[run_order] = run[-1].values
        d_35 = np.linalg.norm(finals[3][:, :4] - finals[5][:, :4])
        d_57 = np.linalg.norm(finals[5][:, :4] - finals[7][:, :4])
        assert d_57 < d_35


def test_criterion_8_psd_appendix():
    with criterion("8 Schur products and entrywise exponentials", 30.0):
        rng = np.random.default_rng(808)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            g1 = rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n))
            m1, m2 = g1 @ g1.T, g2 @ g2.T
            assert core.psd_check(core.hadamard(m1, m2), tol=1e-9)
            assert core.psd_check(np.exp(m1), tol=1e-9)
            assert core.psd_check(np.exp(m2), tol=1e-9)


def test_criterion_9_divergence_diagnostic():
    with criterion("9 unbounded contraction diagnostic", 30.0):
        check_divergence_diagnostic()
