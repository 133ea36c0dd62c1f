"""Randomized invariant suites behind the ``verify`` CLI command.

Each suite returns a list of named check results; a check that raises is
reported as failed with the exception text.  Seeds make every suite
deterministic, every check holds to the tolerance written in it, and
``samples`` sizes the Monte Carlo suites.

Every check is a module-level ``check_*`` function that the suites and the
test suite share.  ``_CHECKS`` at the end of the module is the one list of
checks: a row per check names its suite, its display name, the function
and what the function takes, and a suite runs its rows in table order, all
drawing from one generator seeded with ``seed``.  A check that draws takes
that generator first; a Monte Carlo check also takes the sample count and
the seed of its batch (``seed + k``, with k given in its row).  Adding a
check is one ``check_*`` function plus one row.  Every numeric comparison
goes through ``_assert_close``, which fails a NaN error or tolerance.

``run_suite("all")`` runs the ``FORKED_SUITES`` in a forked worker where
it can; the suites share no state, so the results are those of the six
suites run in one process (see ``run_suite``).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import chaos as chaos_mod
from . import closure as closure_mod
from . import _fork, core, hermite, measure, wick

# the check_* names are added from the table of checks at the end
__all__ = [
    "CheckResult", "SUITE_NAMES", "FORKED_SUITES", "run_suite",
    "random_cov", "random_expansion", "wick_pair_expectation",
]

SUITE_NAMES = ("core", "hermite", "wick", "measure", "chaos", "closure")
# the suites run_suite("all") runs in its forked worker, about 43 % of the
# checks' time; the benchmark traces the other four in the calling process
FORKED_SUITES = ("chaos", "hermite")

DEFAULT_SAMPLES = 100_000

# shape (m, d) of the sequence vectors drawn by the wick, measure and chaos checks
_M, _D = 2, 3
_DIMS = core.TruncationDims(_M, _D)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _assert_close(value, target, tol, label: str) -> None:
    """Raise unless the largest absolute difference is at most ``tol``.

    Written as ``not err <= tol`` so that a NaN error or a NaN tolerance
    fails instead of passing.
    """
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(target))))
    if not err <= tol:
        raise AssertionError(f"{label}: error {err:.3e} exceeds {tol:.1e}")


def random_cov(rng: np.random.Generator, d: int) -> core.Covariance:
    """Random well-conditioned covariance ``G G^T / d + I / 2``."""
    g = rng.standard_normal((d, d))
    return core.Covariance(g @ g.T / d + 0.5 * np.eye(d))


# ---------------------------------------------------------------------------
# core


def check_bilinear_identities(rng: np.random.Generator) -> None:
    """Embedding/contraction and (weighted) rank-one inner-product identities
    on 50 random draws with m, d in 1..8."""
    for _ in range(50):
        m, d = rng.integers(1, 9, size=2)
        h, g = rng.standard_normal(m), rng.standard_normal(m)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        f = rng.standard_normal((m, d))
        cov = random_cov(rng, d)
        hx, gy, xy, hg = core.bullet(h, x), core.bullet(g, y), x @ y, h @ g
        fhx, cxy = core.inner_a(f, hx, cov), cov.inner(x, y)
        _assert_close(
            core.bracket(hx, y), float(xy) * h,
            1e-12 * max(1.0, float(np.abs(xy) * np.abs(h).max())),
            "bracket(bullet(h,x),y) = (x,y) h",
        )
        _assert_close(
            core.inner_l2(hx, gy), float(hg) * float(xy),
            1e-12 * max(1.0, abs(float(hg) * float(xy))),
            "rank-one inner product factorizes",
        )
        _assert_close(
            fhx, float(core.bracket(f, cov.apply(x)) @ h), 1e-12 * max(1.0, abs(fhx)),
            "weighted pairing against a rank-one embedding",
        )
        _assert_close(
            core.inner_a(hx, gy, cov), float(hg) * cxy, 1e-12 * max(1.0, abs(float(hg) * cxy)),
            "weighted rank-one inner product factorizes",
        )


def check_norm_identities(rng: np.random.Generator) -> None:
    """||h . x|| = ||h|| ||x|| and ||[f, x]|| <= ||f|| ||x|| on 50 draws."""
    for _ in range(50):
        m, d = rng.integers(1, 9, size=2)
        h = rng.standard_normal(m)
        x = rng.standard_normal(d)
        f = rng.standard_normal((m, d))
        lhs = np.linalg.norm(core.bullet(h, x))
        rhs = np.linalg.norm(h) * np.linalg.norm(x)
        _assert_close(lhs, rhs, 1e-12 * max(1.0, rhs), "embedding norm")
        if np.linalg.norm(core.bracket(f, x)) > np.linalg.norm(f) * np.linalg.norm(x) * (1 + 1e-12):
            raise AssertionError("contraction exceeds Cauchy-Schwarz bound")


def check_parseval(rng: np.random.Generator) -> None:
    """sum_k ||[f, e_k]||^2 = ||f||^2 over a random orthonormal basis, 20 draws."""
    for _ in range(20):
        m, d = rng.integers(2, 9, size=2)
        f = rng.standard_normal((m, d))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        total = sum(float(np.linalg.norm(core.bracket(f, basis[:, k])) ** 2) for k in range(d))
        _assert_close(
            total, float(np.linalg.norm(f) ** 2), 1e-10,
            "squared norms against an orthonormal basis",
        )


def check_operator_extension(rng: np.random.Generator) -> None:
    """The extension of A to sequence vectors is basis independent and
    commutes with the embedding, 20 draws."""
    for _ in range(20):
        m, d = rng.integers(2, 9, size=2)
        f = rng.standard_normal((m, d))
        h = rng.standard_normal(m)
        x = rng.standard_normal(d)
        cov = random_cov(rng, d)
        direct = core.apply_extended(cov, f)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        via_basis = sum(
            core.bullet(core.bracket(f, basis[:, k]), cov.apply(basis[:, k]))
            for k in range(d)
        )
        _assert_close(via_basis, direct, 1e-10, "extension is basis independent")
        _assert_close(
            core.apply_extended(cov, core.bullet(h, x)),
            core.bullet(h, cov.apply(x)),
            1e-12,
            "extension and embedding commute",
        )


def check_operator_norm_transfer(rng: np.random.Generator) -> None:
    """The extension of A to sequence vectors, assembled from its action on
    the m*d unit sequence vectors, is exactly I_m (x) A, and its spectral
    norm is that of A on R^d; 5 draws."""
    for _ in range(5):
        m, d = int(rng.integers(2, 6)), int(rng.integers(4, 13))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.linspace(0.5, 2.0, d)
        a = q @ np.diag(eigs) @ q.T
        cov = core.Covariance(0.5 * (a + a.T))
        units = np.eye(m * d).reshape(m * d, m, d)
        extension = np.stack([core.apply_extended(cov, e).ravel() for e in units], axis=1)
        _assert_close(extension, np.kron(np.eye(m), cov.matrix), 0.0, "extension is I_m (x) A")
        _assert_close(
            np.linalg.norm(extension, 2), np.linalg.norm(cov.matrix, 2), 1e-8,
            "matched spectral norms",
        )


def check_block_projection_algebra(rng: np.random.Generator) -> None:
    """The weighted block projection is idempotent, A-self-adjoint, fixes its
    range, contracts the weighted norm and leaves an orthogonal residual;
    20 draws of d in 3..12 and one cut each."""
    for _ in range(20):
        d = int(rng.integers(3, 13))
        cov = random_cov(rng, d)
        cut = int(rng.integers(1, d))
        blocks = core.block_projection(cov, cut)
        p, pt = blocks.p, blocks.pt
        _assert_close(p @ p, p, 1e-10, "projection is idempotent")
        _assert_close(
            cov.matrix @ p, pt @ cov.matrix, 1e-10,
            "weighted adjoint relation",
        )
        x = rng.standard_normal(d)
        y = np.zeros(d)
        y[:cut] = rng.standard_normal(cut)
        _assert_close(
            cov.inner(x - p @ x, y), 0.0, 1e-10,
            "projection residual is orthogonal to the range",
        )
        nx = np.sqrt(cov.inner(x, x))
        npx = np.sqrt(max(cov.inner(p @ x, p @ x), 0.0))
        if npx > nx * (1 + 1e-12):
            raise AssertionError("projection expands the weighted norm")
        range_basis = np.eye(d)[:, :cut]
        _assert_close(p @ range_basis, range_basis, 1e-14, "projection fixes its range")


def check_block_projection_example() -> None:
    """The block projection of the worked 3-by-3 example at cut 1."""
    cov = core.Covariance([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    blocks = core.block_projection(cov, 1)
    expected = np.zeros((3, 3))
    expected[0] = [1.0, 0.5, 0.0]
    _assert_close(blocks.p, expected, 1e-14, "worked 3x3 projection")
    _assert_close(blocks.p @ blocks.p, blocks.p, 1e-12, "worked idempotence")
    _assert_close(
        cov.matrix @ blocks.p, blocks.pt @ cov.matrix, 1e-12,
        "worked adjoint relation",
    )


def check_gram_schmidt_example() -> None:
    """Weighted Gram-Schmidt of e1, e2 under A = [[1, .5], [.5, 1]] gives an
    A-orthonormal pair, and a dependent pair is reduced to one vector."""
    cov = core.Covariance([[1.0, 0.5], [0.5, 1.0]])
    basis = core.gram_schmidt_a([np.array([1.0, 0.0]), np.array([0.0, 1.0])], cov)
    _assert_close(basis[0], [1.0, 0.0], 1e-15, "first vector kept")
    target = np.sqrt(4.0 / 3.0) * np.array([-0.5, 1.0])
    _assert_close(basis[1], target, 1e-12, "second orthonormalized vector")
    _assert_close(
        [cov.inner(basis[0], basis[1]), cov.inner(basis[1], basis[1])], [0.0, 1.0],
        1e-14, "weighted orthonormality",
    )
    dep = core.gram_schmidt_a([np.array([1.0, 2.0]), np.array([2.0, 4.0])], cov)
    if len(dep) != 1:
        raise AssertionError(f"dependent input not dropped: got {len(dep)} vectors")


def check_divergence_diagnostic() -> str:
    """Under A = diag(1/k^2), d = 2048, the contraction of f = (1, ..., 1, 0, ...)
    against x = 1/k grows like the harmonic sum while ||f||_A stays below
    pi / sqrt(6); the weighted Cauchy increments are exact tail sums."""
    d = 2048
    k = np.arange(1, d + 1)
    cov = core.Covariance(1.0 / k**2)
    h = np.ones(1)
    x = 1.0 / k
    f = np.zeros((1, d))
    for n_lo, n_hi in ((4, 16), (16, 256)):
        f_lo = np.zeros((1, d))
        f_lo[0, :n_lo] = 1.0
        f_hi = np.zeros((1, d))
        f_hi[0, :n_hi] = 1.0
        diff2 = core.inner_a(f_hi - f_lo, f_hi - f_lo, cov)
        _assert_close(
            diff2,
            float(np.sum(1.0 / k[n_lo:n_hi] ** 2)),
            1e-10,
            "weighted Cauchy increments",
        )
    bound = np.pi / np.sqrt(6.0) + 1e-6
    for n in (16, 256, 2048):
        f[:, :] = 0.0
        f[0, :n] = h[0]
        growth = float(np.linalg.norm(core.bracket(f, x)))
        harmonic = float(np.sum(1.0 / k[:n]))
        _assert_close(growth, harmonic, 1e-9, "harmonic growth")
        if core.norm_a(f, cov) > bound:
            raise AssertionError("weighted norm escaped its bound")
    return "contraction diverges while the weighted norm stays bounded"


def check_psd_appendix(rng: np.random.Generator) -> None:
    """Schur products and entrywise exponential series of Gram matrices stay
    PSD (20 draws), and an indefinite matrix fails the PSD check."""
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g1 = rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n))
        m1, m2 = g1 @ g1.T, g2 @ g2.T
        if not core.psd_check(core.hadamard(m1, m2)):
            raise AssertionError("Schur product lost positive semidefiniteness")
        scale = np.abs(m1).max() or 1.0
        scaled = m1 / scale
        series = np.zeros_like(scaled)
        power = np.ones_like(scaled)
        for j in range(30):
            series = series + power / factorial(j)
            power = core.hadamard(power, scaled)
        if not core.psd_check(series):
            raise AssertionError("entrywise exponential series lost PSD")
        _assert_close(core.hadamard(m1, np.ones_like(m1)), m1, 0.0, "ones identity")
    if core.psd_check(np.array([[1.0, 2.0], [2.0, 1.0]])):
        raise AssertionError("indefinite matrix passed the PSD check")


# ---------------------------------------------------------------------------
# hermite


def check_hermite_orthogonality() -> None:
    """Gauss-Hermite Gram matrix of H_0, ..., H_10 equals diag(n!)."""
    nmax = 10
    gram = np.empty((nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            gram[n, m] = hermite.gh_expectation(
                lambda t: hermite.hermite_prob(n, t) * hermite.hermite_prob(m, t)
            )
    target = np.diag([factorial(n) for n in range(nmax + 1)])
    _assert_close(gram, target, 1e-8, "quadrature Gram matrix")


def check_recurrence_vs_sum(rng: np.random.Generator) -> None:
    """The three-term recurrence equals the alternating sum for n = 0..15 at
    8 points each in [-5, 5]."""
    for n in range(16):
        for x in rng.uniform(-5.0, 5.0, size=8):
            a = hermite.hermite_prob(n, float(x))
            b = hermite.hermite_prob_sum(n, float(x))
            scale = max(1.0, abs(a), abs(b))
            _assert_close(a, b, 1e-9 * scale, f"n={n}, x={x}")


def check_convention_relations(rng: np.random.Generator) -> None:
    """He_n(x) = 2^(-n/2) H_n(x / sqrt 2) and H_n(x) = 2^(n/2) He_n(sqrt 2 x)
    for n = 0..12 at 8 points each in [-3, 3]."""
    for n in range(13):
        for x in rng.uniform(-3.0, 3.0, size=8):
            lhs = hermite.hermite_prob(n, float(x))
            rhs = 2.0 ** (-n / 2) * hermite.hermite_phys(n, float(x) / np.sqrt(2.0))
            scale = max(1.0, abs(lhs), abs(rhs))
            _assert_close(
                lhs, rhs, 1e-9 * scale,
                f"probabilists' from physicists', n={n}, x={x}",
            )
            lhs2 = hermite.hermite_phys(n, float(x))
            rhs2 = 2.0 ** (n / 2) * hermite.hermite_prob(n, np.sqrt(2.0) * float(x))
            scale2 = max(1.0, abs(lhs2), abs(rhs2))
            _assert_close(
                lhs2, rhs2, 1e-9 * scale2,
                f"physicists' from probabilists', n={n}, x={x}",
            )


def check_binomial_expansion(rng: np.random.Generator) -> None:
    """He_n(alpha x + beta y) equals its binomial expansion for alpha^2 +
    beta^2 = 1, on 100 draws of n in 0..10 and x, y in [-3, 3]."""
    for _ in range(100):
        n = int(rng.integers(0, 11))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        alpha, beta = np.cos(theta), np.sin(theta)
        x, y = rng.uniform(-3.0, 3.0, size=2)
        lhs = hermite.hermite_prob(n, alpha * x + beta * y)
        rhs = hermite.hermite_binomial_sum(n, alpha, beta, x, y)
        scale = max(1.0, abs(lhs), abs(rhs))
        _assert_close(lhs, rhs, 1e-9 * scale, f"n={n}, alpha={alpha}")


def check_quadrature_sanity() -> None:
    """The Gauss-Hermite rule has positive weights summing to one, second
    moment one, and zero mean for He_1..He_12."""
    rule = hermite.gaussian_quadrature()
    if (rule.weights <= 0).any():
        raise AssertionError("non-positive quadrature weight")
    _assert_close(rule.weights.sum(), 1.0, 1e-12, "weights sum to one")
    _assert_close(hermite.gh_expectation(lambda t: t * t), 1.0, 1e-10, "second moment")
    for n in range(1, 13):
        val = hermite.gh_expectation(lambda t: hermite.hermite_prob(n, t))
        _assert_close(val, 0.0, 1e-8, f"degree {n} mean")


# ---------------------------------------------------------------------------
# wick


def check_polarization(rng: np.random.Generator) -> None:
    """Polarized kernels of degree 2 and 3 expand to the symmetrized tensor
    product of their vectors, and a repeated vector to its plain power."""
    for n in (2, 3):
        xs = rng.standard_normal((n, _M, _D))
        dense = wick.dense_from_kernel(wick.polarize(xs))
        target = wick._symmetrize_array(wick._tensor_product([x.ravel() for x in xs]))
        _assert_close(dense.array, target, 1e-12, f"degree {n}")
    x = rng.standard_normal((_M, _D))
    dense = wick.dense_from_kernel(wick.polarize([x, x, x]))
    _assert_close(
        dense.array, wick._tensor_product([x.ravel()] * 3), 1e-12,
        "repeated vector power",
    )


def check_permutation_invariance(rng: np.random.Generator) -> None:
    """The dense expansion of a polarized degree-3 kernel is invariant under
    every axis permutation."""
    xs = rng.standard_normal((3, _M, _D))
    dense = wick.dense_from_kernel(wick.polarize(xs))
    for perm in itertools.permutations(range(3)):
        _assert_close(
            np.transpose(dense.array, perm), dense.array, 1e-12,
            f"permutation {perm}",
        )


def check_symmetrization(rng: np.random.Generator) -> None:
    """Symmetrizing a random 2-tensor averages it with its transpose and is
    idempotent."""
    arr = rng.standard_normal((_M * _D, _M * _D))
    t = wick.DenseTensor(degree=2, dims=(_M, _D), array=arr)
    sym1 = wick.symmetrize_dense(t)
    sym2 = wick.symmetrize_dense(sym1)
    _assert_close(sym2.array, sym1.array, 1e-15, "idempotent")
    _assert_close(sym1.array, 0.5 * (arr + arr.T), 1e-15, "pair average")


def check_low_degree_wick_values(rng: np.random.Generator) -> None:
    """:phi^0: = 1 exactly, :phi^1: = <phi, w> and :phi^2: = <phi, w>^2 - ||phi||_A^2."""
    cov = random_cov(rng, _D)
    phi = rng.standard_normal((_M, _D))
    w = rng.standard_normal((_M, _D))
    p = core.inner_l2(phi, w)
    na2 = core.inner_a(phi, phi, cov)
    _assert_close(
        wick.wick_eval(wick.SymKernel.constant(1.0, _M, _D), cov, w), 1.0, 0.0, "degree 0"
    )
    _assert_close(
        wick.wick_eval(wick.SymKernel.rank_one(phi, 1), cov, w), p,
        1e-12 * max(1.0, abs(p)), "degree 1",
    )
    _assert_close(
        wick.wick_eval(wick.SymKernel.rank_one(phi, 2), cov, w),
        p * p - na2,
        1e-10 * max(1.0, abs(p * p - na2)),
        "degree 2",
    )


def check_wick_recursion(rng: np.random.Generator) -> None:
    """The dense Wick recursion equals the closed form on 50 random
    (degree, covariance, point) draws at m, d = 2, 3."""
    for _ in range(50):
        n = int(rng.integers(0, 5))
        cov = random_cov(rng, _D)
        w = rng.standard_normal((_M, _D))
        rec = wick.wick_dense_tensor(n, cov, w)
        closed = wick.wick_dense_closed_form(n, cov, w)
        scale = max(1.0, float(np.abs(closed).max()))
        _assert_close(rec, closed, 1e-10 * scale, f"degree {n}")


def check_polarized_evaluation(rng: np.random.Generator) -> None:
    """Evaluating a polarized kernel term by term equals evaluating its dense
    expansion, on 25 draws of degree 1..4."""
    for _ in range(25):
        n = int(rng.integers(1, 5))
        cov = random_cov(rng, _D)
        w = rng.standard_normal((_M, _D))
        xs = rng.standard_normal((n, _M, _D))
        kernel = wick.polarize(xs)
        dense = wick.dense_from_kernel(kernel)
        a = wick.wick_eval(kernel, cov, w)
        b = wick.wick_eval_dense(n, cov, w, dense)
        _assert_close(a, b, 1e-10 * max(1.0, abs(a)), f"degree {n}")


def check_monomials_from_wick(rng: np.random.Generator) -> None:
    """The inverse Wick identity rebuilds <phi, w>^n for n = 0..4, one random
    covariance, point and phi per degree at m, d = 2, 3."""
    for n in range(5):
        cov = random_cov(rng, _D)
        w = rng.standard_normal((_M, _D))
        phi = rng.standard_normal((_M, _D))
        rebuilt = wick.monomial_dense_from_wick(n, cov, w)
        lhs = float(np.sum(rebuilt * wick._tensor_product([phi.ravel()] * n)))
        rhs = core.inner_l2(phi, w) ** n
        _assert_close(lhs, rhs, 1e-10 * max(1.0, abs(rhs)), f"degree {n}")


def check_kernel_inner_routes(rng: np.random.Generator) -> None:
    """The kernel inner product equals the dense contraction on 25 draws of
    degree 0..4, and (phi^n, psi^n)_A = (phi, psi)_A^n for n = 1..4."""
    for _ in range(25):
        n = int(rng.integers(0, 5))
        cov = random_cov(rng, _D)
        k1, k2 = (
            wick.polarize(rng.standard_normal((n, _M, _D))) if n
            else wick.SymKernel.constant(float(rng.standard_normal()), _M, _D)
            for _ in range(2)
        )
        a = wick.kernel_inner_a(k1, k2, cov)
        b = wick.dense_inner_a(wick.dense_from_kernel(k1), wick.dense_from_kernel(k2), cov)
        _assert_close(a, b, 1e-10 * max(1.0, abs(a)), f"degree {n}")
    cov = random_cov(rng, _D)
    phi, psi = rng.standard_normal((2, _M, _D))
    for n in range(1, 5):
        a = wick.kernel_inner_a(
            wick.SymKernel.rank_one(phi, n), wick.SymKernel.rank_one(psi, n), cov
        )
        b = core.inner_a(phi, psi, cov) ** n
        _assert_close(a, b, 1e-12 * max(1.0, abs(b)), "rank-one powers")


def check_repolarization(rng: np.random.Generator) -> None:
    """The polarized and parallelogram forms of x1 x2 give the same tensor
    and the same Wick value."""
    cov = random_cov(rng, _D)
    w = rng.standard_normal((_M, _D))
    x1, x2 = rng.standard_normal((2, _M, _D))
    k_a = wick.polarize([x1, x2])
    k_b = wick.SymKernel(
        degree=2,
        terms=(
            wick.RankOnePower(0.25, x1 + x2, 2),
            wick.RankOnePower(-0.25, x1 - x2, 2),
        ),
    )
    _assert_close(
        wick.dense_from_kernel(k_a).array,
        wick.dense_from_kernel(k_b).array,
        1e-12,
        "same tensor",
    )
    va = wick.wick_eval(k_a, cov, w)
    vb = wick.wick_eval(k_b, cov, w)
    _assert_close(va, vb, 1e-9 * max(1.0, abs(va)), "same value")


# ---------------------------------------------------------------------------
# measure


def _wick_pairs(aa: float, bb: float, ab: float):
    """``wick_pair_expectation`` as a function of (n, m), given (phi, phi)_A,
    (psi, psi)_A and (phi, psi)_A; each (p, q) matching sum is enumerated once."""
    entries = [x.as_integer_ratio() for x in (aa, bb, ab)]
    scale = max(den for _, den in entries)
    aa, bb, ab = (num * (scale // den) for num, den in entries)

    @functools.cache
    def matchings(p: int, q: int) -> int:
        # over the Gram matrix of p copies of phi followed by q copies of psi
        return measure._sum_matchings([[aa] * p + [ab] * q] * p + [[ab] * p + [bb] * q] * q)

    def expectation(n: int, m: int) -> float:
        if (n + m) % 2:
            return 0.0
        total = 0
        for k in range(n // 2 + 1):
            ck = (-1) ** k * (factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k)))
            for l in range(m // 2 + 1):
                cl = (-1) ** l * (factorial(m) // (2**l * factorial(l) * factorial(m - 2 * l)))
                total += ck * cl * aa**k * bb**l * matchings(n - 2 * k, m - 2 * l)
        return total / scale ** ((n + m) // 2)

    return expectation


def wick_pair_expectation(phi, n, psi, m_deg, cov) -> float:
    """E[:phi^n: :psi^m:] by expanding both Wick monomials into plain
    monomials and applying the pair-partition oracle; an odd total degree
    n + m gives exactly 0.0 without enumerating.  Else the expansion is
    homogeneous of degree (n + m) / 2 in the float entries (phi, phi)_A,
    (psi, psi)_A and (phi, psi)_A, each an integer over 2**s: it is summed
    exactly in Python integers over the entries scaled by the largest 2**s
    and divided by that scale to the degree once, so its terms cancel
    without rounding, unequal degrees give exactly 0.0, and the one
    rounding is that division."""
    entries = [core.inner_a(f, g, cov) for f, g in ((phi, phi), (psi, psi), (phi, psi))]
    return _wick_pairs(*entries)(n, m_deg)


def _sample(rng: np.random.Generator, samples: int, seed: int):
    """A random covariance from ``rng`` and a batch of ``samples`` draws of
    its measure seeded with ``seed``."""
    cov = random_cov(rng, _D)
    return cov, measure.sample_mu_a(cov, _DIMS, samples, seed=seed)


def check_sampling_determinism(rng: np.random.Generator) -> None:
    """Batches drawn with the same seed are bitwise equal, and a different
    seed gives a different batch."""
    cov, b1 = _sample(rng, 500, 1234)
    b2 = measure.sample_mu_a(cov, _DIMS, 500, seed=1234)
    if not np.array_equal(b1.samples, b2.samples):
        raise AssertionError("same seed produced different batches")
    if np.array_equal(b1.samples, measure.sample_mu_a(cov, _DIMS, 500, seed=1235).samples):
        raise AssertionError("different seeds produced the same batch")


def check_pairing_variance(rng: np.random.Generator, samples: int, seed: int) -> str:
    """The sample variance of <phi, W> is ||phi||_A^2 within 4 standard errors."""
    cov, batch = _sample(rng, samples, seed)
    phi = rng.standard_normal((_M, _D))
    p = measure.pairings(phi, batch)
    var = p.var(ddof=1)
    se = var * np.sqrt(2.0 / (batch.count - 1))
    target = core.inner_a(phi, phi, cov)
    _assert_close(var, target, 4.0 * se, f"variance {var:.5f} vs {target:.5f}")
    return f"var {var:.5f} ~ {target:.5f}"


def check_characteristic_function(rng: np.random.Generator, samples: int, seed: int) -> None:
    """The empirical characteristic function is exp(-||phi||_A^2 / 2) within
    4 standard errors, and exactly one at phi = 0."""
    cov, batch = _sample(rng, samples, seed)
    phi = 0.7 * rng.standard_normal((_M, _D))
    est = measure.char_function_mc(phi, batch)
    target = np.exp(-0.5 * core.inner_a(phi, phi, cov))
    _assert_close(
        est.value.real, target, 4.0 * est.std_error.real,
        f"real part {est.value.real:.5f} vs {target:.5f}",
    )
    _assert_close(est.value.imag, 0.0, 4.0 * est.std_error.imag, "imaginary part")
    zero = measure.char_function_mc(np.zeros((_M, _D)), batch)
    if zero.value != 1.0 + 0.0j or zero.std_error != 0.0 + 0.0j:
        raise AssertionError("characteristic function at zero must be exactly one")


def check_isserlis_base_cases(rng: np.random.Generator) -> None:
    """The pair-partition oracle on a pair, an odd product, a fourth power
    and the empty product."""
    cov = random_cov(rng, _D)
    phi, psi, chi = rng.standard_normal((3, _M, _D))
    pair, quartic = core.inner_a(phi, psi, cov), 3.0 * core.inner_a(phi, phi, cov) ** 2
    _assert_close(
        measure.isserlis_moment([phi, psi], cov), pair, 1e-12 * max(1.0, abs(pair)), "pair"
    )
    if measure.isserlis_moment([phi, psi, chi], cov) != 0.0:
        raise AssertionError("odd moment must vanish")
    _assert_close(
        measure.isserlis_moment([phi] * 4, cov), quartic, 1e-12 * max(1.0, quartic), "quartic"
    )
    if measure.isserlis_moment([], cov) != 1.0:
        raise AssertionError("empty product must be one")


def check_mc_moments(rng: np.random.Generator, samples: int, seed: int) -> None:
    """Monte Carlo means of products of 2, 3 and 4 pairings match the
    pair-partition oracle within 4 standard errors."""
    cov, batch = _sample(rng, samples, seed)
    for n in (2, 3, 4):
        phis = [0.8 * rng.standard_normal((_M, _D)) for _ in range(n)]
        mean, se = measure._mean_estimate(measure.pairings(phis, batch).prod(axis=1))
        target = measure.isserlis_moment(phis, cov)
        _assert_close(mean, target, 4.0 * se, f"{n} factors: mean {mean:.5f} vs {target:.5f}")


def check_wick_orthogonality(rng: np.random.Generator) -> None:
    """E[:phi^n: :psi^m:] = n! (phi, psi)_A^n if n = m, else 0, for
    n, m = 0..4 on 20 random (covariance, phi, psi) draws at m, d = 2, 3."""
    for _ in range(20):
        cov = random_cov(rng, _D)
        phi, psi = rng.standard_normal((2, _M, _D))
        entries = [core.inner_a(f, g, cov) for f, g in ((phi, phi), (psi, psi), (phi, psi))]
        expectation = _wick_pairs(*entries)
        for n, m_deg in itertools.product(range(5), repeat=2):
            val = expectation(n, m_deg)
            target = factorial(n) * entries[2] ** n if n == m_deg else 0.0
            _assert_close(
                val, target, 1e-9 * max(1.0, abs(target)), f"n={n}, m={m_deg}: {val} vs {target}"
            )


def check_pushforward(rng: np.random.Generator, samples: int, seed: int) -> None:
    """Pairings with an A-orthonormal family of three are empirically
    independent standard normals (means, variances, covariances within 4
    standard errors, a product of squares factorizing within 6)."""
    cov, batch = _sample(rng, samples, seed)
    raw = rng.standard_normal((3, _M, _D))
    basis = core.gram_schmidt(raw, cov)
    report = measure.pushforward_check(basis, batch, cov)
    if not report.passed:
        raise AssertionError("; ".join(report.failures))
    if report.means.shape != (3,):
        raise AssertionError(f"report covers {report.means.shape} coordinates, not 3")
    squares = measure.pairings(basis[:2], batch) ** 2
    prod_rhs = float(np.prod(squares.mean(axis=0)))
    lhs_mean, lhs_se = measure._mean_estimate(squares.prod(axis=1))
    _assert_close(
        lhs_mean, prod_rhs, 6.0 * lhs_se,
        f"product moments factorize: {lhs_mean:.4f} vs {prod_rhs:.4f}",
    )


# ---------------------------------------------------------------------------
# chaos


def random_expansion(rng) -> chaos_mod.ChaosExpansion:
    """Random constant plus polarized kernels of degrees 1 and 2 on _M-by-_D vectors."""
    kernels: dict[int, wick.SymKernel] = {
        0: wick.SymKernel.constant(float(rng.standard_normal()), _M, _D)
    }
    for n in (1, 2):
        kernels[n] = wick.polarize([0.7 * rng.standard_normal((_M, _D)) for _ in range(n)])
    return chaos_mod.ChaosExpansion(kernels=kernels)


def check_cond_exp_example(rng: np.random.Generator) -> None:
    """Conditional expectation of a random 3-by-4 kernel f under A = I with
    a coupled leading 2-by-2 block [[1, .5], [.5, 1]], conditioned on e1, on
    e1 and e2, and on the full span."""
    a = np.eye(4)
    a[0, 1] = a[1, 0] = 0.5
    cov = core.Covariance(a)
    f = rng.standard_normal((3, 4))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    target1 = core.bullet(f[:, 0] + 0.5 * f[:, 1], e1)
    _assert_close(
        chaos_mod.cond_exp_monomial(f, [e1], cov), target1, 1e-12,
        "single conditioning vector",
    )
    target2 = core.bullet(f[:, 0], e1) + core.bullet(f[:, 1], e2)
    _assert_close(
        chaos_mod.cond_exp_monomial(f, [e1, e2], cov), target2, 1e-12,
        "two conditioning vectors",
    )
    full = chaos_mod.cond_exp_monomial(f, [np.eye(4)[k] for k in range(4)], cov)
    _assert_close(full, f, 1e-12, "full span leaves the kernel unchanged")


def check_cond_exp_idempotence(rng: np.random.Generator) -> None:
    """Conditioning a random expansion twice changes no kernel base, and
    conditioning does not increase the chaos norm; 20 draws."""
    for _ in range(20):
        cov = random_cov(rng, _D)
        expansion = random_expansion(rng)
        cond = chaos_mod.ConditioningSet.from_vectors(rng.standard_normal((2, _M, _D)), cov)
        once = chaos_mod.cond_exp_chaos(expansion, cond, cov)
        twice = chaos_mod.cond_exp_chaos(once, cond, cov)
        for n in once.degrees:
            for t1, t2 in zip(once.kernels[n].terms, twice.kernels[n].terms):
                _assert_close(t2.base, t1.base, 1e-10, f"degree {n} idempotence")
        if chaos_mod.chaos_norm(once, cov) > chaos_mod.chaos_norm(expansion, cov) + 1e-10:
            raise AssertionError("conditioning expanded the chaos norm")


def check_degree_one_additivity(rng: np.random.Generator) -> None:
    """Conditioning a degree-1 kernel on an A-orthonormal pair is the sum of
    conditioning on each vector; 20 draws."""
    for _ in range(20):
        cov = random_cov(rng, _D)
        f = rng.standard_normal((_M, _D))
        raw = [rng.standard_normal(_D) for _ in range(2)]
        basis = core.gram_schmidt_a(raw, cov)
        joint = chaos_mod.cond_exp_monomial(f, basis, cov)
        separate = sum(chaos_mod.cond_exp_monomial(f, [x], cov) for x in basis)
        _assert_close(joint, separate, 1e-10, "additive over vectors")


def check_span_invariance(rng: np.random.Generator) -> None:
    """Conditioning depends only on the span of the conditioning vectors;
    20 draws."""
    for _ in range(20):
        cov = random_cov(rng, _D)
        f = rng.standard_normal((_M, _D))
        xs = [rng.standard_normal(_D) for _ in range(2)]
        mix = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        ys = [mix[0, 0] * xs[0] + mix[0, 1] * xs[1], mix[1, 0] * xs[0] + mix[1, 1] * xs[1]]
        _assert_close(
            chaos_mod.cond_exp_monomial(f, xs, cov),
            chaos_mod.cond_exp_monomial(f, ys, cov),
            1e-10,
            "same span, same projection",
        )


def check_kernelwise_projection(rng: np.random.Generator) -> None:
    """The chaos projection of a degree-1 kernel onto h_i . x_k equals the
    direct monomial projection onto x_k; 10 draws."""
    for _ in range(10):
        cov = random_cov(rng, _D)
        f = rng.standard_normal((_M, _D))
        xs = [rng.standard_normal(_D) for _ in range(2)]
        basis = core.gram_schmidt_a(xs, cov)
        h_basis = np.eye(_M)
        cond = chaos_mod.ConditioningSet(
            basis=tuple(
                core.bullet(h_basis[i], x) for i in range(_M) for x in basis
            )
        )
        expansion = chaos_mod.ChaosExpansion(kernels={1: wick.SymKernel.rank_one(f, 1)})
        conditioned = chaos_mod.cond_exp_chaos(expansion, cond, cov)
        kernel_sum = np.zeros((_M, _D))
        for t in conditioned.kernels[1].terms:
            kernel_sum = kernel_sum + t.coeff * t.base
        _assert_close(
            kernel_sum,
            chaos_mod.cond_exp_monomial(f, xs, cov),
            1e-10,
            "finite-rank kernel form",
        )


def check_chaos_inner_structure(rng: np.random.Generator, samples: int, seed: int) -> None:
    """Chaoses of different degree are orthogonal, ||phi^n||^2 = n!
    ||phi||_A^(2n) for n = 1..3, and the chaos inner product of two random
    expansions matches its Monte Carlo estimate within 4 standard errors."""
    cov = random_cov(rng, _D)
    phi, psi = rng.standard_normal((2, _M, _D))
    e_n = chaos_mod.ChaosExpansion(kernels={2: wick.SymKernel.rank_one(phi, 2)})
    e_m = chaos_mod.ChaosExpansion(kernels={3: wick.SymKernel.rank_one(psi, 3)})
    if chaos_mod.chaos_inner(e_n, e_m, cov) != 0.0:
        raise AssertionError("different degrees must be orthogonal")
    for n in range(1, 4):
        e = chaos_mod.ChaosExpansion(kernels={n: wick.SymKernel.rank_one(phi, n)})
        val = chaos_mod.chaos_inner(e, e, cov)
        target = factorial(n) * core.inner_a(phi, phi, cov) ** n
        _assert_close(val, target, 1e-12 * max(1.0, abs(target)), f"degree {n} norm")
    batch = measure.sample_mu_a(cov, _DIMS, samples, seed=seed)
    f_exp = random_expansion(rng)
    g_exp = random_expansion(rng)
    prod = chaos_mod.eval_expansion(f_exp, cov, batch.samples) * chaos_mod.eval_expansion(
        g_exp, cov, batch.samples
    )
    mean, se = measure._mean_estimate(prod)
    target = chaos_mod.chaos_inner(f_exp, g_exp, cov)
    _assert_close(mean, target, 4.0 * se, f"MC {mean:.5f} vs exact {target:.5f}")


def check_expansion_mean(rng: np.random.Generator, samples: int, seed: int) -> None:
    """The Monte Carlo mean of a random expansion is its constant term within
    4 standard errors."""
    cov, batch = _sample(rng, samples, seed)
    expansion = random_expansion(rng)
    values = chaos_mod.eval_expansion(expansion, cov, batch.samples)
    mean, se = measure._mean_estimate(values)
    target = expansion.kernels[0].terms[0].coeff
    _assert_close(mean, target, 4.0 * se, f"mean {mean:.5f} vs constant {target:.5f}")


def check_conditional_residuals(rng: np.random.Generator, samples: int, seed: int) -> None:
    """F - E[F | G] is Monte Carlo orthogonal to four G-measurable test
    functions for 8 random expansions (4 standard errors), and vanishes to
    1e-12 for a G-measurable F."""
    cov, batch = _sample(rng, samples, seed)
    cond = chaos_mod.ConditioningSet.from_vectors(rng.standard_normal((2, _M, _D)), cov)
    tests = [
        lambda c: np.ones(c.shape[0]),
        lambda c: c[:, 0],
        lambda c: c[:, 0] * c[:, -1],
        lambda c: c[:, 0] ** 2 - 1.0,
    ]
    for i in range(8):
        expansion = random_expansion(rng)
        est = chaos_mod.mc_cond_check(expansion, cond, cov, tests[i % len(tests)], batch)
        _assert_close(est.value, 0.0, 4.0 * est.std_error + 1e-12, "residual within 4 se")
    psi = cond.basis[0]
    measurable = chaos_mod.ChaosExpansion(kernels={2: wick.SymKernel.rank_one(psi, 2)})
    est = chaos_mod.mc_cond_check(measurable, cond, cov, tests[2], batch)
    _assert_close(
        [est.value, est.std_error], 0.0, 1e-12,
        "residual of a measurable functional and its standard error",
    )


def check_growing_conditioning_rank(rng: np.random.Generator) -> str:
    """The chaos norm of the projection grows with the conditioning rank and
    stays below the full norm."""
    cov = random_cov(rng, _D)
    expansion = random_expansion(rng)
    full_norm = chaos_mod.chaos_norm(expansion, cov)
    vectors = rng.standard_normal((4, _M, _D))
    prev = -1.0
    for q in range(1, 5):
        cond = chaos_mod.ConditioningSet.from_vectors(vectors[:q], cov)
        norm = chaos_mod.chaos_norm(chaos_mod.cond_exp_chaos(expansion, cond, cov), cov)
        if norm < prev - 1e-10:
            raise AssertionError("projection norm decreased as the set grew")
        if norm > full_norm * (1.0 + 1e-10):
            raise AssertionError("projection norm exceeded the full norm")
        prev = norm
    return "projection norms stabilize monotonically"


# ---------------------------------------------------------------------------
# closure


def _params(cells: int, sigma=0.0, kappa=0.0, source=0.0) -> closure_mod.MaterialParams:
    """Material data on a grid of ``cells`` cells over (0, 1)."""
    return closure_mod.MaterialParams(
        a=0.0, b=1.0, cells=cells, sigma=sigma, kappa=kappa, source=source
    )


def _bump_initial(params, order):
    x = params.x_centers
    values = np.zeros((params.cells, order + 1))
    values[:, 0] = np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
    return closure_mod.MomentGrid(t=0.0, values=values)


def check_advection_coefficients() -> None:
    """b_{k,k+1} = (k+1)/(2k+1) and b_{k,k-1} = k/(2k+1) exactly at N = 3,
    zero off the two neighbour diagonals."""
    b = closure_mod.build_moment_system(3)
    for (k, l), value in {
        (0, 1): 1.0, (1, 0): 1.0 / 3.0, (1, 2): 2.0 / 3.0, (2, 1): 2.0 / 5.0, (3, 4): 4.0 / 7.0,
    }.items():
        if b[k, l] != value:
            raise AssertionError(f"b[{k},{l}] = {b[k, l]!r}, expected {value!r}")
    for k in range(4):
        for l in range(5):
            if l not in (k - 1, k + 1) and b[k, l] != 0.0:
                raise AssertionError(f"b[{k},{l}] must be zero")


def check_absorption_and_source() -> None:
    """Absorption is kappa for moment 0 and kappa + sigma above; the source
    2 kappa q feeds only moment 0."""
    params = _params(4, sigma=2.0, kappa=3.0, source=5.0)
    c = closure_mod._absorption(params, 2)
    if not (np.all(c[:, 0] == 3.0) and np.all(c[:, 1:] == 5.0)):
        raise AssertionError("absorption coefficients mismatch")
    q = closure_mod._source_term(params, 2)
    if not (np.all(q[:, 0] == 2.0 * 3.0 * 5.0) and np.all(q[:, 1:] == 0.0)):
        raise AssertionError("source must feed only moment 0")


def check_closure_rows(rng: np.random.Generator) -> None:
    """Truncation and identity correlation give a zero closure row, the 1x1
    example gives 0.5, and a random row is invariant under rescaling."""
    n = 2
    if closure_mod.closure_row(None, n).any():
        raise AssertionError("truncation closure row must be zero")
    if closure_mod.closure_row(np.eye(n + 2), n).any():
        raise AssertionError("identity correlation must reduce to truncation")
    row = closure_mod.closure_row(np.array([[1.0, 0.5], [0.5, 1.0]]), 0)
    _assert_close(row, [0.5], 1e-15, "1x1 block")
    g = rng.standard_normal((n + 2, n + 2))
    corr = g @ g.T + (n + 2) * np.eye(n + 2)
    r1 = closure_mod.closure_row(corr, n)
    r2 = closure_mod.closure_row(3.7 * corr, n)
    _assert_close(r1, r2, 1e-12 * max(1.0, np.abs(r1).max()), "scale invariance")


def check_identity_correlation_truncation() -> None:
    """Optimal prediction with an identity (200 steps) or block-diagonal
    (50 steps) correlation reproduces the truncation run bitwise."""
    params = _params(100, sigma=0.3, kappa=0.2, source=0.1)
    order = 3
    initial = _bump_initial(params, order)
    dt = 0.004
    block = np.eye(order + 2)
    block[: order + 1, : order + 1] += 0.2
    for steps, correlation, what in (
        (200, np.eye(order + 2), "identity-correlation run"),
        (50, block, "block-diagonal correlation"),
    ):
        pn = closure_mod.solve_closure(initial, params, None, t_final=steps * dt, dt=dt)
        op = closure_mod.solve_closure(initial, params, correlation, t_final=steps * dt, dt=dt)
        if not len(pn) == len(op) == steps + 1:
            raise AssertionError(f"{what}: {len(pn)} and {len(op)} snapshots, not {steps + 1}")
        for g1, g2 in zip(pn, op):
            if not np.array_equal(g1.values, g2.values):
                raise AssertionError(f"{what} deviated from truncation")


def check_conservation(rng: np.random.Generator) -> None:
    """Free streaming of a random 64-cell N = 3 state keeps each moment's
    spatial sum within 1e-12 over 20 steps."""
    params = _params(64)
    order = 3
    state = closure_mod.MomentGrid(t=0.0, values=rng.standard_normal((64, order + 1)))
    sums = state.values.sum(axis=0)
    for _ in range(20):
        state = closure_mod.step(state, params, None, dt=0.005)
        _assert_close(state.values.sum(axis=0), sums, 1e-12, "per-moment spatial sums")


def check_local_balance() -> None:
    """One explicit step keeps a free constant state, damps it by 1 - kappa dt
    under absorption, and a source grows moment 0 only."""
    order = 2
    const = closure_mod.MomentGrid(t=0.0, values=np.tile([2.0, -1.0, 0.5], (16, 1)))
    after = closure_mod.step(const, _params(16), None, dt=0.01)
    _assert_close(after.values, const.values, 0.0, "free constant state is stationary")
    kappa = 0.7
    decayed = closure_mod.step(const, _params(16, kappa=kappa), None, dt=0.01)
    _assert_close(
        decayed.values[:, 0], const.values[:, 0] * (1.0 - kappa * 0.01),
        1e-14, "explicit absorption factor",
    )
    zero = closure_mod.MomentGrid(t=0.0, values=np.zeros((16, order + 1)))
    sourced = closure_mod.step(zero, _params(16, kappa=kappa, source=1.5), None, dt=0.01)
    if not (sourced.values[:, 0] > 0).all():
        raise AssertionError("source must grow moment 0")
    if sourced.values[:, 1:].any():
        raise AssertionError("higher moments must stay zero without scattering")


def check_weak_form_projection(rng: np.random.Generator) -> None:
    """<P phi, omega> = <phi, P^T omega> for the block projection; 10 draws."""
    for _ in range(10):
        d = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        cov = random_cov(rng, d)
        cut = int(rng.integers(1, d))
        blocks = core.block_projection(cov, cut)
        phi = rng.standard_normal((m, d))
        omega = rng.standard_normal((m, d))
        lhs = core.inner_l2(core.apply_matrix(blocks.p, phi), omega)
        rhs = core.inner_l2(phi, core.apply_matrix(blocks.pt, omega))
        _assert_close(lhs, rhs, 1e-12 * max(1.0, abs(lhs)), "adjoint pairing")


def check_refinement_monotone() -> str:
    """Free-streaming truncation runs of order 3, 5 and 7 get closer in their
    first four moments as the order grows."""
    params = _params(100)
    finals = {}
    for order in (3, 5, 7):
        run = closure_mod.solve_closure(
            _bump_initial(params, order), params, None, t_final=0.4, dt=0.004, output_stride=10**9,
        )
        finals[order] = run[-1].values
    d_35 = np.linalg.norm(finals[3][:, :4] - finals[5][:, :4])
    d_57 = np.linalg.norm(finals[5][:, :4] - finals[7][:, :4])
    if not d_57 < d_35:
        raise AssertionError(f"refinement not monotone: {d_35:.3e} then {d_57:.3e}")
    return f"inter-order distances {d_35:.3e} > {d_57:.3e}"


def check_cfl_guard() -> str:
    """A step above the CFL bound is refused as an error naming ``dt``."""
    state = closure_mod.MomentGrid(t=0.0, values=np.ones((16, 3)))
    try:
        closure_mod.step(state, _params(16), None, dt=10.0)
    except core.InputError as exc:
        if exc.argument != "dt" or "CFL" not in str(exc):
            raise AssertionError(f"oversized step refused for the wrong reason: {exc}") from None
        return "oversized step rejected"
    raise AssertionError("CFL violation went unnoticed")


# ---------------------------------------------------------------------------
# the suites

# One row per check: (suite, display name, check, inputs).  ``inputs`` names
# what the check takes, in its positional order: "rng" the suite's
# generator, "samples" the Monte Carlo sample count and "seed+k" the batch
# seed ``seed + k``.  A suite runs its rows in this order.
_CHECKS = [
    ("core", "bilinear embedding/contraction identities", "check_bilinear_identities", "rng"),
    ("core", "embedding norm and contraction bound", "check_norm_identities", "rng"),
    ("core", "norm decomposition over orthonormal bases", "check_parseval", "rng"),
    ("core", "operator extension to sequence vectors", "check_operator_extension", "rng"),
    ("core", "operator norm transfer", "check_operator_norm_transfer", "rng"),
    ("core", "weighted block projection algebra", "check_block_projection_algebra", "rng"),
    ("core", "worked block projection", "check_block_projection_example", ""),
    ("core", "weighted Gram-Schmidt worked example", "check_gram_schmidt_example", ""),
    ("core", "unbounded contraction diagnostic", "check_divergence_diagnostic", ""),
    ("core", "PSD closure under Schur products", "check_psd_appendix", "rng"),
    ("hermite", "orthogonality matrix equals diag(n!)", "check_hermite_orthogonality", ""),
    ("hermite", "recurrence matches alternating sum", "check_recurrence_vs_sum", "rng"),
    ("hermite", "convention cross relations", "check_convention_relations", "rng"),
    ("hermite", "binomial expansion", "check_binomial_expansion", "rng"),
    ("hermite", "quadrature rule sanity", "check_quadrature_sanity", ""),
    ("wick", "polarization matches dense symmetrization", "check_polarization", "rng"),
    ("wick", "dense expansion is permutation invariant", "check_permutation_invariance", "rng"),
    ("wick", "symmetrization properties", "check_symmetrization", "rng"),
    ("wick", "low-degree Wick values", "check_low_degree_wick_values", "rng"),
    ("wick", "recursion matches closed form", "check_wick_recursion", "rng"),
    ("wick", "polarized and dense evaluation agree", "check_polarized_evaluation", "rng"),
    ("wick", "plain monomials rebuilt from Wick terms", "check_monomials_from_wick", "rng"),
    ("wick", "kernel inner product matches dense contraction", "check_kernel_inner_routes", "rng"),
    ("wick", "evaluation invariant under re-polarization", "check_repolarization", "rng"),
    ("measure", "seeded batches are reproducible", "check_sampling_determinism", "rng"),
    ("measure", "pairing variance matches the weighted norm", "check_pairing_variance",
     "rng samples seed+1"),
    ("measure", "characteristic function", "check_characteristic_function", "rng samples seed+2"),
    ("measure", "pair-partition oracle base cases", "check_isserlis_base_cases", "rng"),
    ("measure", "Monte Carlo product moments match the oracle", "check_mc_moments",
     "rng samples seed+3"),
    ("measure", "exact Wick orthogonality via the oracle", "check_wick_orthogonality", "rng"),
    ("measure", "orthonormal pushforward is standard normal", "check_pushforward",
     "rng samples seed+4"),
    ("chaos", "worked conditional-expectation example", "check_cond_exp_example", "rng"),
    ("chaos", "projection idempotence and contraction", "check_cond_exp_idempotence", "rng"),
    ("chaos", "degree-1 additivity", "check_degree_one_additivity", "rng"),
    ("chaos", "span invariance", "check_span_invariance", "rng"),
    ("chaos", "kernel-wise and direct degree-1 projections agree", "check_kernelwise_projection",
     "rng"),
    ("chaos", "chaos inner product structure", "check_chaos_inner_structure",
     "rng samples seed+11"),
    ("chaos", "expansion mean equals its constant term", "check_expansion_mean",
     "rng samples seed+12"),
    ("chaos", "conditional residuals vanish weakly", "check_conditional_residuals",
     "rng samples seed+13"),
    ("chaos", "growing conditioning rank stabilizes", "check_growing_conditioning_rank", "rng"),
    ("closure", "advection coefficient values", "check_advection_coefficients", ""),
    ("closure", "absorption and source structure", "check_absorption_and_source", ""),
    ("closure", "closure rows", "check_closure_rows", "rng"),
    ("closure", "identity correlation reproduces truncation",
     "check_identity_correlation_truncation", ""),
    ("closure", "free streaming conserves spatial sums", "check_conservation", "rng"),
    ("closure", "pointwise balance of the explicit step", "check_local_balance", ""),
    ("closure", "weak-form projection identity", "check_weak_form_projection", "rng"),
    ("closure", "truncation refinement is monotone", "check_refinement_monotone", ""),
    ("closure", "CFL guard", "check_cfl_guard", ""),
]

__all__ += [check for _, _, check, _ in _CHECKS]


def _run(suite: str, seed: int = 0, samples: int = DEFAULT_SAMPLES):
    """Run the rows of ``suite`` in table order, all drawing from one
    generator seeded with ``seed``; a check that raises is a failure that
    reports the exception text.  Each check is looked up by name when it
    is called."""
    given = {"rng": np.random.default_rng(seed), "samples": samples}
    results = []
    for _, name, check, inputs in (row for row in _CHECKS if row[0] == suite):
        args = [
            given[x] if x in given else seed + int(x.removeprefix("seed+")) for x in inputs.split()
        ]
        try:
            results.append(CheckResult(name, True, globals()[check](*args) or ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the runner
            results.append(CheckResult(name, False, str(exc)))
    return results


_SUITES = {suite: functools.partial(_run, suite) for suite in SUITE_NAMES}


def _serve(spool, orders, seed: int, samples: int) -> None:
    """Body of the forked worker: run the ``FORKED_SUITES`` and write each
    one's ``[suite, name, passed, detail]`` rows to ``spool`` as one JSON
    line, flushed as soon as the suite is done.  It reads no ``orders``."""
    for suite in FORKED_SUITES:
        rows = [[suite, r.name, r.passed, r.detail]
                for r in _SUITES[suite](seed=seed, samples=samples)]
        spool.write(json.dumps(rows) + "\n")
        spool.flush()


def _received(data, status: int) -> dict[str, list[CheckResult]]:
    """The worker's results by suite, read from the lines it wrote; a suite
    without a well-formed line is one failed check naming the exit status."""
    results: dict[str, list[CheckResult]] = {}
    for line in data.splitlines():
        try:
            rows = [(suite, CheckResult(name, passed, detail))
                    for suite, name, passed, detail in json.loads(line)]
        except (ValueError, TypeError):
            break
        for suite, row in rows:
            results.setdefault(suite, []).append(row)
    lost = CheckResult("worker process", False,
                       f"sent no results for this suite (exit status {status})")
    return {suite: results.get(suite) or [lost] for suite in FORKED_SUITES}


def run_suite(name: str, seed: int = 0, samples: int = DEFAULT_SAMPLES) -> list[CheckResult]:
    """Run one module suite (or all of them) and return its check results.

    A single suite runs in this process.  ``"all"`` gives every suite's
    results in ``SUITE_NAMES`` order, each name prefixed with its suite;
    where ``os.sched_getaffinity`` reports two CPUs or more and a process
    can be forked, a worker process runs the ``FORKED_SUITES`` meanwhile
    and writes their results to a temporary file, read here once it has
    exited.  The results are the same either way.  A worker that dies or
    writes malformed data leaves one failed check for each suite it wrote
    nothing for, naming its exit status.  An unknown ``name``, or a ``seed``
    or ``samples`` not an integer >= 0 or >= 2, raises ``InputError`` first."""
    if name != "all" and name not in SUITE_NAMES:
        raise core.InputError("name", f"unknown suite {name!r}")
    core._check_count(seed, 0, "seed")
    core._check_count(samples, 2, "samples")
    if name == "all":
        with _fork.forked(functools.partial(_serve, seed=seed, samples=samples)) as worker:
            forked = FORKED_SUITES if worker else ()
            results = {suite: _SUITES[suite](seed=seed, samples=samples)
                       for suite in SUITE_NAMES if suite not in forked}
            if worker:
                status = worker.wait()
                results.update(_received(worker.spool.read(), status))
        return [
            CheckResult(f"{suite}: {res.name}", res.passed, res.detail)
            for suite in SUITE_NAMES
            for res in results[suite]
        ]
    return _SUITES[name](seed=seed, samples=samples)
