"""Sampling of the correlated Gaussian measure and exact moment oracles.

A sample is an m-by-d matrix W = Z L^T with Z filled by independent
standard normals and L the Cholesky factor of the covariance weight A.
Linear statistics then carry the weighted geometry exactly:

    Cov( <phi, W>, <psi, W> ) = (phi, psi)_A,

so an A-orthonormal family of sequence vectors pushes the sample forward
to independent standard normals (``pushforward_check`` verifies this
empirically on a batch).  ``pairings`` pairs one sequence vector, or a
(q, m, d) stack of them, with every sample of a batch in one GEMM over
the flattened (count, m*d) samples; a stack's (count, q) result is
column-major, so each observable's coordinates are contiguous.

``isserlis_moment`` is the exact counterpart: it evaluates
E[ prod_i <phi_i, W> ] as a sum over perfect matchings of products of
pairwise weighted inner products, giving a Monte-Carlo-free oracle for
product moments (zero for an odd number of factors).

Sampling is deterministic per seed within a build (PCG64 generator);
batches are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Covariance, InputError, TruncationDims, _as_array, _check_count, _frozen, check_orthonormal_a,
    gram_a,
)

__all__ = [
    "SampleBatch",
    "McEstimate",
    "PushforwardReport",
    "sample_mu_a",
    "pairings",
    "char_function_mc",
    "isserlis_moment",
    "pushforward_check",
]

ISSERLIS_MAX_FACTORS = 10
# pushforward_check flags a statistic this many standard errors from its target
SIGMA_BAND = 4.0


@dataclass(frozen=True)
class SampleBatch:
    """Read-only stack of finite samples with shape (count, m, d), refused
    as ``InputError("samples")`` otherwise.  ``sample_mu_a`` with the same
    covariance, dims, seed and count reproduces the identical batch within
    a build."""

    samples: np.ndarray

    def __post_init__(self):
        arr = self.samples
        # a float array is tested by its min and max, which carry a NaN and
        # show an inf without the batch-sized temporary of np.isfinite(arr)
        if not (isinstance(arr, np.ndarray) and arr.dtype == float):
            arr = _as_array(arr, 3, "samples")
        if arr.ndim != 3:
            raise InputError("samples", f"samples must have shape (count, m, d), got {arr.shape}")
        _as_array([arr.min(initial=0.0), arr.max(initial=0.0)], 1, "samples")
        if arr is self.samples and arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def count(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with standard error of the mean.

    For complex-valued statistics both fields are complex and hold the
    componentwise (real, imaginary) values.
    """

    value: float | complex
    std_error: float | complex
    count: int

    def __post_init__(self):
        se = self.std_error
        if isinstance(se, complex):
            if se.real < 0 or se.imag < 0:
                raise ValueError("standard errors must be non-negative")
        elif se < 0:
            raise ValueError("standard errors must be non-negative")


def sample_mu_a(cov: Covariance, dims: TruncationDims, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` samples W = Z L^T of the weighted Gaussian measure.

    Z has independent standard normal entries, so <phi, W> is centered
    Gaussian with Cov(<phi, W>, <psi, W>) = (phi, psi)_A.  All count * m
    rows of Z are whitened at once: scaled in place for a diagonal A, so
    the batch is the only array held, and by one GEMM otherwise.
    """
    _check_count(count, 1, "count")
    _check_count(seed, 0, "seed")
    if dims.d != cov.dim:
        raise InputError("dims", f"dims.d={dims.d} does not match covariance dim {cov.dim}")
    z = np.random.default_rng(seed).standard_normal((count, dims.m, dims.d))
    return SampleBatch(_frozen(cov._whiten(z.reshape(-1, dims.d)).reshape(z.shape)))


def pairings(phi, batch: SampleBatch) -> np.ndarray:
    """Pairings <phi, W_i> of a finite ``phi`` with every sample of a batch:
    a (count,) vector for one m-by-d ``phi``, a column-major (count, q)
    array for a (q, m, d) stack.  Either is one product with the flattened
    (count, m*d) samples; a stack's is the (q, count) product seen through
    its transpose."""
    p = _as_array(phi, None, "phi")
    count, m, d = batch.samples.shape
    if p.ndim not in (2, 3) or p.shape[-2:] != (m, d):
        raise InputError("phi", f"phi shape {p.shape} does not match batch sample shape {(m, d)}")
    flat = batch.samples.reshape(count, m * d)
    if p.ndim == 2:
        return flat @ p.ravel()
    return (p.reshape(len(p), m * d) @ flat.T).T


def _mean_estimate(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def char_function_mc(phi, batch: SampleBatch) -> McEstimate:
    """Empirical characteristic function at phi: sample mean of
    exp(i <phi, W>) with componentwise standard errors.

    Converges to exp(-0.5 * ||phi||_A^2) (real part; imaginary part zero
    by symmetry of the centered measure).
    """
    if batch.count == 0:
        raise InputError("batch", "empty batch")
    p = pairings(phi, batch)
    re_mean, re_se = _mean_estimate(np.cos(p))
    im_mean, im_se = _mean_estimate(np.sin(p))
    return McEstimate(
        value=complex(re_mean, im_mean),
        std_error=complex(re_se, im_se),
        count=batch.count,
    )


def _sum_matchings(gram):
    """Sum over the perfect matchings of the indices 0..n-1 of the products
    of the paired entries ``gram[i][j]`` (0 for odd n, 1 for n = 0).

    ``gram`` is a nested sequence whose entries may be of any number type
    (floats, exact Python integers); sums and products are formed in the
    order of the enumeration, which pairs the first unmatched index with
    each later one in turn.  The sum over the matchings of each set of
    unmatched indices is computed once and reused.
    """
    memo = {}

    def match(indices: tuple[int, ...]):
        if not indices:
            return 1
        if indices not in memo:
            first, rest = indices[0], indices[1:]
            total = 0
            for k in range(len(rest)):
                total += gram[first][rest[k]] * match(rest[:k] + rest[k + 1 :])
            memo[indices] = total
        return memo[indices]

    return match(tuple(range(len(gram))))


def isserlis_moment(phis, cov: Covariance) -> float:
    """Exact E[ prod_i <phi_i, W> ] by pair-partition enumeration.

    Sums over all perfect matchings of the factor list the products of
    pairwise weighted inner products, taken from one ``gram_a`` of the
    factors; 0 for an odd number of factors, 1 for an empty product.
    Limited to 10 factors.
    """
    stack = _as_array(phis, 3, "phis")
    n = len(stack)
    if n > ISSERLIS_MAX_FACTORS:
        raise InputError("phis", f"at most {ISSERLIS_MAX_FACTORS} factors supported, got {n}")
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    return float(_sum_matchings(gram_a(stack, stack, cov).tolist()))


@dataclass(frozen=True)
class PushforwardReport:
    """Empirical check that A-orthonormal observables are independent
    standard normals: componentwise means and variances with their
    standard errors, pairwise sample covariances, and the statistics that
    fell outside ``SIGMA_BAND`` standard errors of (0, 1, 0)."""

    means: np.ndarray
    mean_errors: np.ndarray
    variances: np.ndarray
    variance_errors: np.ndarray
    covariances: np.ndarray
    covariance_errors: np.ndarray
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def pushforward_check(phis, batch: SampleBatch, cov: Covariance) -> PushforwardReport:
    """Compare the empirical law of (<phi_i, W>)_i against independent
    standard normals.

    Requires the phis to be A-orthonormal within ``core.ORTHONORMAL_TOL``
    (else ``InputError("phis")``) and a batch of at least 2 samples.
    Flags any mean, variance or pairwise covariance outside ``SIGMA_BAND``
    standard errors of (0, 1, 0), or with a non-finite value or error.
    """
    phis = _as_array(phis, 3, "phis")
    q = len(phis)
    if q == 0:
        raise InputError("phis", "need at least one observable")
    if batch.count < 2:
        raise InputError("batch", f"need at least 2 samples, got {batch.count}")
    check_orthonormal_a(phis, cov, "observable family", "phis")
    coords = pairings(phis, batch)
    n = batch.count
    with np.errstate(over="ignore", invalid="ignore"):
        means = coords.mean(axis=0)
        variances = coords.var(axis=0, ddof=1)
        mean_errors = np.sqrt(variances / n)
        variance_errors = variances * np.sqrt(2.0 / (n - 1))
        centered = coords - means
        covariances = (centered.T @ centered) / (n - 1)
        covariance_errors = np.sqrt((np.outer(variances, variances) + covariances**2) / n)
        failures = []
        for i in range(q):
            if not abs(means[i]) <= SIGMA_BAND * mean_errors[i] < np.inf:
                failures.append(f"mean[{i}] = {means[i]:.4e} (se {mean_errors[i]:.2e})")
            if not abs(variances[i] - 1.0) <= SIGMA_BAND * variance_errors[i] < np.inf:
                failures.append(f"var[{i}] = {variances[i]:.6f} (se {variance_errors[i]:.2e})")
            for j in range(i + 1, q):
                if not abs(covariances[i, j]) <= SIGMA_BAND * covariance_errors[i, j] < np.inf:
                    failures.append(
                        f"cov[{i},{j}] = {covariances[i, j]:.4e} (se {covariance_errors[i, j]:.2e})"
                    )
    return PushforwardReport(
        means=means,
        mean_errors=mean_errors,
        variances=variances,
        variance_errors=variance_errors,
        covariances=covariances,
        covariance_errors=covariance_errors,
        failures=tuple(failures),
    )
