"""Chaos expansions and conditional expectations as weighted projections.

A chaos expansion is a finite map degree -> symmetric kernel; its value at
a sample W is the sum of the Wick-ordered monomials of its kernels, and
the inner product of two expansions is

    (F, G) = sum_n n! (f_n, g_n)_A ,

reflecting the orthogonality of Wick monomials of different degrees.

Conditioning on the sigma-algebra generated by the linear observables
<psi_1, .>, ..., <psi_q, .> of an A-orthonormal family acts kernel-wise:
each rank-one term ``coeff * base^(x)n`` maps to ``coeff *
(proj base)^(x)n`` where ``proj`` is the A-orthogonal projection onto
span{psi_k}.  The operation is idempotent and contractive, and the result
only depends on the span of the conditioning family (non-orthonormal
input is orthonormalized internally where noted).  The family is held as
one read-only (q, m, d) array, so projecting a stack of bases onto it and
pairing it with a batch of samples are each one matrix product.

For a single degree-1 functional <f, .> conditioned on coefficient
sequences x_1, ..., x_q in R^d, the projected kernel has the explicit
form ``sum_k bullet(bracket(f, A x_k), x_k)`` over an A-orthonormalized
family; ``cond_exp_monomial`` computes it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import (
    Covariance, InputError, _as_array, _held, apply_extended, check_orthonormal_a, gram_a,
    gram_schmidt, gram_schmidt_a,
)
from .measure import McEstimate, SampleBatch, _mean_estimate, pairings
from .wick import RankOnePower, SymKernel, _eval_terms, _term_arrays, kernel_inner_a

__all__ = [
    "ChaosExpansion",
    "ConditioningSet",
    "eval_expansion",
    "chaos_inner",
    "chaos_norm",
    "project_onto_set",
    "cond_exp_chaos",
    "cond_exp_monomial",
    "mc_cond_check",
]


@dataclass(frozen=True)
class ChaosExpansion:
    """Finite chaos expansion: map from degree to symmetric kernel."""

    kernels: dict[int, SymKernel]

    def __post_init__(self):
        for n, k in self.kernels.items():
            if k.degree != n:
                raise InputError("kernels", f"kernel of degree {k.degree} stored under key {n}")

    @property
    def degrees(self) -> list[int]:
        return sorted(self.kernels)


@dataclass(frozen=True)
class ConditioningSet:
    """A-orthonormal family of sequence vectors spanning the conditioning
    subspace, held as one read-only (q, m, d) array; a family that is not
    a stack of finite m-by-d sequence vectors is refused when the set is
    built."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _held(self.basis, 3, "basis"))
        if len(self.basis) == 0:
            raise InputError("basis", "conditioning set must be non-empty")

    @classmethod
    def from_vectors(cls, vectors, cov: Covariance) -> "ConditioningSet":
        """Build a conditioning set by A-orthonormalizing arbitrary
        sequence vectors (dependent inputs are dropped)."""
        return cls(basis=gram_schmidt(vectors, cov))

    def validate(self, cov: Covariance) -> None:
        """Raise ``InputError("conditioning")``, named as the functions that
        take a conditioning set call it, unless the basis is A-orthonormal."""
        check_orthonormal_a(self.basis, cov, "conditioning set", "conditioning")


def eval_expansion(expansion: ChaosExpansion, cov: Covariance, w):
    """Value of the expansion at one finite sample or a stacked batch of them.

    Every kernel is evaluated in one pass over the samples: the terms of
    all degrees are sorted by degree, and each block of samples is one
    GEMM serving every degree, followed by the homogeneous Hermite
    recurrence over the degree-sorted prefix of the terms (see
    ``wick._eval_terms``)."""
    w = _as_array(w, None, "w")
    return _eval_terms(*_term_arrays(expansion.kernels.values(), w.shape[-2:], "w"), cov, w)


def chaos_inner(e1: ChaosExpansion, e2: ChaosExpansion, cov: Covariance) -> float:
    """Inner product sum_n n! (f_n, g_n)_A over shared degrees."""
    total = 0.0
    for n in e1.degrees:
        if n in e2.kernels:
            total += factorial(n) * kernel_inner_a(e1.kernels[n], e2.kernels[n], cov)
    return total


def chaos_norm(expansion: ChaosExpansion, cov: Covariance) -> float:
    return float(np.sqrt(max(chaos_inner(expansion, expansion, cov), 0.0)))


def project_onto_set(phi, conditioning: ConditioningSet, cov: Covariance) -> np.ndarray:
    """A-orthogonal projection onto the conditioning span,
    ``sum_k (phi, psi_k)_A psi_k``, of every vector in a (T, m, d) stack
    ``phi`` (one vector is a stack of one); the coefficients of the whole
    stack come from one ``gram_a`` call."""
    stack = _as_array(phi, 3, "phi")
    return np.tensordot(gram_a(stack, conditioning.basis, cov), conditioning.basis, axes=1)


def cond_exp_chaos(
    expansion: ChaosExpansion,
    conditioning: ConditioningSet,
    cov: Covariance,
) -> ChaosExpansion:
    """Conditional expectation of a chaos expansion given the linear
    observables of the conditioning set.

    Projects the stacked rank-one bases of each kernel onto the
    conditioning span in one call per degree (degree-0 kernels are
    unchanged).  Idempotent and contractive in the chaos norm; raises
    ``InputError("conditioning")`` if the conditioning set is not
    A-orthonormal.
    """
    conditioning.validate(cov)
    kernels: dict[int, SymKernel] = {}
    for n, kernel in expansion.kernels.items():
        if n == 0 or not kernel.terms:
            kernels[n] = kernel
            continue
        bases = project_onto_set(np.stack([t.base for t in kernel.terms]), conditioning, cov)
        terms = tuple(RankOnePower(t.coeff, b, n) for t, b in zip(kernel.terms, bases))
        kernels[n] = SymKernel(degree=n, terms=terms)
    return ChaosExpansion(kernels=kernels)


def cond_exp_monomial(f, xs, cov: Covariance) -> np.ndarray:
    """Kernel of the conditional expectation of <f, .> given the
    coefficient sequences ``xs`` in R^d.

    The inputs are A-orthonormalized first (the result depends only on
    their span) and stacked as the rows of X; the projected kernel is
    ``sum_k bullet(bracket(f, A x_k), x_k) = F A X^T X``.  Raises if the
    conditioning span is degenerate (every input dropped).
    """
    x = gram_schmidt_a(xs, cov)
    return apply_extended(cov, f) @ x.T @ x


def mc_cond_check(
    expansion: ChaosExpansion,
    conditioning: ConditioningSet,
    cov: Covariance,
    g,
    batch: SampleBatch,
) -> McEstimate:
    """Monte Carlo residual test of the conditional expectation: estimates

        E[ (F - E[F | conditioning]) * g(<psi_1, W>, ..., <psi_q, W>) ]

    which is zero for any test function of the conditioning coordinates
    (use polynomial g of modest degree, <= 6, so moments exist cleanly).
    ``g`` is called once, on the column-major (count, q) array of
    coordinates, and must return a (count,) array; any other shape raises
    ``ValueError``.  The residual F - E[F | conditioning] is evaluated in
    one pass: the terms of F and those of E[F | conditioning], with their
    coefficients negated, go to the evaluator together.
    """
    if batch.count == 0:
        raise InputError("batch", "empty batch")
    conditioned = cond_exp_chaos(expansion, conditioning, cov)
    dims = batch.samples.shape[-2:]
    coeffs, bases, degrees = _term_arrays(expansion.kernels.values(), dims, "batch")
    p_coeffs, p_bases, p_degrees = _term_arrays(conditioned.kernels.values(), dims, "batch")
    residual = _eval_terms(
        np.concatenate([coeffs, -p_coeffs]),
        np.concatenate([bases, p_bases]),
        np.concatenate([degrees, p_degrees]),
        cov,
        batch.samples,
    )
    coords = pairings(conditioning.basis, batch)
    gvals = np.asarray(g(coords), dtype=float)
    if gvals.shape != (batch.count,):
        raise InputError("g", f"g must return one value per sample, got shape {gvals.shape}")
    mean, se = _mean_estimate(residual * gvals)
    return McEstimate(value=mean, std_error=se, count=batch.count)
