"""Symmetric tensor kernels and Wick-ordered monomial evaluation.

Degree-n kernels are stored in polarized form: a weighted list of n-th
tensor powers ``sum_i coeff_i * base_i^(x)n`` (``SymKernel``).  Any
elementary symmetric product x_1 (x) ... (x) x_n expands into 2^n such
powers via the polarization identity (``polarize``), so the polarized form
spans the whole symmetric subspace.  Rank-one powers are symmetric by
construction, hence so is every stored kernel.

Evaluation of the Wick-ordered monomial of a rank-one power against a
sample W reduces to a Hermite polynomial of one pairing,

    :<phi^(x)n, W^(x)n>:  =  ||phi||_A^n  H_n( <phi, W> / ||phi||_A ),

which is the homogeneous polynomial P_n(x, t) of x = <phi, W> and
t = ||phi||_A^2 given by

    P_0 = 1,  P_1 = x,  P_{k+1} = x P_k - k t P_{k-1},

so no norm is divided by and a zero base gives P_n = 0 for n >= 1.  One
private evaluator serves ``wick_eval`` and ``chaos.eval_expansion``: it
takes the terms of any number of kernels of any degrees, sorts them by
degree, highest first, and for each block of samples makes one GEMM
``x = bases @ w_block^T`` for every degree; step k of the recurrence then
runs on the degree-sorted prefix of terms of degree >= k only.  Where the
samples fill at least ``_FACTOR_BLOCKS`` blocks, each step's per-term
factor (t, 2t or -k t) is built once per evaluation as a contiguous array
as wide as a block, leading steps first within 3 * ``_BLOCK_VALUES``
values, and reused in every block; otherwise each block broadcasts the
factor's (terms, 1) column.

The weighted inner product of two rank-one powers is the n-th power of
the inner product of their bases, so that of two kernels is one weighted
Gram product raised entrywise to n and contracted with the coefficients:
``kernel_inner_a`` returns ``a @ gram_a(bases_1, bases_2)**n @ b``.

For cross-checking at small sizes the module carries a dense
representation (``DenseTensor``, full (m*d)^n arrays, capped at degree 4
and m*d <= 6) together with two independent constructions of the Wick
functional: the two-term recursion

    :W^0: = 1,  :W^1: = W,
    :W^n: = sym(W (x) :W^(n-1):) - (n-1) sym(T (x) :W^(n-2):)

with T the weighted pairing matrix, and the closed alternating sum over
trace insertions.  ``wick_eval_dense`` pairs the recursion-built
functional with a dense kernel; the closed form and the inverse relation
(rebuilding plain monomials from Wick ones) are exposed for the
verification suites.

Sequence vectors are flattened row-major (C order) into vectors of length
m*d wherever a dense index is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .core import Covariance, InputError, _as_array, _check_count, _check_length, _held, gram_a

__all__ = [
    "RankOnePower",
    "SymKernel",
    "DenseTensor",
    "polarize",
    "symmetrize_dense",
    "dense_from_kernel",
    "weight_pairing_matrix",
    "wick_eval",
    "wick_dense_tensor",
    "wick_dense_closed_form",
    "monomial_dense_from_wick",
    "wick_eval_dense",
    "kernel_inner_a",
    "dense_inner_a",
]

DENSE_MAX_DEGREE = 4
DENSE_MAX_FLAT_DIM = 6
# (term, sample) values per block of the evaluator: each recurrence
# temporary stays at 256 KB, so its peak memory does not grow with the
# sample count
_BLOCK_VALUES = 32_768
# blocks of samples from which the evaluator builds its per-step factors:
# with fewer, allocating and filling them cost more than they saved (at 2-3
# blocks of 192 terms, and up to 15 blocks of one term of each degree 1..40)
_FACTOR_BLOCKS = 16


@dataclass(frozen=True)
class RankOnePower:
    """One polarized term: ``coeff * base^(x)degree`` with a finite coeff
    and base an m-by-d finite sequence vector."""

    coeff: float
    base: np.ndarray
    degree: int

    def __post_init__(self):
        _check_count(self.degree, 0, "degree")
        object.__setattr__(self, "base", _held(self.base, 2, "base"))
        object.__setattr__(self, "coeff", float(_as_array(self.coeff, 0, "coeff")))


@dataclass(frozen=True)
class SymKernel:
    """Symmetric degree-n kernel as a list of rank-one powers of equal
    degree and dimensions."""

    degree: int
    terms: tuple[RankOnePower, ...]

    def __post_init__(self):
        _check_count(self.degree, 0, "degree")
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if t.degree != self.degree:
                raise InputError(
                    "terms", f"term of degree {t.degree} in kernel of degree {self.degree}"
                )
        shapes = {t.base.shape for t in terms}
        if len(shapes) > 1:
            raise InputError("terms", f"inconsistent base shapes {shapes}")

    @property
    def dims(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("kernel has no terms")
        return self.terms[0].base.shape

    @classmethod
    def rank_one(cls, base, degree: int, coeff: float = 1.0) -> "SymKernel":
        return cls(degree=degree, terms=(RankOnePower(coeff, base, degree),))

    @classmethod
    def constant(cls, value: float, m: int, d: int) -> "SymKernel":
        """The degree-0 kernel ``value`` on m-by-d sequence vectors."""
        value = _as_array(value, 0, "value")
        _check_count(m, 1, "m")
        _check_count(d, 1, "d")
        return cls.rank_one(np.zeros((m, d)), degree=0, coeff=value)


@dataclass(frozen=True)
class DenseTensor:
    """Dense degree-n tensor over flattened sequence vectors of the
    ``dims`` pair (m, d); oracle only, limited to degree <= 4 and m*d <= 6."""

    degree: int
    dims: tuple[int, int]
    array: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.dims, tuple) and len(self.dims) == 2):
            raise InputError("dims", f"dims must be a pair (m, d), got {self.dims!r}")
        for size in self.dims:
            _check_count(size, 1, "dims")
        flat = self.dims[0] * self.dims[1]
        _check_dense_limits(self.degree, flat, ("degree", "dims"))
        arr = _held(self.array, self.degree, "array")
        expected = (flat,) * self.degree
        if arr.shape != expected:
            raise InputError("array", f"array shape {arr.shape} does not match {expected}")
        object.__setattr__(self, "array", arr)


def _check_dense_limits(degree, flat_dim: int, names=("n", "w")) -> None:
    """Refuse, as ``names``, a degree that is not an integer in
    0..``DENSE_MAX_DEGREE`` or a flattened size above ``DENSE_MAX_FLAT_DIM``."""
    _check_count(degree, 0, names[0])
    if degree > DENSE_MAX_DEGREE:
        raise InputError(
            names[0], f"dense tensors are limited to degree {DENSE_MAX_DEGREE}, got {degree}"
        )
    if flat_dim > DENSE_MAX_FLAT_DIM:
        raise InputError(
            names[1], f"dense tensors are limited to m*d <= {DENSE_MAX_FLAT_DIM}, got {flat_dim}"
        )


def polarize(xs) -> SymKernel:
    """Polarized form of the symmetric product x_1 (x) ... (x) x_n.

    Returns the 2^n rank-one powers ``prod(signs) / (2^n n!) *
    (sum_i signs_i x_i)^(x)n`` whose sum is the symmetrized product.  Term
    count doubles per factor; intended for small n.
    """
    vecs = list(_as_array(xs, 3, "xs"))
    if not vecs:
        raise InputError("xs", "polarize requires at least one vector")
    n = len(vecs)
    scale = 1.0 / (2**n * factorial(n))
    terms = []
    for signs in itertools.product((1.0, -1.0), repeat=n):
        base = sum(s * v for s, v in zip(signs, vecs))
        terms.append(RankOnePower(np.prod(signs) * scale, base, n))
    return SymKernel(degree=n, terms=tuple(terms))


def symmetrize_dense(t: DenseTensor) -> DenseTensor:
    """Average over all axis permutations; idempotent."""
    arr = _symmetrize_array(t.array)
    return DenseTensor(degree=t.degree, dims=t.dims, array=arr)


def _tensor_product(factors) -> np.ndarray:
    """Tensor product of ``factors`` in order, built left to right from
    ``np.array(1.0)`` by ``np.multiply.outer``."""
    out = np.array(1.0)
    for factor in factors:
        out = np.multiply.outer(out, factor)
    return out


def _symmetrize_array(arr: np.ndarray) -> np.ndarray:
    n = arr.ndim
    if n <= 1:
        return arr
    acc = np.zeros_like(arr)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        acc += np.transpose(arr, perm)
    return acc / len(perms)


def dense_from_kernel(kernel: SymKernel) -> DenseTensor:
    """Expand a polarized kernel into its dense tensor."""
    m, d = kernel.dims
    flat = m * d
    _check_dense_limits(kernel.degree, flat, ("kernel", "kernel"))
    arr = np.zeros((flat,) * kernel.degree)
    for t in kernel.terms:
        arr = arr + t.coeff * _tensor_product([t.base.ravel()] * kernel.degree)
    return DenseTensor(degree=kernel.degree, dims=(m, d), array=arr)


def weight_pairing_matrix(cov: Covariance, m: int) -> np.ndarray:
    """Matrix T of the weighted pairing on flattened sequence vectors:
    ``f.ravel() @ T @ g.ravel() == inner_a(f, g, cov)``."""
    _check_count(m, 1, "m")
    return np.kron(np.eye(m), cov.matrix)


def wick_eval(kernel: SymKernel, cov: Covariance, w):
    """Evaluate the Wick-ordered monomial of ``kernel`` at sample(s) ``w``.

    Sums ``coeff * ||base||_A^n * H_n(<base, w> / ||base||_A)`` over the
    polarized terms.  ``w`` may be one finite m-by-d sample or a stacked
    batch with leading axes; the result is a float or an array accordingly.
    Runs the one-pass evaluator of ``chaos.eval_expansion`` on the terms of
    this one kernel: one GEMM per block of samples, then the homogeneous
    Hermite recurrence, which never divides by ``||base||_A``.
    """
    w = _as_array(w, None, "w")
    return _eval_terms(*_term_arrays([kernel], w.shape[-2:], "w"), cov, w)


def _term_arrays(kernels, dims, name: str):
    """Coefficients (T,), bases (T, m, d) and degrees (T,) of every term of
    ``kernels``, in order; refuses the samples as ``name`` unless each
    kernel with terms has their dims ``dims``."""
    for kernel in kernels:
        if kernel.terms and kernel.dims != dims:
            raise InputError(name, f"kernel dims {kernel.dims} do not match sample dims {dims}")
    terms = [t for kernel in kernels for t in kernel.terms]
    coeffs = np.array([t.coeff for t in terms], dtype=float)
    bases = np.array([t.base for t in terms], dtype=float).reshape(len(terms), *dims)
    degrees = np.array([t.degree for t in terms], dtype=int)
    return coeffs, bases, degrees


def _eval_terms(coeffs, bases, degrees, cov: Covariance, w):
    """Sum of ``coeff_i * :base_i^(x)deg_i:`` over terms of any degrees at
    sample(s) ``w``, in one pass over the samples (see the module
    docstring for the recurrence).

    Degree-0 coefficients add up to a constant.  The other terms are
    sorted by degree, highest first, and their ``t = ||base||_A^2`` is the
    diagonal of one ``gram_a``, which checks every base.  Each block of
    samples is one GEMM ``x = bases @ w_block^T`` of shape (terms, rows);
    step k of the recurrence runs on the leading rows of degree >= k and
    adds ``coeffs[deg == k] @ P_k[deg == k]`` to the block's values.
    """
    single = w.ndim == 2
    total = np.full(() if single else w.shape[:-2], coeffs[degrees == 0].sum())
    order = np.argsort(-degrees, kind="stable")[: np.count_nonzero(degrees)]
    if order.size:
        coeffs, bases, degrees = coeffs[order], bases[order], degrees[order]
        # a copy of the diagonal, so that the (terms, terms) Gram matrix is
        # freed before the blocks and their factors are allocated
        t = np.diagonal(gram_a(bases, bases, cov))[:, np.newaxis].copy()
        # ends[k]: the number of leading rows of degree >= k, for k = 0..top+1
        ends = np.searchsorted(-degrees, -np.arange(degrees[0] + 2), side="right")
        bases_flat = bases.reshape(len(bases), -1)
        w_flat = w.reshape(-1, bases_flat.shape[1])
        out = total.reshape(-1)  # a view: each block adds into total
        rows = max(1, _BLOCK_VALUES // len(bases))
        factors = _step_factors(t, ends, rows if len(w_flat) >= _FACTOR_BLOCKS * rows else 1)
        for start in range(0, len(w_flat), rows):
            block = slice(start, start + rows)
            out[block] += _block_values(bases_flat @ w_flat[block].T, factors, coeffs, ends)
    return float(total) if single else total


def _step_factors(t, ends, width):
    """The factor that step k = 1, 2, ... of the recurrence applies to its
    ``ends[k + 1]`` leading rows: t, then 2t, then -k t, as a (rows, 1)
    column, which numpy broadcasts one row at a time.  Where ``width`` is
    above 1, the leading steps whose copies total at most
    3 * ``_BLOCK_VALUES`` values take a contiguous (rows, ``width``) copy
    of it instead."""
    factors, room = [], 3 * _BLOCK_VALUES
    for k in range(1, len(ends) - 2):
        r = ends[k + 1]
        column = t[:r] if k == 1 else (2 if k == 2 else -k) * t[:r]
        room -= r * width
        factors.append(np.repeat(column, width, axis=1) if width > 1 and room >= 0 else column)
    return factors


def _block_values(x, factors, coeffs, ends):
    """``sum_i coeffs_i P_{deg_i}`` over one block of pairings ``x``, with
    the terms sorted by degree, highest first, ``ends`` as in
    ``_eval_terms`` and ``factors`` from ``_step_factors``, of which a
    block as wide as x takes the leading columns.  ``x`` is P_1 and is
    never overwritten: P_3 is taken as ``x (P_2 - 2t)``, and from P_4 on,
    P_{k+1} is written over P_{k-1}."""
    values = coeffs[ends[2]:ends[1]] @ x[ends[2]:ends[1]]
    prev, cur = None, x
    for k, factor in enumerate(factors, 1):
        r, f = ends[k + 1], factor[:, : x.shape[1]]
        if k == 1:
            nxt = x[:r] * x[:r]
            nxt -= f
        elif k == 2:
            nxt = cur[:r] - f
            nxt *= x[:r]
        else:
            nxt = prev[:r]
            nxt *= f
            nxt += x[:r] * cur[:r]
        prev, cur = cur, nxt
        values += coeffs[ends[k + 2]:r] @ cur[ends[k + 2]:r]
    return values


def wick_dense_tensor(n: int, cov: Covariance, w) -> np.ndarray:
    """Dense Wick functional of degree n at sample w, built by the two-term
    recursion with the weighted pairing matrix."""
    w_arr = _as_array(w, 2, "w")
    m, d = w_arr.shape
    _check_dense_limits(n, m * d)
    _check_length(d, cov, "w")
    wf = w_arr.ravel()
    t_mat = weight_pairing_matrix(cov, m)
    prev2 = np.array(1.0)
    if n == 0:
        return prev2
    prev1 = wf
    for k in range(2, n + 1):
        cur = _symmetrize_array(np.multiply.outer(wf, prev1))
        cur = cur - (k - 1) * _symmetrize_array(np.multiply.outer(t_mat, prev2))
        prev2, prev1 = prev1, cur
    return prev1


def wick_dense_closed_form(n: int, cov: Covariance, w) -> np.ndarray:
    """Dense Wick functional of degree n via the closed alternating sum

    sum_k (-1)^k n! / (2^k k! (n-2k)!) sym(T^(x)k (x) w^(x)(n-2k));

    independent of the recursion in ``wick_dense_tensor``.
    """
    w_arr = _as_array(w, 2, "w")
    m, d = w_arr.shape
    _check_dense_limits(n, m * d)
    _check_length(d, cov, "w")
    wf = w_arr.ravel()
    t_mat = weight_pairing_matrix(cov, m)
    total = np.zeros((m * d,) * n)
    if n == 0:
        return np.array(1.0)
    for k in range(n // 2 + 1):
        coeff = (-1) ** k * factorial(n) / (2**k * factorial(k) * factorial(n - 2 * k))
        piece = _tensor_product([t_mat] * k + [wf] * (n - 2 * k))
        total = total + coeff * _symmetrize_array(piece)
    return total


def monomial_dense_from_wick(n: int, cov: Covariance, w) -> np.ndarray:
    """Rebuild the plain monomial tensor w^(x)n from Wick functionals via

    sum_k n! / (2^k k! (n-2k)!) sym(T^(x)k (x) :w^(x)(n-2k):).
    """
    w_arr = _as_array(w, 2, "w")
    m, d = w_arr.shape
    _check_dense_limits(n, m * d)
    _check_length(d, cov, "w")
    t_mat = weight_pairing_matrix(cov, m)
    if n == 0:
        return np.array(1.0)
    total = np.zeros((m * d,) * n)
    for k in range(n // 2 + 1):
        coeff = factorial(n) / (2**k * factorial(k) * factorial(n - 2 * k))
        piece = _tensor_product([t_mat] * k + [wick_dense_tensor(n - 2 * k, cov, w_arr)])
        total = total + coeff * _symmetrize_array(piece)
    return total


def wick_eval_dense(n: int, cov: Covariance, w, t: DenseTensor) -> float:
    """Pair the recursion-built dense Wick functional with a dense kernel.

    Agrees with ``wick_eval`` on the polarized form of ``t`` (the dense
    functional is symmetric, so a non-symmetric ``t`` is implicitly read
    through its symmetrization).
    """
    _check_count(n, 0, "n")
    if t.degree != n:
        raise InputError("t", f"kernel degree {t.degree} does not match n={n}")
    w = _as_array(w, 2, "w")
    if t.dims != w.shape:
        raise InputError("t", f"t: dims {t.dims} do not match the sample shape {w.shape}")
    functional = wick_dense_tensor(n, cov, w)
    return float(np.sum(functional * t.array))


def kernel_inner_a(k1: SymKernel, k2: SymKernel, cov: Covariance) -> float:
    """Weighted inner product of two degree-n kernels,
    ``sum_ij a_i b_j (base_i, base_j)_A^n``, as one product
    ``a @ G**n @ b`` with ``G = gram_a(bases_1, bases_2, cov)`` raised
    entrywise to n (at degree 0, the product of the coefficient sums).
    A kernel with no terms gives 0.0."""
    if k1.degree != k2.degree:
        raise InputError("k2", f"degree mismatch: {k1.degree} vs {k2.degree}")
    if not (k1.terms and k2.terms):
        return 0.0
    gram = gram_a([t.base for t in k1.terms], [t.base for t in k2.terms], cov)
    c1 = np.array([t.coeff for t in k1.terms])
    c2 = np.array([t.coeff for t in k2.terms])
    return float(c1 @ gram**k1.degree @ c2)


def dense_inner_a(t1: DenseTensor, t2: DenseTensor, cov: Covariance) -> float:
    """Weighted contraction of two dense tensors: every axis pair is
    coupled through the weighted pairing matrix.  Oracle counterpart of
    ``kernel_inner_a``."""
    if t1.degree != t2.degree:
        raise InputError("t2", f"degree mismatch: {t1.degree} vs {t2.degree}")
    if t1.dims != t2.dims:
        raise InputError("t2", f"dims mismatch: {t1.dims} vs {t2.dims}")
    m, d = t1.dims
    _check_length(d, cov, "t1")
    t_mat = weight_pairing_matrix(cov, m)
    weighted = t2.array
    for _ in range(t2.degree):
        weighted = np.tensordot(weighted, t_mat, axes=([0], [0]))
    return float(np.sum(t1.array * weighted))
