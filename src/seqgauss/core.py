"""Linear algebra on truncated sequence spaces with a covariance weight.

The ambient space is the set of m-by-d real matrices F, read as a
d-sequence of vectors in R^m (column k of F is the k-th sequence entry).
We call such a matrix a *sequence vector*.  Two bilinear maps connect the
pieces:

* ``bullet(h, x)`` embeds a vector h in R^m and a coefficient sequence x
  in R^d as the rank-one sequence vector with k-th column ``x[k] * h``.
* ``bracket(f, x)`` contracts a sequence vector against a coefficient
  sequence, returning ``sum_k x[k] * f_k`` in R^m.

A symmetric positive-definite d-by-d matrix A (the covariance weight)
induces the weighted inner product ``(f, g)_A = (f, g A)_F`` used
throughout the package.  ``Covariance`` holds a diagonal A (given as a
matrix or as its length-d diagonal) as that vector, so its weighted
products cost O(d) per row and no d-by-d array exists until ``matrix`` or
``chol`` is read; any other A is factored once by dense Cholesky.
``gram_a`` evaluates it between every pair of two (p, m, d) and (q, m, d)
stacks of sequence vectors as one matrix product.  The module also
provides A-orthogonal Gram-Schmidt of a (q, m, d) stack (the kept
vectors come back as one array), the extension of a d-by-d operator to
sequence vectors, the block form of the A-orthogonal projection onto
leading coordinates, and positive-semidefiniteness helpers (Schur
products preserve PSD).

All values are immutable after construction; every function is pure.

Every numeric argument of the package is accepted in one place, this
module: ``_as_array`` for a number or an array of ints and floats (not
booleans or strings, which numpy would convert), which must convert to a
finite float array with the stated number of axes, and ``_check_count``
for an integer count.  The immutable value types hold ``_held``'s
read-only copy of an array.  Every refused input, there and elsewhere,
raises the one refusal type ``InputError`` (a ``ValueError``) whose
``argument`` is the parameter's name as the signature spells it.  One
intake keeps its own code: ``measure.SampleBatch`` keeps a read-only
batch uncopied and tests it by its min and max, with no batch-sized
temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "InputError",
    "TruncationDims",
    "Covariance",
    "ProjectionBlocks",
    "bullet",
    "bracket",
    "inner_l2",
    "inner_a",
    "norm_a",
    "gram_a",
    "check_orthonormal_a",
    "apply_matrix",
    "apply_extended",
    "gram_schmidt",
    "gram_schmidt_a",
    "block_projection",
    "psd_check",
    "hadamard",
]


# Gram-Schmidt drops a vector whose residual A-norm is at most this
# fraction of its input A-norm.
DEPENDENT_TOL = 1e-12
# A family is A-orthonormal when every Gram entry is within this of the identity.
ORTHONORMAL_TOL = 1e-8
PSD_TOL = 1e-9  # psd_check's tolerance, relative to the spectral norm


class InputError(ValueError):
    """A refused input; ``argument`` names it (a parameter of the library,
    or a config field or option where the CLI reads it)."""

    def __init__(self, argument: str, message: str) -> None:
        self.argument = argument
        super().__init__(message)


_PLAIN_NUMBERS = {int, float}


def _is_numeric(x) -> bool:
    """True for an int, float or numpy number, an int or float array, or a
    (nested) list or tuple of these; booleans and strings are not numbers,
    although numpy converts them."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iuf"
    if isinstance(x, (list, tuple)):
        # the set of leaf types keeps long flat lists cheap to check
        return set(map(type, x)) <= _PLAIN_NUMBERS or all(map(_is_numeric, x))
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _as_array(x, ndim: int | None, name: str, copy: bool = False,
              label: str | None = None) -> np.ndarray:
    """``x`` as a finite float array with ``ndim`` axes (any number for
    None), never ``x`` itself with ``copy``; an empty sequence is an empty
    array of any number of axes.  Anything else, booleans and strings
    included, raises ``InputError(name)`` whose message opens with
    ``label`` (``name`` by default)."""
    label = label or name
    # the array test inline: it is what most calls pass
    if not (x.dtype.kind in "iuf" if isinstance(x, np.ndarray) else _is_numeric(x)):
        raise InputError(name, f"{label} is not a numeric array: booleans, strings and "
                               "other non-numbers are refused")
    try:
        arr = np.array(x, dtype=float) if copy else np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(name, f"{label} is not a numeric array: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        if arr.shape != (0,) or not ndim:
            raise InputError(name, f"{label} must be a {ndim}-D array, got shape {arr.shape}")
        arr = arr.reshape((0,) * ndim)
    # count_nonzero skips the reduction set-up that makes .all() cost
    # about 1 us more on the small arrays most calls pass
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise InputError(name, f"{label} contains non-finite entries")
    return arr


def _held(x, ndim: int, name: str) -> np.ndarray:
    """``_as_array(x, ndim, name)`` as a read-only copy, which no later
    write to ``x`` can change."""
    return _frozen(_as_array(x, ndim, name, copy=True))


def _check_length(n: int, cov: Covariance, name: str) -> None:
    if n != cov.dim:
        raise InputError(name, f"{name}: sequence length {n} does not match covariance dim "
                               f"{cov.dim}")


def _check_count(value, least: int, name: str) -> None:
    """Raise unless ``value`` is an integer (a bool is not) of at least ``least``."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < least:
        raise InputError(name, f"{name} must be an integer >= {least}, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _symmetrized(a: np.ndarray, rtol: float, name: str) -> np.ndarray:
    """``0.5 * (a + a.T)`` of a square matrix; raises ``InputError(name)``
    if an entry of ``a - a.T`` exceeds ``rtol`` times the largest absolute
    entry."""
    scale = np.abs(a).max()
    # from 2**1023 up, a + a.T or a - a.T can overflow; halving first is
    # exact there, and every smaller matrix keeps the bits of 0.5 (a + a.T)
    halve = scale >= 2.0**1023
    if halve:
        a, scale = 0.5 * a, 0.5 * scale
    if np.abs(a - a.T).max() > rtol * scale:
        raise InputError(name, f"{name} is not symmetric")
    return a + a.T if halve else 0.5 * (a + a.T)


@dataclass(frozen=True)
class TruncationDims:
    """Truncation sizes, each a positive integer: m entries per vector, d
    sequence positions."""

    m: int
    d: int

    def __post_init__(self):
        _check_count(self.m, 1, "m")
        _check_count(self.d, 1, "d")


class Covariance:
    """Symmetric positive-definite weight matrix with cached Cholesky factor.

    Takes a d-by-d matrix or, as ``np.diag`` reads it, a length-d vector
    as its diagonal.  Symmetry is required up to 1e-12 relative to the
    largest entry and the matrix must be strictly positive definite;
    construction fails loudly otherwise (no jitter is added, since the
    weighted norm would degenerate).  A diagonal A (a vector, or a matrix
    whose every off-diagonal entry is zero, of either sign) is positive
    definite iff its diagonal is positive and is held as a copy of that
    vector, applied elementwise (bitwise equal to the dense products).
    Any other matrix is symmetrised and factored by dense Cholesky.
    ``matrix`` and ``chol`` are dense read-only arrays, never the caller's;
    for a diagonal A they are built on first access.
    """

    SYMMETRY_RTOL = 1e-12

    def __init__(self, matrix) -> None:
        a = _as_array(matrix, None, "matrix", label="covariance matrix")
        if a.ndim not in (1, 2) or not a.size or a.shape[0] != a.shape[-1]:
            raise InputError("matrix", f"covariance matrix must be square and non-empty, "
                             f"got {a.shape}")
        if a.ndim == 2 and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            a = np.diagonal(a)
        self._matrix = self._chol = self._diag = None
        if a.ndim == 1:
            if not (a > 0).all():
                raise InputError("matrix", "covariance matrix is not positive definite")
            self._diag = _frozen(np.array(a))
            return
        a = _symmetrized(a, self.SYMMETRY_RTOL, "matrix")
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise InputError("matrix", "covariance matrix is not positive definite") from None
        self._matrix, self._chol = _frozen(a), _frozen(chol)

    @classmethod
    def identity(cls, d: int) -> "Covariance":
        _check_count(d, 1, "d")
        return cls(np.ones(d))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _frozen(np.diag(self._diag))
        return self._matrix

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular L with ``matrix = L @ L.T``."""
        if self._chol is None:
            self._chol = _frozen(np.diag(np.sqrt(self._diag)))
        return self._chol

    @property
    def dim(self) -> int:
        return len(self._diag) if self._matrix is None else len(self._matrix)

    def _weigh(self, x: np.ndarray) -> np.ndarray:
        """``x @ A`` along the last axis (elementwise for a diagonal A)."""
        return x @ self._matrix if self._diag is None else x * self._diag

    def _whiten(self, x: np.ndarray) -> np.ndarray:
        """``x @ L.T`` along the last axis, written over ``x`` for a diagonal A."""
        if self._diag is None:
            return x @ self._chol.T
        return np.multiply(x, np.sqrt(self._diag), out=x)

    def apply(self, x) -> np.ndarray:
        """Matrix-vector product A x on coefficient sequences."""
        xv = _as_array(x, 1, "x")
        _check_length(len(xv), self, "x")
        return self._weigh(xv)

    def inner(self, x, y) -> float:
        """Weighted inner product (x, A y) on R^d."""
        yv = _as_array(y, 1, "y")
        _check_length(len(yv), self, "y")
        return float(self.apply(x) @ yv)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Covariance(dim={self.dim})"


@dataclass(frozen=True)
class ProjectionBlocks:
    """Block matrices of the A-orthogonal projection onto the first ``cut``
    coordinates: P fixes those coordinates and fills them from the rest via
    the covariance blocks, while its weighted adjoint PT satisfies
    ``A P = PT A``."""

    cut: int
    p: np.ndarray
    pt: np.ndarray


def bullet(h, x) -> np.ndarray:
    """Rank-one embedding: column k of the result is ``x[k] * h``.

    Satisfies the norm identity ||bullet(h, x)||_F = ||h|| * ||x||.
    """
    hv = _as_array(h, 1, "h")
    xv = _as_array(x, 1, "x")
    return np.outer(hv, xv)


def bracket(f, x) -> np.ndarray:
    """Contraction sum_k x[k] * f_k, i.e. the matrix-vector product F x."""
    fm = _as_array(f, 2, "f")
    xv = _as_array(x, 1, "x")
    if fm.shape[1] != xv.shape[0]:
        raise InputError(
            "x", f"sequence length mismatch: f has {fm.shape[1]} columns, x has {xv.shape[0]}"
        )
    return fm @ xv


def inner_l2(f, g) -> float:
    """Frobenius inner product sum_k (f_k, g_k)."""
    fm = _as_array(f, 2, "f")
    gm = _as_array(g, 2, "g")
    if fm.shape != gm.shape:
        raise InputError("g", f"shape mismatch: {fm.shape} vs {gm.shape}")
    return float(np.sum(fm * gm))


def apply_matrix(m: np.ndarray, f) -> np.ndarray:
    """Extend a d-by-d matrix M to sequence vectors: column l of the result
    is ``sum_k M[l, k] * f_k``, i.e. ``F @ M.T``.

    The extension is basis independent: expanding f against any orthonormal
    basis (b_k) of R^d and mapping each b_k through M gives the same matrix.
    """
    fm = _as_array(f, 2, "f")
    mm = _as_array(m, 2, "m")
    _check_operator(mm.shape, fm)
    return fm @ mm.T


def apply_extended(cov: Covariance, f) -> np.ndarray:
    """Apply the covariance weight to a sequence vector (``F @ A``)."""
    fm = _as_array(f, 2, "f")
    _check_operator((cov.dim, cov.dim), fm)
    return cov._weigh(fm)


def _check_operator(shape: tuple[int, ...], fm: np.ndarray) -> None:
    """Raise unless an operator of ``shape`` is square and as wide as the
    sequence vector ``fm``."""
    if shape[0] != shape[1] or shape[0] != fm.shape[1]:
        raise InputError(
            "f", f"operator of shape {shape} cannot act on sequence of length {fm.shape[1]}"
        )


def inner_a(f, g, cov: Covariance) -> float:
    """Weighted inner product (f, g)_A = trace(F^T G A); symmetric in f, g."""
    fm = _as_array(f, 2, "f")
    gm = _as_array(g, 2, "g")
    if fm.shape != gm.shape:
        raise InputError("g", f"shape mismatch: {fm.shape} vs {gm.shape}")
    _check_length(fm.shape[1], cov, "f")
    return float(np.vdot(fm, cov._weigh(gm)))


def norm_a(f, cov: Covariance) -> float:
    """Weighted norm ||f||_A; clamps tiny negative rounding to zero."""
    return float(np.sqrt(max(inner_a(f, f, cov), 0.0)))


def gram_a(fs, gs, cov: Covariance) -> np.ndarray:
    """Matrix ``G[i, j] = (f_i, g_j)_A`` between stacks of sequence vectors
    shaped (p, m, d) and (q, m, d), computed as the single product
    ``(F A).reshape(p, -1) @ G.reshape(q, -1).T``."""
    fa = _as_array(fs, 3, "fs")
    ga = _as_array(gs, 3, "gs")
    if fa.shape[1:] != ga.shape[1:]:
        raise InputError("gs", f"shape mismatch: {fa.shape[1:]} vs {ga.shape[1:]}")
    _check_length(fa.shape[2], cov, "fs")
    return cov._weigh(fa).reshape(len(fa), -1) @ ga.reshape(len(ga), -1).T


def check_orthonormal_a(vectors, cov: Covariance, what: str, argument: str = "vectors") -> None:
    """Raise ``InputError(argument)`` unless every entry of the Gram matrix
    of the (p, m, d) stack ``vectors`` is within ``ORTHONORMAL_TOL`` of the
    identity; the message names ``what`` and the worst pair.  A caller
    checking one of its own parameters passes that parameter's name."""
    vectors = _as_array(vectors, 3, argument)
    gram = gram_a(vectors, vectors, cov)
    deviation = np.triu(np.abs(gram - np.eye(len(gram))))
    i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
    if not deviation[i, j] <= ORTHONORMAL_TOL:
        raise InputError(
            argument, f"{what} is not A-orthonormal: worst pair ({i}, {j})_A = {gram[i, j]:.3e}"
        )


def gram_schmidt(vectors, cov: Covariance) -> np.ndarray:
    """A-orthonormalize a (q, m, d) stack of sequence vectors into a
    (k, m, d) array.

    Modified Gram-Schmidt with one re-orthogonalization pass; the image
    ``b A`` of each kept vector is formed once, so each coefficient is
    ``vdot(w, b A)``.  Each input is first scaled by the power of two that
    brings its largest entry into [0.5, 1), so the norm of a finite vector
    however large or small neither overflows nor underflows; power-of-two
    scaling is exact, so wherever the unscaled input would not overflow or
    underflow the result is bitwise the same.  A vector whose residual
    norm falls to ``DEPENDENT_TOL`` times its input norm (or to zero) is
    dropped as dependent; input order is preserved otherwise.  Raises
    ``InputError("vectors")`` if the stack is empty, not finite or not of
    sequence length ``cov.dim``, or if every vector is dropped.
    """
    return _orthonormalized(_as_array(vectors, 3, "vectors"), cov, "vectors")


def _orthonormalized(stack: np.ndarray, cov: Covariance, name: str) -> np.ndarray:
    """``gram_schmidt`` of a converted stack, refusing it as ``name``."""
    if len(stack) == 0:
        raise InputError(name, "cannot orthonormalize an empty list")
    _check_length(stack.shape[2], cov, name)
    exponents = np.frexp(np.abs(stack).max(axis=(1, 2), initial=0.0))[1]
    # ldexp, not stack * 2.0**-e, which overflows for subnormal entries
    stack = np.ldexp(stack, -exponents[:, None, None])
    basis: list[np.ndarray] = []
    images: list[np.ndarray] = []
    for w in stack:
        scale = np.sqrt(max(np.vdot(w, cov._weigh(w)), 0.0))
        for _ in range(2):
            for b, b_a in zip(basis, images):
                w = w - np.vdot(w, b_a) * b
        residual = np.sqrt(max(np.vdot(w, cov._weigh(w)), 0.0))
        if residual <= DEPENDENT_TOL * scale or residual == 0.0:
            continue
        basis.append(w / residual)
        images.append(cov._weigh(basis[-1]))
    if not basis:
        raise InputError(name, "all input vectors are zero or dependent")
    return np.array(basis)


def gram_schmidt_a(xs: Sequence, cov: Covariance) -> np.ndarray:
    """A-orthonormalize a list of coefficient sequences in R^d; the kept
    vectors are the rows of a (k, d) array."""
    return _orthonormalized(_as_array(xs, 2, "xs")[:, np.newaxis], cov, "xs")[:, 0]


def block_projection(cov: Covariance, cut: int) -> ProjectionBlocks:
    """Block form of the A-orthogonal projection onto the first ``cut``
    coordinates of R^d.

    With A split at ``cut`` into blocks [[A_cc, A_cf], [A_fc, A_ff]],

        P  = [[I, A_cc^-1 A_cf], [0, 0]]      (P^2 = P, range = leading span)
        PT = [[I, 0], [A_fc A_cc^-1, 0]]      (A P = PT A)

    so (x, P y)_A = (P x, y)_A and ||P x||_A <= ||x||_A for all x.
    """
    d = cov.dim
    _check_count(cut, 1, "cut")
    if cut >= d:
        raise InputError("cut", f"cut must satisfy 1 <= cut < {d}, got {cut}")
    a = cov.matrix
    a_cc = a[:cut, :cut]
    a_cf = a[:cut, cut:]
    try:
        coupling = np.linalg.solve(a_cc, a_cf)
    except np.linalg.LinAlgError:
        raise ValueError("leading covariance block is singular") from None
    p = np.zeros((d, d))
    p[:cut, :cut] = np.eye(cut)
    p[:cut, cut:] = coupling
    pt = np.zeros((d, d))
    pt[:cut, :cut] = np.eye(cut)
    pt[cut:, :cut] = coupling.T
    return ProjectionBlocks(cut=cut, p=_frozen(p), pt=_frozen(pt))


def psd_check(m) -> bool:
    """True iff the symmetric matrix m has smallest eigenvalue >= -PSD_TOL * ||m||.

    The tolerance is relative to the spectral norm; raises on non-symmetric
    input (symmetry is checked against the same relative tolerance).
    """
    mm = _as_array(m, 2, "m", label="matrix")
    if mm.shape[0] != mm.shape[1] or not mm.size:
        raise InputError("m", f"matrix must be square and non-empty, got {mm.shape}")
    eigs = np.linalg.eigvalsh(_symmetrized(mm, PSD_TOL, "m"))
    return bool(eigs.min() >= -PSD_TOL * np.abs(eigs).max())


def hadamard(m1, m2) -> np.ndarray:
    """Entrywise (Schur) product; preserves positive semidefiniteness."""
    a = _as_array(m1, 2, "m1")
    b = _as_array(m2, 2, "m2")
    if a.shape != b.shape:
        raise InputError("m2", f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b
