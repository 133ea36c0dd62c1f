"""One-dimensional radiative-transfer moment hierarchy with two closures.

Projecting the transfer equation onto Legendre polynomials (squared norms
2/(2l+1), quoted for orientation only) yields the tridiagonal system

    dI_k/dt + b_{k,k-1} dI_{k-1}/dx + b_{k,k+1} dI_{k+1}/dx = -c_k I_k + q_k

with advection weights b_{k,k+1} = (k+1)/(2k+1) and b_{k,k-1} = k/(2k+1),
absorption c_0 = kappa and c_k = kappa + sigma for k > 0, and source
q_0 = 2 kappa q (higher moments unsourced).  Keeping moments 0..N leaves
the unresolved I_{N+1} in the last equation.  Two closures are offered:

* ``pn``: truncate, I_{N+1} = 0.
* ``optimal_prediction``: given a correlation matrix A over the moment
  indices, replace I_{N+1} by its best linear prediction from the
  resolved moments, r I_C with r = A_fc A_cc^{-1} (the row of the block
  coupling for index N+1).  The row is invariant under positive scaling
  of A, and a block-diagonal A (no resolved/unresolved coupling) gives
  r = 0, i.e. exactly the truncation closure.

Moments are numbered 0..N here, matching the physics convention; the
block projection in :mod:`seqgauss.core` counts leading coordinates
starting at 1, so a closure at order N corresponds to ``cut = N + 1``.

Time integration is one-step explicit Lax-Friedrichs on a uniform
periodic grid (conservative: spatial sums of each moment are exact
invariants of the pure-advection system).  :func:`solve_closure` and
:func:`step` share one marching loop, which builds the closed advection
matrix B and its eigenvalues once per run.  The eigenvalues are computed
numerically since the closure row can enlarge the spectral radius rho(B)
or even make the closed system non-hyperbolic.  A non-real eigenvalue
(|imag| > 1e-12 max(rho, 1)) makes the run raise
:class:`ClosureInputError` (a ``ValueError`` naming the correlation
matrix) before any step, since the closure is then ill-posed; a singular
leading correlation block does the same.  The run enforces the CFL bound
dt <= cfl * dx / rho and reports a violation as a ``ClosureInputError``
naming ``dt``.  A blow-up (non-finite moment) is a plain ``ValueError``
reporting its time and cell.

The loop marches in place: u is kept in rows 1..J of one (J+2, N+1)
buffer whose two ghost rows are refreshed from the opposite ends before
each step, so the periodic neighbours are slices of that buffer, not
rolled copies.  Each step is computed into preallocated arrays with the
same operations in the same order as 0.5 (left + right) - (courant
(right - left)) @ B^T - damping u + dt q, so results do not depend on the
buffering.  ``dt * q`` is computed once for a constant source; a callable
source is evaluated at the start time of every step.  Returned snapshots
are read-only copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MomentSystemCoeffs",
    "MaterialParams",
    "ClosureSpec",
    "MomentGrid",
    "ClosureInputError",
    "build_moment_system",
    "closure_row",
    "closed_advection_matrix",
    "step",
    "solve_closure",
]

PN = "pn"
OPTIMAL_PREDICTION = "optimal_prediction"
DEFAULT_CFL = 0.9


class ClosureInputError(ValueError):
    """A closure run rejected because of one input.  ``argument`` names
    it: ``"correlation"`` (the closure's correlation matrix) or ``"dt"``."""

    def __init__(self, argument: str, message: str) -> None:
        self.argument = argument
        super().__init__(message)


@dataclass(frozen=True)
class MomentSystemCoeffs:
    """Advection coefficients of the moment hierarchy up to order N.

    ``b`` has shape (N+1, N+2): row k holds the couplings of moment k to
    its neighbours, including the unresolved column N+1.
    """

    order: int
    b: np.ndarray


@dataclass(frozen=True)
class MaterialParams:
    """Material data on a uniform grid of J cells over (a, b).

    ``sigma`` (scattering) and ``kappa`` (absorption) are per-cell arrays;
    ``source`` is a per-cell array or a callable (x_centers, t) -> array
    evaluated at the start of each step.
    """

    a: float
    b: float
    cells: int
    sigma: np.ndarray
    kappa: np.ndarray
    source: np.ndarray | Callable[[np.ndarray, float], np.ndarray]

    def __post_init__(self):
        if self.cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.cells}")
        if not self.b > self.a:
            raise ValueError(f"domain ({self.a}, {self.b}) is empty")
        sigma = _per_cell(self.sigma, self.cells, "sigma")
        kappa = _per_cell(self.kappa, self.cells, "kappa")
        if (sigma < 0).any():
            raise ValueError("sigma must be non-negative")
        if (kappa < 0).any():
            raise ValueError("kappa must be non-negative")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "kappa", kappa)
        if not callable(self.source):
            object.__setattr__(
                self, "source", _per_cell(self.source, self.cells, "source")
            )

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def x_centers(self) -> np.ndarray:
        return self.a + (np.arange(self.cells) + 0.5) * self.dx

    def source_values(self, t: float) -> np.ndarray:
        if callable(self.source):
            return _per_cell(self.source(self.x_centers, t), self.cells, "source")
        return self.source


def _per_cell(values, cells: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(cells, float(arr))
    if arr.shape != (cells,):
        raise ValueError(f"{name} must be scalar or length-{cells}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ClosureSpec:
    """Closure choice: plain truncation (``pn``) or best linear prediction
    of the first unresolved moment from a correlation matrix
    (``optimal_prediction``)."""

    kind: str
    correlation: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (PN, OPTIMAL_PREDICTION):
            raise ValueError(f"unknown closure kind {self.kind!r}")
        if self.kind == OPTIMAL_PREDICTION:
            if self.correlation is None:
                raise ValueError("optimal_prediction closure requires a correlation matrix")
            corr = np.asarray(self.correlation, dtype=float)
            if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
                raise ValueError(f"correlation matrix must be square, got {corr.shape}")
            object.__setattr__(self, "correlation", corr)


@dataclass(frozen=True)
class MomentGrid:
    """Moment values on the grid at one time: entry (j, k) is I_k at cell j."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"values must be (cells, N+1), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("moment grid contains non-finite values")
        if arr is self.values and arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def order(self) -> int:
        return self.values.shape[1] - 1


def build_moment_system(order: int) -> MomentSystemCoeffs:
    """Advection coefficients b_{k,k+1} = (k+1)/(2k+1), b_{k,k-1} = k/(2k+1)."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    b = np.zeros((order + 1, order + 2))
    for k in range(order + 1):
        b[k, k + 1] = (k + 1) / (2 * k + 1)
        if k >= 1:
            b[k, k - 1] = k / (2 * k + 1)
    b.setflags(write=False)
    return MomentSystemCoeffs(order=order, b=b)


def closure_row(spec: ClosureSpec, order: int) -> np.ndarray:
    """Row r with I_{N+1} ~ r @ (I_0, ..., I_N); zero for the truncation
    closure.

    For optimal prediction the correlation matrix must cover indices
    0..N+1 and its leading (N+1) x (N+1) block must be invertible; r is
    invariant under positive rescaling of the matrix.
    """
    if spec.kind == PN:
        return np.zeros(order + 1)
    corr = spec.correlation
    if corr.shape[0] < order + 2:
        raise ClosureInputError(
            "correlation",
            f"correlation matrix of size {corr.shape[0]} too small for order {order}",
        )
    a_cc = corr[: order + 1, : order + 1]
    a_fc = corr[order + 1, : order + 1]
    try:
        return np.linalg.solve(a_cc.T, a_fc)
    except np.linalg.LinAlgError:
        raise ClosureInputError("correlation", "leading correlation block is singular") from None


def closed_advection_matrix(coeffs: MomentSystemCoeffs, spec: ClosureSpec) -> np.ndarray:
    """Square advection matrix with the closure row folded into the last
    equation."""
    n = coeffs.order
    mat = coeffs.b[:, : n + 1].copy()
    mat[n, :] += coeffs.b[n, n + 1] * closure_row(spec, n)
    return mat


def _absorption(params: MaterialParams, order: int) -> np.ndarray:
    c = np.empty((params.cells, order + 1))
    c[:, 0] = params.kappa
    if order >= 1:
        c[:, 1:] = (params.kappa + params.sigma)[:, None]
    return c


def _source_term(params: MaterialParams, order: int, t: float) -> np.ndarray:
    q = np.zeros((params.cells, order + 1))
    q[:, 0] = 2.0 * params.kappa * params.source_values(t)
    return q


def _march(
    state: MomentGrid,
    coeffs: MomentSystemCoeffs,
    params: MaterialParams,
    spec: ClosureSpec,
    dt: float | None,
    cfl: float,
    t_final: float,
    output_stride: int,
) -> list[MomentGrid]:
    """The one Lax-Friedrichs marching loop behind :func:`step` and :func:`solve_closure`.

    B and its eigenvalues are computed once for the hyperbolicity check, rho,
    the default ``dt`` and the CFL check.  u sits between two ghost rows of one
    padded buffer and each step fills preallocated arrays (``dt * q`` is computed
    once for a constant source).  Returns ``state``, every ``output_stride``-th
    step and the final step.
    """
    if state.order != coeffs.order:
        raise ValueError(
            f"state order {state.order} does not match coefficients order {coeffs.order}"
        )
    if state.values.shape[0] != params.cells:
        raise ValueError(
            f"state has {state.values.shape[0]} cells, params have {params.cells}"
        )
    if dt is not None and not dt > 0:
        raise ClosureInputError("dt", f"dt must be positive, got {dt}")
    b_closed = closed_advection_matrix(coeffs, spec)
    eigenvalues = np.linalg.eigvals(b_closed)
    rho = float(np.abs(eigenvalues).max())
    worst = eigenvalues[np.abs(eigenvalues.imag).argmax()]
    if abs(worst.imag) > 1e-12 * max(rho, 1.0):
        raise ClosureInputError("correlation", "closed advection matrix is not hyperbolic: "
                                f"eigenvalue {complex(worst):.6g} is not real")
    if dt is None:
        if rho == 0.0:
            raise ClosureInputError("dt", "advection-free system: provide dt explicitly")
        dt = cfl * params.dx / rho
    if rho > 0.0 and dt > cfl * params.dx / rho * (1.0 + 1e-12):
        raise ClosureInputError("dt", f"CFL violation: dt = {dt:.6g} exceeds {cfl:.3g} * "
                                f"dx / rho = {cfl * params.dx / rho:.6g}")
    n_steps = max(1, round(t_final / dt))
    courant = dt / (2.0 * params.dx)
    damping = dt * _absorption(params, state.order)
    b_t = np.ascontiguousarray(b_closed.T)
    padded = np.concatenate([state.values[-1:], state.values, state.values[:1]])
    u, left, right = padded[1:-1], padded[:-2], padded[2:]
    mean, flux, work = np.empty((3, *u.shape))
    finite = np.empty(u.shape, dtype=bool)
    snapshots, t = [state], state.t
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports overflow
        fixed = None if callable(params.source) else dt * _source_term(params, state.order, t)
        for i in range(1, n_steps + 1):
            source = fixed if fixed is not None else dt * _source_term(params, state.order, t)
            padded[0], padded[-1] = padded[-2], padded[1]
            # 0.5 (left + right) - (courant (right - left)) @ B^T - damping u + dt q
            np.multiply(0.5, np.add(left, right, out=mean), out=mean)
            np.multiply(courant, np.subtract(right, left, out=work), out=work)
            np.subtract(mean, np.matmul(work, b_t, out=flux), out=mean)
            np.subtract(mean, np.multiply(damping, u, out=work), out=mean)
            np.add(mean, source, out=u)
            t = t + dt
            if not np.isfinite(u, out=finite).all():
                bad = np.argwhere(~finite)[0]
                raise ValueError(f"solution blew up at t = {t:.6g}: non-finite moment "
                                 f"{bad[1]} in cell {bad[0]}")
            if i % output_stride == 0 or i == n_steps:
                snapshots.append(MomentGrid(t=t, values=u))
    return snapshots


def step(
    state: MomentGrid,
    coeffs: MomentSystemCoeffs,
    params: MaterialParams,
    spec: ClosureSpec,
    dt: float,
    cfl: float = DEFAULT_CFL,
) -> MomentGrid:
    """One explicit Lax-Friedrichs step with periodic boundaries.

    A thin wrapper over the marching loop of :func:`solve_closure`, so a
    loop of steps reproduces its snapshots bitwise.  Raises on a
    non-hyperbolic closed advection matrix, on CFL violation (dt > cfl *
    dx / rho of that matrix) and on non-finite output, reporting time
    and first bad cell.
    """
    return _march(state, coeffs, params, spec, dt, cfl, t_final=dt, output_stride=1)[-1]


def solve_closure(
    initial: MomentGrid,
    params: MaterialParams,
    spec: ClosureSpec,
    t_final: float,
    dt: float | None = None,
    output_stride: int = 1,
    cfl: float = DEFAULT_CFL,
) -> list[MomentGrid]:
    """March the closed system to ``t_final``, collecting snapshots.

    The closed advection matrix and its eigenvalues are computed once per
    call; a matrix with a non-real eigenvalue (an ill-posed closure)
    raises ``ValueError`` before any step is taken.  With ``dt`` omitted
    the largest CFL-stable step is used.  The step count is
    ``round(t_final / dt)`` (at least one), so the reached end time is
    ``steps * dt``.  Snapshots are the initial state, every
    ``output_stride``-th step, and the final state.
    """
    if t_final <= 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    if output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, got {output_stride}")
    coeffs = build_moment_system(initial.order)
    return _march(initial, coeffs, params, spec, dt, cfl, t_final, output_stride)
