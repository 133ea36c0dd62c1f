"""One-dimensional radiative-transfer moment hierarchy with two closures.

Projecting the transfer equation onto Legendre polynomials (squared norms
2/(2l+1), quoted for orientation only) yields the tridiagonal system

    dI_k/dt + b_{k,k-1} dI_{k-1}/dx + b_{k,k+1} dI_{k+1}/dx = -c_k I_k + q_k

with advection weights b_{k,k+1} = (k+1)/(2k+1) and b_{k,k-1} = k/(2k+1),
absorption c_0 = kappa and c_k = kappa + sigma for k > 0, and source
q_0 = 2 kappa q (higher moments unsourced).  Keeping moments 0..N leaves
the unresolved I_{N+1} in the last equation.  The closure is chosen by
the ``correlation`` argument:

* ``correlation=None``: truncate, I_{N+1} = 0 (P_N).
* a correlation matrix A over the moment indices (optimal prediction):
  replace I_{N+1} by its best linear prediction from the resolved
  moments, r I_C with r = A_fc A_cc^{-1} (the row of the block coupling
  for index N+1).  The row is invariant under positive scaling of A, and
  a block-diagonal A (no resolved/unresolved coupling) gives r = 0, i.e.
  exactly the truncation closure.

Moments are numbered 0..N here, matching the physics convention; the
block projection in :mod:`seqgauss.core` counts leading coordinates
starting at 1, so a closure at order N corresponds to ``cut = N + 1``.

Time integration is one-step explicit Lax-Friedrichs on a uniform
periodic grid (conservative: spatial sums of each moment are exact
invariants of the pure-advection system).  :func:`solve_closure` holds
the marching loop and builds the closed advection matrix B and its
eigenvalues once per run; :func:`step` is a one-step ``solve_closure``.
The eigenvalues are computed numerically since the closure row can
enlarge the spectral radius rho(B) or even make the closed system
non-hyperbolic; such a closure is ill-posed and is refused before any
step.  The run enforces the CFL bound dt <= cfl * dx / rho.  A blow-up
(non-finite moment) is a plain ``ValueError`` reporting its time and
cell.

Each refusal of an input, these two included, is a
:class:`~seqgauss.core.InputError` (a ``ValueError``) whose ``argument``
names it.  Every number and array is taken through ``core``, so each of
them is refused if it is not a finite number (or, for the per-cell values
and the correlation, array); beyond that:

* ``"b"``: b - a not positive and finite;
* ``"cells"``: not an integer of at least 2;
* ``"sigma"``, ``"kappa"``, ``"source"``: not one number or a per-cell
  array; ``sigma`` and ``kappa`` also negative;
* ``"correlation"``: not square, too small for the order, a singular
  leading block, or a closed advection matrix with a non-real eigenvalue
  (|imag| > 1e-12 max(rho, 1));
* ``"order"``: N not an integer in 0..``MAX_ORDER``;
* ``"initial"``: a cell count other than the material's;
* ``"t_final"``: not positive, more than ``MAX_STEPS`` steps, or more
  than ``MAX_SNAPSHOT_VALUES`` values in the returned snapshots;
* ``"dt"``: not positive, above the CFL bound, or making the Courant
  number dt / (2 dx) not finite (possible only when rho = 0);
* ``"cfl"``: not positive;
* ``"output_stride"``: not an integer of at least 1.

The loop marches in place: u is kept in rows 1..J of one (J+2, N+1)
buffer whose two ghost rows are refreshed from the opposite ends before
each step, so the periodic neighbours are slices of that buffer, not
rolled copies.  Each step is computed into preallocated arrays with the
same operations in the same order as 0.5 (left + right) - (courant
(right - left)) @ B^T - damping u + dt q, so results do not depend on the
buffering.  The source is a fixed per-cell array, so ``dt * q`` is
computed once per run.  Returned snapshots are read-only copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, _as_array, _check_count, _frozen, _held

__all__ = [
    "MaterialParams",
    "MomentGrid",
    "build_moment_system",
    "closure_row",
    "closed_advection_matrix",
    "step",
    "solve_closure",
]

DEFAULT_CFL = 0.9
# A step costs about 10 us on the smallest grid, so this caps a run at
# minutes; a larger count almost always means T or dt in the wrong units.
MAX_STEPS = 10**7
# Snapshots stay in memory until the run returns: 2**24 doubles is 128 MiB
# (and about 350 MB as CSV text).
MAX_SNAPSHOT_VALUES = 2**24
# P_N closures run at orders of a few to a few dozen.  The dense (N+1)-sized
# moment system and its eigenvalues cost O(N^3) before any step (on a 2-vCPU
# VM about 0.05 s at this bound, 1 s at N = 1000), so a larger N is refused.
MAX_ORDER = 256


@dataclass(frozen=True)
class MaterialParams:
    """Material data on a uniform grid of J cells over (a, b).

    ``a`` and ``b`` are held as floats.  ``sigma`` (scattering),
    ``kappa`` (absorption) and ``source`` are each one finite number for
    every cell or a per-cell array of them; anything else, a callable
    included, raises :class:`~seqgauss.core.InputError` naming the field,
    as does a negative ``sigma`` or ``kappa``, a domain that is empty or
    not finite, and fewer than 2 cells.
    """

    a: float
    b: float
    cells: int
    sigma: np.ndarray
    kappa: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, float(_as_array(getattr(self, name), 0, name)))
        if not 0.0 < self.b - self.a < np.inf:
            raise InputError("b", f"domain ({self.a}, {self.b}) is empty or not finite")
        _check_count(self.cells, 2, "cells")
        for name in ("sigma", "kappa", "source"):
            values = _per_cell(getattr(self, name), self.cells, name)
            if name != "source" and (values < 0).any():
                raise InputError(name, f"{name} must be non-negative")
            object.__setattr__(self, name, values)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def x_centers(self) -> np.ndarray:
        return self.a + (np.arange(self.cells) + 0.5) * self.dx


def _per_cell(values, cells: int, name: str) -> np.ndarray:
    arr = _as_array(values, None, name)
    if arr.ndim == 0:
        arr = np.full(cells, float(arr))
    if arr.shape != (cells,):
        raise InputError(name, f"{name} must be scalar or length-{cells}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MomentGrid:
    """Moment values on the grid at a finite time ``t``, held as a float:
    entry (j, k) of the (cells, N+1) ``values`` is I_k at cell j."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(_as_array(self.t, 0, "t")))
        object.__setattr__(self, "values", _held(self.values, 2, "values"))

    @property
    def order(self) -> int:
        return self.values.shape[1] - 1


def build_moment_system(order: int) -> np.ndarray:
    """Advection coefficients of the moment hierarchy up to order N as a
    read-only (N+1, N+2) array: row k holds the couplings of moment k to
    its neighbours, b_{k,k+1} = (k+1)/(2k+1) and b_{k,k-1} = k/(2k+1),
    including the unresolved column N+1.

    An order that is not an integer in 0..``MAX_ORDER`` raises
    :class:`~seqgauss.core.InputError`.
    """
    _check_count(order, 0, "order")
    if order > MAX_ORDER:
        raise InputError("order", f"order {order} exceeds MAX_ORDER = {MAX_ORDER}")
    b = np.zeros((order + 1, order + 2))
    for k in range(order + 1):
        b[k, k + 1] = (k + 1) / (2 * k + 1)
        if k >= 1:
            b[k, k - 1] = k / (2 * k + 1)
    return _frozen(b)


def closure_row(correlation: np.ndarray | None, order: int) -> np.ndarray:
    """Row r with I_{N+1} ~ r @ (I_0, ..., I_N); zero for the truncation
    closure (``correlation=None``).

    For optimal prediction the correlation matrix must be square and
    finite, cover indices 0..N+1, and have an invertible leading
    (N+1) x (N+1) block; r is invariant under positive rescaling of the
    matrix.
    """
    _check_count(order, 0, "order")
    if correlation is None:
        return np.zeros(order + 1)
    corr = _as_array(correlation, 2, "correlation")
    if corr.shape[0] != corr.shape[1]:
        raise InputError("correlation", f"correlation matrix must be square, got {corr.shape}")
    if corr.shape[0] < order + 2:
        raise InputError("correlation", f"correlation matrix of size {corr.shape[0]} too small "
                         f"for order {order}")
    a_cc = corr[: order + 1, : order + 1]
    a_fc = corr[order + 1, : order + 1]
    try:
        return np.linalg.solve(a_cc.T, a_fc)
    except np.linalg.LinAlgError:
        raise InputError("correlation", "leading correlation block is singular") from None


def closed_advection_matrix(order: int, correlation: np.ndarray | None) -> np.ndarray:
    """Square advection matrix of the moments 0..``order`` with the closure
    row folded into the last equation."""
    b = build_moment_system(order)
    mat = b[:, : order + 1].copy()
    mat[order, :] += b[order, order + 1] * closure_row(correlation, order)
    return mat


def _absorption(params: MaterialParams, order: int) -> np.ndarray:
    c = np.empty((params.cells, order + 1))
    c[:, 0] = params.kappa
    if order >= 1:
        c[:, 1:] = (params.kappa + params.sigma)[:, None]
    return c


def _source_term(params: MaterialParams, order: int) -> np.ndarray:
    q = np.zeros((params.cells, order + 1))
    q[:, 0] = 2.0 * params.kappa * params.source
    return q


def step(
    state: MomentGrid,
    params: MaterialParams,
    correlation: np.ndarray | None,
    dt: float,
) -> MomentGrid:
    """One explicit Lax-Friedrichs step with periodic boundaries: a
    :func:`solve_closure` run of one step of ``dt``, so a loop of steps
    reproduces its snapshots bitwise.  Raises as that run does, e.g. on a
    non-hyperbolic closed advection matrix, on CFL violation (dt >
    ``DEFAULT_CFL`` * dx / rho of that matrix) and on non-finite output,
    reporting time and first bad cell.
    """
    return solve_closure(state, params, correlation, t_final=dt, dt=dt)[-1]


def solve_closure(
    initial: MomentGrid,
    params: MaterialParams,
    correlation: np.ndarray | None,
    t_final: float,
    dt: float | None = None,
    output_stride: int = 1,
    cfl: float = DEFAULT_CFL,
) -> list[MomentGrid]:
    """March the closure chosen by ``correlation`` (``None`` for
    truncation) to ``t_final``, collecting snapshots.

    The closed advection matrix and its eigenvalues are computed once per
    call.  With ``dt`` omitted the largest CFL-stable step is used.  The
    step count is ``round(t_final / dt)`` (at least one), so the reached
    end time is ``steps * dt``.  Snapshots are the initial state, every
    ``output_stride``-th step, and the final state.  Every input the
    module docstring lists is checked before any step, and a refused one
    raises :class:`~seqgauss.core.InputError` naming it.
    """
    if dt is not None and (dt := float(_as_array(dt, 0, "dt"))) <= 0:
        raise InputError("dt", f"dt must be positive, got {dt}")
    if (t_final := float(_as_array(t_final, 0, "t_final"))) <= 0:
        raise InputError("t_final", f"t_final must be positive, got {t_final}")
    _check_count(output_stride, 1, "output_stride")
    if initial.values.shape[0] != params.cells:
        raise InputError("initial", f"state has {initial.values.shape[0]} cells, "
                         f"params have {params.cells}")
    if (cfl := float(_as_array(cfl, 0, "cfl"))) <= 0:
        raise InputError("cfl", f"cfl must be positive, got {cfl}")
    b_closed = closed_advection_matrix(initial.order, correlation)
    eigenvalues = np.linalg.eigvals(b_closed)
    rho = float(np.abs(eigenvalues).max())
    worst = eigenvalues[np.abs(eigenvalues.imag).argmax()]
    if abs(worst.imag) > 1e-12 * max(rho, 1.0):
        raise InputError("correlation", "closed advection matrix is not hyperbolic: "
                         f"eigenvalue {complex(worst):.6g} is not real")
    if dt is None:
        if rho == 0.0:
            raise InputError("dt", "advection-free system: provide dt explicitly")
        dt = cfl * params.dx / rho
    if rho > 0.0 and dt > cfl * params.dx / rho * (1.0 + 1e-12):
        raise InputError("dt", f"CFL violation: dt = {dt:.6g} exceeds {cfl:.3g} * "
                         f"dx / rho = {cfl * params.dx / rho:.6g}")
    courant = dt / (2.0 * params.dx)
    if not np.isfinite(courant):
        # only an advection-free system (rho = 0) gets here with such a dt
        raise InputError("dt", f"dt = {dt:.6g} makes the Courant number "
                         f"dt / (2 dx) = {courant} not finite")
    if not t_final <= MAX_STEPS * dt:
        raise InputError("t_final", f"t_final = {t_final:.6g} is not reached within "
                         f"{MAX_STEPS} steps of dt = {dt:.6g}")
    n_steps = max(1, round(t_final / dt))
    kept = 1 + n_steps // output_stride + (n_steps % output_stride > 0)
    if kept * initial.values.size > MAX_SNAPSHOT_VALUES:
        raise InputError("t_final", f"{kept} snapshots of {initial.values.size} values "
                         f"exceed {MAX_SNAPSHOT_VALUES} values; raise output_stride")
    b_t = np.ascontiguousarray(b_closed.T)
    padded = np.concatenate([initial.values[-1:], initial.values, initial.values[:1]])
    u, left, right = padded[1:-1], padded[:-2], padded[2:]
    mean, flux, work = np.empty((3, *u.shape))
    finite = np.empty(u.shape, dtype=bool)
    snapshots, t = [initial], initial.t
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports overflow
        damping = dt * _absorption(params, initial.order)
        source = dt * _source_term(params, initial.order)
        for i in range(1, n_steps + 1):
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


