"""Every public callable refuses a bad number or array by its name.

``ROWS`` keeps one valid call, by keyword, of each callable in the
``__all__`` of the library modules.  Each numeric argument of that call
(a number, an array, or a tuple of numbers) is swapped in turn for NaN,
+inf, -inf, a string, a ragged list and a value with the wrong number of
axes, and every swap must raise ``core.InputError`` whose ``argument`` is
that parameter's name as the signature spells it.
"""

import inspect

import numpy as np
import pytest

from seqgauss import chaos, closure, core, hermite, measure, wick

MODULES = (core, hermite, measure, wick, chaos, closure)

COV = core.Covariance([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.5]])
F = np.arange(6.0).reshape(2, 3) / 5.0
STACK = np.stack([F, F[::-1] + 1.0])
KERNEL = wick.SymKernel.rank_one(F, 2)
DENSE = wick.DenseTensor(degree=1, dims=(2, 3), array=np.arange(6.0))
BATCH = measure.sample_mu_a(COV, core.TruncationDims(2, 3), 4, 0)
EXPANSION = chaos.ChaosExpansion(kernels={1: wick.SymKernel.rank_one(F, 1), 2: KERNEL})
CONDITIONING = chaos.ConditioningSet.from_vectors(STACK[:1], COV)
GRID = closure.MomentGrid(t=0.0, values=np.ones((8, 3)))
MATERIAL = dict(a=0.0, b=1.0, cells=8, sigma=0.1, kappa=0.2, source=0.3)

ROWS = {
    # core
    "TruncationDims": dict(m=2, d=3),
    "Covariance": dict(matrix=[[2.0, 0.5], [0.5, 1.0]]),
    "bullet": dict(h=[1.0, 2.0], x=[1.0, 0.0, 2.0]),
    "bracket": dict(f=F, x=[1.0, 0.0, 2.0]),
    "inner_l2": dict(f=F, g=F),
    "inner_a": dict(f=F, g=F, cov=COV),
    "norm_a": dict(f=F, cov=COV),
    "gram_a": dict(fs=STACK, gs=STACK, cov=COV),
    "check_orthonormal_a": dict(vectors=CONDITIONING.basis, cov=COV, what="family"),
    "apply_matrix": dict(m=np.eye(3), f=F),
    "apply_extended": dict(cov=COV, f=F),
    "gram_schmidt": dict(vectors=STACK, cov=COV),
    "gram_schmidt_a": dict(xs=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], cov=COV),
    "block_projection": dict(cov=COV, cut=1),
    "psd_check": dict(m=np.eye(2)),
    "hadamard": dict(m1=np.eye(2), m2=np.ones((2, 2))),
    # hermite
    "hermite_prob": dict(n=3, x=0.5),
    "hermite_phys": dict(n=3, x=0.5),
    "hermite_prob_sum": dict(n=3, x=0.5),
    "hermite_binomial_sum": dict(n=3, alpha=0.6, beta=0.8, x=0.5, y=-1.0),
    "gaussian_quadrature": dict(),
    "gh_expectation": dict(g=np.square),
    # measure
    "SampleBatch": dict(samples=np.ones((2, 2, 3))),
    "sample_mu_a": dict(cov=COV, dims=core.TruncationDims(2, 3), count=4, seed=0),
    "pairings": dict(phi=F, batch=BATCH),
    "char_function_mc": dict(phi=F, batch=BATCH),
    "isserlis_moment": dict(phis=STACK, cov=COV),
    "pushforward_check": dict(phis=CONDITIONING.basis, batch=BATCH, cov=COV),
    # wick
    "RankOnePower": dict(coeff=0.5, base=F, degree=2),
    "SymKernel": dict(degree=2, terms=KERNEL.terms),
    "DenseTensor": dict(degree=1, dims=(2, 3), array=np.arange(6.0)),
    "polarize": dict(xs=STACK),
    "symmetrize_dense": dict(t=DENSE),
    "dense_from_kernel": dict(kernel=KERNEL),
    "weight_pairing_matrix": dict(cov=COV, m=2),
    "wick_eval": dict(kernel=KERNEL, cov=COV, w=F),
    "wick_dense_tensor": dict(n=2, cov=COV, w=F),
    "wick_dense_closed_form": dict(n=2, cov=COV, w=F),
    "monomial_dense_from_wick": dict(n=2, cov=COV, w=F),
    "wick_eval_dense": dict(n=1, cov=COV, w=F, t=DENSE),
    "kernel_inner_a": dict(k1=KERNEL, k2=KERNEL, cov=COV),
    "dense_inner_a": dict(t1=DENSE, t2=DENSE, cov=COV),
    # chaos
    "ChaosExpansion": dict(kernels={2: KERNEL}),
    "ConditioningSet": dict(basis=CONDITIONING.basis),
    "eval_expansion": dict(expansion=EXPANSION, cov=COV, w=F),
    "chaos_inner": dict(e1=EXPANSION, e2=EXPANSION, cov=COV),
    "chaos_norm": dict(expansion=EXPANSION, cov=COV),
    "project_onto_set": dict(phi=STACK, conditioning=CONDITIONING, cov=COV),
    "cond_exp_chaos": dict(expansion=EXPANSION, conditioning=CONDITIONING, cov=COV),
    "cond_exp_monomial": dict(f=F, xs=[[1.0, 0.0, 0.0]], cov=COV),
    "mc_cond_check": dict(
        expansion=EXPANSION, conditioning=CONDITIONING, cov=COV, g=lambda c: c[:, 0], batch=BATCH,
    ),
    # closure
    "MaterialParams": MATERIAL,
    "MomentGrid": dict(t=0.0, values=np.ones((8, 3))),
    "build_moment_system": dict(order=2),
    "closure_row": dict(correlation=np.eye(4), order=2),
    "closed_advection_matrix": dict(order=2, correlation=np.eye(4)),
    "step": dict(
        state=GRID, params=closure.MaterialParams(**MATERIAL), correlation=np.eye(4), dt=0.01,
    ),
    "solve_closure": dict(
        initial=GRID, params=closure.MaterialParams(**MATERIAL), correlation=np.eye(4),
        t_final=0.05, dt=0.01, output_stride=2, cfl=0.9,
    ),
}

# Public callables without a row, each with its reason: the refusal type,
# and result types that only the library builds, from inputs it checked.
EXEMPT = {
    "InputError": "the refusal type itself, built from a name and a message",
    "ProjectionBlocks": "built by block_projection from a Covariance and a checked cut",
    "QuadratureRule": "built by gaussian_quadrature, which takes no argument",
    "McEstimate": "built by char_function_mc and mc_cond_check from checked samples",
    "PushforwardReport": "built by pushforward_check from checked observables and samples",
}

# Parameters that take any number of leading axes, for which one axis too
# few is the wrong number; every other array takes one axis too many.
LEADING_AXES = {
    ("wick_eval", "w"), ("eval_expansion", "w"), ("pairings", "phi"), ("char_function_mc", "phi"),
}
# hermite_prob and hermite_phys evaluate x of any shape elementwise, so no
# number of axes is wrong for it.
ANY_SHAPE = {("hermite_prob", "x"), ("hermite_phys", "x")}

PUBLIC = {name: getattr(module, name) for module in MODULES for name in module.__all__}


def _is_numeric(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float, np.ndarray)):
        return True
    return isinstance(value, (list, tuple)) and np.asarray(value).dtype.kind in "iuf"


def _swaps(name, param, value):
    """(label, value) pairs that must each be refused as ``param``."""
    shape = np.shape(value)
    swaps = [
        ("nan", np.full(shape, np.nan)),
        ("inf", np.full(shape, np.inf)),
        ("-inf", np.full(shape, -np.inf)),
        ("string", "ab"),
        ("ragged", [value, [value]]),
    ]
    if (name, param) in LEADING_AXES:
        swaps.append(("one axis too few", np.asarray(value)[0]))
    elif (name, param) not in ANY_SHAPE:
        swaps.append(("one axis too many", [value]))
    return swaps


def test_every_public_callable_has_a_row_or_a_stated_exemption():
    assert len(PUBLIC) == sum(len(module.__all__) for module in MODULES)  # no name twice
    assert not set(ROWS) & set(EXEMPT)
    assert set(ROWS) | set(EXEMPT) == set(PUBLIC)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_numeric_argument_is_refused_by_name(name):
    function, kwargs = PUBLIC[name], ROWS[name]
    # every parameter is in the row, so a default value hides none of them
    assert list(kwargs) == list(inspect.signature(function).parameters)
    function(**kwargs)
    wrong = []
    for param, value in kwargs.items():
        if not _is_numeric(value):
            continue
        for label, bad in _swaps(name, param, value):
            try:
                function(**{**kwargs, param: bad})
            except core.InputError as exc:
                if exc.argument != param:
                    wrong.append(f"{param} {label}: refused as {exc.argument!r}: {exc}")
            except Exception as exc:  # noqa: BLE001 - listed as a hole
                wrong.append(f"{param} {label}: {type(exc).__name__}: {exc}")
            else:
                wrong.append(f"{param} {label}: accepted")
    assert not wrong, "\n".join(wrong)
