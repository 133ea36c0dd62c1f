"""Correlated Gaussian analysis on truncated sequence spaces.

Weighted sequence-space linear algebra, Hermite and Wick polynomial
machinery, seeded sampling of the correlated Gaussian measure with exact
moment oracles, chaos expansions with conditional expectations realized
as weighted orthogonal projections, and a radiative-transfer moment
solver with truncation and optimal-prediction closures.
"""

from .chaos import (
    ChaosExpansion,
    ConditioningSet,
    chaos_inner,
    chaos_norm,
    cond_exp_chaos,
    cond_exp_monomial,
    eval_expansion,
    mc_cond_check,
)
from .closure import (
    MaterialParams,
    MomentGrid,
    build_moment_system,
    closed_advection_matrix,
    closure_row,
    march,
    solve_closure,
    step,
)
from .core import (
    Covariance,
    InputError,
    ProjectionBlocks,
    TruncationDims,
    apply_extended,
    apply_matrix,
    block_projection,
    bracket,
    bullet,
    check_orthonormal_a,
    gram_a,
    gram_schmidt,
    gram_schmidt_a,
    hadamard,
    inner_a,
    inner_l2,
    norm_a,
    psd_check,
)
from .hermite import (
    QuadratureRule,
    gaussian_quadrature,
    gh_expectation,
    hermite_phys,
    hermite_prob,
    hermite_prob_sum,
)
from .measure import (
    McEstimate,
    PushforwardReport,
    SampleBatch,
    char_function_mc,
    isserlis_moment,
    pairings,
    pushforward_check,
    sample_mu_a,
)
from .wick import (
    DenseTensor,
    RankOnePower,
    SymKernel,
    dense_from_kernel,
    dense_inner_a,
    kernel_inner_a,
    polarize,
    symmetrize_dense,
    wick_eval,
    wick_eval_dense,
)

__version__ = "0.1.0"
