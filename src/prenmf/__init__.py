"""Sparsifying preprocessing for nonnegative matrix factorization.

The package preprocesses a nonnegative data matrix by subtracting from each
column the best nonnegative combination of the other columns that keeps the
result nonnegative.  The transformed problem has the same column space,
sparser data, and provably fewer equivalent factorizations; for rank-3
matrices an exact 2-d nested polygon engine decides how far the
transformation can be pushed and enumerates the remaining factorizations.
"""

__version__ = "0.1.0"

from .matcore import pullback, sparsity, detect_duplicates, Pullback
from .cllsolve import CllsProblem, CllsSolution, solve_column, preprocess_matrix
from .preprocessing import (PreprocessResult, AlphaBar, preprocess,
                            apply_alpha, spectral_radius, rescale_columns,
                            find_alpha_bar)
from .npp3 import (NppInstance, build_npp, tangent_step, walk_fk, feasible_k,
                   enumerate_solutions)
from .nmf import (FactorPair, SnmfConfig, ahals, snmf, tune_mu, refit_v,
                  v_from_q, postprocess_fixed_support, run_pipeline,
                  run_comparison)
from .uniq import (vertex_columns_by_sparsity, is_unique_by_sparsity,
                   support_containment, uniqueness_report)

__all__ = [
    "pullback", "sparsity", "detect_duplicates", "Pullback",
    "CllsProblem", "CllsSolution", "solve_column", "preprocess_matrix",
    "PreprocessResult", "preprocess", "apply_alpha", "spectral_radius",
    "rescale_columns", "find_alpha_bar", "AlphaBar",
    "NppInstance", "build_npp", "tangent_step", "walk_fk", "feasible_k",
    "enumerate_solutions",
    "FactorPair", "SnmfConfig", "ahals", "snmf", "tune_mu", "refit_v",
    "v_from_q", "postprocess_fixed_support", "run_pipeline", "run_comparison",
    "vertex_columns_by_sparsity", "is_unique_by_sparsity",
    "support_containment", "uniqueness_report",
]
