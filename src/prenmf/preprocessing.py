"""Assembly of the column preprocessing operators.

Solving the per-column constrained least squares problems yields a
nonnegative matrix B* with zero diagonal; the preprocessed matrix is
M(I - B*).  The interpolated operator M(I - alpha B*) trades sparsity
against conservatism: alpha = 0 leaves M unchanged, alpha = 1 applies the
full subtraction.  I - B* is inverse-positive exactly when the spectral
radius of B* stays below one, which this module verifies at runtime.
"""

import functools
import numpy as np
from dataclasses import dataclass

from .matcore import as_matrix
from . import cllsolve
from . import npp3

__all__ = [
    "RankMismatch",
    "PreprocessResult",
    "AlphaBar",
    "check_alpha",
    "apply_alpha",
    "spectral_radius",
    "rescale_columns",
    "find_alpha_bar",
    "preprocess",
]


class RankMismatch(ValueError):
    """An operation restricted to numerical rank 3 got something else."""


@dataclass(frozen=True)
class PreprocessResult:
    """Full record of one preprocessing run.

    P_alpha_M = M - alpha * (M @ B_star) and rho is the spectral radius of
    B_star; rescale holds the positive diagonal applied to the columns of
    P_alpha_M when column rescaling was requested (None otherwise).
    """

    B_star: np.ndarray
    epsilon: float
    alpha: float
    P_alpha_M: np.ndarray
    rho: float
    column_kkt: np.ndarray
    rescale: np.ndarray | None = None


@dataclass(frozen=True)
class AlphaBar:
    """Result of the alpha search.

    npp is the nested polygon instance the search built at alpha, and
    evaluations the number of distinct alpha it built and walked.
    """

    alpha: float
    npp: npp3.NppInstance
    evaluations: int


def check_alpha(alpha):
    """alpha, or ValueError when it lies outside [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha


def apply_alpha(M, B_star, alpha):
    """Interpolated preprocessing M(I - alpha B*) = M - alpha M B*."""
    M = as_matrix(M, "M")
    B_star = as_matrix(B_star, "B_star")
    check_alpha(alpha)
    if alpha == 0.0:
        return M.copy()
    return M - alpha * (M @ B_star)


def spectral_radius(B):
    """Spectral radius of a nonnegative matrix: max |eig(B)| from LAPACK.

    A dense eigensolve, because a power iteration stops early or does not
    converge at all on reducible or slowly mixing B*.
    """
    B = as_matrix(B, "B")
    n, n2 = B.shape
    if n != n2:
        raise ValueError("B must be square")
    if B.min() < 0:
        raise ValueError("spectral radius routine requires B >= 0")
    return float(np.abs(np.linalg.eigvals(B)).max())


def rescale_columns(P_M, M):
    """Rescale columns of the preprocessed matrix back to the source norms.

    Returns (rescaled, diag) with diag[i] = ||M[:, i]|| / ||P_M[:, i]||;
    (numerically) zero columns of P_M pass through unscaled with diag 1.
    NMF objectives weigh columns by their norm, so without this step
    heavily-shrunk columns would lose all influence on the factorization.
    """
    P_M = as_matrix(P_M, "P_M")
    M = as_matrix(M, "M")
    if P_M.shape != M.shape:
        raise ValueError("P_M and M must have the same shape")
    norms_p = np.linalg.norm(P_M, axis=0)
    norms_m = np.linalg.norm(M, axis=0)
    diag = np.ones(M.shape[1])
    nonzero = norms_p > 1e-9 * np.maximum(norms_m, 1e-300)
    diag[nonzero] = norms_m[nonzero] / norms_p[nonzero]
    return P_M * diag, diag


def find_alpha_bar(M, B_star=None):
    """Largest alpha in [0, 1] keeping the interpolated instance rank-3 exact.

    alpha is admissible when a 3-vertex polygon still nests between the
    normalized columns of M(I - alpha B*) and the simplex slice, that is
    when the wrap slack ``npp3.max_wrap_slack`` is nonnegative.  The answer
    is 1.0 when alpha = 1 is admissible; otherwise the sign change of the
    slack on [0, 1], found by ``brentq`` at its default ``xtol`` and then
    checked feasible (``GeometryError`` if not).  The slack is memoised:
    brentq re-reads both ends, and its root is one of its iterates.

    Returns an ``AlphaBar`` holding alpha, the instance built from
    ``apply_alpha(M, B_star, alpha)`` with its walk table, and the number
    of slack evaluations.
    """
    M = as_matrix(M, "M")
    r = npp3.numerical_rank(M)
    if r != 3:
        raise RankMismatch(f"numerical rank is {r}, need exactly 3")
    if B_star is None:
        B_star, _ = cllsolve.preprocess_matrix(M)
    built = {}

    @functools.cache
    def slack(alpha):
        npp = built[alpha] = npp3.build_npp(apply_alpha(M, B_star, alpha))
        return npp3.max_wrap_slack(npp, 3)[0]

    def result(alpha):
        return AlphaBar(alpha, built[alpha], len(built))

    if slack(1.0) >= -npp3.GEOM_TOL:
        return result(1.0)
    g0 = slack(0.0)
    if g0 < -npp3.GEOM_TOL:
        raise RankMismatch("no 3-vertex nested polygon exists even at alpha = 0 "
                           "(nonnegative rank exceeds 3)")
    if g0 <= 0.0:
        # Touching at alpha = 0: no strict sign change to bracket.
        return result(0.0)
    import scipy.optimize
    alpha = scipy.optimize.brentq(slack, 0.0, 1.0)
    if slack(alpha) < -npp3.GEOM_TOL:
        raise npp3.GeometryError(f"wrap slack root alpha = {alpha!r} "
                                 "is not feasible")
    return result(alpha)


def preprocess(M, epsilon=0.0, alpha=1.0, rescale=False):
    """Run the full preprocessing and collect the verification record."""
    M = as_matrix(M, "M")
    check_alpha(alpha)
    B_star, sols = cllsolve.preprocess_matrix(M, epsilon=epsilon)
    P = apply_alpha(M, B_star, alpha)
    rho = spectral_radius(B_star)
    diag = None
    if rescale:
        P, diag = rescale_columns(P, M)
    return PreprocessResult(
        B_star=B_star, epsilon=float(epsilon), alpha=float(alpha),
        P_alpha_M=P, rho=rho,
        column_kkt=np.array([s.kkt_residual for s in sols]),
        rescale=diag)
