"""Assembly of the column preprocessing operators.

Solving the per-column constrained least squares problems yields a
nonnegative matrix B* with zero diagonal; the preprocessed matrix is
M(I - B*).  The interpolated operator M(I - alpha B*) trades sparsity
against conservatism: alpha = 0 leaves M unchanged, alpha = 1 applies the
full subtraction.  I - B* is inverse-positive exactly when the spectral
radius of B* stays below one, which this module verifies at runtime.
"""

import numpy as np
from dataclasses import dataclass

from .matcore import as_matrix
from . import cllsolve
from . import npp3

__all__ = [
    "RankMismatch",
    "PreprocessResult",
    "apply_alpha",
    "spectral_radius",
    "rescale_columns",
    "find_alpha_bar",
    "preprocess",
]

ALPHA_TOL = 1e-4    # find_alpha_bar's bisection bracket width before the polish


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


def apply_alpha(M, B_star, alpha):
    """Interpolated preprocessing M(I - alpha B*) = M - alpha M B*."""
    M = as_matrix(M, "M")
    B_star = as_matrix(B_star, "B_star")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
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

    Decided geometrically: alpha is admissible when a 3-vertex polygon still
    nests between the normalized columns of M(I - alpha B*) and the simplex
    slice.  Returns 1.0 when alpha = 1 is admissible.  Otherwise bisects to
    an ``ALPHA_TOL`` bracket, polishes it with regula falsi on the wrap
    slack (the slack is close to affine in alpha near the critical value),
    and returns the feasible lower end (ties at the boundary count as
    feasible, so the result is a valid lower bound).  The polish pins alpha
    accurately enough that solution enumeration at the returned value sees
    isolated solutions; the bracket alone leaves a continuum.
    """
    M = as_matrix(M, "M")
    r = npp3.numerical_rank(M)
    if r != 3:
        raise RankMismatch(f"numerical rank is {r}, need exactly 3")
    if B_star is None:
        B_star, _ = cllsolve.preprocess_matrix(M)

    def slack(alpha):
        P = apply_alpha(M, B_star, alpha)
        npp = npp3.build_npp(P)
        return npp3.max_wrap_slack(npp, 3)[0]

    tol_feas = npp3.GEOM_TOL
    if slack(1.0) >= -tol_feas:
        return 1.0
    g0 = slack(0.0)
    if g0 < -tol_feas:
        raise RankMismatch("no 3-vertex nested polygon exists even at alpha = 0 "
                           "(nonnegative rank exceeds 3)")
    lo, g_lo = 0.0, g0
    hi, g_hi = 1.0, None
    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = slack(mid)
        if g_mid >= -tol_feas:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    if g_hi is not None:
        # Secant through the two latest feasible evaluations (the slack is
        # piecewise affine in alpha, exactly affine near the critical
        # value); overshoots fall back to one bisection step.
        prev_p, prev_v = 0.0, g0
        bisect_next = False
        for _ in range(14):
            # Stop once the feasible end's slack is in the walk's noise
            # band: enumerate_solutions then sees touching solutions there,
            # not interior slack.
            if g_lo <= npp3.TOUCH_SLACK:
                break
            if not bisect_next and prev_v > g_lo and prev_p < lo:
                est = lo + g_lo * (lo - prev_p) / (prev_v - g_lo)
            else:
                est = 0.5 * (lo + hi)
            if not lo < est < hi:
                est = 0.5 * (lo + hi)
            g_est = slack(est)
            if g_est >= -tol_feas:
                prev_p, prev_v = lo, g_lo
                lo, g_lo = est, g_est
                bisect_next = False
            else:
                hi, g_hi = est, g_est
                bisect_next = True
    return lo


def preprocess(M, epsilon=0.0, alpha=1.0, rescale=False):
    """Run the full preprocessing and collect the verification record."""
    M = as_matrix(M, "M")
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
