"""Core matrix utilities: column pullback, sparsity metric, duplicate
detection and numerical rank.

Matrices are plain 2-d float ndarrays; columns are the objects of interest
throughout (data points live in columns, factorizations combine columns).
"""

import numpy as np
from dataclasses import dataclass, field

__all__ = [
    "AllColumnsZero",
    "Pullback",
    "as_matrix",
    "pullback",
    "sparsity",
    "detect_duplicates",
    "numerical_rank",
]

RANK_TOL = 1e-9     # singular values below this times the largest count as 0


class AllColumnsZero(ValueError):
    """Every column of the input was dropped as (numerically) zero."""


def as_matrix(a, name="matrix"):
    """Validate and convert input to a 2-d float64 array.

    Rejects empty matrices and non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def numerical_rank(M):
    """Number of singular values above ``RANK_TOL`` times the largest."""
    s = np.linalg.svd(as_matrix(M), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


@dataclass(frozen=True)
class Pullback:
    """Column-stochastic normalization of the non-dropped columns of a matrix.

    theta: column-stochastic matrix over the kept columns.
    d:     positive scale factors, one per kept column (inverse l1 norms).
    kept:  original indices of the non-dropped columns, in order.
    """

    theta: np.ndarray
    d: np.ndarray
    kept: tuple = field(default_factory=tuple)


def pullback(X, drop_tol=1e-12):
    """Normalize columns of X to sum to one, dropping (near-)zero columns.

    A column is dropped when its l1 norm is at most ``drop_tol`` times the
    largest column l1 norm.  Raises AllColumnsZero when nothing survives.
    """
    X = as_matrix(X, "X")
    l1 = np.abs(X).sum(axis=0)
    cutoff = drop_tol * l1.max()
    kept = np.flatnonzero(l1 > cutoff)
    if kept.size == 0:
        raise AllColumnsZero("all columns have (numerically) zero l1 norm")
    # Normalize by the signed column sum so theta columns sum to exactly one
    # even when the source carries small negative entries.
    sums = X[:, kept].sum(axis=0)
    if np.any(sums <= 0):
        # Fall back to l1 norms for columns whose signed sum is non-positive
        # (can only happen far outside the nonnegative regime).
        bad = sums <= 0
        sums = np.where(bad, l1[kept], sums)
    d = 1.0 / sums
    theta = X[:, kept] * d
    return Pullback(theta=theta, d=d, kept=tuple(int(k) for k in kept))


def sparsity(U, zero_tol=1e-8):
    """Fraction of entries of U counted as zero.

    An entry counts as zero when its value is at most ``zero_tol * max|U|``;
    negative entries therefore always count as zeros.  Returns a value
    in [0, 1].
    """
    U = as_matrix(U, "U")
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    cutoff = zero_tol * np.abs(U).max()
    return float(np.count_nonzero(U <= cutoff)) / U.size


def detect_duplicates(M, tol=1e-8):
    """Find column pairs of M that are nonnegative multiples of each other.

    Returns a list of (i, j, alpha) with i > j and ``M[:, i] ~= alpha * M[:, j]``.
    The scale alpha is the least-squares fit (robust to zero entries, where
    entrywise ratios are undefined); a pair is reported when the relative fit
    residual is at most tol.  Columns that are themselves numerically zero
    are skipped: they are handled upstream by the pullback drop rule and
    would otherwise pair with every column.  Pairs come ordered by i, then j.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    norms = np.linalg.norm(M, axis=0)
    zero_cut = 1e-12 * (norms.max() if norms.max() > 0 else 1.0)
    live = norms > zero_cut
    # Screen all pairs with one Gram matrix, then run the exact test on the
    # survivors.  With theta the angle between two columns, the exact test
    # asks sin(theta) <= tol; at tol = 1e-8 that is cos(theta) >= 1 - 5e-17,
    # below double precision, so the screen must be loose.  With unit
    # roundoff u and gamma_k = k u / (1 - k u):
    # - rounding in alpha, in M_i - alpha M_j and in its norm lets the exact
    #   test accept at most sin(theta) <= s = tol + 8 (m + 2) u, so an
    #   accepted pair has cos(theta) >= sqrt(1 - s^2) (alpha clipped to 0
    #   leaves the whole column, which passes only when s >= 1);
    # - the computed cosine G_ij / (|M_i| |M_j|) is within
    #   gamma_m + 2 gamma_(m+2) + 2u < 4 gamma_(m+4) of the true one (Gram
    #   entry, the two norms, their product and the quotient), and the
    #   floor below within a few u of sqrt(1 - s^2).
    # A floor 8 (m + 4) u under sqrt(1 - s^2) thus keeps every pair the
    # exact test accepts; at m = 30 it is 1 - 3e-14.
    u = np.finfo(float).eps / 2
    s = tol + 8 * (m + 2) * u
    floor = np.sqrt(1.0 - s * s) - 8 * (m + 4) * u if s < 1.0 else -np.inf
    safe = np.where(live, norms, 1.0)
    cos = (M.T @ M) / np.outer(safe, safe)
    screen = np.tril(cos >= floor, -1) & live[:, None] & live[None, :]
    pairs = []
    for i, j in np.argwhere(screen).tolist():
        alpha = float(M[:, i] @ M[:, j]) / float(norms[j] ** 2)
        if alpha < 0:
            alpha = 0.0
        resid = np.linalg.norm(M[:, i] - alpha * M[:, j])
        if resid <= tol * norms[i]:
            pairs.append((i, j, alpha))
    return pairs
