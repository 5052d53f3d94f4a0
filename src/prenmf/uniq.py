"""Uniqueness certificates from the column sparsity pattern.

A column with r-1 zeros whose rows carve non-redundant facets of the
simplex slice is pinned at a vertex: no smaller nested polygon can avoid
it.  With r such columns (pairwise non-proportional) the factorization is
unique up to permutation and scaling.  The converse direction supplies a
non-uniqueness witness: if one column's support is contained in another's,
an explicit elementary transformation produces a second factorization with
a different zero pattern.

Both checks are sufficient conditions only; a negative verdict means
"not certified", never "certified non-unique".
"""

import numpy as np
from dataclasses import dataclass

from .matcore import as_matrix

__all__ = [
    "UniquenessReport",
    "ContainmentPair",
    "vertex_columns_by_sparsity",
    "is_unique_by_sparsity",
    "support_containment",
    "uniqueness_report",
]


@dataclass(frozen=True)
class ContainmentPair:
    """supp(U[:, k]) is contained in supp(U[:, l]), with the witness.

    epsilon is the largest scale of column k subtractable from column l
    without breaking nonnegativity; p_bar the row where the subtraction
    creates a new zero.  ``matrix()`` builds the elementary transform D
    (inverse-positive by construction) with (U D)[p_bar, l] == 0.
    """

    k: int
    l: int
    p_bar: int
    epsilon: float
    size: int

    def matrix(self, n):
        D = np.eye(n)
        D[self.k, self.l] = -self.epsilon
        return D


@dataclass(frozen=True)
class UniquenessReport:
    r: int
    vertex_columns: tuple
    unique: bool
    containment_pairs: tuple
    epsilon_witness: tuple | None  # (epsilon, D) of the first pair, if any


def _supports(M, zero_tol):
    cut = zero_tol * np.abs(M).max()
    return M > cut


def vertex_columns_by_sparsity(M, r, zero_tol=1e-8):
    """Columns certified to sit at vertices of the simplex slice.

    Column j qualifies when it has at least r-1 zero entries whose rows are
    nonzero and carry pairwise distinct supports (identical rows, or all-zero
    rows, define redundant facets and do not count).
    """
    M = as_matrix(M, "M")
    if r < 1:
        raise ValueError("rank must be at least 1")
    supp = _supports(M, zero_tol)
    row_nonzero = supp.any(axis=1)
    out = []
    for j in range(M.shape[1]):
        zero_rows = np.flatnonzero(~supp[:, j] & row_nonzero)
        patterns = {supp[i].tobytes() for i in zero_rows}
        if len(patterns) >= r - 1:
            out.append(j)
    return tuple(out)


def _distinct_directions(M, cols, tol=1e-8):
    """Number of pairwise non-proportional columns among ``cols``."""
    reps = []
    for j in cols:
        c = M[:, j]
        nc = np.linalg.norm(c)
        if nc == 0:
            continue
        c = c / nc
        if all(np.linalg.norm(c - rep) > tol for rep in reps):
            reps.append(c)
    return len(reps)


def is_unique_by_sparsity(M, r, zero_tol=1e-8):
    """Sufficient uniqueness test from the sparsity pattern.

    True when at least r certified vertex columns exist and are pairwise
    non-proportional.  Assumes an exact factorization of rank r exists
    (the nonnegative rank equals the rank); for rank-3 inputs that can be
    confirmed geometrically, otherwise it is an assumption of the caller.
    """
    M = as_matrix(M, "M")
    cols = vertex_columns_by_sparsity(M, r, zero_tol)
    return _distinct_directions(M, cols) >= r


def support_containment(U, zero_tol=1e-8):
    """All ordered column pairs of U with nested supports, with witnesses.

    For each pair (k, l) with supp(U[:, k]) contained in supp(U[:, l]) the
    report carries p_bar = argmin over the support of k of U[p, l]/U[p, k]
    and epsilon = that minimum ratio; the elementary transform D with
    D[k, l] = -epsilon keeps U D nonnegative while zeroing (U D)[p_bar, l].
    Each such pair certifies the factorization non-unique.
    """
    U = as_matrix(U, "U")
    n = U.shape[1]
    supp = _supports(U, zero_tol)
    pairs = []
    for k in range(n):
        sk = supp[:, k]
        if not sk.any():
            continue
        for l in range(n):
            if l == k:
                continue
            if np.any(sk & ~supp[:, l]):
                continue
            ratios = U[sk, l] / U[sk, k]
            idx = int(np.argmin(ratios))
            p_bar = int(np.flatnonzero(sk)[idx])
            pairs.append(ContainmentPair(k=k, l=l, p_bar=p_bar,
                                         epsilon=float(ratios[idx]),
                                         size=int(sk.sum())))
    return pairs


def uniqueness_report(M, r, zero_tol=1e-8):
    """Bundle of the certificates for one matrix."""
    M = as_matrix(M, "M")
    cols = vertex_columns_by_sparsity(M, r, zero_tol)
    unique = _distinct_directions(M, cols) >= r
    pairs = tuple(support_containment(M, zero_tol))
    witness = None
    if pairs:
        p = pairs[0]
        witness = (p.epsilon, p.matrix(M.shape[1]))
    return UniquenessReport(r=r, vertex_columns=cols, unique=unique,
                            containment_pairs=pairs, epsilon_witness=witness)
