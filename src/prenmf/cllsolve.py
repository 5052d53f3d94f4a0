"""Constrained linear least squares solver for the column preprocessing.

Each column i of a data matrix M defines one problem

    min_b ||M[:, i] - M b||^2   s.t.   M b <= M[:, i] + eps * ||M[:, i]||_inf,
                                       b >= 0,  b[i] = 0.

The solution subtracts from a column the best nonnegative combination of the
other columns that keeps the (relaxed) result nonnegative; the residual
column is the preprocessed column.  Problems for different i are independent
and share their data: each has all n variables, with b[i] = 0 a bound that
is never released, so every problem's normal equations are slices of one
Gram matrix G = M^T M, and all use one index space (bounds, then rows).
One kernel call solves all of them in lockstep, one pivot in each
unfinished problem per iteration (plus the optimality check after a full
step), and each problem still gets the pivots and floating-point results it
would get alone (see ``_active_set_ls``), so B* does not depend on which
columns share a call, nor on the BLAS thread count.  Every column takes this
path, a zero column or the only column of M included; a column's pivots
include the final optimality check, so one optimal at b = 0 reports 1.

The solver is a primal active-set method on the quadratic program in b: the
tight constraints are precisely the zero entries of the output, so a
combinatorially exact method is preferred over a first-order one.  Pivoting
is deterministic, and the ratio test breaks ties within 1e-15 by index.
Where M has full column rank (decided per call from M alone, so batch
invariance holds) every problem is strictly convex, its optimum unique, and
the multiplier most negative per unit normal leaves the working set
(Dantzig's rule: far fewer pivots).  There, at epsilon > 0, a problem
starts at b = 0 with the bounds of F = {k : x_k > 0} released, x the
bound-only optimum (scipy's nnls on the other columns): tight at b = 0, any
of them make a valid working set, the first step heads for x, and x, often
feasible with the epsilon margin, is then optimal.  At epsilon = 0 x is
feasible only if it fits exactly, so the cold start stays.  Elsewhere the
rule picks which optimum is reported: the lowest-index negative multiplier
leaves, from the cold start, as in a column that Dantzig's path leaves
failed, solved again alone, because an ``_escape`` fit at a degenerate
point can be wrong.  At a degenerate point, common on exactly low-rank
inputs, the working set is dependent (more active rows than free
variables, or a KKT system that is singular or solved inaccurately) or a
step is blocked at zero length; one ``_escape`` pivot then proves the
point optimal or strictly lowers the objective.  In floating point that
does not rule out cycling, so the pivot cap stays.

Every column is certified.  For a convex QP any nonnegative multipliers that
leave no stationarity residual and no complementarity gap prove the point
optimal, whoever computed them.  So the multipliers the kernel stops with
are verified for all columns at once in plain arithmetic, and a column they
do not certify falls back to ``kkt_check``, which refits them by scipy's
bounded-variable least squares and scores them with the same residual.
"""

import math
import numpy as np
from dataclasses import dataclass

from .matcore import as_matrix, numerical_rank

__all__ = [
    "SolverError", "Infeasible", "MaxIterations", "InfeasiblePoint",
    "CllsProblem", "CllsSolution", "solve_column", "preprocess_matrix",
    "kkt_check", "nnls_columns",
]

FEAS_TOL = 1e-9
KKT_TOL = 1e-8


class SolverError(RuntimeError):
    pass


class Infeasible(SolverError):
    """The slack bound has negative entries, so the start b = 0 is not
    feasible: a fault of the input M, which a nonnegative M never has."""


class MaxIterations(SolverError):
    pass


class InfeasiblePoint(ValueError):
    """A point handed to the optimality check violates the constraints."""


def _check_epsilon(epsilon):
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1): values >= 1 void "
                         "the nonnegativity rationale of the relaxation")


@dataclass(frozen=True)
class CllsProblem:
    """One column's constrained least squares problem.

    M:       full data matrix (m x n).
    i:       target column index.
    epsilon: relaxation level in [0, 1); the slack bound is
             u = M[:, i] + epsilon * ||M[:, i]||_inf.
    """

    M: np.ndarray
    i: int
    epsilon: float = 0.0

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        object.__setattr__(self, "M", M)
        if not 0 <= self.i < M.shape[1]:
            raise ValueError(f"column index {self.i} out of range")
        _check_epsilon(self.epsilon)

    @property
    def target(self):
        return self.M[:, self.i]

    @property
    def slack_bound(self):
        d = self.target
        return d + self.epsilon * np.abs(d).max()


@dataclass(frozen=True)
class CllsSolution:
    """Solver output for one column.

    b:            full-length coefficient vector, b[i] == 0.
    objective:    ||M[:, i] - M b||^2.
    kkt_residual: optimality certificate: the verified residual of the
                  kernel's multipliers, or ``kkt_check``'s on a fallback.
    active_set:   constraints tight at b (within ``kkt_check``'s activity
                  tolerances); entries < n are variable bounds (b_k = 0),
                  entries >= n encode slack rows as n + row.  A regular
                  stop reports the kernel's working set, which can leave
                  out other tight constraints; a stop proved by ``_escape``
                  at a degenerate point (a dependent working set or a
                  blocked step) reports every tight one.
    iterations:   the column's kernel pivots (not nnls's inner steps): its
                  active-set pivots plus the final optimality check, so a
                  column optimal at its start reports 1.
    """

    b: np.ndarray
    objective: float
    kkt_residual: float
    active_set: tuple
    iterations: int


def _active_set_ls(M, cols, epsilon, max_iter, tie_order=None, dantzig=None,
                   cold=False):
    """Primal active-set method for the columns ``cols`` (a slice) of M.

    The problem of column i is  min ||M x - d||^2  s.t.  x >= 0, x_i = 0,
    M x <= u,  with d = M[:, i] and u = d + epsilon ||d||_inf.  Every
    problem has all n variables and one index space, that of
    ``CllsSolution.active_set``: bounds x_k >= 0 are 0..n-1 and rows are
    n..n+m-1.  Each starts from x = 0 with every bound active, but those of
    the bound-only start (module docstring) unless ``cold``.  Bound i pins
    x_i = 0: it is never dropped, so variable i never enters a KKT system.
    ``tie_order`` optionally permutes the pivoting preference over the index
    space (used to verify that the fitted vector M x is independent of the
    ordering).  ``dantzig`` picks the drop rule of the module docstring; by
    default it holds where M has full column rank.

    All problems read one store, [2G, M^T] over a zero row, with the Gram
    matrix G = M^T M formed without BLAS: it is symmetric bit for bit and
    the same under any thread count.  The problems run in lockstep, one
    pivot each per iteration, and each takes the pivots it would take alone,
    with the same floating-point results: the KKT systems are solved in
    stacks of systems of one exact size, every product is a per-problem
    matrix-vector call on the shared M or G, and a problem that stops
    leaves the working stack.  After a full step a problem's optimality
    check runs in the same iteration, as one more of its pivots, not after
    the next KKT solve, which would repeat this one; the cap max_iter is per
    problem.  A problem at a degenerate point (see the module docstring)
    takes one ``_escape`` pivot in the same iteration, on M without column
    i and x without entry i.  Returns per problem (x, active, pivots,
    multipliers) or the SolverError that stopped it.  The multipliers (lam
    on the bounds, nu on the rows, with 2G x - 2G[i] - lam + M^T nu = 0 on
    the free variables) are those held at the stop: the last KKT solve's,
    or the fit's of an ``_escape`` that proves the stop.  They are zero off
    the working set.
    """
    m, n = M.shape
    ids = np.arange(n)[cols]
    S, N = ids.size, n + m
    D = M.T[cols]
    H = D + epsilon * np.abs(D).max(axis=1, keepdims=True)
    rank = np.arange(N)
    if tie_order is not None:
        rank[np.asarray(tie_order, dtype=int)] = np.arange(N)
    dantzig = _full_column_rank(M) if dantzig is None else dantzig
    unit = np.concatenate([np.ones(n), np.linalg.norm(M, axis=1)])
    results = [None] * S
    done = H.min(axis=1) < -FEAS_TOL * np.maximum(1.0, np.abs(H).max(axis=1))
    for s in np.flatnonzero(done).tolist():
        results[s] = Infeasible("slack bound has negative entries; "
                                "x = 0 is not feasible")

    # The store Q = [2G, M^T, 0] over a zero row, of about n(n + m) numbers:
    # entry (a, b) of a KKT matrix is Q[min(a, b, n), max(a, b)], 0 for two
    # rows or the padding index N.  rhs_src: 2G[i], u, then a 0 for padding.
    Q = np.zeros((n + 1, N + 1))
    Q[:n, :n] = 2.0 * np.einsum("ki,kj->ij", M, M)
    Q[:n, n:N] = M.T
    G2 = Q[:n, :n]
    rhs_src = np.zeros((S, N + 1))
    rhs_src[:, :n] = G2[ids]
    rhs_src[:, n:N] = H
    row_scale = np.maximum(1.0, np.abs(M).max(axis=1))
    step_tol = 1e-13 * np.maximum(1.0, np.abs(D).max(axis=1))

    idx = np.arange(S)            # caller problem of each working problem
    x = np.zeros((S, n))
    flip = np.arange(N) < n       # the bounds: held in act, free in a working set
    act = np.repeat(flip[None], S, axis=0)   # bounds x_k = 0, rows M_j x = u_j held
    if dantzig and epsilon > 0.0 and n > 1 and not cold:
        # The bound-only start; n > 1, as scipy's nnls aborts the process
        # on a matrix with no columns.
        import scipy.optimize
        for s in np.flatnonzero(~done).tolist():
            try:
                xh = scipy.optimize.nnls(np.delete(M, ids[s], axis=1), D[s])[0]
            except RuntimeError:      # its iteration cap: the cold start
                continue
            act[s, :n] = ~np.insert(xh > 0.0, ids[s], False)
    it, fused, top = 0, [0] * S, 0    # caller c's pivots: it + fused[c]
    while True:
        it += 1
        if it + top > max_iter:       # top >= fused[c] of every problem
            for s, c in enumerate(idx.tolist()):
                if not done[s] and it + fused[c] > max_iter:
                    done[s], results[c] = True, MaxIterations(
                        f"active-set method exceeded {max_iter} pivots")
        if done.any():
            keep = ~done
            idx, x, act = idx[keep], x[keep], act[keep]
            rhs_src, step_tol = rhs_src[keep], step_tol[keep]
        L = idx.size
        if L == 0:
            return results

        # Working sets: the free variables, then the active rows, by index;
        # padded with N, which gathers zeros.  One holding more than n
        # constraints is dependent, and its problem escapes.
        z = np.zeros((L, N + 1))      # x_new (later lam), then the rows' nu
        esc = act.sum(axis=1) > n
        order = np.flatnonzero(~act[:, :n].all(axis=1) & ~esc)
        if order.size:
            work = act[order] ^ flip
            size = work.sum(axis=1)
            sort = np.argsort(size, kind="stable")
            order, size, work = order[sort], size[sort], work[sort]
            P = np.full((order.size, size[-1]), N)
            P[np.arange(size[-1]) < size[:, None]] = np.nonzero(work)[1]
            Pa, Pb = P[:, :, None], P[:, None, :]
            K = Q[np.minimum(np.minimum(Pa, Pb), n), np.maximum(Pa, Pb)]
            rhs = rhs_src[order[:, None], P]
            sol = np.zeros_like(rhs)
            Ksol = np.zeros_like(rhs)
            cuts = (np.flatnonzero(np.diff(size)) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, order.size]):
                k = size[lo]
                Kg, rg = K[lo:hi, :k, :k], rhs[lo:hi, :k, None]
                try:
                    sg = np.linalg.solve(Kg, rg)
                except np.linalg.LinAlgError:
                    # A singular system in the stack: solve one by one.
                    sg = np.full(rg.shape, np.nan)
                    for j in range(hi - lo):
                        try:
                            sg[j] = np.linalg.solve(Kg[j], rg[j])
                        except np.linalg.LinAlgError:
                            pass
                sol[lo:hi, :k] = sg[:, :, 0]
                Ksol[lo:hi, :k] = np.matmul(Kg, sg)[:, :, 0]
            # A singular or inaccurately solved system is dependent too.
            ok = (np.isfinite(sol).all(axis=1)
                  & (np.abs(Ksol - rhs).max(axis=1)
                     <= 1e-8 * (np.abs(rhs).max(axis=1) + 1.0)))
            esc[order[~ok]] = True
            sol[~ok] = 0.0
            z[order[:, None], P] = sol

        step = z[:, :n] - x
        smax = np.abs(step).max(axis=1)
        stat = (smax <= step_tol) & ~esc
        mv = np.flatnonzero(~stat & ~esc)
        if mv.size:
            # Ratio test against inactive constraints, after a leading 1.
            step, xm, am = step[mv], x[mv], act[mv]
            Mstep = np.matmul(M, step[:, :, None])[:, :, 0]
            Mx = np.matmul(M, xm[:, :, None])[:, :, 0]
            dir_tol = 1e-14 * np.maximum(1.0, smax[mv])[:, None]
            ratio = np.full((mv.size, N + 1), np.inf)
            ratio[:, 0] = 1.0
            np.divide(xm, -step, out=ratio[:, 1:n + 1],
                      where=~am[:, :n] & (step < -dir_tol))
            np.divide(rhs_src[mv, n:N] - Mx, Mstep, out=ratio[:, n + 1:],
                      where=~am[:, n:] & (Mstep > dir_tol * row_scale))
            # The blocker comes from a sequential fold in index order (bounds,
            # then rows): with its 1e-15 window a later candidate can replace
            # the current one without being the smallest ratio.  Only a ratio
            # within a few 1e-15 of min(1, every earlier ratio) can be taken,
            # so the fold visits just those.
            lead = np.minimum.accumulate(ratio, axis=1)
            alpha = np.ones(mv.size)
            blocker = np.full(mv.size, -1)
            prev, blocked = -1, 0
            rs, ks = np.nonzero(ratio[:, 1:] - lead[:, :-1] <= 1e-14)
            for r, k, a, rk in zip(rs.tolist(), ks.tolist(),
                                   ratio[rs, ks + 1].tolist(), rank[ks].tolist()):
                if r != prev:
                    prev, alpha_r, blocker_r, rank_r = r, 1.0, -1, None
                if a < alpha_r - 1e-15 or (abs(a - alpha_r) <= 1e-15 and blocker_r >= 0
                                           and rk < rank_r):
                    blocked += blocker_r < 0
                    alpha_r, blocker_r, rank_r = min(a, alpha_r), k, rk
                    alpha[r], blocker[r] = alpha_r, blocker_r

            xm += alpha[:, None] * step
            np.maximum(xm, 0.0, out=xm)
            stuck = alpha <= 1e-12
            add = np.flatnonzero((blocker >= 0) & ~stuck)
            act[mv[add], blocker[add]] = True
            xm[act[mv, :n]] = 0.0
            x[mv[~stuck]] = xm[~stuck]
            # A step blocked at zero length: x is a degenerate point.
            esc[mv[stuck]] = True
            if blocked < mv.size:
                # The next KKT solve would repeat this one: test z - x now.
                fs = mv[blocker < 0]
                fs = fs[np.abs(z[fs, :n] - x[fs]).max(axis=1) <= step_tol[fs]]
                for s, c in zip(fs.tolist(), idx[fs].tolist()):
                    if it + fused[c] < max_iter:
                        stat[s], fused[c] = True, fused[c] + 1
                        top = max(top, fused[c])

        done = np.zeros(L, dtype=bool)
        st = np.flatnonzero(stat)
        if st.size:
            # Stationary on the working set: drop the negative multiplier of
            # lowest rank (distinct, so unique) of all, or under Dantzig's of
            # those most negative per unit normal, never bound i.  The bound
            # multipliers are 2G x - 2G[i] + M^T nu, nu zero off active rows.
            lam = np.matmul(G2, x[st, :, None])[:, :, 0] - rhs_src[st, :n]
            lam += np.matmul(M.T, z[st, n:N, None])[:, :, 0]
            z[st, :n] = lam
            cand = act[st] & (z[st, :N] < -KKT_TOL)
            cand[np.arange(st.size), ids[idx[st]]] = False
            found = cand.any(axis=1)
            done[st[~found]] = True
            st, cand = st[found], cand[found]
            if dantzig:
                score = np.where(cand, z[st, :N] * unit, np.inf)
                cand &= score == score.min(axis=1, keepdims=True)
            worst = np.where(cand, rank, N).argmin(axis=1)
            act[st, worst] = False

        for s in np.flatnonzero(esc).tolist():
            i = ids[idx[s]]
            try:
                xi, work, done[s], mult = _escape(
                    np.delete(M, i, axis=1), M[:, i], rhs_src[s, n:N],
                    np.delete(x[s], i))
            except MaxIterations as exc:
                results[idx[s]], done[s] = exc, True
                continue
            x[s], act[s] = np.insert(xi, i, 0.0), np.insert(work, i, True)
            z[s, :N] = np.insert(mult, i, 0.0)

        for s in np.flatnonzero(done).tolist():
            if results[idx[s]] is None:       # stopped without an error
                results[idx[s]] = (x[s].copy(), tuple(np.flatnonzero(act[s]).tolist()),
                                   it + fused[idx[s]], np.where(act[s], z[s, :N], 0.0))


def _full_column_rank(M):
    """The gate of Dantzig's rule; a power-of-two lift cannot flip it."""
    return M.shape[0] >= M.shape[1] and numerical_rank(M) == M.shape[1]


def _escape(C, d, u, x):
    """One pivot from x, where a step of  min ||C x - d||^2,  x >= 0,
    C x <= u  is blocked at zero length (a degenerate point).

    Fits -g by nonnegative multipliers on the normals of every constraint
    tight at x (within ``kkt_check``'s activity tolerances), not only of
    those in the working set.  A zero residual r proves x a KKT point:
    returns (x, tight, True, mult), tight a mask over bounds, then rows, and
    mult the fit's multipliers in that index space, zero off the tight set.
    Otherwise r is, by the Moreau decomposition, a feasible direction with
    g.r = -|r|^2: returns (x, work, False, mult), x moved to the line minimum
    along r or to the first constraint that is not tight, and work the fit's
    support plus that blocker, whose normal is independent of the support's.
    """
    p, n = C.shape
    normals = np.vstack([-np.eye(n), C])
    Cx = C @ x
    gap = np.concatenate([x, u - Cx])
    tight = gap <= np.repeat([1e-10 * max(1.0, x.max()),
                              1e-8 * max(1.0, np.abs(d).max())], [n, p])
    g = 2.0 * (C.T @ (Cx - d))
    lam = np.zeros(np.count_nonzero(tight))
    if lam.size:  # scipy's nnls aborts the process on a matrix with no columns
        import scipy.optimize
        try:
            lam = scipy.optimize.nnls(normals[tight].T, -g)[0]
        except RuntimeError as exc:
            raise MaxIterations(f"degenerate-point projection: {exc}") from exc
    r = -g - normals[tight].T @ lam
    mult = np.zeros(n + p)
    mult[tight] = lam
    if np.linalg.norm(r) <= KKT_TOL:
        return x, tight, True, mult
    rate = normals @ r
    ratio = np.full(n + p, np.inf)
    np.divide(gap, rate, out=ratio, where=~tight & (rate > 0.0))
    k = int(ratio.argmin())
    t = (r @ r) / (2.0 * (rate[n:] @ rate[n:]))
    work = np.zeros(n + p, dtype=bool)
    work[np.flatnonzero(tight)[lam > 0.0]] = True
    if ratio[k] < t:
        t, work[k] = ratio[k], True
    x = np.maximum(x + t * r, 0.0)
    x[work[:n]] = 0.0
    return x, work, False, mult


def _column_solutions(M, cols, epsilon, tie_order=None, dantzig=None):
    """Solve the problems of the columns ``cols`` (a slice) of M together.

    One kernel call for all columns, zero ones and a lone one included,
    then one batched ``_residuals`` of its multipliers; a column they do not
    certify falls back to ``kkt_check``.  A column failed under Dantzig's
    rule is solved again alone under the lowest-index rule.  Returns the
    CllsSolutions, or raises the first failing column's error (the kernel's,
    InfeasiblePoint or a failed certificate) as "column i: <error>"."""
    _check_epsilon(epsilon)
    m, n = M.shape
    ids = range(n)[cols]
    top = float(np.abs(M).max())
    k = 1 - math.frexp(top)[1] if top < 1.0 else 0
    # The kernel's tolerances are absolute at unit scale, so an M with
    # max|M| < 1 is first lifted by a power of two into [1, 2).
    Ml = np.ldexp(M, k) if k else M
    dantzig = _full_column_rank(Ml) if dantzig is None else dantzig
    results = _active_set_ls(Ml, cols, epsilon, 50 * n, tie_order, dantzig)
    S, D = len(ids), Ml.T[cols]
    B, nu = np.zeros((S, n)), np.zeros((S, m))
    for s, res in enumerate(results):
        if not isinstance(res, SolverError):
            B[s], nu[s] = res[0], np.maximum(res[3][n:], 0.0)
    U = D + epsilon * np.abs(D).max(axis=1, keepdims=True)
    MB = np.matmul(Ml, B[:, :, None])[:, :, 0]
    why, bound, _ = _feasibility(B, ids, MB, U, D)
    residuals = _residuals(Ml, ids, B, MB, U, D, nu, bound)
    grad_scale = np.maximum(1.0, 2.0 * np.abs(
        np.matmul(Ml.T, D[:, :, None])[:, :, 0]).max(axis=1))
    sols = []
    for s, (i, res) in enumerate(zip(ids, results)):
        try:
            if isinstance(res, SolverError):
                raise res
            if why[s] is not None:
                raise InfeasiblePoint(why[s])
            b, active, it, _ = res
            residual, tol = float(residuals[s]), KKT_TOL * grad_scale[s]
            if residual > tol:
                residual = kkt_check(CllsProblem(Ml, i, epsilon), b)
                if residual > tol:
                    raise SolverError("optimality certificate failed: KKT residual "
                                      f"{residual:.3e} exceeds {tol:.3e}")
        except (SolverError, InfeasiblePoint) as exc:
            if dantzig:     # alone: exactly the lowest-index rule's outcome
                sols += _column_solutions(M, slice(i, i + 1), epsilon,
                                          tie_order, False)
                continue
            raise type(exc)(f"column {i}: {exc}") from exc
        obj = float(np.sum((D[s] - Ml @ b) ** 2))
        sols.append(CllsSolution(b=b, objective=math.ldexp(obj, -2 * k),
                                 kkt_residual=math.ldexp(residual, -2 * k),
                                 active_set=active, iterations=it))
    return sols


def _residuals(M, ids, B, MB, U, D, nu, bound):
    """The KKT residual of each point B[s] (as in ``_feasibility``, bound
    its tight bounds) under row multipliers nu[s] >= 0, whoever computed
    them: with g the gradient, lam = max(g + M^T nu, 0) on the tight bounds,
    the larger of |g + M^T nu - lam| without entry i and the largest
    multiplier times its constraint's gap.  Products are per-point
    matrix-vector calls, as in the kernel, so the BLAS thread count moves
    no residual."""
    r = np.matmul(M.T, (2.0 * (MB - D) + nu)[:, :, None])[:, :, 0]
    lam = np.where(bound, np.maximum(r, 0.0), 0.0)
    r -= lam
    r[np.arange(len(ids)), ids] = 0.0
    return np.maximum.reduce([np.sqrt(np.einsum("sk,sk->s", r, r)),
                              (lam * np.abs(B)).max(axis=1),
                              (nu * np.abs(U - MB)).max(axis=1)])


def _feasibility(B, ids, MB, U, D):
    """``kkt_check``'s feasibility tests and activity tolerances: for each
    point B[s] of column ids[s]'s problem (M B[s] = MB[s], slack bound U[s],
    target D[s]), why it is infeasible or None, and masks of its tight
    bounds (never bound i) and tight rows."""
    S = len(ids)
    bmax = np.maximum(1.0, np.abs(B).max(axis=1))
    scale = np.maximum(1.0, np.abs(D).max(axis=1))
    tests = [(np.abs(B[np.arange(S), ids]) > FEAS_TOL, "b[{}] must be zero"),
             (B.min(axis=1) < -FEAS_TOL * bmax,
              "b has negative entries beyond tolerance"),
             ((MB - U).max(axis=1) > FEAS_TOL * scale,
              "slack constraint violated beyond tolerance")]
    why = [next((msg.format(i) for bad, msg in tests if bad[s]), None)
           for s, i in enumerate(ids)]
    bound = B <= 1e-10 * bmax[:, None]
    bound[np.arange(S), ids] = False
    return why, bound, U - MB <= 1e-8 * scale[:, None]


def solve_column(p: CllsProblem, tie_order=None):
    """Solve one column's constrained least squares problem.

    The fitted vector M b is the projection of the column onto a polyhedral
    set and is unique even when b itself is not.  The result carries a KKT
    residual of at most ``KKT_TOL`` times the gradient scale.  An M with
    max|M| < 1 is first lifted by a power of two into [1, 2), where the
    kernel's absolute tolerances hold; the lift is exact, and the objective
    and KKT residual are reported at the input's scale.  This is the
    one-column view of ``preprocess_matrix``'s batch, with the same result
    and the same errors, which name the column: "column i: ...".
    """
    return _column_solutions(p.M, slice(p.i, p.i + 1), p.epsilon,
                             tie_order)[0]


def kkt_check(p: CllsProblem, b):
    """Independent optimality certificate for a feasible point b.

    Fits nonnegative multipliers on the normalized normals of the tight
    constraints to the gradient by scipy's bounded-variable least squares,
    not the kernel, so they are independent of the path that produced b,
    and scores the row multipliers by ``_residuals``, as the kernel's are.
    It is the reference the tests call, and the fallback for a column whose
    kernel multipliers fail verification.
    """
    M, i, (m, n) = p.M, p.i, p.M.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    d, u, Mb = p.target, p.slack_bound, M @ b
    why, bound, row = _feasibility(b[None], [i], Mb[None], u[None], d[None])
    if why[0] is not None:
        raise InfeasiblePoint(why[0])

    # g without entry i, fit by  lam - M[rows]^T nu  with lam, nu >= 0.
    g = 2.0 * (M.T @ (Mb - d))
    others = np.delete(np.arange(n), i)
    # C order, like a stack of columns: the norms and fits below round
    # differently on a Fortran-ordered copy of the same matrix.
    A = np.ascontiguousarray(
        np.hstack([np.eye(n)[others][:, bound[0]], -M[row[0]][:, others].T]))
    nu = np.zeros(m)
    if row.any():
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0] = 1.0
        # Bounded-variable least squares for the multiplier fit: the plain
        # Lawson-Hanson routine mis-reports on near-duplicate normals.
        import scipy.optimize
        fit = scipy.optimize.lsq_linear(A / norms, g[others],
                                        bounds=(0.0, np.inf), method="bvls")
        nu[row[0]] = (np.maximum(fit.x, 0.0) / norms)[bound.sum():]
    return float(_residuals(M, [i], b[None], Mb[None], u[None], d[None],
                            nu[None], bound)[0])


def preprocess_matrix(M, epsilon=0.0):
    """Solve all n column problems and assemble B*.

    B* is nonnegative with zero diagonal; column i of B* is the coefficient
    vector of column i's problem.  The fitted matrix M @ B* is unique even
    when B* is not.  All columns go through one lockstep kernel call; the
    first failing column's error is raised with its index attached.

    Returns (B_star, solutions).
    """
    sols = _column_solutions(as_matrix(M, "M"), slice(None), epsilon)
    return np.column_stack([s.b for s in sols]), sols


def nnls_columns(U, M):
    """Columnwise nonnegative least squares:  argmin_{V >= 0} ||M - U V||_F^2.

    One call of scipy's Lawson-Hanson routine per column of V.
    """
    import scipy.optimize
    U = as_matrix(U, "U")
    M = as_matrix(M, "M")
    if U.shape[0] != M.shape[0]:
        raise ValueError("U and M must have the same number of rows")
    r = U.shape[1]
    V = np.zeros((r, M.shape[1]))
    for j in range(M.shape[1]):
        try:
            V[:, j] = scipy.optimize.nnls(U, M[:, j], maxiter=50 * max(r, 2))[0]
        except RuntimeError as exc:
            raise MaxIterations(f"column {j}: {exc}") from exc
    return V
