"""Constrained linear least squares solver for the column preprocessing.

Each column i of a data matrix M defines one problem

    min_b ||M[:, i] - M b||^2   s.t.   M b <= M[:, i] + eps * ||M[:, i]||_inf,
                                       b >= 0,  b[i] = 0.

The solution subtracts from a column the best nonnegative combination of the
other columns that keeps the (relaxed) result nonnegative; the residual
column is the preprocessed column.  Each problem has all n variables, with
b[i] = 0 a bound never released, so all share one Gram matrix G = M^T M and
one index space (bounds, then rows).  One kernel call solves every column,
a zero or lone one included, in lockstep, and each gets the pivots and
floating-point results it would get alone (``_active_set_ls``): B* depends
neither on which columns share a call nor on the BLAS thread count.

The solver is a primal active-set method on the quadratic program in b: the
tight constraints are precisely the zero entries of the output, so a
combinatorially exact method is preferred over a first-order one.  Pivoting
is deterministic, and the ratio test breaks ties within 1e-15 by index.
Where M has full column rank (decided per call from M alone) every problem
is strictly convex and the multiplier most negative per unit normal leaves
the working set (Dantzig's rule: far fewer pivots).  There, at epsilon > 0,
a problem starts at b = 0 with the bounds of {k : x_k > 0} released, x the
bound-only optimum (scipy's nnls on the other columns): the first step
heads for x, which the epsilon margin often makes feasible and optimal (at
epsilon = 0 only an exact fit is, so the cold start stays).  Elsewhere the rule picks the optimum reported: the lowest-index negative
multiplier leaves, from the cold start, as in a column that Dantzig's path
leaves failed, solved again alone (an ``_escape`` fit can be wrong).  At a
degenerate point, common on exactly low-rank inputs, the working set is
dependent (more active rows than free variables, or a KKT system singular
or solved inaccurately) or a step is blocked at zero length; one
``_escape`` pivot proves the point optimal or strictly lowers the
objective.  That does not rule out cycling in floating point, so the pivot
cap stays.

Every column is certified: nonnegative multipliers with no stationarity
residual and no complementarity gap prove a convex QP's point optimal,
whoever computed them.  The kernel's are checked in plain arithmetic;
``kkt_check``, the tests' reference, refits them by BVLS.
"""

import collections
import math
import numpy as np
from dataclasses import dataclass
from types import MappingProxyType

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


class Solutions(list):
    """A batch's CllsSolutions with the read-only ``counters`` of its kernel
    calls: ``pivots`` (of columns a call stops without an error),
    ``lockstep_iterations``, ``escapes``, ``lowest_index_retries`` and
    ``bound_only_starts``."""

    def __init__(self, sols, counts):
        super().__init__(sols)
        self.counters = MappingProxyType({k: counts[k] for k in (
            "pivots", "lockstep_iterations", "escapes",
            "lowest_index_retries", "bound_only_starts")})


@dataclass(frozen=True)
class CllsSolution:
    """Solver output for one column.

    b:            full-length coefficient vector, b[i] == 0.
    objective:    ||M[:, i] - M b||^2.
    kkt_residual: optimality certificate: the kernel's multipliers' residual.
    active_set:   constraints tight at b (``_feasibility``'s tolerances),
                  bounds b_k = 0 as k, slack rows as n + row: the kernel's
                  working set, which can leave out other tight ones, or
                  after an ``_escape`` proof at a degenerate point every
                  tight one.
    iterations:   the column's kernel pivots (not nnls's inner steps), the
                  final optimality check included, so 1 if optimal at start.
    """

    b: np.ndarray
    objective: float
    kkt_residual: float
    active_set: tuple
    iterations: int


def _active_set_ls(M, cols, epsilon, max_iter, tie_order=None, dantzig=None,
                   counts=None):
    """Primal active-set method for the columns ``cols`` (a slice) of M.

    Column i's problem is  min ||M x - d||^2  s.t.  x >= 0, x_i = 0,
    M x <= u,  d = M[:, i], u = d + epsilon ||d||_inf, in the index space of
    ``CllsSolution.active_set`` (bounds 0..n-1, rows n..n+m-1).  Each starts
    from x = 0 with every bound held but those of the bound-only start;
    bound i is never dropped.  ``tie_order`` permutes the pivoting
    preference over the index space (the tests check that M x does not
    depend on it); ``dantzig`` picks the drop rule, by default where M has
    full column rank; ``counts``, a Counter, gains the call's counts of
    ``Solutions.counters`` but the retries.

    All problems read one store, [2G, M^T] over a zero row, with G = M^T M
    formed without BLAS (symmetric bit for bit under any thread count), and
    run in lockstep, one pivot each per iteration, each with the pivots and
    floating-point results it would take alone: KKT systems are solved in
    stacks of one exact size, and every product is a per-problem
    matrix-vector call.  The systems hold a few variables and rows, so an
    iteration costs numpy's per-call overhead, not LAPACK work: each step
    but the multipliers runs once over all live problems, and one it does
    not apply to keeps its state.  A full step's optimality check runs in its own iteration as
    one more pivot; max_iter caps each problem.  A problem at a degenerate
    point takes one ``_escape`` pivot.  Returns per problem (x, active,
    pivots, multipliers) or the SolverError that stopped it; multipliers
    (lam on bounds, nu on rows: 2G x - 2G[i] - lam + M^T nu = 0 on the free
    variables) are the last KKT solve's or a proving ``_escape`` fit's.
    """
    m, n = M.shape
    ids = np.arange(n)[cols]
    S, N, ar = ids.size, n + m, np.arange(n + m)
    D = M.T[cols]
    H = D + epsilon * np.abs(D).max(axis=1, keepdims=True)
    by_rank = None if tie_order is None else np.asarray(tie_order, dtype=int)
    rank_of = (ar if by_rank is None else np.argsort(by_rank)).tolist()
    dantzig = _full_column_rank(M) if dantzig is None else dantzig
    counts = collections.Counter() if counts is None else counts
    unit = np.concatenate([np.ones(n), np.linalg.norm(M, axis=1)])
    results = [None] * S
    done = H.min(axis=1) < -FEAS_TOL * np.maximum(1.0, np.abs(H).max(axis=1))
    fin = done.nonzero()[0].tolist()   # the problems that stop
    for s in fin:
        results[s] = Infeasible("slack bound has negative entries; "
                                "x = 0 is not feasible")

    # The store Q = [2G, M^T, 0] over a zero row: entry (a, b) of a KKT
    # matrix is Q[min(a, b, n), max(a, b)], 0 for two rows or the padding
    # index N.  rhs_src: 2G[i], u, then a 0 for padding.
    Q = np.zeros((n + 1, N + 1))
    Q[:n, :n] = 2.0 * np.einsum("ki,kj->ij", M, M)
    Q[:n, n:N] = M.T
    G2 = Q[:n, :n]
    rhs_src = np.zeros((S, N + 1))
    rhs_src[:, :n] = G2[ids]
    rhs_src[:, n:N] = H
    # The scale of each constraint's direction tolerance: 1 on the bounds.
    dir_scale = np.concatenate([np.ones(n), np.maximum(1, np.abs(M).max(1))])
    step_tol = 1e-13 * np.maximum(1.0, np.abs(D).max(axis=1))

    idx, col = np.arange(S), ids  # caller problem, column of each working one
    x = np.zeros((S, n))
    flip = ar < n                 # bounds: held in act, free in a working set
    act = np.repeat(flip[None], S, axis=0)   # bounds x_k = 0, rows M_j x = u_j held
    held, loose = np.where(flip, N, ar), np.where(flip, ar, N)   # N: out
    if dantzig and epsilon > 0.0 and n > 1:
        # The bound-only start (nnls aborts on a matrix with no columns).
        import scipy.optimize
        for s in (~done).nonzero()[0].tolist():
            others = ar[:n - 1] + (ar[:n - 1] >= ids[s])
            try:
                xh = scipy.optimize.nnls(M.take(others, axis=1), D[s])[0]
            except RuntimeError:      # its iteration cap: the cold start
                continue
            act[s, others] = xh <= 0.0
            counts["bound_only_starts"] += 1
    it, fused, top = 0, [0] * S, 0    # caller c's pivots: it + fused[c]
    while True:
        it += 1
        if it + top > max_iter:       # top >= fused[c] of every problem
            for s, c in enumerate(idx.tolist()):
                if not done[s] and it + fused[c] > max_iter:
                    done[s], results[c] = True, MaxIterations(
                        f"active-set method exceeded {max_iter} pivots")
                    fin.append(s)
        if fin:
            keep = ~done
            idx, col, x, act = idx[keep], col[keep], x[keep], act[keep]
            rhs_src, step_tol = rhs_src[keep], step_tol[keep]
        L = idx.size
        if L == 0:
            counts["lockstep_iterations"] += it - 1
            return results

        # Working sets: the free variables, then the active rows, padded with
        # N.  One holding more than n constraints is dependent and escapes.
        z = np.zeros((L, N + 1))      # x_new (later lam), then the rows' nu
        esc = act.sum(axis=1) > n
        key = np.where(esc, 0, (act ^ flip).sum(axis=1))
        order = key.argsort(kind="stable")
        sizes = key[order].tolist()
        lo = sizes.count(0)
        if lo < L:
            order, sizes = order[lo:], sizes[lo:]
            P = np.sort(np.where(act[order], held, loose))[:, :sizes[-1]]
            # Entry (a, b) is Q.flat[min(a, n)(N + 1) + b or its mirror's].
            F = (np.minimum(P, n) * (N + 1))[:, :, None] + P[:, None, :]
            K = Q.ravel().take(np.minimum(F, F.transpose(0, 2, 1)))
            rows = order[:, None]
            rhs = rhs_src[rows, P][:, :, None]
            sol = np.zeros((2,) + rhs.shape)    # solutions, then K times them
            lo = 0
            for k in sorted(set(sizes)):
                hi = lo + sizes.count(k)
                Kg, rg = K[lo:hi, :k, :k], rhs[lo:hi, :k]
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
                sol[0, lo:hi, :k] = sg
                np.matmul(Kg, sg, out=sol[1, lo:hi, :k])
                lo = hi
            # A singular or inaccurately solved system is dependent too.
            ok = (np.abs(sol[1] - rhs).max(axis=(1, 2))
                  <= 1e-8 * (np.abs(rhs).max(axis=(1, 2)) + 1.0))
            if not ok.all():
                esc[order[~ok]] = True
                sol[0, ~ok] = 0.0
            z[rows, P] = sol[0, :, :, 0]

        step = z[:, :n] - x
        smax = np.abs(step).max(axis=1)
        small, go = smax <= step_tol, ~esc
        stat, move = small & go, go > small     # move: a step to take
        done = np.zeros(L, dtype=bool)
        if move.any():
            # Ratio test: gap (x, u - M x) over rate (-step, M step).
            gap, rate = np.empty((2, L, N))
            gap[:, :n] = x
            np.matmul(M, x[:, :, None], out=gap[:, n:, None])
            np.subtract(rhs_src[:, n:N], gap[:, n:], out=gap[:, n:])
            np.negative(step, out=rate[:, :n])
            np.matmul(M, step[:, :, None], out=rate[:, n:, None])
            tol = (1e-14 * np.maximum(1.0, smax))[:, None] * dir_scale
            ratio = np.full((L, N), np.inf)
            np.divide(gap, rate, out=ratio,
                      where=((rate > tol) > act) & move[:, None])
            # The blocker is a fold from a full step in index order: with its
            # 1e-15 window a later ratio can win without being the smallest.
            # It takes a smallest ratio below 1 - 2e-15 with no other within
            # 2e-15 (one below 0 is stuck either way); other problems fold.
            least = ratio.min(axis=1)
            simple = ((ratio <= (least + 2e-15)[:, None]).sum(axis=1) == 1)
            simple &= least < 1.0 - 2e-15
            alpha = np.where(simple, least, move)   # else a full step, or none
            blocker = np.where(simple, ratio.argmin(axis=1), -1)
            for r in ((least < 1.0) > simple).nonzero()[0].tolist():
                al, bl, ks = 1.0, -1, np.isfinite(ratio[r]).nonzero()[0]
                for k, a in zip(ks.tolist(), ratio[r, ks].tolist()):
                    if a < al - 1e-15 or (abs(a - al) <= 1e-15 and bl >= 0
                                          and rank_of[k] < rank_of[bl]):
                        al, bl = min(a, al), k
                alpha[r], blocker[r] = al, bl
            # Blocked at zero length: degenerate.  alpha = 0 keeps x (no -0.0).
            stuck = move & (alpha <= 1e-12)
            esc |= stuck
            alpha[stuck] = 0.0
            ra = ((blocker >= 0) > stuck).nonzero()[0]
            act[ra, blocker[ra]] = True
            x += alpha[:, None] * step
            np.maximum(x, 0.0, out=x)
            np.copyto(x, 0.0, where=act[:, :n])   # a new held bound
            move &= blocker < 0
            if move.any():
                # The next KKT solve would repeat this one: test z - x now.
                move &= np.abs(z[:, :n] - x).max(axis=1) <= step_tol
                fs = move.nonzero()[0]
                for s, c in zip(fs.tolist(), idx[fs].tolist()):
                    if it + fused[c] < max_iter:
                        stat[s], fused[c] = True, fused[c] + 1
                        top = max(top, fused[c])

        if stat.any():
            # Stationary: drop the negative multiplier of lowest rank, or under
            # Dantzig's of those most negative per unit normal, never bound
            # i's.  lam = 2G x - 2G[i] + M^T nu on these rows only (large n).
            st = stat.nonzero()[0]
            lam = np.matmul(G2, x[st, :, None])
            lam -= rhs_src[st, :n, None]
            lam += np.matmul(M.T, z[st, n:N, None])
            z[st, :n] = lam[:, :, 0]
            cand = (z[:, :N] < -KKT_TOL) & act
            cand[np.arange(L), col] = False
            found = cand.any(axis=1) & stat
            done = stat > found
            score = np.where(cand, z[:, :N] * unit if dantzig else 0.0, np.inf)
            f = found.nonzero()[0]     # argmin: the first of equal scores
            w = (score if by_rank is None else score[:, by_rank]).argmin(1)
            act[f, w[f] if by_rank is None else by_rank[w[f]]] = False

        for s in esc.nonzero()[0].tolist():
            i = col[s]
            counts["escapes"] += 1
            try:
                xi, work, done[s], mult = _escape(
                    np.delete(M, i, axis=1), M[:, i], rhs_src[s, n:N],
                    np.delete(x[s], i))
            except MaxIterations as exc:
                results[idx[s]], done[s] = exc, True
                continue
            x[s], act[s] = np.insert(xi, i, 0.0), np.insert(work, i, True)
            z[s, :N] = np.insert(mult, i, 0.0)

        fin = done.nonzero()[0].tolist()
        for s in fin:
            if results[idx[s]] is None:       # stopped without an error
                results[idx[s]] = (x[s].copy(), tuple(act[s].nonzero()[0].tolist()),
                                   it + fused[idx[s]], np.where(act[s], z[s, :N], 0.0))
                counts["pivots"] += it + fused[idx[s]]


def _full_column_rank(M):
    """The gate of Dantzig's rule; a power-of-two lift cannot flip it."""
    return M.shape[0] >= M.shape[1] and numerical_rank(M) == M.shape[1]


def _escape(C, d, u, x):
    """One pivot from x, where a step of  min ||C x - d||^2,  x >= 0,
    C x <= u  is blocked at zero length (a degenerate point).

    Fits -g by nonnegative multipliers on the normals of every constraint
    tight at x (``_feasibility``'s tolerances), not only the working set's.
    A zero residual r proves x a KKT point: returns (x, tight, True, mult),
    tight a mask over bounds, then rows, and mult the fit's multipliers in
    that index space.  Otherwise r is, by the Moreau decomposition, a
    feasible direction with g.r = -|r|^2: returns (x, work, False, mult), x
    moved to the line minimum along r or to the first constraint not tight,
    and work the fit's support plus that blocker.
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

    One kernel call for all columns, then one batched ``_residuals`` of its
    multipliers, which must certify each column.  A column failed under
    Dantzig's rule is solved again alone under the lowest-index rule.
    Returns the ``Solutions``, or raises the first failing column's error
    (the kernel's, InfeasiblePoint or a certificate's) as "column i: ..."."""
    _check_epsilon(epsilon)
    m, n = M.shape
    ids = range(n)[cols]
    top = float(np.abs(M).max())
    k = 1 - math.frexp(top)[1] if top < 1.0 else 0
    # The kernel's tolerances are absolute at unit scale, so an M with
    # max|M| < 1 is first lifted by a power of two into [1, 2).
    Ml = np.ldexp(M, k) if k else M
    dantzig = _full_column_rank(Ml) if dantzig is None else dantzig
    counts = collections.Counter()
    results = _active_set_ls(Ml, cols, epsilon, 50 * n, tie_order, dantzig,
                             counts)
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
                raise SolverError("optimality certificate failed: KKT residual "
                                  f"{residual:.3e} exceeds {tol:.3e}")
        except (SolverError, InfeasiblePoint) as exc:
            if dantzig:     # alone: exactly the lowest-index rule's outcome
                retry = _column_solutions(M, slice(i, i + 1), epsilon,
                                          tie_order, False)
                counts.update(retry.counters, lowest_index_retries=1)
                sols += retry
                continue
            raise type(exc)(f"column {i}: {exc}") from exc
        obj = float(np.sum((D[s] - Ml @ b) ** 2))
        sols.append(CllsSolution(b=b, objective=math.ldexp(obj, -2 * k),
                                 kkt_residual=math.ldexp(residual, -2 * k),
                                 active_set=active, iterations=it))
    return Solutions(sols, counts)


def _residuals(M, ids, B, MB, U, D, nu, bound):
    """The KKT residual of each point B[s] (bound: its tight bounds) under
    row multipliers nu[s] >= 0, whoever computed them: with g the gradient
    and lam = max(g + M^T nu, 0) on the tight bounds, the larger of
    |g + M^T nu - lam| without entry i and the largest multiplier times its
    constraint's gap, by per-point products as in the kernel."""
    r = np.matmul(M.T, (2.0 * (MB - D) + nu)[:, :, None])[:, :, 0]
    lam = np.where(bound, np.maximum(r, 0.0), 0.0)
    r -= lam
    r[np.arange(len(ids)), ids] = 0.0
    return np.maximum.reduce([np.sqrt(np.einsum("sk,sk->s", r, r)),
                              (lam * np.abs(B)).max(axis=1),
                              (nu * np.abs(U - MB)).max(axis=1)])


def _feasibility(B, ids, MB, U, D):
    """The certificates' feasibility tests and activity tolerances: for each
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

    The fitted vector M b, a projection onto a polyhedral set, is unique
    even when b is not; its KKT residual is at most ``KKT_TOL`` times the
    gradient scale.  An M with max|M| < 1 is solved exactly lifted by a
    power of two into [1, 2), where the kernel's absolute tolerances hold,
    and objective and residual are reported at the input's scale.  The
    one-column view of ``preprocess_matrix``: the same result and errors.
    """
    return _column_solutions(p.M, slice(p.i, p.i + 1), p.epsilon,
                             tie_order)[0]


def kkt_check(p: CllsProblem, b):
    """Independent optimality certificate for a feasible point b.

    Fits nonnegative multipliers on the normalized normals of the tight
    constraints to the gradient by scipy's bounded-variable least squares,
    not the kernel, so they are independent of the path that produced b,
    and scores the row multipliers by ``_residuals``, as the kernel's are.
    It is the reference the tests call; no solver path calls it.
    """
    M, i, (m, n) = p.M, p.i, p.M.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    d, u, Mb = p.target, p.slack_bound, M @ b
    why, bound, row = _feasibility(b[None], [i], Mb[None], u[None], d[None])
    if why[0] is not None:
        raise InfeasiblePoint(why[0])

    # g without entry i, fit by  lam - M[rows]^T nu  with lam, nu >= 0, in
    # C order: the norms and fits round differently on a Fortran copy.
    g = 2.0 * (M.T @ (Mb - d))
    others = np.delete(np.arange(n), i)
    A = np.ascontiguousarray(
        np.hstack([np.eye(n)[others][:, bound[0]], -M[row[0]][:, others].T]))
    nu = np.zeros(m)
    if row.any():
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0] = 1.0
        # BVLS: the plain Lawson-Hanson fit mis-reports on near-duplicates.
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

    Returns (B_star, solutions), solutions a list of CllsSolution with the
    kernel's counts as ``solutions.counters`` (see ``Solutions``).
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
