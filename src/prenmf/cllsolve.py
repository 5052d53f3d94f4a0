"""Constrained linear least squares solver for the column preprocessing.

Each column i of a data matrix M defines one problem

    min_b ||M[:, i] - M b||^2   s.t.   M b <= M[:, i] + eps * ||M[:, i]||_inf,
                                       b >= 0,  b[i] = 0.

The solution subtracts from a column the best nonnegative combination of the
other columns that keeps the (relaxed) result nonnegative; the residual
column is the preprocessed column.  Problems for different i are independent;
they are solved one after the other, because the solver's Python loop holds
the interpreter lock and threads would only add overhead.

The solver is a primal active-set method on the quadratic program in b.
Problems here are small and dense (n up to about a thousand), and the exact
active set matters: the tight constraints are precisely the zero entries of
the output, so a combinatorially exact method is preferred over a first-order
one.  Pivoting is lowest-index (Bland-style) which makes runs deterministic
and cycle-free under degeneracy.
"""

import math
import numpy as np
from dataclasses import dataclass

import scipy.optimize

from .matcore import as_matrix

__all__ = [
    "SolverError",
    "Infeasible",
    "MaxIterations",
    "InfeasiblePoint",
    "CllsProblem",
    "CllsSolution",
    "solve_column",
    "preprocess_matrix",
    "kkt_check",
    "nnls_columns",
]

FEAS_TOL = 1e-9
KKT_TOL = 1e-8


class SolverError(RuntimeError):
    pass


class Infeasible(SolverError):
    """No feasible starting point (numerical breakdown; b = 0 is feasible
    whenever the slack bound is nonnegative)."""


class MaxIterations(SolverError):
    pass


class InfeasiblePoint(ValueError):
    """A point handed to the optimality check violates the constraints."""


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
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1): values >= 1 void "
                             "the nonnegativity rationale of the relaxation")

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
    kkt_residual: independent optimality certificate (see kkt_check).
    active_set:   tight constraints; entries < n are variable bounds
                  (b_k = 0), entries >= n encode slack rows as n + row.
    iterations:   active-set pivots performed.
    """

    b: np.ndarray
    objective: float
    kkt_residual: float
    active_set: tuple
    iterations: int


def _solve_eq_qp(CtC, Ctd, A_eq, h_eq, reg):
    """Minimize ||C x - d||^2 subject to A_eq x = h_eq.

    Returns (x, nu) where nu are the equality multipliers in the convention
    grad + A_eq^T nu = 0.  Falls back to a diagonally regularized
    least-squares solve when the KKT matrix is singular.
    """
    nf = CtC.shape[0]
    ne = A_eq.shape[0]
    K = np.zeros((nf + ne, nf + ne))
    K[:nf, :nf] = 2.0 * CtC
    K[:nf, nf:] = A_eq.T
    K[nf:, :nf] = A_eq
    rhs = np.concatenate([2.0 * Ctd, h_eq])
    rhs_scale = np.abs(rhs).max() + 1.0
    try:
        sol = np.linalg.solve(K, rhs)
        ok = (np.all(np.isfinite(sol))
              and np.abs(K @ sol - rhs).max() <= 1e-8 * rhs_scale)
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        K[:nf, :nf] = 2.0 * (CtC + reg * np.eye(nf))
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:nf], sol[nf:]


def _active_set_ls(C, d, h, max_iter, tie_order=None):
    """Primal active-set method for min ||C x - d||^2, x >= 0, C x <= h.

    Starts from x = 0 with all variable bounds active.  Constraints are
    indexed bounds first (0..n-1) then rows (n..n+p-1); ``tie_order``
    optionally permutes the pivoting preference over that index space (used
    to verify that the fitted vector C x is independent of the ordering).

    Returns (x, active, iterations).
    """
    p, n = C.shape
    if np.min(h) < -FEAS_TOL * max(1.0, float(np.abs(h).max())):
        raise Infeasible("slack bound has negative entries; x = 0 is not feasible")

    if tie_order is None:
        rank = np.arange(n + p)
    else:
        rank = np.empty(n + p, dtype=int)
        rank[np.asarray(tie_order, dtype=int)] = np.arange(n + p)

    CtC = C.T @ C
    Ctd = C.T @ d
    reg = 1e-12 * (np.trace(CtC) / max(n, 1) + 1.0)
    row_scale = np.maximum(1.0, np.abs(C).max(axis=1))

    x = np.zeros(n)
    act_bound = np.ones(n, dtype=bool)   # x_k = 0 held
    act_row = np.zeros(p, dtype=bool)    # G_j x = h_j held

    step_tol = 1e-13 * max(1.0, float(np.abs(d).max()))
    # Anti-cycling bookkeeping for linearly dependent working sets (where
    # the multiplier estimate is not unique): a dropped constraint that
    # immediately re-blocks at a zero step is excluded until real progress;
    # after a long zero-progress stretch every drop is excluded eagerly so
    # the loop must terminate.
    taboo = np.zeros(n + p, dtype=bool)
    pending = None
    stall = 0
    aggressive = False
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise MaxIterations(f"active-set method exceeded {max_iter} pivots")

        free = np.flatnonzero(~act_bound)
        rows = np.flatnonzero(act_row)
        nf, ne = free.size, rows.size

        if nf == 0:
            x_new = np.zeros(n)
            nu = np.zeros(ne)
        else:
            A_eq = C[rows][:, free] if ne else np.zeros((0, nf))
            h_eq = h[rows] if ne else np.zeros(0)
            xf, nu = _solve_eq_qp(CtC[free][:, free], Ctd[free], A_eq, h_eq, reg)
            x_new = np.zeros(n)
            x_new[free] = xf

        step = x_new - x
        if np.abs(step).max() <= step_tol:
            # Stationary on the working set: drop the negative multiplier
            # of lowest rank (ranks are distinct, so the choice is unique).
            g = 2.0 * (CtC @ x - Ctd)
            lam_bound = g.copy()
            if ne:
                lam_bound += C[rows].T @ nu
            cands = np.concatenate([
                np.flatnonzero(act_bound & (lam_bound < -KKT_TOL)),
                n + rows[nu < -KKT_TOL]])
            cands = cands[~taboo[cands]]
            if cands.size == 0:
                active = tuple(np.flatnonzero(act_bound).tolist()
                               + (n + rows).tolist())
                return x, active, it
            worst = int(cands[np.argmin(rank[cands])])
            if aggressive:
                taboo[worst] = True
            else:
                pending = worst
            if worst < n:
                act_bound[worst] = False
            else:
                act_row[worst - n] = False
            continue

        # Ratio test against inactive constraints.
        dir_tol = 1e-14 * max(1.0, float(np.abs(step).max()))
        blk = np.flatnonzero(~act_bound & (step < -dir_tol))
        Cstep = C @ step
        Cx = C @ x
        blk_row = np.flatnonzero(~act_row & (Cstep > dir_tol * row_scale))
        ratios = np.concatenate([x[blk] / (-step[blk]),
                                 (h[blk_row] - Cx[blk_row]) / Cstep[blk_row]])
        cands = np.concatenate([blk, n + blk_row])
        # The fold stays sequential: with the 1e-15 window a later candidate
        # can replace the current one without being the smallest ratio, so
        # the blocker depends on the order candidates are visited in
        # (bounds, then rows, each by index), which a plain argmin loses.
        alpha, blocker, rank_blocker = 1.0, None, None
        for a, k, rk in zip(ratios.tolist(), cands.tolist(),
                            rank[cands].tolist()):
            if a < alpha - 1e-15 or (abs(a - alpha) <= 1e-15 and blocker is not None
                                     and rk < rank_blocker):
                alpha, blocker, rank_blocker = min(a, alpha), k, rk

        alpha = max(alpha, 0.0)
        x = x + alpha * step
        np.maximum(x, 0.0, out=x)
        x[act_bound] = 0.0
        if alpha > 1e-12:
            taboo[:] = False
            pending = None
            stall = 0
            aggressive = False
        else:
            stall += 1
            if pending is not None and blocker == pending:
                # The constraint dropped at the last stationary point blocks
                # again at zero step: that relaxation was futile.
                taboo[pending] = True
            pending = None
            if stall > 20 + n + p:
                aggressive = True
        if alpha < 1.0 and blocker is not None:
            if blocker < n:
                act_bound[blocker] = True
                x[blocker] = 0.0
            else:
                act_row[blocker - n] = True


def solve_column(p: CllsProblem, max_iter=None, tie_order=None):
    """Solve one column's constrained least squares problem.

    The fitted vector M b is the projection of the column onto a polyhedral
    set and is unique even when b itself is not.  The result carries an
    independently computed KKT residual which is at most ``KKT_TOL`` times
    the gradient scale on success.

    The kernel's tolerances are absolute at unit scale, so an M with
    max|M| < 1 is first lifted by a power of two into [1, 2).  The lift is
    exact: b and the active set do not depend on the scale of M, and the
    objective and KKT residual are reported at the input's scale.
    """
    M, i = p.M, p.i
    m, n = M.shape
    if n < 2:
        # Nothing to subtract; the only feasible point is b = 0.
        b = np.zeros(n)
        obj = float(np.dot(p.target, p.target))
        return CllsSolution(b=b, objective=obj, kkt_residual=0.0,
                            active_set=(0,), iterations=0)
    if max_iter is None:
        max_iter = 50 * n

    d = p.target
    scale = np.abs(d).max()
    others = np.delete(np.arange(n), i)
    if scale == 0.0:
        # Zero columns pass through: they cannot influence the other columns.
        b = np.zeros(n)
        return CllsSolution(b=b, objective=0.0, kkt_residual=0.0,
                            active_set=tuple(range(n)), iterations=0)

    top = float(np.abs(M).max())
    k = 1 - math.frexp(top)[1] if top < 1.0 else 0
    if k:
        p = CllsProblem(np.ldexp(M, k), i, p.epsilon)
        M, d = p.M, p.target
    C = M[:, others]
    u = p.slack_bound
    x, active_red, it = _active_set_ls(C, d, u, max_iter, tie_order=tie_order)

    b = np.zeros(n)
    b[others] = x
    # Map reduced constraint indices back to full-length variable indices.
    active = []
    for a in active_red:
        if a < n - 1:
            active.append(int(others[a]))
        else:
            active.append(int(n + (a - (n - 1))))
    active.append(int(i))
    residual = kkt_check(p, b)
    grad_scale = max(1.0, float(np.abs(2.0 * (M.T @ d)).max()))
    if residual > KKT_TOL * grad_scale:
        raise SolverError(f"optimality certificate failed: KKT residual "
                          f"{residual:.3e} exceeds {KKT_TOL * grad_scale:.3e}")
    obj = float(np.sum((d - M @ b) ** 2))
    return CllsSolution(b=b, objective=math.ldexp(obj, -2 * k),
                        kkt_residual=math.ldexp(residual, -2 * k),
                        active_set=tuple(sorted(active)), iterations=it)


def kkt_check(p: CllsProblem, b):
    """Independent optimality certificate for a feasible point b.

    Returns the maximum of the stationarity residual (the norm of the
    gradient's unmatched part after fitting nonnegative multipliers on the
    active constraint normals, i.e. the projection of the negative gradient
    onto the feasible cone) and the complementarity violation.  The
    multiplier fit is a small nonnegative least squares problem solved with
    scipy's Lawson-Hanson routine, deliberately not the active-set kernel
    above, so the certificate stays independent of the path it checks.
    """
    M, i = p.M, p.i
    m, n = M.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    d = p.target
    u = p.slack_bound
    scale = max(np.abs(d).max(), 1.0)

    if abs(b[i]) > FEAS_TOL:
        raise InfeasiblePoint(f"b[{p.i}] must be zero")
    if b.min() < -FEAS_TOL * max(1.0, np.abs(b).max()):
        raise InfeasiblePoint("b has negative entries beyond tolerance")
    Mb = M @ b
    viol = Mb - u
    if viol.max() > FEAS_TOL * scale:
        raise InfeasiblePoint("slack constraint violated beyond tolerance")

    g = 2.0 * (M.T @ (Mb - d))
    act_bound = np.flatnonzero(b <= 1e-10 * max(1.0, np.abs(b).max()))
    act_bound = act_bound[act_bound != i]
    act_row = np.flatnonzero(u - Mb <= 1e-8 * scale)

    # Stationarity: g restricted to the free coordinates (b_i is not a
    # variable), fit by  lam_bound - M[act_row]^T nu  with lam, nu >= 0.
    others = np.delete(np.arange(n), i)
    # C order, like a stack of columns: the norms and fits below round
    # differently on a Fortran-ordered copy of the same matrix.
    A = np.ascontiguousarray(
        np.hstack([np.eye(n)[others][:, act_bound], -M[act_row][:, others].T]))
    target = g[others]
    if A.shape[1]:
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0] = 1.0
        An = A / norms
        # Bounded-variable least squares for the multiplier fit: the plain
        # Lawson-Hanson routine mis-reports on near-duplicate normals.
        fit = scipy.optimize.lsq_linear(An, target, bounds=(0.0, np.inf),
                                        method="bvls")
        lam = np.maximum(fit.x, 0.0)
        r = target - An @ lam
        # Polish on the dual-violating support recovers exact multipliers
        # when the bounded solver leaves a small gap.
        for _ in range(4):
            viol = An.T @ r
            S = np.flatnonzero((lam > 0) | (viol > 1e-12 * max(1.0, np.abs(g).max())))
            if S.size == 0:
                break
            sol, *_ = np.linalg.lstsq(An[:, S], target, rcond=None)
            cand = np.zeros_like(lam)
            cand[S] = np.maximum(sol, 0.0)
            r_cand = target - An @ cand
            if np.linalg.norm(r_cand) >= np.linalg.norm(r) - 1e-16:
                break
            lam, r = cand, r_cand
        stationarity = float(np.linalg.norm(r))
        lam = lam / norms
        gap = np.concatenate([np.abs(b[act_bound]), np.abs(u[act_row] - Mb[act_row])])
        comp = max(0.0, float((lam * gap).max()))
    else:
        stationarity = float(np.linalg.norm(target))
        comp = 0.0
    return max(stationarity, comp)


def preprocess_matrix(M, epsilon=0.0):
    """Solve all n column problems and assemble B*.

    B* is nonnegative with zero diagonal; column i of B* is the coefficient
    vector of column i's problem.  The fitted matrix M @ B* is unique even
    when B* is not.  Per-column failures are re-raised with the failing
    column index attached.

    Returns (B_star, solutions).
    """
    M = as_matrix(M, "M")
    n = M.shape[1]

    def solve_one(i):
        try:
            return solve_column(CllsProblem(M, i, epsilon))
        except SolverError as exc:
            raise type(exc)(f"column {i}: {exc}") from exc

    sols = [solve_one(i) for i in range(n)]

    B = np.column_stack([s.b for s in sols])
    return B, sols


def nnls_columns(U, M):
    """Columnwise nonnegative least squares:  argmin_{V >= 0} ||M - U V||_F^2.

    One call of scipy's Lawson-Hanson routine per column of V.
    """
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
