"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the
quadratic programs go through scipy's SLSQP and Lawson-Hanson solvers plus
dense grid search, the spectral radius through numpy's dense eigensolver,
and the tangent construction through direction sampling with bisection
refinement.  ``tangent_step_oracle`` is the rank-3 walk's former
one-point-at-a-time stepper, kept as the reference for the batched one; it
shares only the ``Polygon2`` boundary parametrisation with the library.
``outer_polygon_oracle`` builds the simplex slice from pairwise line meets
and qhull; it shares only the chart with the library's half-plane clip.
``active_set_oracle`` is likewise the column QP kernel as one column at a
time, the reference for the lockstep kernel; it shares only the tolerances,
the exception classes and ``cllsolve._escape`` with the library.  Like the
kernel, it poses column i's problem on all n variables with b[i] = 0 a bound
that never leaves the working set, indexes constraints bounds first then
rows, takes its KKT systems from one Gram matrix G = M^T M formed by
``einsum``, and takes an ``_escape`` pivot at every degenerate point: a
dependent working set or a step blocked at zero length.  Where the kernel
starts a column at its bound-only optimum's support, so does
``column_kernel_oracle``, with that support from ``nnls_oracle``.

The SLSQP column oracle does not trust the solver's exit status, whose
meaning shifts between scipy versions (scipy 1.17 stops at the optimum of
the nested-squares column with status 8).  It accepts SLSQP's point only
after checking the point itself: feasibility, and KKT stationarity with
nonnegative multipliers fitted by scipy's NNLS (`qp_column_check`).
"""

import math

import numpy as np
import scipy.optimize
import scipy.spatial

from prenmf import cllsolve, npp3
from prenmf.cllsolve import FEAS_TOL, KKT_TOL, Infeasible, MaxIterations
from prenmf.matcore import RANK_TOL
from prenmf.npp3 import GEOM_TOL, GeometryError, StartInsideQ

# Feasibility and activity tolerance, relative to max|u| for the slack rows
# and to max(max|x|, 1) for the bounds x >= 0.
FEAS_RTOL = 1e-8
# Stationarity tolerance, relative to the size of the terms of the gradient.
STAT_RTOL = 1e-6


def _solve_eq_qp(CtC, Ctd, A_eq, h_eq):
    """Minimize ||C x - d||^2 subject to A_eq x = h_eq.

    Returns (x, nu) where nu are the equality multipliers in the convention
    grad + A_eq^T nu = 0, or None when the system is dependent: more
    equalities than variables, or a KKT matrix that is singular or solved
    inaccurately.
    """
    nf = CtC.shape[0]
    ne = A_eq.shape[0]
    if ne > nf:
        return None
    K = np.zeros((nf + ne, nf + ne))
    K[:nf, :nf] = 2.0 * CtC
    K[:nf, nf:] = A_eq.T
    K[nf:, :nf] = A_eq
    rhs = np.concatenate([2.0 * Ctd, h_eq])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None
    if (not np.all(np.isfinite(sol))
            or np.abs(K @ sol - rhs).max() > 1e-8 * (np.abs(rhs).max() + 1.0)):
        return None
    return sol[:nf], sol[nf:]


def _full_rank_oracle(M):
    """Full column rank by numpy's SVD: the gate of Dantzig's rule and of
    the bound-only start."""
    m, n = M.shape
    sv = np.linalg.svd(M, compute_uv=False)
    return m >= n and sv[0] > 0.0 and sv[n - 1] > RANK_TOL * sv[0]


def active_set_oracle(M, i, h, max_iter, tie_order=None, lowest_rank=False,
                      free=()):
    """Primal active-set method for column i's problem

        min ||M x - d||^2  s.t.  x >= 0, x_i = 0, M x <= h,  d = M[:, i].

    Starts from x = 0 with every variable bound active but those of
    ``free``; bound i pins x_i = 0 and is never dropped.  Constraints are
    indexed bounds first (0..n-1) then rows (n..n+m-1); ``tie_order`` optionally permutes the pivoting
    preference over that index space (used to verify that the fitted vector
    M x is independent of the ordering).  Where M has full column rank, by
    its own SVD, and ``lowest_rank`` is off, the dropped multiplier is one
    most negative per unit normal (Dantzig's rule), ties to the lowest
    rank; otherwise the negative multiplier of lowest rank.  The KKT
    systems are slices of G = M^T M, formed by ``einsum`` as the kernel
    forms it.  A degenerate point, where the working set is dependent (see
    ``_solve_eq_qp``) or a step is blocked at zero length, takes one
    ``cllsolve._escape`` pivot on M without column i and x without entry i.

    Returns (x, active, iterations).
    """
    m, n = M.shape
    d = M[:, i]
    if np.min(h) < -FEAS_TOL * max(1.0, float(np.abs(h).max())):
        raise Infeasible("slack bound has negative entries; x = 0 is not feasible")

    if tie_order is None:
        rank = np.arange(n + m)
    else:
        rank = np.empty(n + m, dtype=int)
        rank[np.asarray(tie_order, dtype=int)] = np.arange(n + m)

    dantzig = not lowest_rank and _full_rank_oracle(M)
    unit = np.concatenate([np.ones(n), np.linalg.norm(M, axis=1)])

    G = np.einsum("ki,kj->ij", M, M)
    G2 = 2.0 * G
    row_scale = np.maximum(1.0, np.abs(M).max(axis=1))

    x = np.zeros(n)
    act = np.arange(n + m) < n    # held: bounds x_k = 0, then rows M_j x = h_j
    act[list(free)] = False

    def escape(x):
        x, act, stop, _ = cllsolve._escape(np.delete(M, i, axis=1), d, h,
                                           np.delete(x, i))
        return np.insert(x, i, 0.0), np.insert(act, i, True), stop

    step_tol = 1e-13 * max(1.0, float(np.abs(d).max()))
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise MaxIterations(f"active-set method exceeded {max_iter} pivots")

        free = np.flatnonzero(~act[:n])
        rows = np.flatnonzero(act[n:])
        nf, ne = free.size, rows.size

        x_new = np.zeros(n)
        nu = np.zeros(m)
        if nf or ne:
            sol = _solve_eq_qp(G[free][:, free], G[i, free], M[rows][:, free],
                               h[rows])
            if sol is None:
                # A dependent working set: x is a degenerate point.
                x, act, stop = escape(x)
                if stop:
                    return x, tuple(np.flatnonzero(act).tolist()), it
                continue
            x_new[free], nu[rows] = sol

        step = x_new - x
        if np.abs(step).max() <= step_tol:
            # Stationary on the working set: drop a negative multiplier,
            # never bound i; of the candidates (under Dantzig's rule, those
            # most negative per unit normal) the one of lowest rank (ranks
            # are distinct, so the choice is unique).
            lam = np.concatenate([G2 @ x - G2[i] + M.T @ nu, nu])
            cands = np.flatnonzero(act & (lam < -KKT_TOL))
            cands = cands[cands != i]
            if cands.size == 0:
                return x, tuple(np.flatnonzero(act).tolist()), it
            if dantzig:
                score = lam[cands] * unit[cands]
                cands = cands[score == score.min()]
            act[cands[np.argmin(rank[cands])]] = False
            continue

        # Ratio test against inactive constraints.
        dir_tol = 1e-14 * max(1.0, float(np.abs(step).max()))
        blk = np.flatnonzero(~act[:n] & (step < -dir_tol))
        Mstep = M @ step
        Mx = M @ x
        blk_row = np.flatnonzero(~act[n:] & (Mstep > dir_tol * row_scale))
        ratios = np.concatenate([x[blk] / (-step[blk]),
                                 (h[blk_row] - Mx[blk_row]) / Mstep[blk_row]])
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

        if alpha <= 1e-12:
            x, act, stop = escape(x)
            if stop:
                return x, tuple(np.flatnonzero(act).tolist()), it
            continue
        x = x + alpha * step
        np.maximum(x, 0.0, out=x)
        if blocker is not None:
            act[blocker] = True
        x[act[:n]] = 0.0


def column_kernel_oracle(M, i, epsilon=0.0, tie_order=None, lowest_rank=False):
    """Column i's problem as the serial code poses it to ``active_set_oracle``.

    The slack bound is u = d + epsilon ||d||_inf with d = M[:, i]; M is
    taken as already lifted to max|M| >= 1.  Where epsilon > 0, n >= 2 and
    Dantzig's rule runs, the start frees the support of the bound-only
    optimum  argmin_{x >= 0} ||M_{-i} x - d||  by ``nnls_oracle`` (none if
    it hits its iteration cap).  Returns (x, active, iterations) with x of
    length n and x[i] = 0.
    """
    n = M.shape[1]
    d = M[:, i]
    u = d + epsilon * np.abs(d).max()
    free = ()
    if epsilon > 0.0 and n > 1 and not lowest_rank and _full_rank_oracle(M):
        try:
            xh = nnls_oracle(np.delete(M, i, axis=1), d)[0]
            free = np.delete(np.arange(n), i)[xh > 0.0]
        except RuntimeError:
            pass
    return active_set_oracle(M, i, u, 50 * n, tie_order=tie_order,
                             lowest_rank=lowest_rank, free=free)


def _column_qp(M, i, epsilon):
    """Target d, slack bound u, free indices and their columns C."""
    n = M.shape[1]
    d = M[:, i]
    u = d + epsilon * np.abs(d).max()
    others = np.delete(np.arange(n), i)
    return d, u, others, M[:, others]


def qp_column_check(M, i, b, epsilon=0.0):
    """Why b is not an optimum of column i's QP, or None when it is one.

    The QP is  min f(x) = ||d - C x||^2  s.t.  C x <= u, x >= 0, with
    d = M[:, i], C the other columns and x = b without its i-th entry.
    b is accepted when it is feasible (b[i] = 0, x >= -tol, u - C x >= -tol)
    and stationary: with the active rows (slack <= tol) and active bounds
    (x <= tol), nonnegative multipliers fitted by NNLS to
    grad f = -C_A^T lam + mu  must leave a residual no larger than
    STAT_RTOL * 2 ||C|| (||d|| + ||C|| ||x||), a bound on the size of the
    terms of grad f.  For a convex QP this is the KKT certificate, so b is
    a global optimum up to the tolerances.
    """
    d, u, others, C = _column_qp(M, i, epsilon)
    b = np.asarray(b, dtype=float)
    x = b[others]
    row_tol = FEAS_RTOL * np.abs(u).max()
    bound_tol = FEAS_RTOL * max(np.abs(x).max(initial=0.0), 1.0)
    slack = u - C @ x
    if b[i] != 0.0:
        return f"infeasible: b[{i}] = {b[i]:.3e} is not 0"
    if x.min(initial=0.0) < -bound_tol:
        return f"infeasible: min b = {x.min():.3e} < {-bound_tol:.3e}"
    if slack.min() < -row_tol:
        return f"infeasible: min slack {slack.min():.3e} < {-row_tol:.3e}"

    g = -2.0 * C.T @ (d - C @ x)
    A = np.hstack([-C[slack <= row_tol].T,
                   np.eye(len(x))[:, x <= bound_tol]])
    # An interior point has no active constraint; scipy 1.17's nnls aborts
    # the process on a matrix with no columns, so that case is done here.
    resid = (scipy.optimize.nnls(A, g)[1] if A.shape[1]
             else float(np.linalg.norm(g)))
    norm_C = np.linalg.norm(C)
    bound = STAT_RTOL * 2.0 * norm_C * (np.linalg.norm(d)
                                        + norm_C * np.linalg.norm(x))
    if resid > bound:
        return (f"not stationary: multiplier residual {resid:.3e} "
                f"> bound {bound:.3e}")
    return None


def qp_column_oracle(M, i, epsilon=0.0):
    """Solve one column's constrained least squares problem with SLSQP.

    min ||M[:, i] - M b||^2  s.t.  M b <= M[:, i] + eps ||M[:, i]||_inf,
                                   b >= 0, b[i] = 0.

    SLSQP runs from two starts.  Each end point is clipped to x >= 0 and
    kept only if `qp_column_check` accepts it (feasible, and stationary
    with NNLS-fitted multipliers); SLSQP's exit status is not read.  Returns
    the kept point with the lowest objective and that objective, evaluated
    at the clipped point.  Fails with each start's reason when none is kept.
    """
    n = M.shape[1]
    d, u, others, C = _column_qp(M, i, epsilon)

    def f(x):
        r = d - C @ x
        return float(r @ r)

    def grad(x):
        return -2.0 * C.T @ (d - C @ x)

    cons = [{"type": "ineq", "fun": lambda x: u - C @ x,
             "jac": lambda x: -C}]
    bounds = [(0.0, None)] * (n - 1)
    best, rejected = None, []
    for start in [np.zeros(n - 1), np.full(n - 1, 0.1)]:
        res = scipy.optimize.minimize(
            f, start, jac=grad, bounds=bounds, constraints=cons,
            method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        b = np.zeros(n)
        b[others] = np.maximum(res.x, 0.0)
        why = qp_column_check(M, i, b, epsilon)
        if why is not None:
            rejected.append(f"start {start[0]:g}: {why}")
            continue
        fb = f(b[others])
        if best is None or fb < best[1]:
            best = (b, fb)
    assert best is not None, "oracle QP failed: " + "; ".join(rejected)
    return best


def grid_column_oracle(M, i, grid):
    """Dense grid search over feasible b supported on all other columns.

    Only practical for tiny n; returns the best feasible grid point and its
    objective.
    """
    m, n = M.shape
    d = M[:, i]
    others = np.delete(np.arange(n), i)
    C = M[:, others]
    from itertools import product
    best_x, best_f = np.zeros(n - 1), float(d @ d)
    for x in product(grid, repeat=n - 1):
        x = np.asarray(x)
        if np.any(C @ x > d + 1e-12):
            continue
        r = d - C @ x
        f = float(r @ r)
        if f < best_f:
            best_x, best_f = x, f
    b = np.zeros(n)
    b[others] = best_x
    return b, best_f


def nnls_oracle(A, b):
    """scipy's Lawson-Hanson nonnegative least squares."""
    x, resid = scipy.optimize.nnls(A, b)
    return x, resid


def nnls_kkt_check(U, M, V, tol=1e-9):
    """Why V is not optimal for min_{V >= 0} ||M - U V||_F, or None if it is.

    Checks the KKT conditions directly, with no solver: V >= 0, the
    gradient U^T (U V - M) >= 0, and a zero gradient wherever V > 0
    (complementarity), the last two to within tol of the gradient's scale.
    """
    grad = U.T @ (U @ V - M)
    scale = np.linalg.norm(U) * max(np.linalg.norm(M), np.linalg.norm(U @ V))
    if V.min() < 0.0:
        return f"negative entry {V.min():.3e}"
    if grad.min() < -tol * scale:
        return f"descent direction: gradient entry {grad.min():.3e}"
    if np.any(V > 0.0) and np.abs(grad[V > 0.0]).max() > tol * scale:
        return (f"complementarity: gradient {np.abs(grad[V > 0.0]).max():.3e}"
                " on a positive entry")
    return None


def spectral_radius_oracle(B):
    """Perron root of an irreducible, aperiodic nonnegative B without LAPACK.

    Power iteration, then the Collatz-Wielandt bracket
    min_i (Bx)_i / x_i <= rho <= max_i (Bx)_i / x_i, which must have closed.
    """
    x = np.ones(B.shape[0])
    for _ in range(1000):
        x = B @ x
        x /= np.linalg.norm(x)
    ratios = (B @ x) / x
    lo, hi = ratios.min(), ratios.max()
    assert hi - lo <= 1e-12 * hi, f"power iteration not converged: [{lo}, {hi}]"
    return float(0.5 * (lo + hi))


def in_hull_oracle(x, X, tol=1e-7):
    """Convex hull membership via an LP (highs), independent of NNLS."""
    n = X.shape[1]
    A_eq = np.vstack([X, np.ones((1, n))])
    b_eq = np.concatenate([x, [1.0]])
    res = scipy.optimize.linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(0, None)] * n, method="highs")
    if res.status == 0:
        return True
    # Infeasible at exact tolerance: measure the violation with slacks.
    m_eq = len(b_eq)
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(n), np.ones(2 * m_eq)]),
        A_eq=np.hstack([A_eq, np.eye(m_eq), -np.eye(m_eq)]),
        b_eq=b_eq,
        bounds=[(0, None)] * (n + 2 * m_eq), method="highs")
    assert res.status == 0
    return float(res.fun) <= tol


def tangent_point_oracle(inner_vertices, x, samples=4096):
    """Rightmost supporting direction via dense boundary sampling.

    Samples the inner boundary densely, keeps directions with every sample
    weakly left, and returns the direction and farthest touching sample.
    """
    Q = np.asarray(inner_vertices)
    k = len(Q)
    pts = []
    for i in range(k):
        a, b = Q[i], Q[(i + 1) % k]
        for t in np.linspace(0, 1, samples // k, endpoint=False):
            pts.append(a + t * (b - a))
    pts = np.asarray(pts)
    best = None
    for p in pts:
        v = p - x
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        d = v / nv
        rel = pts - x
        crosses = d[0] * rel[:, 1] - d[1] * rel[:, 0]
        norms = np.linalg.norm(rel, axis=1)
        ok = norms > 1e-12
        if np.min(crosses[ok] / norms[ok]) < -1e-7:
            continue
        if best is None:
            best = (d, p, nv)
        else:
            c = d[0] * best[0][1] - d[1] * best[0][0]
            if c > 1e-12 or (abs(c) <= 1e-12 and nv > best[2]):
                best = (d, p, nv)
    assert best is not None
    return best[0], best[1]


def ray_exit_oracle(outer_poly_contains, x, d, hi=4.0):
    """Exit parameter of a ray from a boundary point by bisection on
    a membership predicate."""
    lo = 0.0
    # Find a bracket: step out until outside.
    s = 1e-6
    while s < hi and outer_poly_contains(x + s * d):
        lo = s
        s *= 2.0
    hi = s
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if outer_poly_contains(x + mid * d):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _follow_inner_boundary(inner, x):
    """Direction and touch point for a walk point on the inner boundary.

    The most clockwise supporting direction from a hull boundary point is
    along its (outgoing) edge, so the step follows the boundary to the
    edge's end vertex; a point already at (or within the noise band of)
    that vertex continues toward the next one instead.
    """
    k = len(inner.vertices)
    t_in = inner.param_of(x, tol=1e-6)
    i = inner.edge_of_param(t_in)
    v_end = inner.vertices[(i + 1) % k]
    if np.hypot(*(x - v_end)) <= 1e-7:
        v_end = inner.vertices[(i + 2) % k]
    d = v_end - x
    return d / np.linalg.norm(d), v_end


def _tangent_direction(inner, x):
    """Rightmost direction from x with the inner polygon weakly on the left.

    Returns (direction, touch_point).  The touch point is the farthest inner
    vertex on the supporting ray, so a chord containing an inner edge
    reports the edge's trailing vertex.  Points on (or within tolerance of)
    the inner boundary follow the boundary instead.
    """
    s_in = inner.signed_inside(x)
    if s_in >= -10 * GEOM_TOL:
        return _follow_inner_boundary(inner, x)

    Q = inner.vertices
    diffs = Q - x
    dists = np.linalg.norm(diffs, axis=1)
    ok = dists > GEOM_TOL
    D = np.zeros_like(diffs)
    D[ok] = diffs[ok] / dists[ok][:, None]
    # cross[j, l]: inner vertex l relative to the ray toward vertex j.
    cross = (D[:, 0][:, None] * diffs[:, 1][None, :]
             - D[:, 1][:, None] * diffs[:, 0][None, :])
    cross[:, ok] /= dists[ok][None, :]
    cross[:, ~ok] = 0.0
    tol_j = GEOM_TOL + 1e-13 / np.where(ok, dists, 1.0)
    valid = ok & (cross.min(axis=1) >= -tol_j)

    best = None  # (direction, vertex, distance)
    for j in np.flatnonzero(valid):
        d = D[j]
        if best is None:
            best = (d, Q[j], dists[j])
            continue
        c = d[0] * best[0][1] - d[1] * best[0][0]  # cross(d, best_d)
        if c > GEOM_TOL:
            # best is strictly left of d: d is more clockwise.
            best = (d, Q[j], dists[j])
        elif abs(c) <= GEOM_TOL and float(d @ best[0]) > 0 and dists[j] > best[2]:
            best = (d, Q[j], dists[j])
    if best is None:
        if s_in >= -100 * GEOM_TOL:
            return _follow_inner_boundary(inner, x)
        raise GeometryError("no supporting direction found from "
                            f"distance {-s_in:.2e} outside the inner polygon")
    return best[0], best[1]


def _ray_exit(outer, x, d):
    """Farthest boundary point of the ray x + s d inside the outer polygon."""
    denom = outer.normals @ d
    slack = outer.offsets - outer.normals @ x
    out = denom > 1e-12
    if not np.any(out):
        raise GeometryError("tangent ray does not exit the outer polygon")
    s = slack[out] / denom[out]
    behind = s <= GEOM_TOL
    if np.any(behind & (denom[out] > 1e-6)):
        # Decisively transversal crossing at (or before) the start point:
        # the ray leaves the polygon immediately.
        raise GeometryError("tangent ray leaves the polygon immediately")
    ahead = s[~behind]
    if ahead.size == 0:
        raise GeometryError("tangent ray does not exit the outer polygon")
    return x + float(ahead.min()) * d


def tangent_step_oracle(npp, t):
    """One tangent step of the boundary walk from the single start t.

    Returns (t_next, q): the unwrapped parameter after the step and the
    inner touch point q.  When the boundary coincides with the inner
    polygon locally, the step follows the boundary to the next vertex.
    """
    outer, inner = npp.outer, npp.inner
    x = outer.point_at(t)
    if inner.signed_inside(x) > 10 * GEOM_TOL:
        raise StartInsideQ(f"walk start at t={t % 1.0:.6f} lies strictly inside "
                           "the inner polygon")
    d, q = _tangent_direction(inner, x)
    exit_pt = _ray_exit(outer, x, d)
    t_exit = outer.param_of(exit_pt, tol=1e-7)
    delta = (t_exit - (t % 1.0)) % 1.0
    if delta <= 1e-12:
        raise GeometryError(f"tangent walk stalled at t={t % 1.0:.6f}")
    return t + delta, q


def rotated_chart(npp, angle):
    """Equivalent instance with the 2-d chart rotated by ``angle`` radians.

    Feasibility verdicts and solution counts must not depend on the chart
    orientation.
    """
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    outer = npp3.Polygon2(npp.outer.vertices @ R.T)
    inner = npp3.Polygon2(npp.inner.vertices @ R.T)
    chart = npp3.Chart(origin=npp.chart.origin, basis=npp.chart.basis @ R.T,
                       scale=npp.chart.scale)
    return npp3.NppInstance(outer=outer, inner=inner, chart=chart,
                            vertex_columns=dict(npp.vertex_columns))


def outer_polygon_oracle(chart):
    """Vertices of the simplex slice { y : o + W y >= 0 } of ``chart``.

    Every vertex of the slice is a meet of two of the m lines
    W[a].y = -o[a] that satisfies all m constraints, so the slice is the
    convex hull of those meets: O(m^2) points by Cramer's rule, hulled by
    qhull, with no clipping and no bounding box.  Returned counterclockwise
    and rescaled to unit perimeter, like ``build_npp``'s outer polygon.
    """
    o, W = chart.origin, chart.basis
    norms = np.linalg.norm(W, axis=1)
    keep = norms > 1e-14
    A, c = W[keep] / norms[keep, None], -o[keep] / norms[keep]
    a, b = np.triu_indices(len(A), 1)
    det = A[a, 0] * A[b, 1] - A[a, 1] * A[b, 0]
    # Best-conditioned meets first, so each vertex where several lines
    # meet is represented by its most accurate meet.
    order = np.argsort(-np.abs(det), kind="stable")
    order = order[np.abs(det[order]) > 1e-12]
    a, b, det = a[order], b[order], det[order]
    y = np.column_stack([(c[a] * A[b, 1] - A[a, 1] * c[b]) / det,
                         (A[a, 0] * c[b] - c[a] * A[b, 0]) / det])
    y = y[(y @ A.T - c).min(axis=1) >= -1e-12]
    reps = []
    for p in y:
        if all(np.linalg.norm(p - q) > 1e-9 for q in reps):
            reps.append(p)
    reps = np.array(reps)
    v = reps[scipy.spatial.ConvexHull(reps).vertices]
    return v / np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum()


def detect_duplicates_oracle(M, tol=1e-8):
    """Duplicate column pairs by the pairwise loop: every pair (i > j) runs
    the exact least-squares test, in the order i, then j."""
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    norms = np.linalg.norm(M, axis=0)
    zero_cut = 1e-12 * (norms.max() if norms.max() > 0 else 1.0)
    pairs = []
    for i in range(1, n):
        if norms[i] <= zero_cut:
            continue
        for j in range(i):
            if norms[j] <= zero_cut:
                continue
            alpha = float(M[:, i] @ M[:, j]) / float(norms[j] ** 2)
            if alpha < 0:
                alpha = 0.0
            resid = np.linalg.norm(M[:, i] - alpha * M[:, j])
            if resid <= tol * norms[i]:
                pairs.append((i, j, alpha))
    return pairs


def tune_mu_oracle(M, r, target_s_u, seed=0, max_outer=300, zero_tol=1e-8):
    """Sequential log-bisection for the l1 weight: one public ``snmf`` run
    per probe, each chosen after the previous one.

    Returns (config, probes), probes being the number of sparse runs made.
    """
    from prenmf import nmf

    M = np.asarray(M, dtype=float)
    scale = float(M.max())
    lo = 1e-6 * scale
    hi = 10.0 * scale * M.shape[0]

    def probe(mu):
        cfg = nmf.SnmfConfig(mu=np.full(r, mu), max_outer=max_outer,
                             seed=seed)
        return nmf.snmf(M, r, cfg, zero_tol=zero_tol).s_U

    best = None  # (gap, mu, s)
    s_lo = probe(lo)
    s_hi = probe(hi)
    probes = 2
    for mu, s in ((lo, s_lo), (hi, s_hi)):
        gap = abs(s - target_s_u)
        if best is None or gap < best[0]:
            best = (gap, mu, s)
    if s_lo - nmf.MU_WINDOW <= target_s_u <= s_hi + nmf.MU_WINDOW:
        llo, lhi = np.log10(lo), np.log10(hi)
        while probes < nmf.MU_PROBES and best[0] > nmf.MU_WINDOW:
            lmid = 0.5 * (llo + lhi)
            s_mid = probe(10.0 ** lmid)
            probes += 1
            gap = abs(s_mid - target_s_u)
            if gap < best[0]:
                best = (gap, 10.0 ** lmid, s_mid)
            if s_mid < target_s_u:
                llo = lmid
            else:
                lhi = lmid
    cfg = nmf.SnmfConfig(mu=np.full(r, best[1]), max_outer=max_outer,
                         seed=seed, achieved_s_u=best[2])
    return cfg, probes


def renormalize_oracle(M, U, V):
    """Unit-max columns of U in every slice of a stack, one slice and one
    column at a time: the sequential form of ``nmf._renormalize`` with every
    slice penalized.

    A collapsed column is reseeded as a unit spike at the dominant entry of
    the residual left by the columns before it (weighted by the column's V
    row when it carries mass), and its V row zeroed.  U and V change in
    place; returns the per-slice collapse counts.
    """
    counts = [0] * len(U)
    for s in range(len(U)):
        Us, Vs = U[s], V[s]
        for j, cj in enumerate(Us.max(axis=0).tolist()):
            if cj > 0.0:
                Us[:, j] /= cj
                Vs[j, :] *= cj
                continue
            R = np.maximum(M[s] - Us @ Vs, 0.0)
            w = np.abs(Vs[j])
            scores = R @ w if w.sum() > 0 else R.sum(axis=1)
            Us[:, j] = 0.0
            Us[int(np.argmax(scores)), j] = 1.0
            Vs[j, :] = 0.0
            counts[s] += 1
    return counts
