"""Factorization engines and the comparison pipeline.

Implements the accelerated hierarchical-ALS block coordinate descent
(column-by-column exact minimization with a bounded number of repeated inner
sweeps per block), its l1-penalized sparse variant with unit-max column
normalization, nonnegative refits against the original matrix, and the
fixed-support polish used to compare sparsity patterns across methods.
The three engines (``ahals``, ``snmf`` and the polish) share one outer
loop, ``_hals``, and differ only in its l1 weights, support mask and stop
rule.  ``_hals`` runs a stack of factorizations at once, each slice with
its own matrix and l1 weights (a zero row runs it unpenalized), and each
slice gets exactly the result of a run on its own.  Every stack of seeded
runs is built by ``_runs`` from a list of (matrix, seed, weight) jobs; only
the polish, which starts from given factors, stacks its own.
``run_comparison`` runs every (method, epsilon) record of a comparison in
three stacked stages: the seeds of every nmf and pre_nmf record beside
``tune_mu``'s opening probes, which read no target; per distinct snmf
target the rest of ``tune_mu``'s probes (its winning probe is the first
seed's run), then one stack for the other seeds of every target; and the
fixed-support polish of each distinct best pair.  ``run_pipeline`` is its
one-record view.
"""

import time
import warnings
import numpy as np
from dataclasses import dataclass, field

from .matcore import as_matrix, sparsity
from . import cllsolve
from . import preprocessing as _pre

__all__ = [
    "RankTooLargeWarning",
    "SingularQ",
    "FactorPair",
    "SnmfConfig",
    "PipelineReport",
    "ahals",
    "snmf",
    "tune_mu",
    "refit_v",
    "v_from_q",
    "postprocess_fixed_support",
    "run_pipeline",
    "run_comparison",
]

ZERO_SNAP = 1e-16  # entries below this snap to exact zeros (clean supports)
ACCEL = 0.5        # inner-sweep cap factor of one HALS block update
EPS_STOP = 0.1     # inner sweeps stop below this fraction of the first move
STALL_TOL = 1e-12  # ahals stops below this relative outer improvement
MU_PROBES = 20     # tune_mu's budget of sparse probe runs
MU_WINDOW = 0.02   # tune_mu accepts a probe this close to the target
POLISH_ITERS = 100  # outer iterations of the fixed-support polish


class RankTooLargeWarning(UserWarning):
    pass


class SingularQ(RuntimeError):
    """I - alpha B* is (numerically) singular; cannot map factors back."""


@dataclass
class FactorPair:
    """One factorization U V ~= M with its quality numbers."""

    U: np.ndarray
    V: np.ndarray
    r: int
    rel_error: float
    s_U: float
    s_V: float
    seed: int
    iterations: int
    objective_history: np.ndarray = field(default=None, repr=False)
    collapses: int = 0


@dataclass
class SnmfConfig:
    """Sparse-variant configuration: per-column l1 weights."""

    mu: np.ndarray
    max_outer: int = 1000
    seed: int = 0
    achieved_s_u: float | None = None

    def __post_init__(self):
        self.mu = _weights(self.mu)


def _weights(mu):
    """l1 weights as a float array, refused unless each is positive and
    finite: a zero weight is not a sparse run, and a NaN or infinite one
    makes no factorization."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if not np.isfinite(mu).all():
        raise ValueError("penalty weights must be finite")
    if np.any(mu <= 0):
        raise ValueError("penalty weights must be positive")
    return mu


def _rel_error(M, U, V):
    return float(np.linalg.norm(M - U @ V) / np.linalg.norm(M))


def _input(M):
    """M as a float matrix; an all-zero M has no relative errors."""
    M = as_matrix(M, "M")
    if np.linalg.norm(M) == 0.0:
        raise ValueError("M is all zero: relative errors are undefined")
    return M


def _make_pair(M, U, V, seed, iterations, history, zero_tol, collapses=0):
    return FactorPair(U=U, V=V, r=U.shape[1], rel_error=_rel_error(M, U, V),
                      s_U=sparsity(U, zero_tol), s_V=sparsity(V, zero_tol),
                      seed=seed, iterations=iterations,
                      objective_history=np.asarray(history),
                      collapses=collapses)


def _norms(X):
    """Frobenius norm of every slice of a stack, bit for bit as
    ``np.linalg.norm(X[s])``: that is one BLAS dot of the slice's elements in
    memory order, and a (1, k) @ (k, 1) matmul per slice makes the same call
    (einsum does not)."""
    F = X.reshape(-1, 1, X.shape[-2] * X.shape[-1])
    return np.sqrt(np.matmul(F, F.transpose(0, 2, 1))[:, 0, 0])


class _Block:
    """One factor block of a working stack, set up once for all its passes.

    Every slice s solves min ||M[s] - W[s] H[s]^T|| over W >= 0: for U's
    block W = U and H = V^T, for V's block W = V^T, H = U and M the
    transpose, all views.  The block holds the buffers of G = H^T H
    (S, r, r), of the columns of P = M H (S, k, r), each contiguous, of G's
    diagonal (1 where a column is skipped) and of the penalty shifts
    mu / (2 G_jj) when ``mu`` (S, r) is given; and per column j the views a
    sweep reads: G[:, :, j], P's column, the diagonal entry, the shift,
    W[:, :, j] and the ``mask`` column.  The inner-sweep cap is the cost
    ratio of the block update to the products: 1 + floor(ACCEL * kn /
    (r(k+n))) for H (S, n, r).  ``_hals`` builds one per block whenever its
    working stack changes, so a pass takes no column view and reuses the
    buffers.
    """

    def __init__(self, W, H, M, mu=None, mask=None):
        S, k, r = W.shape
        n = H.shape[-2]
        self.W, self.H, self.Ht, self.M = W, H, H.swapaxes(-1, -2), M
        self.cap = 1 + int(ACCEL * (k * n) / (r * (k + n)))
        self.G, self.Pc = np.empty((S, r, r)), np.empty((r, S, k))
        self.gd = np.empty((S, r))
        self.half_mu = None if mu is None else 0.5 * mu
        self.shift = np.empty((S, r))
        self.Wg = np.empty((S, k, 1))
        self.Wg_col = self.Wg[..., 0]
        self.w = np.empty((S, k))
        self.every = [True] * r
        self.cols = [(self.G[:, :, j, None], self.Pc[j],
                      self.gd[:, j, None],
                      None if mu is None else self.shift[:, j, None],
                      W[:, :, j], None if mask is None else mask[:, :, j])
                     for j in range(r)]


def _update_blocks(b):
    """Repeated HALS sweeps on the ``_Block`` b of every slice of a stack.

    Forms G and P from the current H, then updates W in place.  Each column
    update is the exact coordinate minimizer clipped at zero; a column
    whose G diagonal is negligible is skipped.  The block's ``mu`` adds an
    l1 penalty on W's columns; its mask freezes entries outside the
    support.

    The number of inner sweeps is capped by the block's cap, and a slice
    stops sweeping once its iterate moves less than ``EPS_STOP`` times its
    first sweep's movement; a stopped slice is left untouched.
    """
    np.matmul(b.Ht, b.H, out=b.G)
    np.copyto(b.Pc, np.matmul(b.M, b.H).transpose(2, 0, 1))
    gd = np.diagonal(b.G, axis1=-2, axis2=-1)
    use = gd > ZERO_SNAP * np.maximum(gd.max(axis=-1, keepdims=True), 1.0)
    np.copyto(b.gd, gd)
    if use.all():
        plan = b.every
    else:
        np.copyto(b.gd, 1.0, where=~use)  # skipped columns must not divide
        plan = _plan(use)
    if b.half_mu is not None:
        np.divide(b.half_mu, b.gd, out=b.shift)
    W, cap, Wg, Wg_col, w = b.W, b.cap, b.Wg, b.Wg_col, b.w
    for it in range(cap):
        # The movement matters only where it decides whether a sweep follows.
        track = it < cap - 1 and cap > 2
        if track:
            W_prev = W.copy()
        for (g, p, d, sh, wj, mk), how in zip(b.cols, plan):
            if how is False:
                continue
            np.matmul(W, g, out=Wg)
            np.subtract(p, Wg_col, out=w)
            w /= d
            w += wj
            if sh is not None:
                w -= sh
            if mk is None and how is True:
                np.maximum(w, 0.0, out=wj)
                continue
            np.maximum(w, 0.0, out=w)
            if mk is not None:
                w *= mk
            np.copyto(wj, w, where=how)
        # A stopped slice is already snapped, so this leaves it unchanged.
        np.copyto(W, 0.0, where=W < ZERO_SNAP)
        if not track:
            continue
        change = _norms(W - W_prev)
        if it == 0:
            stop_at = EPS_STOP * change
            live = np.ones(change.shape, dtype=bool)
            continue
        live &= ~(change <= stop_at)
        if not live.any():
            break
        if not live.all():
            plan = _plan(use & live[:, None])


def _plan(upd):
    """Per column of an (S, r) update mask: True (every slice updates),
    False (none) or the (S, 1) mask of the slices that do."""
    every = upd.all(axis=0).tolist()
    some = upd.any(axis=0).tolist()
    return [True if e else (upd[:, j, None] if s else False)
            for j, (e, s) in enumerate(zip(every, some))]


def _renormalize(M, U, V, pen=True):
    """Unit-max columns of U in every penalized slice (``pen``: an (S,)
    mask of the slices with a nonzero penalty row, or True for all), V's
    rows taking the scale.  A column that collapsed to zero becomes a
    unit spike (the least harmful placement under the unit-max constraint,
    and maximally sparse) at the dominant entry of the slice's nonnegative
    residual against M[s], weighted by the column's V row when it carries
    mass; its V row is zeroed.  All collapsed columns of a slice read one
    residual, to which none of them adds anything, reseeded or not.
    Returns the per-slice collapse counts (0 when none collapsed).
    """
    c = U.max(axis=1)
    dead = c <= 0.0
    if pen is True and not dead.any():
        U /= c[:, None, :]
        V *= c[:, :, None]
        return 0
    if pen is not True:
        pen = pen[:, None]
        dead &= pen
    scale = np.where(pen & ~dead, c, 1.0)
    U /= scale[:, None, :]
    V *= scale[:, :, None]
    s, j = np.nonzero(dead)
    if s.size:
        R = np.maximum(M[s] - np.matmul(U[s], V[s]), 0.0)
        w = np.abs(V[s, j])
        scores = np.where(w.sum(axis=1, keepdims=True) > 0,
                          np.matmul(R, w[..., None])[..., 0], R.sum(axis=2))
        U[s, scores.argmax(axis=1), j] = 1.0
        V[s, j] = 0.0
    return dead.sum(axis=1)


def _hals(M, U, V, max_outer, mu=None, mask=None, stall=False):
    """Outer loop shared by every engine: alternate U's and V's blocks.

    Runs a stack of S factorizations, slice s factorizing M[s] of the
    (S, m, n) stack M (a broadcast view when the slices share one matrix):
    U (S, m, r) and V (S, r, n) are updated in place.  ``mu`` (S, r) adds
    the l1 penalty on U's columns, renormalizes them to unit max after each
    U block (V's rows take the compensating scale, a collapsed column is
    reseeded) and adds the penalty to the recorded objective; a zero row
    changes none of this for its slice, so penalized and plain runs share a
    stack.  ``mask`` (S, m, r) freezes U's zero pattern.  ``stall`` (a bool,
    or one per slice) stops a slice once an outer iteration improves its
    objective by less than STALL_TOL relatively; a stopped slice leaves the
    working stack with its matrix, so it is frozen exactly.  Every slice
    gets the same floating-point results as a stack of one.

    Returns per-slice lists (iterations, objective histories, collapses).
    """
    S, m, n = M.shape
    iterations = [max(max_outer, 0)] * S
    histories = [[] for _ in range(S)]
    collapses = np.zeros(S, dtype=int)
    stall = np.broadcast_to(stall, (S,))
    idx = np.arange(S)  # caller slice of each working slice
    Mw, Uw, Vw = M, U, V

    def stack():
        # What no pass of this working stack changes.
        Vt = Vw.swapaxes(-1, -2)
        pen = True if mu is None else mu.any(axis=1)
        return (_Block(Uw, Vt, Mw, mu, mask),
                _Block(Vt, Uw, Mw.swapaxes(-1, -2)),
                True if np.all(pen) else pen, stall.any())

    Ub, Vb, pen, stalls = stack()
    obj_prev = None
    for it in range(1, max_outer + 1):
        _update_blocks(Ub)
        if mu is not None:
            collapses[idx] += _renormalize(Mw, Uw, Vw, pen)
        _update_blocks(Vb)
        # Squared as floats, by C pow(x, 2): an array's ** 2 is x * x, which
        # rounds differently in rare cases and would move the histories.
        obj = np.array([x ** 2 for x in
                        _norms(Mw - np.matmul(Uw, Vw)).tolist()])
        if mu is not None:
            # U >= 0 with no -0.0: the block update snapped it.
            obj += (mu * Uw.sum(axis=1)).sum(axis=1)
        for k, value in zip(idx.tolist(), obj.tolist()):
            histories[k].append(value)
        if it > 1 and stalls:
            done = stall & (obj_prev - obj
                            <= STALL_TOL * np.maximum(obj_prev, 1e-300))
            if done.any():
                for k in idx[done].tolist():
                    iterations[k] = it
                if Uw is not U:
                    U[idx[done]] = Uw[done]
                    V[idx[done]] = Vw[done]
                keep = ~done
                idx, obj, stall = idx[keep], obj[keep], stall[keep]
                Mw, Uw, Vw = Mw[keep], Uw[keep], Vw[keep]
                mu = None if mu is None else mu[keep]
                mask = None if mask is None else mask[keep]
                if not idx.size:
                    break
                Ub, Vb, pen, stalls = stack()
        obj_prev = obj
    if Uw is not U:
        U[idx] = Uw
        V[idx] = Vw
    return iterations, histories, collapses.tolist()


def _runs(jobs, r, max_outer, zero_tol):
    """One FactorPair per job (matrix, seed, weight), all run in one stack.

    A weight of 0 runs ``ahals`` (stall stop); a positive weight, a scalar
    or one per column, runs ``snmf`` (unit-max start, no stall stop).  The
    stack is one broadcast view when every job reads the same array object
    and a copy of the jobs' matrices otherwise; its penalty rows are None
    when no weight is positive.  Each job gets exactly the result of a run
    on its own.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    mats, seeds, weights = zip(*jobs)
    M = (np.broadcast_to(mats[0], (len(jobs),) + mats[0].shape)
         if all(X is mats[0] for X in mats) else np.stack(mats))
    mu = np.array([np.broadcast_to(w, (r,)) for w in weights], dtype=float)
    pen = mu.any(axis=1)
    S, m, n = M.shape
    if not pen.all() and r > min(m, n):
        warnings.warn(f"rank {r} exceeds min(m, n) = {min(m, n)}",
                      RankTooLargeWarning)
    if pen.any() and M[pen].min() < 0:
        raise ValueError("sparse variant expects a nonnegative matrix")
    U, V = np.empty((S, m, r)), np.empty((S, r, n))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        U[k] = rng.random((m, r))
        V[k] = rng.random((r, n))
    # Unit-max columns from the start so the penalty is comparable.
    U[pen] /= np.maximum(U[pen].max(axis=1, keepdims=True), ZERO_SNAP)
    its, histories, collapses = _hals(M, U, V, max_outer,
                                      mu=mu if pen.any() else None, stall=~pen)
    return [_make_pair(M[k], U[k], V[k], seed, its[k], histories[k], zero_tol,
                       collapses[k]) for k, seed in enumerate(seeds)]


def _polish(M, Us, Vs, seeds, zero_tol):
    """``postprocess_fixed_support`` of M for every (Us[k], Vs[k]) at once."""
    U, V = np.stack(Us), np.stack(Vs)
    mask = U > zero_tol * np.abs(U).max(axis=(1, 2), keepdims=True)
    mask = mask.astype(float)
    U *= mask
    starts = [float(np.linalg.norm(M - Uk @ Vk) ** 2) for Uk, Vk in zip(U, V)]
    M = np.broadcast_to(M, U.shape[:1] + M.shape)
    its, histories, _ = _hals(M, U, V, POLISH_ITERS, mask=mask)
    return [_make_pair(M[k], U[k], V[k], seed, its[k],
                       [starts[k]] + histories[k], zero_tol)
            for k, seed in enumerate(seeds)]


def ahals(M, r, seed=0, max_outer=1000, zero_tol=1e-8):
    """Accelerated HALS factorization  M ~= U V  with U, V >= 0.

    Works on any real matrix (negative entries simply keep the clipped
    updates at zero); the objective is nonincreasing across outer
    iterations.  Stops early when an outer iteration improves the objective
    by less than ``STALL_TOL`` relatively.
    """
    return _runs([(_input(M), seed, 0.0)], r, max_outer, zero_tol)[0]


def snmf(M, r, cfg: SnmfConfig, zero_tol=1e-8):
    """Sparse factorization: l1-penalized U with unit-max columns.

    Minimizes ||M - U V||_F^2 + sum_i mu_i ||U[:, i]||_1 with every column
    of U renormalized to max entry one after each outer sweep (V rows take
    the compensating scale).  A column of U that collapses to zero is
    reseeded from the dominant nonnegative part of the residual,
    deterministically.
    """
    M = _input(M)
    return _runs([(M, cfg.seed, _weights(cfg.mu))], r, cfg.max_outer,
                 zero_tol)[0]


def _midpoints(llo, lhi, probes):
    """The next three levels of bisection midpoints of [llo, lhi] (fewer if
    the budget left after ``probes`` probes is smaller), and their mu.

    Three levels is the measured best depth: a deeper stack runs more
    probes that the replay never reads, a shallower one more stacks in
    sequence.  On the first 16 factorize-parts pool inputs of seed 0 (one
    BLAS thread, min of 5) a factorize op took 146-150 ms at depth 3,
    162-192 ms at depth 2 and 164-169 ms at depth 4, with the same results
    at every depth."""
    mids, brackets = [], [(llo, lhi)]
    for _ in range(min(3, MU_PROBES - probes)):
        halves = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += [(a, mid), (mid, b)]
        brackets = halves
    return mids, [10.0 ** lmid for lmid in mids]


def _opening(M):
    """tune_mu's log10 bracket of mu, its first three levels of midpoints
    and the weights of its opening probes: both ends, then the midpoints.
    None of them reads the target sparsity."""
    scale = float(M.max())
    if scale <= 0.0:
        raise ValueError("tune_mu needs a matrix with a positive entry")
    lo, hi = 1e-6 * scale, 10.0 * scale * M.shape[0]
    llo, lhi = np.log10(lo), np.log10(hi)
    mids, mus = _midpoints(llo, lhi, 2)
    return llo, lhi, mids, [lo, hi] + mus


def tune_mu(M, r, target_s_u, seed=0, max_outer=300, zero_tol=1e-8):
    """Uniform l1 weight matching a requested sparsity of U.

    Log-scale bisection on mu; each probe is one single-seed sparse run.
    Returns the configuration of the probe closest to the target (its
    achieved sparsity is recorded on the config).

    The probes run speculatively, as stacks: the opening stack holds both
    ends of the bracket and the next three levels of midpoints, each later
    one the three levels below the bracket reached.  The sequential rule
    then reads the probes it needs from them, so the result is that of
    probing one at a time.  The opening does not depend on the target, so
    ``run_comparison`` runs it once, in its first stack, for every target.
    """
    return _tune_mu(M, r, target_s_u, seed, max_outer, zero_tol)[0]


def _tune_mu(M, r, target_s_u, seed, max_outer, zero_tol, opening=None):
    """``tune_mu``, returning its configuration and the winning probe's
    FactorPair: the ``snmf`` run of ``seed`` at the tuned weight.
    ``opening`` is the opening stack's FactorPairs when the caller ran it
    already."""
    M = as_matrix(M, "M")
    if not 0.0 <= target_s_u < 1.0:
        raise ValueError("target sparsity must be in [0, 1)")
    llo, lhi, mids, mus = _opening(M)

    def probe(mus):
        return _runs([(M, seed, mu) for mu in mus], r, max_outer, zero_tol)

    p_lo, p_hi, *p_mids = probe(mus) if opening is None else opening
    seen = dict(zip(mids, p_mids))  # log10(mu) -> its probe's FactorPair
    best = None  # (gap, mu, pair)
    probes = 2
    for mu, pair in zip(mus, (p_lo, p_hi)):
        gap = abs(pair.s_U - target_s_u)
        if best is None or gap < best[0]:
            best = (gap, mu, pair)
    # Sparsity is (noisily) nondecreasing in mu; bisect while the window
    # brackets the target, otherwise the nearer endpoint already won.
    if p_lo.s_U - MU_WINDOW <= target_s_u <= p_hi.s_U + MU_WINDOW:
        while probes < MU_PROBES and best[0] > MU_WINDOW:
            lmid = 0.5 * (llo + lhi)
            if lmid not in seen:
                mids, mus = _midpoints(llo, lhi, probes)
                seen.update(zip(mids, probe(mus)))
            mid = seen[lmid]
            probes += 1
            gap = abs(mid.s_U - target_s_u)
            if gap < best[0]:
                best = (gap, 10.0 ** lmid, mid)
            if mid.s_U < target_s_u:
                llo = lmid
            else:
                lhi = lmid
    _, mu, pair = best
    cfg = SnmfConfig(mu=np.full(r, mu), max_outer=max_outer, seed=seed,
                     achieved_s_u=pair.s_U)
    return cfg, pair


def refit_v(M, U):
    """Optimal nonnegative right factor for a given U:  argmin_V>=0 ||M - U V||.

    Columnwise nonnegative least squares on the original matrix; this is
    the preferred way to map a factorization of the preprocessed matrix
    back, and it works even when I - B* is singular.
    """
    return cllsolve.nnls_columns(U, M)


def v_from_q(Vp, B_star, alpha=1.0, rho=None):
    """Map a right factor of the preprocessed matrix back through Q^{-1}.

    V = Vp (I - alpha B*)^{-1}; requires rho(alpha B*) < 1, in which case
    the inverse is nonnegative and so is V up to roundoff: every negative
    entry is clipped to zero.  Warns when rho(alpha B*) > 0.99: the inverse
    is then nearly singular and the mapped factor's error blows up.
    """
    Vp = as_matrix(Vp, "Vp")
    B_star = as_matrix(B_star, "B_star")
    if rho is None:
        rho = _pre.spectral_radius(B_star)
    if alpha * rho >= 1.0:
        raise SingularQ(f"rho(alpha B*) = {alpha * rho:.4f} >= 1")
    if alpha * rho > 0.99:
        warnings.warn(f"rho(alpha B*) = {alpha * rho:.4f}: I - alpha B* is "
                      "close to singular; the mapped factor is unreliable",
                      RuntimeWarning)
    Q = np.eye(B_star.shape[0]) - alpha * B_star
    V = np.linalg.solve(Q.T, Vp.T).T
    np.maximum(V, 0.0, out=V)
    return V


def postprocess_fixed_support(M, U, V, zero_tol=1e-8, seed=0):
    """Re-optimize the error with the zero pattern of U frozen.

    Methods that do not directly minimize the plain error (the sparse and
    preprocessed pipelines) get an equal footing this way: the quality of a
    sparsity pattern is what the polished error measures.  Zero entries of
    U stay exactly zero; the error is nonincreasing.
    """
    M = _input(M)
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    return _polish(M, [U], [V], [seed], zero_tol)[0]


@dataclass
class PipelineReport:
    """Comparison record for one method run (best of the given seeds)."""

    method: str
    epsilon: float
    alpha: float
    rel_error_plain: float
    rel_error_improved: float
    s_U: float
    s_V: float
    seeds: tuple
    best_seed: int
    wall_time: float
    U: np.ndarray = field(repr=False, default=None)
    V: np.ndarray = field(repr=False, default=None)
    rel_error_vq: float | None = None
    rho_B_star: float | None = None
    mu: np.ndarray | None = field(repr=False, default=None)


def run_pipeline(M, r, method="nmf", seeds=range(10), max_outer=1000,
                 epsilon=0.0, alpha=1.0, snmf_target=None, zero_tol=1e-8):
    """Best-of-seeds comparison run for one method.

    method 'nmf':      plain factorization of M.
    method 'pre_nmf':  preprocess (level epsilon, interpolation alpha),
                       rescale columns, factorize, refit V against M; the
                       report also carries the error of the inverse-mapped
                       right factor for reference.
    method 'snmf':     l1-penalized run with the weight tuned to
                       ``snmf_target`` sparsity of U.

    Every record field is recomputable from (M, U, V); the polish step
    ('improved' error) fixes U's zero pattern and reruns the plain
    objective on the support.  This is ``run_comparison`` of one record.
    """
    return run_comparison(M, r, [(method, epsilon)], seeds=seeds,
                          max_outer=max_outer, alpha=alpha,
                          snmf_target=snmf_target, zero_tol=zero_tol)[0]


def run_comparison(M, r, records, seeds=range(10), max_outer=1000, alpha=1.0,
                   snmf_target=None, zero_tol=1e-8):
    """``run_pipeline`` of every (method, epsilon) in ``records``, in order.

    An snmf record targets the s_U of the last pre_nmf record at its epsilon
    listed before it, and ``snmf_target`` when there is none.  The records
    run in the three stacked stages the module docstring lists: the first
    two hand ``_runs`` job lists, the third stacks the best pairs for the
    polish.  Each slice is bit for bit the run it replaces.  Every report's
    ``wall_time`` is the elapsed time of the whole call.
    """
    M = _input(M)
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if not records:
        raise ValueError("need at least one record")
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    source = {}  # snmf record -> the pre_nmf record it targets, or None
    for k, (method, eps) in enumerate(records):
        if method not in ("nmf", "pre_nmf", "snmf"):
            raise ValueError(f"unknown method {method!r}")
        if method == "snmf":
            earlier = [j for j in range(k) if records[j] == ("pre_nmf", eps)]
            source[k] = earlier[-1] if earlier else None
            if source[k] is None and snmf_target is None:
                raise ValueError("snmf needs a target sparsity (snmf_target) "
                                 "or an earlier pre_nmf record at its epsilon")
    t0 = time.perf_counter()
    S = len(seeds)
    n = len(records)
    best, V, plain = [None] * n, [None] * n, [None] * n
    extra = [{} for _ in records]  # the method's own report fields

    # Stage 1, one stack: the seeds of every nmf and pre_nmf record, then
    # tune_mu's opening probes, which no snmf target changes.
    first = [k for k, (method, _) in enumerate(records) if method != "snmf"]
    preps = {k: _pre.preprocess(M, epsilon=records[k][1], alpha=alpha,
                                rescale=True)
             for k in first if records[k][0] == "pre_nmf"}
    # A report claims a nonnegative factorization of M, so a negative M is
    # refused before any HALS run (pre_nmf's preprocessing refuses it
    # first, naming the column whose slack bound it makes negative).
    if M.min() < 0:
        raise ValueError("M has negative entries: a nonnegative "
                         "factorization needs a nonnegative matrix")
    jobs = [(preps[k].P_alpha_M if k in preps else M, s, 0.0)
            for k in first for s in seeds]
    jobs += [(M, seeds[0], w) for w in (_opening(M)[3] if source else [])]
    runs = _runs(jobs, r, max_outer, zero_tol)
    opening = runs[S * len(first):]
    for i, k in enumerate(first):
        mine = runs[i * S:(i + 1) * S]
        if k not in preps:
            best[k] = min(mine, key=lambda p: p.rel_error)
            V[k], plain[k] = best[k].V, best[k].rel_error
            continue
        prep = preps[k]
        # Rank seeds by what the method reports: the refit error against
        # the original matrix (the preprocessed objective deliberately
        # trades error for sparsity, so it is the wrong yardstick).
        refits = [refit_v(M, p.U) for p in mine]
        errors = [_rel_error(M, p.U, Vf) for p, Vf in zip(mine, refits)]
        ibest = int(np.argmin(errors))
        best[k], V[k], plain[k] = mine[ibest], refits[ibest], errors[ibest]
        extra[k] = {"rho_B_star": prep.rho}
        try:
            Vq = v_from_q(best[k].V / prep.rescale[None, :], prep.B_star,
                          alpha=alpha, rho=prep.rho)
            extra[k]["rel_error_vq"] = _rel_error(M, best[k].U, Vq)
        except SingularQ:
            pass

    # Stage 2: the rest of tune_mu per distinct snmf target, each reading
    # the one opening, then seeds[1:] of all of them.  The runs depend on
    # nothing else, so records that share a target share them.
    targets = {k: snmf_target if j is None else best[j].s_U
               for k, j in source.items()}
    distinct = list(dict.fromkeys(targets.values()))
    tuned = [_tune_mu(M, r, t, seeds[0], max_outer, zero_tol, opening)
             for t in distinct]
    jobs = [(M, s, cfg.mu) for cfg, _ in tuned for s in seeds[1:]]
    others = _runs(jobs, r, max_outer, zero_tol) if jobs else []
    for k, t in targets.items():
        i = distinct.index(t)
        cfg, won = tuned[i]
        mine = [won] + others[i * (S - 1):(i + 1) * (S - 1)]
        best[k] = min(mine, key=lambda p: p.objective_history[-1])
        V[k], plain[k] = best[k].V, best[k].rel_error
        extra[k] = {"mu": cfg.mu}

    # Stage 3: the fixed-support polish of each distinct best pair, one
    # stack.  snmf records that share a target share their pair.
    pairs = {id(p): (p, v) for p, v in zip(best, V)}
    polished = dict(zip(pairs, _polish(
        M, [p.U for p, _ in pairs.values()], [v for _, v in pairs.values()],
        [p.seed for p, _ in pairs.values()], zero_tol)))
    improved = [polished[id(p)] for p in best]
    wall_time = time.perf_counter() - t0
    return [PipelineReport(
        method=method, epsilon=0.0 if method == "nmf" else eps,
        alpha=alpha if method == "pre_nmf" else 0.0,
        rel_error_plain=plain[k], rel_error_improved=improved[k].rel_error,
        s_U=sparsity(best[k].U, zero_tol), s_V=sparsity(V[k], zero_tol),
        seeds=seeds, best_seed=best[k].seed, wall_time=wall_time,
        U=best[k].U, V=V[k], **extra[k])
        for k, (method, eps) in enumerate(records)]
