"""Factorization engines and the comparison pipeline.

Implements the accelerated hierarchical-ALS block coordinate descent
(column-by-column exact minimization with a bounded number of repeated inner
sweeps per block), its l1-penalized sparse variant with unit-max column
normalization, nonnegative refits against the original matrix, and the
fixed-support polish used to compare sparsity patterns across methods.
The three engines (``ahals``, ``snmf`` and the polish) share one outer
loop, ``_hals``, and differ only in its l1 weights, support mask and stop
rule.
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
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if np.any(self.mu <= 0):
            raise ValueError("penalty weights must be positive")


def _rel_error(M, U, V):
    return float(np.linalg.norm(M - U @ V) / np.linalg.norm(M))


def _make_pair(M, U, V, seed, iterations, history, zero_tol=1e-8):
    return FactorPair(U=U, V=V, r=U.shape[1], rel_error=_rel_error(M, U, V),
                      s_U=sparsity(U, zero_tol), s_V=sparsity(V, zero_tol),
                      seed=seed, iterations=iterations,
                      objective_history=np.asarray(history))


def _sweep_columns(W, G, P, mu=None, mask=None):
    """One HALS sweep over the columns of W for min ||M - W H||_F^2 (+ l1).

    G = H H^T, P = M H^T; each column update is the exact coordinate
    minimizer clipped at zero.  ``mu`` adds an l1 penalty on W's columns;
    ``mask`` (same shape as W) freezes entries outside the support.
    """
    r = W.shape[1]
    gd = np.diag(G)
    for j in range(r):
        if gd[j] <= ZERO_SNAP * max(1.0, gd.max()):
            continue
        w = W[:, j] + (P[:, j] - W @ G[:, j]) / gd[j]
        if mu is not None:
            w -= 0.5 * mu[j] / gd[j]
        np.maximum(w, 0.0, out=w)
        if mask is not None:
            w *= mask[:, j]
        W[:, j] = w
    W[W < ZERO_SNAP] = 0.0
    return W


def _update_block(W, G, P, n_other, mu=None, mask=None):
    """Repeated HALS sweeps on one factor block.

    The number of inner sweeps is capped by the cost ratio of the block
    update to the precomputations (at most 1 + floor(ACCEL * mn / (r(m+n)))),
    and sweeps stop early once the iterate moves less than ``EPS_STOP``
    times the first sweep's movement.
    """
    m, r = W.shape
    cap = 1 + int(ACCEL * (m * n_other) / (r * (m + n_other)))
    first = None
    for it in range(cap):
        W_prev = W.copy()
        _sweep_columns(W, G, P, mu=mu, mask=mask)
        change = np.linalg.norm(W - W_prev)
        if it == 0:
            first = change
        elif change <= EPS_STOP * first:
            break
    return W


def _hals(M, U, V, max_outer, mu=None, mask=None, stall=False):
    """Outer loop shared by every engine: alternate U's and V's blocks.

    Updates U and V in place.  ``mu`` adds the l1 penalty on U's columns,
    renormalizes them to unit max after each U block (V's rows take the
    compensating scale, a collapsed column is reseeded) and adds the
    penalty to the recorded objective.  ``mask`` freezes U's zero pattern.
    ``stall`` stops once an outer iteration improves the objective by less
    than STALL_TOL relatively.

    Returns (iterations, objective history, collapses).
    """
    m, n = M.shape
    Mt = M.T
    Vt = V.T
    history = []
    collapses = 0
    obj_prev = np.inf
    it = 0
    for it in range(1, max_outer + 1):
        _update_block(U, V @ Vt, M @ Vt, n, mu=mu, mask=mask)
        if mu is not None:
            # Renormalize: ||U[:, j]||_inf = 1, V rows compensate.
            for j in range(U.shape[1]):
                c = U[:, j].max()
                if c <= 0.0:
                    U[:, j] = _reseed_column(M, U, V, j)
                    V[j, :] = 0.0
                    collapses += 1
                    continue
                U[:, j] /= c
                V[j, :] *= c
        _update_block(Vt, U.T @ U, Mt @ U, m)
        obj = np.linalg.norm(M - U @ V) ** 2
        if mu is not None:
            obj += np.sum(mu * np.abs(U).sum(axis=0))
        history.append(float(obj))
        if (stall and it > 1
                and obj_prev - obj <= STALL_TOL * max(obj_prev, 1e-300)):
            break
        obj_prev = obj
    return it, history, collapses


def _init_factors(M, r, seed):
    rng = np.random.default_rng(seed)
    m, n = M.shape
    U = rng.random((m, r))
    V = rng.random((r, n))
    return U, V


def ahals(M, r, seed=0, max_outer=1000, zero_tol=1e-8):
    """Accelerated HALS factorization  M ~= U V  with U, V >= 0.

    Works on any real matrix (negative entries simply keep the clipped
    updates at zero); the objective is nonincreasing across outer
    iterations.  Stops early when an outer iteration improves the objective
    by less than ``STALL_TOL`` relatively.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if r < 1:
        raise ValueError("rank must be at least 1")
    if r > min(m, n):
        warnings.warn(f"rank {r} exceeds min(m, n) = {min(m, n)}",
                      RankTooLargeWarning)
    U, V = _init_factors(M, r, seed)
    it, history, _ = _hals(M, U, V, max_outer, stall=True)
    return _make_pair(M, U, V, seed, it, history, zero_tol)


def snmf(M, r, cfg: SnmfConfig, zero_tol=1e-8):
    """Sparse factorization: l1-penalized U with unit-max columns.

    Minimizes ||M - U V||_F^2 + sum_i mu_i ||U[:, i]||_1 with every column
    of U renormalized to max entry one after each outer sweep (V rows take
    the compensating scale).  A column of U that collapses to zero is
    reseeded from the dominant nonnegative part of the residual,
    deterministically.
    """
    M = as_matrix(M, "M")
    if M.min() < 0:
        raise ValueError("sparse variant expects a nonnegative matrix")
    mu = np.broadcast_to(cfg.mu, (r,)).astype(float)
    U, V = _init_factors(M, r, cfg.seed)
    # Unit-max columns from the start so the penalty is comparable.
    U /= np.maximum(U.max(axis=0), ZERO_SNAP)
    it, history, collapses = _hals(M, U, V, cfg.max_outer, mu=mu)
    pair = _make_pair(M, U, V, cfg.seed, it, history, zero_tol)
    pair.collapses = collapses
    return pair


def _reseed_column(M, U, V, j):
    """Deterministic replacement for a collapsed column of U.

    A unit spike at the dominant positive entry of the residual (weighted
    by the column's right-factor row when it carries mass): under the
    unit-max constraint this is the least harmful placement, and it keeps
    the column maximally sparse.
    """
    R = np.maximum(M - U @ V, 0.0)
    w = np.abs(V[j])
    scores = R @ w if w.sum() > 0 else R.sum(axis=1)
    u = np.zeros(M.shape[0])
    u[int(np.argmax(scores))] = 1.0
    return u


def tune_mu(M, r, target_s_u, seed=0, max_outer=300, zero_tol=1e-8):
    """Uniform l1 weight matching a requested sparsity of U.

    Log-scale bisection on mu; each probe is one single-seed sparse run.
    Returns the configuration of the probe closest to the target (its
    achieved sparsity is recorded on the config).
    """
    M = as_matrix(M, "M")
    if not 0.0 <= target_s_u < 1.0:
        raise ValueError("target sparsity must be in [0, 1)")
    scale = float(M.max())
    lo = 1e-6 * scale
    hi = 10.0 * scale * M.shape[0]

    def probe(mu):
        cfg = SnmfConfig(mu=np.full(r, mu), max_outer=max_outer, seed=seed)
        pair = snmf(M, r, cfg, zero_tol=zero_tol)
        return pair.s_U

    best = None  # (gap, mu, s)
    s_lo = probe(lo)
    s_hi = probe(hi)
    probes = 2
    for mu, s in ((lo, s_lo), (hi, s_hi)):
        gap = abs(s - target_s_u)
        if best is None or gap < best[0]:
            best = (gap, mu, s)
    # Sparsity is (noisily) nondecreasing in mu; bisect while the window
    # brackets the target, otherwise the nearer endpoint already won.
    if s_lo - MU_WINDOW <= target_s_u <= s_hi + MU_WINDOW:
        llo, lhi = np.log10(lo), np.log10(hi)
        while probes < MU_PROBES and best[0] > MU_WINDOW:
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
    return SnmfConfig(mu=np.full(r, best[1]), max_outer=max_outer, seed=seed,
                      achieved_s_u=best[2])


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
    the inverse is nonnegative and so is V (tiny negative roundoff is
    clipped).  Warns when rho(alpha B*) > 0.99: the inverse is then nearly
    singular and the mapped factor's error blows up.
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
    V[(V < 0) & (V > -1e-9 * max(1.0, np.abs(V).max()))] = 0.0
    np.maximum(V, 0.0, out=V)
    return V


def postprocess_fixed_support(M, U, V, zero_tol=1e-8, seed=0):
    """Re-optimize the error with the zero pattern of U frozen.

    Methods that do not directly minimize the plain error (the sparse and
    preprocessed pipelines) get an equal footing this way: the quality of a
    sparsity pattern is what the polished error measures.  Zero entries of
    U stay exactly zero; the error is nonincreasing.
    """
    M = as_matrix(M, "M")
    U = as_matrix(U, "U").copy()
    V = as_matrix(V, "V").copy()
    mask = (U > zero_tol * np.abs(U).max()).astype(float)
    U *= mask
    start = float(np.linalg.norm(M - U @ V) ** 2)
    it, history, _ = _hals(M, U, V, POLISH_ITERS, mask=mask)
    return _make_pair(M, U, V, seed, it, [start] + history, zero_tol)


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
    objective on the support.
    """
    M = as_matrix(M, "M")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    t0 = time.perf_counter()
    extra = {}

    if method == "nmf":
        runs = [ahals(M, r, seed=s, max_outer=max_outer, zero_tol=zero_tol)
                for s in seeds]
        best = min(runs, key=lambda p: p.rel_error)
        V, plain = best.V, best.rel_error
        epsilon = alpha = 0.0
    elif method == "pre_nmf":
        prep = _pre.preprocess(M, epsilon=epsilon, alpha=alpha, rescale=True)
        X = prep.P_alpha_M
        runs = [ahals(X, r, seed=s, max_outer=max_outer, zero_tol=zero_tol)
                for s in seeds]
        # Rank seeds by what the method reports: the refit error against
        # the original matrix (the preprocessed objective deliberately
        # trades error for sparsity, so it is the wrong yardstick).
        refits = [refit_v(M, p.U) for p in runs]
        errors = [_rel_error(M, p.U, Vf) for p, Vf in zip(runs, refits)]
        ibest = int(np.argmin(errors))
        best, V, plain = runs[ibest], refits[ibest], errors[ibest]
        try:
            Vq = v_from_q(best.V / prep.rescale[None, :], prep.B_star,
                          alpha=alpha, rho=prep.rho)
            extra["rel_error_vq"] = _rel_error(M, best.U, Vq)
        except SingularQ:
            pass
        extra["rho_B_star"] = prep.rho
    elif method == "snmf":
        if snmf_target is None:
            raise ValueError("snmf needs a target sparsity (snmf_target)")
        cfg = tune_mu(M, r, snmf_target, seed=seeds[0], max_outer=max_outer,
                      zero_tol=zero_tol)
        runs = []
        for s in seeds:
            c = SnmfConfig(mu=cfg.mu, max_outer=max_outer, seed=s)
            runs.append(snmf(M, r, c, zero_tol=zero_tol))
        best = min(runs, key=lambda p: p.objective_history[-1])
        V, plain = best.V, best.rel_error
        alpha = 0.0
        extra["mu"] = cfg.mu
    else:
        raise ValueError(f"unknown method {method!r}")

    improved = postprocess_fixed_support(M, best.U, V, zero_tol=zero_tol,
                                         seed=best.seed)
    return PipelineReport(
        method=method, epsilon=epsilon, alpha=alpha, rel_error_plain=plain,
        rel_error_improved=improved.rel_error,
        s_U=sparsity(best.U, zero_tol), s_V=sparsity(V, zero_tol),
        seeds=seeds, best_seed=best.seed, wall_time=time.perf_counter() - t0,
        U=best.U, V=V, **extra)
