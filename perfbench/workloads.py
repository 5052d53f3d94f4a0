"""Workloads: inputs generated from a seed, CLI ops, and output checks.

Every check reads the files an op wrote and recomputes what it can with
numpy and scipy alone, so a wrong answer fails the op without trusting the
code under test.  ``corruptions`` gives, for each kind of op, edits of a
correct output that a check must reject; the run's self-test applies them.
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.optimize

A_SQ = math.sqrt(2.0) - 1.0
ALPHA_BAR_SQUARES = (4.0 * A_SQ - 1.0) / (3.0 * A_SQ)
KKT_TOL = 1e-8            # the CLI's column KKT tolerance (not a flag)
ALPHA_TOL = 1e-5          # alpha_bar accuracy the npp check demands
RHO_TOL = 1e-5            # reported rho(B*) against numpy's eigenvalues
HULL_TOL = 1e-9           # NNLS residual of an input column in a solution hull


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def load(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save(path, M):
    np.savetxt(path, M, delimiter=",", fmt="%.17g")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


class Op:
    """One CLI invocation (without ``--out``) and the check of its output."""

    def __init__(self, kind, argv, check, **params):
        self.kind = kind
        self.argv = argv
        self._check = check
        self.params = params

    def check(self, out):
        """Raises CheckFailed on a wrong output; returns quality values."""
        return self._check(Path(out), **self.params)


# ----------------------------------------------------------------------------
# preprocess-synth

# Size ladder (m, n, r).  Neighbouring sizes overlap in op time, so the
# latency distribution has no gap at its median or tail.
SYNTH_SIZES = [(m, (4 * m) // 5, max(2, m // 10)) for m in range(20, 51, 3)]
SYNTH_EPS = (0.0, 0.05)
SYNTH_POOL = 8


def synthetic(rng, m, n, r):
    """The ROADMAP generator: sparse nonnegative W, dense H, 1% noise."""
    W = rng.random((m, r)) * (rng.random((m, r)) < 0.4)
    return W @ rng.random((r, n)) + 0.01 * rng.random((m, n))


def check_preprocess(out, M, eps):
    B = load(out / "B_star.csv")
    P = load(out / "P_eps_M.csv")
    rep = load_json(out / "preprocess.json")
    m, n = M.shape
    require(B.shape == (n, n) and P.shape == (m, n), "output shapes")
    require(B.min() >= 0.0, f"B* has a negative entry {B.min():.3e}")
    require(np.all(np.diag(B) == 0.0), "B* has a nonzero diagonal entry")
    P0 = M - M @ B
    top = np.abs(M).max(axis=0)
    floor = -(eps + 1e-9) * top
    require(np.all(P0 >= floor), "M(I - B*) below -eps * ||M_i||_inf")
    # --rescale: each column keeps its direction and takes the input norm;
    # columns that vanish pass through unscaled.
    nm, n0 = np.linalg.norm(M, axis=0), np.linalg.norm(P0, axis=0)
    live = n0 > 1e-9 * nm
    want = P0.copy()
    want[:, live] *= nm[live] / n0[live]
    require(np.allclose(P, want, rtol=1e-8, atol=1e-10 * top.max()),
            "written P(M) is not the rescaled M(I - B*)")
    rho = rep["rho_B_star"]
    ev = float(np.abs(np.linalg.eigvals(B)).max())
    # rho(B*) < 1 is a theorem for eps = 0 and distinct columns.  A relaxed
    # B* may reach past 1, which the CLI reports with a warning.
    require(eps > 0.0 or rho < 1.0, f"rho(B*) = {rho} is not below 1")
    # The power iteration stops on a change below 1e-10 per step, which on a
    # slowly converging B* leaves an error of a few 1e-6.
    require(abs(rho - ev) <= RHO_TOL * max(1.0, ev),
            f"reported rho(B*) {rho} != max|eig| {ev}")
    grad = 2.0 * np.abs(M.T @ M).max(axis=0)
    bound = KKT_TOL * float(np.maximum(grad, 1.0).max())
    kkt = rep["max_column_kkt_residual"]
    require(0.0 <= kkt <= bound, f"KKT residual {kkt:.3e} above {bound:.3e}")
    return {}


def corrupt_preprocess(out):
    def neg_b(d):
        B = load(d / "B_star.csv")
        i, j = np.unravel_index(np.argmax(B), B.shape)
        B[i, j] = -B[i, j]
        save(d / "B_star.csv", B)

    def diag_b(d):
        B = load(d / "B_star.csv")
        B[0, 0] = 1e-3
        save(d / "B_star.csv", B)

    def shift_p(d):
        P = load(d / "P_eps_M.csv")
        P[0, 0] += 1e-3 * np.abs(P).max()
        save(d / "P_eps_M.csv", P)

    def report(key, fn):
        def edit(d):
            rep = load_json(d / "preprocess.json")
            rep[key] = fn(rep[key])
            save_json(d / "preprocess.json", rep)
        return edit

    return [("negated B* entry", neg_b), ("nonzero B* diagonal", diag_b),
            ("shifted P(M) entry", shift_p),
            ("rho off by 1e-3", report("rho_B_star", lambda v: v + 1e-3)),
            ("KKT residual 1e-3",
             report("max_column_kkt_residual", lambda v: 1e-3))]


class PreprocessSynth:
    name = "preprocess-synth"

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 1])
        self.inputs = {}
        for (m, n, r) in SYNTH_SIZES:
            for k in range(SYNTH_POOL):
                path = f"in/synth_{m}x{n}_{k}.csv"
                M = synthetic(rng, m, n, r)
                save(work / path, M)
                self.inputs[(m, k)] = (path, M)
        m0, n0, r0 = SYNTH_SIZES[0]
        M = synthetic(rng, m0, n0, r0)
        save(work / "in/warmup.csv", M)
        self.warmup = self._op("in/warmup.csv", M, SYNTH_EPS[-1])

    def _op(self, path, M, eps):
        argv = ["preprocess", "--input", path, "--epsilon", f"{eps:g}",
                "--rescale"]
        return Op(f"preprocess eps={eps:g}", argv, check_preprocess, M=M,
                  eps=eps)

    def round(self, i):
        k = i % SYNTH_POOL
        return [self._op(*self.inputs[(m, k)], eps)
                for (m, _, _) in SYNTH_SIZES for eps in SYNTH_EPS]

    corruptions = staticmethod(corrupt_preprocess)
    selftest_kinds = ("preprocess eps=0", "preprocess eps=0.05")


# ----------------------------------------------------------------------------
# factorize-parts

PARTS_SHAPE = (30, 15, 5)
PARTS_WIDTH = 8
PARTS_POOL = 48
FACTORIZE_FLAGS = ["--rank", "5", "--method", "nmf,pre-nmf,snmf",
                   "--seeds", "0-2", "--max-outer", "150"]


def parts(rng, m, n, r, width):
    """Criterion-10 style data: localized parts, dense mixing, 0.5% noise."""
    W = np.zeros((m, r))
    step = m // r
    for j in range(r):
        lo = j * step
        W[lo:lo + width, j] = rng.random(min(width, m - lo)) + 0.2
    H = 0.15 + rng.random((r, n))
    M0 = W @ H
    noise = 0.005 * M0.mean() * rng.standard_normal(M0.shape)
    return np.maximum(M0 + noise, 0.0)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_factorize(out, M):
    rep = load_json(out / "report.json")
    recs = {rec["method"]: rec for rec in rep["records"]}
    require(sorted(recs) == ["nmf", "pre-nmf", "snmf"], "missing records")
    norm_m = np.linalg.norm(M)
    for method, rec in recs.items():
        for key in ("epsilon", "alpha", "rel_error_plain", "rel_error_improved",
                    "s_U", "s_V", "best_seed", "wall_time"):
            require(_finite(rec[key]), f"{method}.{key} = {rec[key]!r}")
        for key in ("rho_B_star", "rel_error_vq"):
            if method == "pre-nmf":
                require(_finite(rec[key]), f"{method}.{key} = {rec[key]!r}")
            else:
                require(rec[key] is None, f"{method}.{key} should be null")
        U = load(out / rec["factors"]["U"])
        V = load(out / rec["factors"]["V"])
        require(U.shape == (M.shape[0], rep["rank"])
                and V.shape == (rep["rank"], M.shape[1]), "factor shapes")
        require(U.min() >= 0.0 and V.min() >= 0.0, f"{method}: negative factor")
        err = float(np.linalg.norm(M - U @ V) / norm_m)
        require(abs(err - rec["rel_error_plain"]) <= 1e-9 * max(err, 1e-12),
                f"{method}: error from factors {err!r} != report "
                f"{rec['rel_error_plain']!r}")
        require(rec["rel_error_improved"] <= rec["rel_error_plain"] + 1e-12,
                f"{method}: polish increased the error")
    require(recs["pre-nmf"]["rho_B_star"] < 1.0, "pre-nmf: rho(B*) >= 1")
    # pre-nmf refits V against M: no nonnegative V may do better for its U.
    U = load(out / recs["pre-nmf"]["factors"]["U"])
    V = np.column_stack([scipy.optimize.nnls(U, col)[0] for col in M.T])
    best = float(np.linalg.norm(M - U @ V) / norm_m)
    require(recs["pre-nmf"]["rel_error_plain"] <= best * (1.0 + 1e-9) + 1e-15,
            f"pre-nmf: refit error {recs['pre-nmf']['rel_error_plain']!r} "
            f"above the NNLS optimum {best!r}")
    return {
        "err_ratio": recs["pre-nmf"]["rel_error_improved"]
        / recs["nmf"]["rel_error_plain"],
        "sparsity_gain": recs["pre-nmf"]["s_U"] - recs["nmf"]["s_U"],
    }


def corrupt_factorize(out):
    rep = load_json(out / "report.json")
    files = {rec["method"]: rec["factors"] for rec in rep["records"]}

    def neg(method, which):
        def edit(d):
            path = d / files[method][which]
            X = load(path)
            i, j = np.unravel_index(np.argmax(X), X.shape)
            X[i, j] = -X[i, j]
            save(path, X)
        return edit

    def bump_v(d):
        path = d / files["pre-nmf"]["V"]
        X = load(path)
        X[np.unravel_index(np.argmax(X), X.shape)] *= 1.0 + 1e-3
        save(path, X)

    def field(method, key, value):
        def edit(d):
            rep = load_json(d / "report.json")
            for rec in rep["records"]:
                if rec["method"] == method:
                    rec[key] = value(rec[key])
            save_json(d / "report.json", rep)
        return edit

    return [("negated nmf U entry", neg("nmf", "U")),
            ("negated snmf V entry", neg("snmf", "V")),
            ("scaled pre-nmf V entry", bump_v),
            ("snmf error x1.001", field("snmf", "rel_error_plain",
                                        lambda v: v * 1.001)),
            ("NaN pre-nmf s_U", field("pre-nmf", "s_U", lambda v: math.nan)),
            ("null pre-nmf rho", field("pre-nmf", "rho_B_star",
                                       lambda v: None))]


class FactorizeParts:
    name = "factorize-parts"

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 2])
        m, n, r = PARTS_SHAPE
        self.inputs = []
        for k in range(PARTS_POOL):
            path = f"in/parts_{k}.csv"
            M = parts(rng, m, n, r, PARTS_WIDTH)
            save(work / path, M)
            self.inputs.append((path, M))
        M = parts(rng, 20, 16, r, 4)
        save(work / "in/warmup.csv", M)
        self.warmup = Op("factorize", ["factorize", "--input", "in/warmup.csv",
                                       "--rank", "5", "--seeds", "0-1",
                                       "--max-outer", "30"],
                         check_factorize, M=M)

    def round(self, i):
        path, M = self.inputs[i % PARTS_POOL]
        return [Op("factorize", ["factorize", "--input", path]
                   + FACTORIZE_FLAGS, check_factorize, M=M)]

    corruptions = staticmethod(corrupt_factorize)
    selftest_kinds = ("factorize",)


# ----------------------------------------------------------------------------
# rank3-npp

# Separable products W [I | H] of these shapes: alpha_bar = 1 by
# construction, so the op is one slack evaluation, the enumeration and the
# f_k samples.  nested-squares carries the full alpha search.
NPP_SHAPES = [(5, 8), (6, 10), (7, 9), (8, 12), (9, 14), (10, 9), (11, 16),
              (12, 16), (14, 12)]
NPP_POOL = 6


def separable_rank3(rng, m, n):
    W = rng.random((m, 3)) + 0.05
    H = np.hstack([np.eye(3), rng.random((3, n - 3)) + 0.05])
    return W @ H[:, rng.permutation(n)]


def check_npp(out, M, alpha_bar):
    rep = load_json(out / "npp.json")
    alpha = rep["alpha"]
    require(_finite(alpha), f"alpha = {alpha!r}")
    err = abs(alpha - alpha_bar)
    require(err <= ALPHA_TOL, f"alpha {alpha!r} != closed form {alpha_bar!r}")
    sols = sorted(out.glob("solution_*.csv"))
    count = rep["solutions"]
    if count is None:
        require(not sols and "continuum" in rep.get("note", ""),
                "null solution count without a continuum verdict")
    else:
        require(count == len(sols) and count >= 1,
                f"report says {count} solutions, {len(sols)} files")
    X = M / M.sum(axis=0)
    for path in sols:
        S = load(path)
        require(S.shape == (M.shape[0], 3), f"{path.name}: shape {S.shape}")
        require(S.min() >= 0.0, f"{path.name}: negative entry")
        require(np.allclose(S.sum(axis=0), 1.0, rtol=0, atol=1e-9),
                f"{path.name}: not column-stochastic")
        # cone(M) lies in cone(P) lies in cone(S): every normalized input
        # column is a convex combination of the solution's columns.
        A = np.vstack([S, np.ones((1, 3))])
        for j in range(X.shape[1]):
            _, res = scipy.optimize.nnls(A, np.append(X[:, j], 1.0))
            require(res <= HULL_TOL,
                    f"{path.name}: input column {j} outside hull ({res:.1e})")
    fk = np.loadtxt(out / "fk_samples.csv", delimiter=",", skiprows=1,
                    ndmin=2)
    require(fk.shape == (256, 2) and np.all(np.isfinite(fk)), "fk samples")
    return {}


def check_squares(out, M, alpha_bar):
    check_npp(out, M, alpha_bar)
    rep = load_json(out / "npp.json")
    require(rep["solutions"] == 8, "nested-squares must have 8 solutions")
    return {"alpha_bar_err": abs(rep["alpha"] - alpha_bar)}


def corrupt_npp(out):
    def alpha(d):
        rep = load_json(d / "npp.json")
        rep["alpha"] += 1e-3
        save_json(d / "npp.json", rep)

    def drop(d):
        sorted(d.glob("solution_*.csv"))[-1].unlink()

    def negate(d):
        path = sorted(d.glob("solution_*.csv"))[0]
        S = load(path)
        S[0, 0] = -max(S[0, 0], 1e-3)
        save(path, S)

    def unnormalize(d):
        path = sorted(d.glob("solution_*.csv"))[0]
        save(path, 1.01 * load(path))

    def collapse(d):
        # Still nonnegative and column-stochastic, but a segment.
        path = sorted(d.glob("solution_*.csv"))[0]
        S = load(path)
        S[:, 0] = S[:, 1]
        save(path, S)

    return [("alpha_bar + 1e-3", alpha), ("dropped solution", drop),
            ("negative solution entry", negate),
            ("solution columns sum to 1.01", unnormalize),
            ("collapsed solution vertex", collapse)]


class Rank3Npp:
    name = "rank3-npp"

    def __init__(self, seed, work):
        rng = np.random.default_rng([seed, 3])
        self.inputs = {}
        for (m, n) in NPP_SHAPES:
            for k in range(NPP_POOL):
                path = f"in/sep_{m}x{n}_{k}.csv"
                M = separable_rank3(rng, m, n)
                save(work / path, M)
                self.inputs[(m, n, k)] = (path, M)
        squares = np.array([[5, 3, 3, 5], [3, 5, 5, 3],
                            [5, 5, 3, 3], [3, 3, 5, 5]], dtype=float)
        self.squares = Op("npp nested-squares",
                          ["npp", "--fixture", "nested-squares",
                           "--alpha", "auto"],
                          check_squares, M=squares,
                          alpha_bar=ALPHA_BAR_SQUARES)
        M = separable_rank3(rng, 6, 8)
        save(work / "in/warmup.csv", M)
        self.warmup = self._op("in/warmup.csv", M)

    def _op(self, path, M):
        return Op("npp separable", ["npp", "--input", path, "--alpha", "auto"],
                  check_npp, M=M, alpha_bar=1.0)

    def round(self, i):
        k = i % NPP_POOL
        return [self._op(*self.inputs[(m, n, k)]) for (m, n) in NPP_SHAPES] \
            + [self.squares]

    corruptions = staticmethod(corrupt_npp)
    selftest_kinds = ("npp nested-squares",)


WORKLOADS = {w.name: w for w in (PreprocessSynth, FactorizeParts, Rank3Npp)}
