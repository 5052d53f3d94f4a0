"""Release gate: the package's end-to-end claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line
per criterion.  Every tolerance here is fixed; nothing is calibrated at
test time.
"""

import time

import numpy as np
import pytest

from prenmf import matcore, nmf, npp3, uniq
from prenmf.cllsolve import CllsProblem, preprocess_matrix, solve_column
from prenmf.fixtures import get_fixture
from prenmf.preprocessing import (apply_alpha, find_alpha_bar, preprocess,
                                  spectral_radius)

from conftest import parts_50x40

A_CONST = np.sqrt(2.0) - 1.0
ALPHA_BAR = (4.0 * A_CONST - 1.0) / (3.0 * A_CONST)


def report(num, detail):
    print(f"\ncriterion {num:02d}: PASS - {detail}")


def random_distinct(rng, m, n):
    while True:
        M = rng.random((m, n)) + 0.05
        if not matcore.detect_duplicates(M, tol=1e-6):
            return M


def test_criterion_01_separable_recovery():
    """Preprocessing a separable product keeps exactly the pure columns."""
    t0 = time.perf_counter()
    M = get_fixture("sepex")
    res = preprocess(M)
    P = res.P_alpha_M
    nonzero = [j for j in range(P.shape[1])
               if np.abs(P[:, j]).max() > 1e-8 * M.max()]
    assert nonzero == [0, 1, 2]
    published = np.array([
        [3.6, 3.85, 3.93, 4.29, 7.61, 0.0, 3.32, 0.48, 5.93, 5.66],
        [6.27, 2.54, 1.62, 0.0, 1.48, 6.49, 1.48, 0.0, 0.72, 3.44],
        [0.8, 2.4, 2.67, 0.67, 0.67, 1.78, 0.0, 4.2, 0.93, 0.62],
    ]).T
    np.testing.assert_allclose(P[:, :3], published, atol=0.01)
    U = P[:, nonzero]
    V = nmf.refit_v(M, U)
    err = np.linalg.norm(M - U @ V) / np.linalg.norm(M)
    assert err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"3 pure columns, refit error {err:.1e}, {elapsed:.2f}s")


def test_criterion_02_nested_squares_closed_form():
    """B*, its spectral radius, the critical interpolation, and its search."""
    t0 = time.perf_counter()
    M = get_fixture("nested-squares")
    B, _ = preprocess_matrix(M)
    circulant = 0.375 * np.array([[0, 1, 0, 1], [1, 0, 1, 0],
                                  [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
    np.testing.assert_allclose(B, circulant, atol=1e-9)
    rho = spectral_radius(B)
    assert rho == pytest.approx(0.75, abs=1e-8)
    a = A_CONST
    expected = (1.0 / a) * np.array([
        [1 + a, 1 - a, 1 - a, 1 + a],
        [1 - a, 1 + a, 1 + a, 1 - a],
        [1 + a, 1 + a, 1 - a, 1 - a],
        [1 - a, 1 - a, 1 + a, 1 + a]])
    np.testing.assert_allclose(apply_alpha(M, B, ALPHA_BAR), expected,
                               atol=1e-9)
    found = find_alpha_bar(M, B).alpha
    assert found == pytest.approx(ALPHA_BAR, abs=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"rho={rho:.6f}, alpha_bar={found:.5f} "
              f"(exact {ALPHA_BAR:.5f}), {elapsed:.2f}s")


def test_criterion_03_finitely_many_solutions():
    """Exactly eight 3-vertex nested polygons at the critical level."""
    t0 = time.perf_counter()
    M = get_fixture("nested-squares")
    B, _ = preprocess_matrix(M)
    npp = npp3.build_npp(apply_alpha(M, B, ALPHA_BAR))
    sols = npp3.enumerate_solutions(npp, 3)
    assert len(sols) == 8
    m, n = M.shape
    assert len(sols) <= m + n  # the bound is attained
    U2 = np.array([[1, A_CONST, 0], [0, 1 - A_CONST, 1],
                   [A_CONST, 1, 0], [1 - A_CONST, 0, 1]])
    theta_U2 = U2 / U2.sum(axis=0)
    best = np.inf
    for S in sols:
        dmat = np.linalg.norm(S[:, :, None] - theta_U2[:, None, :], axis=0)
        best = min(best, max(dmat.min(0).max(), dmat.min(1).max()))
    assert best <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"8 = m+n solutions, published triangle matched to "
              f"{best:.1e}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def critical_instance():
    M = get_fixture("nested-squares")
    B, _ = preprocess_matrix(M)
    return npp3.build_npp(apply_alpha(M, B, ALPHA_BAR))


def test_criterion_04_walk_function_structure(critical_instance):
    """Four-point walk value: monotone; piecewise constant or convex;
    quarter-period equivariant; eighth-shift exact on the touch set."""
    npp = critical_instance
    steps = 3  # four boundary points
    ts = np.linspace(0.0, 1.0, 160, endpoint=False)
    fs = np.array([npp3.walk_fk(npp, float(t), steps).f for t in ts])
    assert np.all(np.diff(fs) >= -1e-9)

    for t in ts[::8]:
        f1 = npp3.walk_fk(npp, float(t), steps).f
        f2 = npp3.walk_fk(npp, float(t) + 0.25, steps).f
        assert f2 - f1 == pytest.approx(0.25, abs=1e-9)
    for t in np.arange(8) / 8.0:
        f1 = npp3.walk_fk(npp, float(t), steps).f
        assert f1 - t - 1.0 == pytest.approx(0.0, abs=1e-9)
        f2 = npp3.walk_fk(npp, float(t) + 0.125, steps).f
        assert f2 - f1 == pytest.approx(0.125, abs=1e-9)

    pieces = 0
    cands = npp3.contact_change_points(npp, steps)
    for a, b in zip(cands, cands[1:]):
        if b - a < 1e-4:
            continue
        grid = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), 20)
        vals = np.array([npp3.walk_fk(npp, float(t), steps).f for t in grid])
        if vals.max() - vals.min() <= 1e-9:
            pieces += 1
            continue
        assert np.diff(vals, 2).min() >= -1e-9
        pieces += 1
    assert pieces > 0
    report(4, f"nondecreasing, {pieces} pieces constant/convex, "
              "quarter-shift exact, eighth-shift exact on the touch set")


@pytest.mark.xfail(strict=True,
                   reason="the eighth-shift identity holds on the touch set "
                          "only: the two concentric squares have four-fold "
                          "symmetry, so f(t + 1/8) - f(t) deviates from 1/8 "
                          "between touch points (verified against an "
                          "independent ray-tracing oracle)")
def test_criterion_04_eighth_shift_pointwise(critical_instance):
    """Literal pointwise form of the eighth-period shift identity."""
    npp = critical_instance
    for t in np.linspace(0.0, 1.0, 160, endpoint=False):
        f1 = npp3.walk_fk(npp, float(t), 3).f
        f2 = npp3.walk_fk(npp, float(t) + 0.125, 3).f
        assert f2 - f1 == pytest.approx(0.125, abs=1e-6)


def test_criterion_05_rank_two_optimality():
    """Rank-2 inputs always reduce to exactly two generating columns."""
    rng = np.random.default_rng(20240501)
    t0 = time.perf_counter()
    for trial in range(100):
        while True:
            W = rng.random((6, 2)) + 0.05
            H = rng.random((2, 8)) + 0.05
            M = W @ H
            if not matcore.detect_duplicates(M, tol=1e-6):
                break
        P = preprocess(M).P_alpha_M
        nonzero = [j for j in range(8)
                   if np.abs(P[:, j]).max() > 1e-8 * M.max()]
        assert len(nonzero) == 2, f"trial {trial}: {len(nonzero)} columns"
        U = P[:, nonzero]
        V = nmf.refit_v(M, U)
        err = np.linalg.norm(M - U @ V) / np.linalg.norm(M)
        assert err <= 1e-6, f"trial {trial}: refit error {err:.2e}"
    report(5, f"100/100 instances reduced to 2 columns, refit <= 1e-6 "
              f"({time.perf_counter() - t0:.1f}s)")


class TestCriterion06TheoryProperties:
    N_INSTANCES = 50

    def test_fitted_matrix_well_defined(self):
        rng = np.random.default_rng(61)
        for _ in range(self.N_INSTANCES):
            m, n = int(rng.integers(4, 8)), int(rng.integers(4, 7))
            M = random_distinct(rng, m, n)
            i = int(rng.integers(n))
            p = CllsProblem(M, i)
            fitted = None
            for _ in range(2):
                order = rng.permutation(n + m)
                sol = solve_column(p, tie_order=order)
                fb = M @ sol.b
                if fitted is None:
                    fitted = fb
                else:
                    assert np.linalg.norm(fb - fitted) <= \
                        1e-8 * np.linalg.norm(M[:, i])
        report(6, "fitted matrix identical across pivot orders "
                  f"({self.N_INSTANCES} instances)")

    def test_permutation_scaling_equivariance(self):
        rng = np.random.default_rng(62)
        for _ in range(self.N_INSTANCES):
            M = random_distinct(rng, 5, 4)
            P = np.zeros((4, 4))
            P[rng.permutation(4), np.arange(4)] = rng.random(4) + 0.25
            lhs = preprocess(M @ P).P_alpha_M
            rhs = preprocess(M).P_alpha_M @ P
            assert np.abs(lhs - rhs).max() <= 1e-8 * max(np.abs(rhs).max(), 1.0)
        report(6, f"preprocessing commutes with column scaling/permutation "
                  f"({self.N_INSTANCES} instances)")

    def test_spectral_radius_below_one(self):
        rng = np.random.default_rng(63)
        for _ in range(self.N_INSTANCES):
            M = random_distinct(rng, int(rng.integers(4, 9)),
                                int(rng.integers(4, 7)))
            B, _ = preprocess_matrix(M)
            assert spectral_radius(B) < 1.0 - 1e-10
        report(6, f"rho(B*) < 1 on duplicate-free inputs "
                  f"({self.N_INSTANCES} instances)")

    def test_diagonal_dominance(self):
        rng = np.random.default_rng(64)
        for _ in range(self.N_INSTANCES):
            M = random_distinct(rng, 6, 5)
            M = M / M.sum(axis=0)
            B, _ = preprocess_matrix(M)
            assert B.sum(axis=0).max() <= 1.0 + 1e-9
        report(6, f"column sums of B* at most one on stochastic inputs "
                  f"({self.N_INSTANCES} instances)")

    def test_hull_nesting(self):
        rng = np.random.default_rng(65)
        for _ in range(self.N_INSTANCES):
            M = random_distinct(rng, 5, 5)
            B, _ = preprocess_matrix(M)
            lo, hi = np.sort(rng.random(2))
            inner = matcore.pullback(apply_alpha(M, B, lo)).theta
            outer = matcore.pullback(apply_alpha(M, B, hi)).theta
            for j in range(inner.shape[1]):
                assert npp3.hull_membership(inner[:, j], outer, tol=1e-7)
        report(6, "hull of normalized columns only inflates with alpha "
                  f"({self.N_INSTANCES} instances)")

    def test_rank_preserved(self):
        rng = np.random.default_rng(66)
        for _ in range(self.N_INSTANCES):
            r = int(rng.integers(2, 5))
            W = rng.random((int(rng.integers(5, 8)), r)) + 0.05
            H = rng.random((r, int(rng.integers(4, 7)))) + 0.05
            M = W @ H
            if matcore.detect_duplicates(M, tol=1e-6):
                continue
            P = preprocess(M).P_alpha_M
            assert npp3.numerical_rank(P) == npp3.numerical_rank(M)
        report(6, f"rank preserved under preprocessing "
                  f"({self.N_INSTANCES} instances)")


def test_criterion_07_epsilon_relaxation():
    """The relaxed constraint sparsifies the noisy fixture as published."""
    M = get_fixture("noisy")
    P0 = preprocess(M, epsilon=0.0).P_alpha_M
    np.testing.assert_allclose(P0, M, atol=1e-12)
    P = preprocess(M, epsilon=0.01).P_alpha_M
    expected = np.array([[-0.01, 0.01], [1.0, -0.01], [1e-4, 0.99]])
    np.testing.assert_allclose(P, expected, atol=5e-3)
    report(7, "strict level leaves the noisy matrix unchanged; 1% slack "
              "reproduces the published relaxed output")


def test_criterion_08_uniqueness_detectors():
    M_ok = get_fixture("sparsity-example")
    assert uniq.is_unique_by_sparsity(M_ok, 3)
    M_no = get_fixture("ones-minus-identity")
    assert not uniq.is_unique_by_sparsity(M_no, 3)
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(20):
        U = rng.random((6, 4))
        U[U < 0.35] = 0.0
        pairs = uniq.support_containment(U)
        zero_tol = 1e-8 * max(U.max(), 1e-300)
        for p in pairs:
            UD = U @ p.matrix(4)
            assert UD.min() >= -zero_tol
            assert U[p.p_bar, p.l] > zero_tol
            assert abs(UD[p.p_bar, p.l]) <= 10 * zero_tol
            checked += 1
    assert checked >= 10
    report(8, f"certificate and {checked} non-uniqueness witnesses verified")


class TestCriterion09Engines:
    def test_objective_monotone_every_run(self):
        rng = np.random.default_rng(91)
        for _ in range(8):
            M = rng.random((int(rng.integers(6, 16)),
                            int(rng.integers(6, 16))))
            pair = nmf.ahals(M, int(rng.integers(2, 5)),
                             seed=int(rng.integers(100)), max_outer=200)
            hist = pair.objective_history
            assert np.all(np.diff(hist) <= 1e-10 * hist[0])
        report(9, "objective nonincreasing on every run")

    def test_best_of_ten_exact_recovery(self):
        rng = np.random.default_rng(92)
        t0 = time.perf_counter()
        shapes = [(10, 8, 2), (20, 20, 3), (30, 30, 5)]
        worst = 0.0
        for m, n, r in shapes:
            M = (rng.random((m, r)) + 0.02) @ (rng.random((r, n)) + 0.02)
            best = min((nmf.ahals(M, r, seed=s, max_outer=1000)
                        for s in range(10)), key=lambda p: p.rel_error)
            worst = max(worst, best.rel_error)
            assert best.rel_error <= 1e-6, (m, n, r)
        report(9, f"exact recovery up to 30x30 r=5, worst {worst:.1e} "
                  f"({time.perf_counter() - t0:.1f}s)")

    def test_sparsity_matching(self):
        rng = np.random.default_rng(93)
        W = np.zeros((24, 3))
        for j in range(3):
            W[j * 8:j * 8 + 11, j] = rng.random(min(11, 24 - j * 8)) + 0.2
        M = W @ np.hstack([np.eye(3), rng.random((3, 13)) + 0.1])
        pre = nmf.run_pipeline(M, 3, "pre_nmf", seeds=range(6), max_outer=400)
        cfg = nmf.tune_mu(M, 3, pre.s_U, seed=0, max_outer=400)
        achieved = nmf.snmf(M, 3, cfg).s_U
        assert abs(achieved - pre.s_U) <= 0.02
        report(9, f"penalty tuned to sparsity {pre.s_U:.3f}, "
                  f"achieved {achieved:.3f}")


def test_criterion_10_image_like_benchmark():
    """Desk-scale stand-in for the full image tables.

    Parts-based 50x40 data (localized nonnegative parts, dense mixing,
    0.5% noise; dense mixing because rescaling after the preprocessing
    amplifies noise-collapsed columns of exactly separable data, the same
    blow-up the full-scale hyperspectral numbers show in brackets).  The
    preprocessed pipeline must reach the sparsity the penalized method is
    tuned to, at a polished error within 10% of the plain baseline.
    """
    t0 = time.perf_counter()
    M, r = parts_50x40(), 5
    plain = nmf.run_pipeline(M, r, "nmf", seeds=range(10), max_outer=600)
    pre = nmf.run_pipeline(M, r, "pre_nmf", seeds=range(10), max_outer=600,
                           epsilon=0.0)
    matched = nmf.run_pipeline(M, r, "snmf", seeds=range(10), max_outer=600,
                               snmf_target=pre.s_U)
    assert pre.s_U >= matched.s_U - 0.02
    assert pre.s_U >= plain.s_U + 0.05   # the qualitative sparsity gain
    assert pre.rel_error_improved <= 1.10 * plain.rel_error_plain
    report(10, f"s(U): plain {plain.s_U:.3f} / preprocessed {pre.s_U:.3f} / "
               f"matched {matched.s_U:.3f}; improved error ratio "
               f"{pre.rel_error_improved / plain.rel_error_plain:.3f} "
               f"({time.perf_counter() - t0:.1f}s)")
