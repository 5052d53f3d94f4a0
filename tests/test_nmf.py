import numpy as np
import pytest

from prenmf import nmf, sparsity
from prenmf.cllsolve import preprocess_matrix
from prenmf.preprocessing import apply_alpha, preprocess

from oracles import nnls_kkt_check, renormalize_oracle, tune_mu_oracle

A_CONST = np.sqrt(2.0) - 1.0
ALPHA_BAR = (4.0 * A_CONST - 1.0) / (3.0 * A_CONST)


def separable_instance(rng, m, n, r):
    W = rng.random((m, r)) + 0.05
    H = np.hstack([np.eye(r), rng.random((r, n - r)) + 0.05])
    return W @ H[:, rng.permutation(n)]


class TestAhals:
    def test_identity_recovery(self):
        pair = nmf.ahals(np.eye(3), 3, seed=0, max_outer=500)
        assert pair.rel_error <= 1e-8
        # The stall rule stops the run well before the cap.
        assert pair.iterations < 500
        assert len(pair.objective_history) == pair.iterations

    def test_exact_rank2_recovery(self, rng):
        W = rng.random((12, 2))
        H = rng.random((2, 9))
        best = min((nmf.ahals(W @ H, 2, seed=s, max_outer=800)
                    for s in range(10)), key=lambda p: p.rel_error)
        assert best.rel_error <= 1e-6

    def test_objective_monotone(self, rng):
        M = rng.random((10, 8))
        pair = nmf.ahals(M, 3, seed=2, max_outer=300)
        hist = pair.objective_history
        assert np.all(np.diff(hist) <= 1e-10 * hist[0])

    def test_handles_negative_entries(self, rng):
        M = rng.random((8, 8))
        M[3, 4] = -1.5 * np.linalg.norm(np.maximum(M, 0.0))
        pair = nmf.ahals(M, 3, seed=1, max_outer=2000)
        # A sufficiently negative entry forces the reconstruction to zero
        # there at any stationary point.
        assert (pair.U @ pair.V)[3, 4] == 0.0
        assert pair.U.min() >= 0.0 and pair.V.min() >= 0.0

    def test_scale_neutral(self, rng):
        M = rng.random((12, 10)) @ rng.random((10, 12))
        p1 = nmf.ahals(M, 3, seed=3, max_outer=500)
        p2 = nmf.ahals(4.2 * M, 3, seed=3, max_outer=500)
        assert abs(p1.rel_error - p2.rel_error) <= 1e-8

    def test_rank_warning(self, rng):
        with pytest.warns(nmf.RankTooLargeWarning):
            nmf.ahals(rng.random((3, 3)), 5, seed=0, max_outer=10)

    def test_error_recomputable(self, rng):
        M = rng.random((9, 7))
        pair = nmf.ahals(M, 3, seed=0, max_outer=200)
        recomputed = np.linalg.norm(M - pair.U @ pair.V) / np.linalg.norm(M)
        assert pair.rel_error == pytest.approx(recomputed, abs=1e-12)

    def test_all_zero_input_refused(self):
        # The relative error would be 0 / 0.
        with pytest.raises(ValueError, match="all zero"):
            nmf.ahals(np.zeros((4, 3)), 2, max_outer=5)

    def test_block_update_ends_once_every_slice_settles(self, monkeypatch):
        # An exact rank-2 product: both blocks cap their inner sweeps at 5,
        # and sweeps 0-3 measure the movement.  Seeds 0 and 2 run all 50
        # outer iterations in one stack and settle at different sweeps, so
        # the sweeps that follow are re-planned for the slice still moving.
        # Once every slice has settled, the block update ends: it neither
        # measures another sweep nor plans one with no slice left to update.
        rng = np.random.default_rng(1)
        M = rng.random((40, 2)) @ rng.random((2, 30))
        tracked, plans = [], []
        update, norms, plan = nmf._update_blocks, nmf._norms, nmf._plan

        def update_spy(*args, **kwargs):
            tracked.append(0)
            return update(*args, **kwargs)

        def norms_spy(X):
            if X.shape[-1] == 2:        # a block's movement, not a residual
                tracked[-1] += 1
            return norms(X)

        def plan_spy(upd):
            assert upd.shape == (2, 2)
            plans.append(bool(upd.any()))
            return plan(upd)

        monkeypatch.setattr(nmf, "_update_blocks", update_spy)
        monkeypatch.setattr(nmf, "_norms", norms_spy)
        monkeypatch.setattr(nmf, "_plan", plan_spy)
        pairs = nmf._runs([(M, 0, 0.0), (M, 2, 0.0)], 2, 50, 1e-8)
        assert [p.iterations for p in pairs] == [50, 50]
        assert len(tracked) == 100 and max(tracked) == 4
        assert min(tracked) < 4
        assert plans and all(plans)


class TestSnmf:
    def test_small_mu_matches_plain(self, rng):
        M = rng.random((20, 20))
        base = min((nmf.ahals(M, 5, seed=s, max_outer=400) for s in range(3)),
                   key=lambda p: p.rel_error)
        cfg = nmf.SnmfConfig(mu=np.full(5, 1e-8 * M.max()), max_outer=400,
                             seed=base.seed)
        sp = nmf.snmf(M, 5, cfg)
        assert sp.rel_error <= base.rel_error * 1.01 + 1e-6

    def test_large_mu_spikes(self, rng):
        M = rng.random((20, 15)) + 0.1
        m = 20
        cfg = nmf.SnmfConfig(mu=np.full(4, 10 * M.max() * m), max_outer=150,
                             seed=0)
        pair = nmf.snmf(M, 4, cfg)
        # Reseeded columns flatten the objective, yet no stall stop fires.
        assert pair.collapses > 0
        assert pair.iterations == 150
        assert pair.s_U >= 0.9 * (1.0 - 1.0 / m)
        np.testing.assert_allclose(pair.U.max(axis=0), 1.0, atol=1e-12)

    def test_identity_with_small_mu(self):
        cfg = nmf.SnmfConfig(mu=np.full(3, 1e-8), max_outer=400, seed=1)
        pair = nmf.snmf(np.eye(3), 3, cfg)
        assert pair.rel_error <= 1e-6
        assert pair.s_U == pytest.approx(2.0 / 3.0)

    def test_linf_constraint_after_every_outer(self, rng):
        M = rng.random((10, 10))
        cfg = nmf.SnmfConfig(mu=np.full(3, 0.01), max_outer=37, seed=0)
        pair = nmf.snmf(M, 3, cfg)
        # The sparse variant has no stall stop: it runs every outer sweep.
        assert pair.iterations == 37
        np.testing.assert_allclose(pair.U.max(axis=0), 1.0, atol=1e-12)

    def test_penalized_objective_monotone_without_collapses(self, rng):
        M = rng.random((12, 12)) + 0.2
        cfg = nmf.SnmfConfig(mu=np.full(4, 0.05 * M.max()), max_outer=200,
                             seed=2)
        pair = nmf.snmf(M, 4, cfg)
        assert pair.collapses == 0
        hist = pair.objective_history
        assert np.all(np.diff(hist) <= 1e-8 * hist[0])

    def test_rejects_negative_input(self):
        cfg = nmf.SnmfConfig(mu=np.full(2, 0.1), max_outer=10, seed=0)
        with pytest.raises(ValueError):
            nmf.snmf(np.array([[1.0, -2.0], [3.0, 4.0]]), 2, cfg)

    def test_rejects_rank_zero(self, rng):
        cfg = nmf.SnmfConfig(mu=np.full(1, 0.1), max_outer=10, seed=0)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            nmf.snmf(rng.random((5, 4)), 0, cfg)

    def test_all_zero_input_refused(self):
        cfg = nmf.SnmfConfig(mu=np.full(2, 0.1), max_outer=5, seed=0)
        with pytest.raises(ValueError, match="all zero"):
            nmf.snmf(np.zeros((4, 3)), 2, cfg)

    def test_nonpositive_weights_refused(self, rng):
        # A zero weight is not a sparse run: the stack builder reads weight
        # 0 as plain ahals with the stall stop.  So the config refuses one,
        # and snmf refuses a config whose weights were zeroed afterwards
        # rather than run the plain engine silently.
        with pytest.raises(ValueError, match="must be positive"):
            nmf.SnmfConfig(mu=[1.0, 0.0])
        cfg = nmf.SnmfConfig(mu=np.full(2, 0.1), max_outer=5, seed=0)
        cfg.mu = np.zeros(2)
        with pytest.raises(ValueError, match="must be positive"):
            nmf.snmf(rng.random((5, 4)), 2, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weights_refused(self, rng, monkeypatch, bad):
        # A NaN weight used to run the whole factorization and fail in the
        # sparsity of U; an infinite one collapsed every column and returned
        # an infinite objective.  Both are refused before any run.
        with pytest.raises(ValueError, match="must be finite"):
            nmf.SnmfConfig(mu=[1.0, bad])
        cfg = nmf.SnmfConfig(mu=np.full(2, 0.1), max_outer=5, seed=0)
        cfg.mu = np.array([bad, 0.1])

        def no_run(*args, **kwargs):
            raise AssertionError("a HALS stack ran")

        monkeypatch.setattr(nmf, "_hals", no_run)
        with pytest.raises(ValueError, match="must be finite"):
            nmf.snmf(rng.random((5, 4)), 2, cfg)


class TestTuneMu:
    def test_target_zero_stays_at_baseline(self, rng):
        M = rng.random((15, 12)) @ rng.random((12, 15))
        base = nmf.snmf(M, 4, nmf.SnmfConfig(mu=np.full(4, 1e-6 * M.max()),
                                             max_outer=200, seed=0))
        cfg = nmf.tune_mu(M, 4, 0.0, seed=0, max_outer=200)
        assert abs(cfg.achieved_s_u - base.s_U) <= 0.02

    def test_high_target(self, rng):
        # Parts-structured 50x30 data: the sparsity response is continuous
        # up to very high levels (on unstructured noise it jumps once whole
        # columns collapse, and only the closest probe can be reported).
        W = np.zeros((50, 5))
        for j in range(5):
            W[j * 10:j * 10 + 13, j] = rng.random(min(13, 50 - j * 10)) + 0.2
        M = W @ np.hstack([np.eye(5), rng.random((5, 25))])
        cfg = nmf.tune_mu(M, 5, 0.95, seed=0, max_outer=150)
        assert abs(cfg.achieved_s_u - 0.95) <= 0.02

    def test_mid_target(self, rng):
        M = rng.random((20, 4)) @ rng.random((4, 20))
        cfg = nmf.tune_mu(M, 4, 0.6, seed=0, max_outer=200)
        assert abs(cfg.achieved_s_u - 0.6) <= 0.02

    def test_sparsity_monotone_in_mu(self, rng):
        M = rng.random((18, 4)) @ rng.random((4, 16))
        mus = [1e-4, 1e-2, 1.0, 100.0]
        s = [nmf.snmf(M, 4, nmf.SnmfConfig(mu=np.full(4, mu), max_outer=150,
                                           seed=3)).s_U
             for mu in mus]
        for a, b in zip(s, s[1:]):
            assert b >= a - 0.02

    def test_rejects_rank_zero(self, rng):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            nmf.tune_mu(rng.random((5, 4)), 0, 0.5, max_outer=10)

    def test_rejects_matrix_without_positive_entry(self):
        # The bracket [1e-6, 10 m] * max(M) would be [0, 0].
        with pytest.raises(ValueError, match="positive entry"):
            nmf.tune_mu(np.zeros((5, 4)), 2, 0.5, max_outer=10)


class TestRefitV:
    def test_square_identity(self, rng):
        M = rng.random((6, 6)) + np.eye(6)
        V = nmf.refit_v(M, M)
        np.testing.assert_allclose(V, np.eye(6), atol=1e-8)

    def test_separable_reconstruction(self, sepex):
        B, _ = preprocess_matrix(sepex)
        P = sepex - sepex @ B
        keep = np.linalg.norm(P, axis=0) > 1e-8 * sepex.max()
        U = P[:, keep]
        V = nmf.refit_v(sepex, U)
        err = np.linalg.norm(sepex - U @ V) / np.linalg.norm(sepex)
        assert err <= 1e-6

    def test_zero_column_zero_row(self, rng):
        U = rng.random((7, 3))
        U[:, 2] = 0.0
        V = nmf.refit_v(rng.random((7, 5)), U)
        np.testing.assert_allclose(V[2], 0.0, atol=1e-12)

    def test_satisfies_kkt(self, sepex, rng):
        for U in (rng.random((sepex.shape[0], 2)),
                  rng.random((sepex.shape[0], 4))):
            V = nmf.refit_v(sepex, U)
            assert nnls_kkt_check(U, sepex, V) is None

    def test_scale_of_u(self, rng):
        # Scaling U by 2^-30 scales the optimal V by 2^30; a solver with
        # an absolute tolerance returns V = 0 here.
        M = rng.random((9, 7))
        U = rng.random((9, 3))
        V = nmf.refit_v(M, U)
        V_small = nmf.refit_v(M, np.ldexp(U, -30))
        np.testing.assert_allclose(V_small, np.ldexp(V, 30),
                                   rtol=1e-12, atol=1e-12 * np.ldexp(V, 30).max())


class TestVFromQ:
    def test_zero_b_star(self, rng):
        Vp = rng.random((3, 5))
        out = nmf.v_from_q(Vp, np.zeros((5, 5)))
        np.testing.assert_allclose(out, Vp)

    def test_nested_squares_column_sums(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        inv_sums = np.linalg.inv(np.eye(4) - B).sum(axis=0)
        np.testing.assert_allclose(inv_sums, 4.0, atol=1e-9)
        Vp = np.eye(4)
        V = nmf.v_from_q(Vp, B, alpha=1.0)
        np.testing.assert_allclose(V.sum(axis=0), 4.0, atol=1e-9)

    def test_exact_nmf_maps_back(self, nested_squares):
        # An exact factorization of the critically preprocessed matrix
        # induces an exact nonnegative factorization of the original.
        B, _ = preprocess_matrix(nested_squares)
        P = apply_alpha(nested_squares, B, ALPHA_BAR)
        U2 = np.array([[1, A_CONST, 0], [0, 1 - A_CONST, 1],
                       [A_CONST, 1, 0], [1 - A_CONST, 0, 1]])
        Vp = nmf.refit_v(P, U2)
        assert np.linalg.norm(P - U2 @ Vp) <= 1e-8
        V = nmf.v_from_q(Vp, B, alpha=ALPHA_BAR)
        assert V.min() >= 0.0
        assert np.linalg.norm(nested_squares - U2 @ V) <= 1e-8

    def test_singular_q_raises(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(nmf.SingularQ):
            nmf.v_from_q(np.eye(2), B, alpha=1.0)

    def test_near_singular_warns(self):
        B = np.array([[0.0, 0.999], [0.999, 0.0]])
        with pytest.warns(RuntimeWarning):
            nmf.v_from_q(np.eye(2), B, alpha=1.0)


class TestPostprocess:
    def test_support_never_grows(self, rng):
        M = separable_instance(rng, 12, 10, 3)
        pair = nmf.ahals(M, 3, seed=0, max_outer=150)
        out = nmf.postprocess_fixed_support(M, pair.U, pair.V)
        zero_tol = 1e-8 * np.abs(pair.U).max()
        before = pair.U > zero_tol
        after = out.U > 1e-8 * max(np.abs(out.U).max(), 1e-300)
        assert not np.any(after & ~before)

    def test_error_nonincreasing(self, rng):
        M = rng.random((10, 9))
        pair = nmf.ahals(M, 3, seed=1, max_outer=50)
        out = nmf.postprocess_fixed_support(M, pair.U, pair.V)
        assert out.rel_error <= pair.rel_error + 1e-12
        # The starting objective leads the history of every outer iteration.
        assert len(out.objective_history) == out.iterations + 1 == 101
        assert np.all(np.diff(out.objective_history)
                      <= 1e-10 * out.objective_history[0])

    def test_all_zero_input_refused(self, rng):
        with pytest.raises(ValueError, match="all zero"):
            nmf.postprocess_fixed_support(np.zeros((4, 3)), rng.random((4, 2)),
                                          rng.random((2, 3)))

    def test_permuted_identity_unchanged(self):
        M = np.eye(3)
        U = np.eye(3)[:, [2, 0, 1]]
        V = np.eye(3)[[2, 0, 1], :] if False else np.linalg.inv(U)
        V = np.abs(V)
        out = nmf.postprocess_fixed_support(M, U, V)
        assert out.rel_error <= 1e-12
        np.testing.assert_allclose(out.U, U, atol=1e-12)


class TestRunPipeline:
    def test_plain_on_identity(self):
        rep = nmf.run_pipeline(np.eye(5), 5, "nmf", seeds=range(4),
                               max_outer=300)
        assert rep.rel_error_plain <= 1e-8
        assert rep.s_U == pytest.approx(0.8)

    def test_pre_nmf_on_separable(self, sepex):
        rep = nmf.run_pipeline(sepex, 3, "pre_nmf", seeds=range(4),
                               max_outer=400)
        assert rep.rel_error_plain <= 1e-6
        assert rep.rel_error_improved <= rep.rel_error_plain + 1e-9
        assert rep.rho_B_star == pytest.approx(0.745, abs=0.01)
        assert rep.rel_error_vq is not None

    def test_singular_q_leaves_vq_unset(self):
        # Columns 0 and 3 of [I | 2 e1] are multiples of each other: B* maps
        # each onto the other (weights 2 and 1/2), so rho(B*) = 1 and V
        # cannot be mapped back through Q^{-1}.  The report still stands.
        M = np.hstack([np.eye(3), 2.0 * np.eye(3)[:, :1]])
        rep = nmf.run_pipeline(M, 2, "pre_nmf", seeds=[0], max_outer=20)
        assert rep.rho_B_star == 1.0
        assert rep.rel_error_vq is None
        assert np.isfinite(rep.rel_error_plain)

    def test_snmf_matches_target(self, rng):
        M = separable_instance(rng, 16, 12, 3)
        pre = nmf.run_pipeline(M, 3, "pre_nmf", seeds=range(3), max_outer=300)
        rep = nmf.run_pipeline(M, 3, "snmf", seeds=range(3), max_outer=300,
                               snmf_target=pre.s_U)
        assert rep.mu is not None

    def test_support_law_on_exact_factorization(self, rng):
        # Wherever the data has a zero, some factor column must vanish in
        # that row for any exact factorization.
        M = separable_instance(rng, 10, 8, 3)
        M[M < np.quantile(M, 0.15)] = 0.0
        best = min((nmf.ahals(M, 3, seed=s, max_outer=1500)
                    for s in range(10)), key=lambda p: p.rel_error)
        if best.rel_error <= 1e-7:
            zero_tol = 1e-6 * np.abs(best.U).max()
            for i, j in zip(*np.where(M == 0.0)):
                assert best.U[i].min() <= zero_tol

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            nmf.run_pipeline(rng.random((4, 4)), 2, "other")

    @pytest.mark.parametrize("method", ["nmf", "pre_nmf", "snmf"])
    def test_all_zero_input_refused(self, method):
        # Every relative error would be 0 / 0.
        with pytest.raises(ValueError, match="all zero"):
            nmf.run_pipeline(np.zeros((6, 5)), 2, method, seeds=range(2),
                             max_outer=10, snmf_target=0.5)


def engine_inputs():
    """A random 12x10 matrix and an exact rank-4 12x10 product."""
    rng = np.random.default_rng(0)
    rand = rng.random((12, 10))
    low = rng.random((12, 4)) @ rng.random((4, 10))
    return rand, low


def pipeline_by_seed(M, r, method, seeds, max_outer, snmf_target=None,
                     epsilon=0.0):
    """run_pipeline's best seed and polish from one public ahals or snmf
    call per seed, with the sparse weight from the sequential oracle."""
    cfg = None
    if method == "nmf":
        runs = [nmf.ahals(M, r, seed=s, max_outer=max_outer) for s in seeds]
        best = min(runs, key=lambda p: p.rel_error)
    elif method == "pre_nmf":
        P = preprocess(M, epsilon=epsilon, rescale=True).P_alpha_M
        runs = [nmf.ahals(P, r, seed=s, max_outer=max_outer) for s in seeds]
        refits = [nmf.refit_v(M, p.U) for p in runs]
        errors = [np.linalg.norm(M - p.U @ V) / np.linalg.norm(M)
                  for p, V in zip(runs, refits)]
        k = int(np.argmin(errors))
        best = nmf.FactorPair(
            U=runs[k].U, V=refits[k], r=r, rel_error=float(errors[k]),
            s_U=runs[k].s_U, s_V=sparsity(refits[k], 1e-8),
            seed=runs[k].seed, iterations=runs[k].iterations)
    else:
        cfg, _ = tune_mu_oracle(M, r, snmf_target, seed=seeds[0],
                                max_outer=max_outer)
        runs = [nmf.snmf(M, r, nmf.SnmfConfig(mu=cfg.mu, max_outer=max_outer,
                                              seed=s))
                for s in seeds]
        best = min(runs, key=lambda p: p.objective_history[-1])
    improved = nmf.postprocess_fixed_support(M, best.U, best.V, seed=best.seed)
    return runs, best, improved, cfg


def assert_same_report(rep, best, improved):
    np.testing.assert_array_equal(rep.U, best.U)
    np.testing.assert_array_equal(rep.V, best.V)
    assert rep.best_seed == best.seed
    assert rep.rel_error_plain == best.rel_error
    assert rep.rel_error_improved == improved.rel_error
    assert rep.s_U == best.s_U
    assert rep.s_V == best.s_V


class TestStackedEngine:
    """Stacked seeds and probes give bit for bit the runs made one by one."""

    @pytest.mark.parametrize("case", ["outside", "window", "budget"])
    def test_tune_mu_matches_sequential_oracle(self, case):
        rand, low = engine_inputs()
        M, target = {"outside": (rand, 0.99), "window": (rand, 0.55),
                     "budget": (low, 0.7)}[case]
        want, probes = tune_mu_oracle(M, 3, target, seed=0, max_outer=30)
        got = nmf.tune_mu(M, 3, target, seed=0, max_outer=30)
        np.testing.assert_array_equal(got.mu, want.mu)
        assert got.achieved_s_u == want.achieved_s_u
        # Each case takes a different exit of the bisection: a target no
        # unit-max U can reach (s_U <= 11/12 here), the window, the budget.
        if case == "outside":
            assert probes == 2
        elif case == "window":
            assert 2 < probes < nmf.MU_PROBES
        else:
            assert probes == nmf.MU_PROBES

    @pytest.mark.parametrize("r, max_outer", [(2, 300), (3, 240)])
    def test_pipeline_nmf_matches_per_seed_runs(self, r, max_outer):
        M, _ = engine_inputs()
        seeds = range(5)
        runs, best, improved, _ = pipeline_by_seed(M, r, "nmf", seeds,
                                                   max_outer)
        # The seeds stall at different outer iterations (r = 3: some run
        # to the cap), so slices leave the stack at different times.
        its = [p.iterations for p in runs]
        assert len(set(its)) >= 3 and min(its) < max_outer
        rep = nmf.run_pipeline(M, r, "nmf", seeds=seeds, max_outer=max_outer)
        assert_same_report(rep, best, improved)

    def test_pipeline_pre_nmf_matches_per_seed_runs(self):
        # The seeds of a lone pre_nmf record factorize P(M), not M.
        M, _ = engine_inputs()
        _, best, improved, _ = pipeline_by_seed(M, 3, "pre_nmf", range(4),
                                                240, epsilon=0.05)
        rep = nmf.run_pipeline(M, 3, "pre_nmf", seeds=range(4), max_outer=240,
                               epsilon=0.05)
        assert_same_report(rep, best, improved)

    def test_pipeline_snmf_matches_per_seed_runs(self):
        M, _ = engine_inputs()
        seeds = range(4)
        runs, best, improved, cfg = pipeline_by_seed(M, 3, "snmf", seeds, 40,
                                                     snmf_target=0.6)
        # Some slices have columns collapse and get reseeded, one does not.
        collapses = [p.collapses for p in runs]
        assert min(collapses) == 0 and max(collapses) > 0
        rep = nmf.run_pipeline(M, 3, "snmf", seeds=seeds, max_outer=40,
                               snmf_target=0.6)
        assert_same_report(rep, best, improved)
        np.testing.assert_array_equal(rep.mu, cfg.mu)

    def test_stack_of_penalties_matches_single_runs(self):
        M, _ = engine_inputs()
        scale = M.max()
        mus = np.array([1e-6 * scale, 0.01, 0.1 * scale, scale,
                        10.0 * scale * M.shape[0]])
        stacked = nmf._runs([(M, 1, m) for m in mus], 3, 60, 1e-8)
        for pair, m in zip(stacked, mus):
            cfg = nmf.SnmfConfig(mu=np.full(3, m), max_outer=60, seed=1)
            single = nmf.snmf(M, 3, cfg)
            np.testing.assert_array_equal(pair.U, single.U)
            np.testing.assert_array_equal(pair.V, single.V)
            np.testing.assert_array_equal(pair.objective_history,
                                          single.objective_history)
            assert pair.collapses == single.collapses
        assert stacked[0].collapses == 0 and stacked[-1].collapses > 0

    def test_stack_of_matrices_matches_per_matrix_runs(self):
        # nmf's M and pre_nmf's P(M) in one ahals stack, as run_comparison
        # runs them: each slice stalls on its own and drops out with its
        # matrix.
        M, _ = engine_inputs()
        P = preprocess(M, epsilon=0.05, rescale=True).P_alpha_M
        seeds = (0, 1, 2, 3)
        stacked = nmf._runs([(X, s, 0.0) for X in (M, P) for s in seeds], 3,
                            240, 1e-8)
        singles = [nmf.ahals(X, 3, seed=s, max_outer=240)
                   for X in (M, P) for s in seeds]
        its = [p.iterations for p in singles]
        assert len(set(its)) == len(its) and max(its) == 240
        for pair, single in zip(stacked, singles):
            np.testing.assert_array_equal(pair.U, single.U)
            np.testing.assert_array_equal(pair.V, single.V)
            np.testing.assert_array_equal(pair.objective_history,
                                          single.objective_history)
            assert pair.iterations == single.iterations
            assert pair.rel_error == single.rel_error

    def test_mixed_stack_matches_single_runs(self):
        # run_comparison's first stack: plain runs on M and P(M) that stall
        # on their own, beside penalized probes that run to the cap (the
        # largest weights collapse columns) and are never renormalized.
        M, _ = engine_inputs()
        P = preprocess(M, epsilon=0.05, rescale=True).P_alpha_M
        scale = M.max()
        mus = [1e-6 * scale, 0.1 * scale, scale, 10.0 * scale * M.shape[0]]
        jobs = ([(X, s, 0.0) for X in (M, P) for s in range(3)]
                + [(M, 1, w) for w in mus])
        stacked = nmf._runs(jobs, 3, 240, 1e-8)
        singles = ([nmf.ahals(X, 3, seed=s, max_outer=240)
                    for X in (M, P) for s in range(3)]
                   + [nmf.snmf(M, 3, nmf.SnmfConfig(mu=np.full(3, w),
                                                    max_outer=240, seed=1))
                      for w in mus])
        assert min(p.iterations for p in singles[:6]) < 240
        assert [p.iterations for p in singles[6:]] == [240] * 4
        assert singles[6].collapses == 0 and singles[-1].collapses > 0
        for pair, single in zip(stacked, singles):
            np.testing.assert_array_equal(pair.U, single.U)
            np.testing.assert_array_equal(pair.V, single.V)
            np.testing.assert_array_equal(pair.objective_history,
                                          single.objective_history)
            assert pair.iterations == single.iterations
            assert pair.collapses == single.collapses

    def test_per_column_weights_match_single_runs(self):
        # One job weighs each column differently, beside a plain job and a
        # scalar-weight job, each on its own matrix: the stack is a copy of
        # three matrices with penalty rows 0, (w0, w1, w2) and (w, w, w).
        # The heaviest weight collapses its column, the others do not.
        M, low = engine_inputs()
        P = preprocess(M, epsilon=0.05, rescale=True).P_alpha_M
        scale = M.max()
        w = np.array([1e-3, 0.1, 3.0]) * scale
        stacked = nmf._runs([(P, 2, 0.0), (M, 1, w), (low, 0, 0.3 * scale)],
                            3, 150, 1e-8)
        singles = [nmf.ahals(P, 3, seed=2, max_outer=150),
                   nmf.snmf(M, 3, nmf.SnmfConfig(mu=w, max_outer=150,
                                                 seed=1)),
                   nmf.snmf(low, 3, nmf.SnmfConfig(mu=0.3 * scale,
                                                   max_outer=150, seed=0))]
        assert singles[0].iterations < 150
        assert singles[1].collapses > 0
        assert np.count_nonzero(singles[1].U[:, 2]) == 1
        for pair, single in zip(stacked, singles):
            np.testing.assert_array_equal(pair.U, single.U)
            np.testing.assert_array_equal(pair.V, single.V)
            np.testing.assert_array_equal(pair.objective_history,
                                          single.objective_history)
            assert pair.iterations == single.iterations
            assert pair.collapses == single.collapses

    def test_renormalize_matches_sequential_oracle(self):
        # Several columns of a slice collapse at once: every spike reads the
        # slice's one residual, the sequential rule the residual of the
        # columns before it.  A collapsed column adds nothing to either.
        rng = np.random.default_rng(5)
        M = rng.random((4, 9, 7))
        U = rng.random((4, 9, 4))
        V = rng.random((4, 4, 7))
        U[0][:, [1, 2]] = 0.0
        U[1][:, [0, 1, 3]] = 0.0
        V[1, 3] = 0.0  # a collapsed column whose V row carries no mass
        U[3] = 0.0
        U0, V0 = U.copy(), V.copy()
        want = renormalize_oracle(M, U0, V0)
        assert want == [2, 3, 0, 4]
        assert nmf._renormalize(M, U, V).tolist() == want
        np.testing.assert_array_equal(U, U0)
        np.testing.assert_array_equal(V, V0)
        # With no collapse, every column is scaled and nothing counted.
        U, V = rng.random((4, 9, 4)), rng.random((4, 4, 7))
        U0, V0 = U.copy(), V.copy()
        assert renormalize_oracle(M, U0, V0) == [0] * 4
        assert not np.any(nmf._renormalize(M, U, V))
        np.testing.assert_array_equal(U, U0)
        np.testing.assert_array_equal(V, V0)
        # A slice that is not penalized is left as it is, collapse or not.
        U, V = rng.random((2, 9, 4)), rng.random((2, 4, 7))
        U[:, :, 1] = 0.0
        U0, V0 = U.copy(), V.copy()
        pen = np.array([False, True])
        assert nmf._renormalize(M[:2], U, V, pen).tolist() == [0, 1]
        np.testing.assert_array_equal(U[0], U0[0])
        np.testing.assert_array_equal(V[0], V0[0])


class TestRunComparison:
    """One call for every record gives bit for bit the per-record runs."""

    RECORDS = [("nmf", 0.0), ("pre_nmf", 0.05), ("snmf", 0.05)]

    @pytest.fixture(scope="class")
    def reports(self):
        M, _ = engine_inputs()
        return M, nmf.run_comparison(M, 3, self.RECORDS, seeds=range(4),
                                     max_outer=40)

    def test_records_match_run_pipeline(self, reports):
        M, reps = reports
        pre = nmf.run_pipeline(M, 3, "pre_nmf", seeds=range(4), max_outer=40,
                               epsilon=0.05)
        for rep, (method, eps) in zip(reps, self.RECORDS):
            one = nmf.run_pipeline(M, 3, method, seeds=range(4),
                                   max_outer=40, epsilon=eps,
                                   snmf_target=pre.s_U)
            for name in ("method", "epsilon", "alpha", "rel_error_plain",
                         "rel_error_improved", "s_U", "s_V", "best_seed",
                         "rel_error_vq", "rho_B_star"):
                assert getattr(rep, name) == getattr(one, name), name
            np.testing.assert_array_equal(rep.U, one.U)
            np.testing.assert_array_equal(rep.V, one.V)
        assert reps[0].wall_time == reps[1].wall_time == reps[2].wall_time

    def test_nmf_and_snmf_match_per_seed_runs(self, reports):
        M, (rep_nmf, rep_pre, rep_snmf) = reports
        _, best, improved, _ = pipeline_by_seed(M, 3, "nmf", range(4), 40)
        assert_same_report(rep_nmf, best, improved)
        # The snmf record targets the pre_nmf record at its epsilon; its
        # seeds[0] run is tune_mu's winning probe.
        _, best, improved, cfg = pipeline_by_seed(
            M, 3, "snmf", range(4), 40, snmf_target=rep_pre.s_U)
        assert best.seed != 0  # a slice of the seeds[1:] stack wins
        assert_same_report(rep_snmf, best, improved)
        np.testing.assert_array_equal(rep_snmf.mu, cfg.mu)

    def test_polish_stack_matches_one_call_per_record(self, reports):
        M, reps = reports
        for rep in reps:
            one = nmf.postprocess_fixed_support(M, rep.U, rep.V,
                                                seed=rep.best_seed)
            assert rep.rel_error_improved == one.rel_error

    def test_snmf_needs_a_target(self):
        M, _ = engine_inputs()
        # A pre_nmf record listed later, or at another epsilon, is no target.
        for records in ([("snmf", 0.0), ("pre_nmf", 0.0)],
                        [("pre_nmf", 0.05), ("snmf", 0.0)]):
            with pytest.raises(ValueError, match="snmf needs a target"):
                nmf.run_comparison(M, 3, records, seeds=range(2),
                                   max_outer=5)

    @pytest.mark.parametrize("max_outer", [0, -1])
    def test_max_outer_below_one_refused(self, max_outer):
        # With no HALS iteration snmf has no objective to pick its best
        # seed by, and nmf and pre_nmf would report their random starts.
        M, _ = engine_inputs()
        for method in ("nmf", "pre_nmf", "snmf"):
            with pytest.raises(ValueError, match="max_outer must be at least"):
                nmf.run_comparison(M, 3, [(method, 0.0)], seeds=range(2),
                                   max_outer=max_outer, snmf_target=0.3)

    def test_records_sharing_a_target_share_one_mu_search(self, monkeypatch):
        # Two snmf records with one target: the result depends only on
        # (M, r, target, seeds, max_outer, zero_tol), so tune_mu and the
        # seed stack run once, and each record equals its lone run.
        M, _ = engine_inputs()
        targets = []
        tune_mu = nmf._tune_mu

        def spy(M, r, target_s_u, *args):
            targets.append(target_s_u)
            return tune_mu(M, r, target_s_u, *args)

        monkeypatch.setattr(nmf, "_tune_mu", spy)
        reps = nmf.run_comparison(M, 3, [("snmf", 0.0), ("snmf", 0.05)],
                                  seeds=range(3), max_outer=40,
                                  snmf_target=0.5)
        assert targets == [0.5]
        one = nmf.run_pipeline(M, 3, "snmf", seeds=range(3), max_outer=40,
                               snmf_target=0.5)
        for rep in reps:
            assert rep.mu.tobytes() == one.mu.tobytes()
            assert rep.U.tobytes() == one.U.tobytes()
            assert rep.V.tobytes() == one.V.tobytes()
            assert rep.rel_error_improved == one.rel_error_improved

    def test_targets_share_one_opening(self, monkeypatch):
        # Two snmf records with different targets: tune_mu's opening probes
        # read no target, so the first stack runs them once for both, and
        # each record still equals its lone run.
        M, _ = engine_inputs()
        stacks = []  # the l1 weights of the penalized slices of each stack
        hals = nmf._hals

        def spy(M, U, V, max_outer, mu=None, mask=None, stall=False):
            stacks.append([] if mu is None else mu[mu.any(axis=1), 0].tolist())
            return hals(M, U, V, max_outer, mu=mu, mask=mask, stall=stall)

        monkeypatch.setattr(nmf, "_hals", spy)
        records = [("pre_nmf", 0.0), ("snmf", 0.0), ("pre_nmf", 0.05),
                   ("snmf", 0.05)]
        reps = nmf.run_comparison(M, 3, records, seeds=range(3), max_outer=40)
        assert reps[0].s_U != reps[2].s_U
        opening = nmf._opening(M)[3]
        assert stacks[0] == opening
        assert not any(set(opening) <= set(mus) for mus in stacks[1:])
        # Both targets go on to their own probe stacks and seed stack.
        assert len(stacks) >= 5 and stacks[-1] == []
        for pre, rep in (reps[:2], reps[2:]):
            one = nmf.run_pipeline(M, 3, "snmf", seeds=range(3), max_outer=40,
                                   snmf_target=pre.s_U)
            assert rep.mu.tobytes() == one.mu.tobytes()
            assert rep.U.tobytes() == one.U.tobytes()
            assert rep.V.tobytes() == one.V.tobytes()
            assert rep.best_seed == one.best_seed
            assert rep.rel_error_improved == one.rel_error_improved

    def test_records_sharing_a_pair_share_one_polish(self, sepex,
                                                     monkeypatch):
        # Two snmf records with one target share their best pair, so the
        # polish stack holds it once and both records read its result.
        slices = []
        polish = nmf._polish

        def spy(M, Us, *args):
            slices.append(len(Us))
            return polish(M, Us, *args)

        monkeypatch.setattr(nmf, "_polish", spy)
        reps = nmf.run_comparison(sepex, 3, [("snmf", 0.0), ("snmf", 0.05)],
                                  snmf_target=0.5)
        assert slices == [1]
        assert reps[0].U.tobytes() == reps[1].U.tobytes()
        assert reps[0].rel_error_improved == reps[1].rel_error_improved
