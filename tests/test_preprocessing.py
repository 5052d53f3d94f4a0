from pathlib import Path

import numpy as np
import pytest

from prenmf import npp3, preprocessing
from prenmf.cllsolve import preprocess_matrix
from prenmf.preprocessing import (RankMismatch, apply_alpha, find_alpha_bar,
                                  preprocess, rescale_columns,
                                  spectral_radius)
from oracles import nnls_oracle, spectral_radius_oracle

from conftest import hexagon_slack, random_nonneg

A_CONST = np.sqrt(2.0) - 1.0
ALPHA_BAR = (4.0 * A_CONST - 1.0) / (3.0 * A_CONST)


def monomial(rng, n):
    P = np.zeros((n, n))
    P[rng.permutation(n), np.arange(n)] = rng.random(n) * 2.0 + 0.25
    return P


class TestApplyAlpha:
    def test_alpha_zero_is_identity(self, rng, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        np.testing.assert_array_equal(
            apply_alpha(nested_squares, B, 0.0), nested_squares)

    def test_nested_squares_closed_form(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        a = A_CONST
        expected = (1.0 / a) * np.array([
            [1 + a, 1 - a, 1 - a, 1 + a],
            [1 - a, 1 + a, 1 + a, 1 - a],
            [1 + a, 1 + a, 1 - a, 1 - a],
            [1 - a, 1 - a, 1 + a, 1 + a]])
        np.testing.assert_allclose(apply_alpha(nested_squares, B, ALPHA_BAR),
                                   expected, atol=1e-9)

    def test_full_alpha(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        expected = 2.0 * np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                                   [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        np.testing.assert_allclose(apply_alpha(nested_squares, B, 1.0),
                                   expected, atol=1e-9)

    def test_alpha_out_of_range(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        with pytest.raises(ValueError):
            apply_alpha(nested_squares, B, 1.5)


class TestSpectralRadius:
    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_nested_squares(self, nested_squares):
        B, _ = preprocess_matrix(nested_squares)
        assert spectral_radius(B) == pytest.approx(0.75, abs=1e-8)

    def test_exchange_block_failure_mode(self):
        # Duplicated columns admit B with an exchange block: the guarantee
        # rho < 1 breaks exactly there.
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(B) == pytest.approx(1.0, abs=1e-9)

    def test_against_dense_eigensolver(self, rng):
        for _ in range(20):
            B = rng.random((6, 6)) * rng.random()
            np.fill_diagonal(B, 0.0)
            assert spectral_radius(B) == pytest.approx(
                spectral_radius_oracle(B), rel=1e-7, abs=1e-9)

    def test_reducible_nilpotent(self):
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius(B) == pytest.approx(0.0, abs=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))


class TestRescaleColumns:
    def test_identity_when_equal(self, rng):
        M = random_nonneg(rng, 5, 4)
        out, diag = rescale_columns(M, M)
        np.testing.assert_allclose(diag, 1.0)
        np.testing.assert_allclose(out, M)

    def test_norms_restored(self, rng):
        M = random_nonneg(rng, 6, 5)
        P = M * rng.random(5)
        out, diag = rescale_columns(P, M)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0),
                                   np.linalg.norm(M, axis=0), rtol=1e-12)

    def test_known_ratio(self):
        M = np.array([[5.0], [3.0], [5.0], [3.0]])
        P = np.array([[2.0], [0.0], [2.0], [0.0]])
        _, diag = rescale_columns(P, M)
        assert diag[0] == pytest.approx(np.sqrt(68.0) / np.sqrt(8.0))

    def test_zero_columns_pass_through(self):
        M = np.array([[1.0, 2.0], [1.0, 2.0]])
        P = np.array([[1.0, 0.0], [1.0, 0.0]])
        out, diag = rescale_columns(P, M)
        assert diag[1] == 1.0
        np.testing.assert_allclose(out[:, 1], 0.0)


class TestFindAlphaBar:
    def test_identity_full_alpha(self):
        assert find_alpha_bar(np.eye(3)).alpha == 1.0

    def test_nested_squares(self, nested_squares):
        ab = find_alpha_bar(nested_squares).alpha
        assert ab == pytest.approx(ALPHA_BAR, abs=1e-12)

    def test_nested_squares_refined(self, nested_squares):
        # The root of the wrap slack pins alpha to the critical value, so
        # enumeration at the returned value sees the eight isolated
        # touching solutions rather than a continuum with interior slack.
        bar = find_alpha_bar(nested_squares)
        assert bar.alpha == pytest.approx(ALPHA_BAR, abs=1e-12)
        assert len(npp3.enumerate_solutions(bar.npp, 3)) == 8

    def test_generic_products_feasible_and_tight(self):
        # Generic rank-3 products: alpha_bar < 1 is admissible, and a
        # step of 1e-6 past it is not.
        tight = 0
        for s in range(6):
            rng = np.random.default_rng([s, 6])
            M = rng.random((6, 3)) @ rng.random((3, 8))
            B, _ = preprocess_matrix(M)
            bar = find_alpha_bar(M, B)
            if bar.alpha == 1.0:
                continue
            tight += 1
            at = npp3.build_npp(apply_alpha(M, B, bar.alpha))
            past = npp3.build_npp(apply_alpha(M, B, bar.alpha + 1e-6))
            assert npp3.feasible_k(at, 3)[0]
            assert not npp3.feasible_k(past, 3)[0]
            # The instance the search hands over is the fresh build's twin.
            assert (npp3.max_wrap_slack(bar.npp, 3)
                    == npp3.max_wrap_slack(at, 3))
        assert tight > 0

    def test_separable_full_alpha(self, sepex):
        assert find_alpha_bar(sepex).alpha == 1.0

    def test_rank_mismatch(self, rng):
        with pytest.raises(RankMismatch):
            find_alpha_bar(random_nonneg(rng, 5, 5))

    def test_nonnegative_rank_above_three(self):
        # Rank 3, but no triangle nests even at alpha = 0.  No column lies
        # in the cone of the others, so B* = 0 and every alpha gives M.
        M = hexagon_slack()
        assert npp3.numerical_rank(M) == 3
        B, _ = preprocess_matrix(M)
        assert not B.any()
        with pytest.raises(RankMismatch, match="no 3-vertex nested polygon "
                           "exists even at alpha = 0"):
            find_alpha_bar(M, B)

    @staticmethod
    def slack_of_alpha(monkeypatch, slack):
        """Make the wrap slack of the instance at alpha read slack(alpha)."""
        monkeypatch.setattr(preprocessing, "apply_alpha",
                            lambda M, B, alpha: alpha)
        monkeypatch.setattr(npp3, "build_npp", lambda alpha: alpha)
        monkeypatch.setattr(npp3, "max_wrap_slack",
                            lambda alpha, k: (slack(alpha),))

    @pytest.mark.parametrize("g0", [0.0, -npp3.GEOM_TOL])
    def test_touching_at_zero_returns_zero(self, monkeypatch, g0):
        # Infeasible at 1 and touching at 0: no strict sign change to
        # bracket, so alpha = 0 after the two end evaluations.
        self.slack_of_alpha(monkeypatch, lambda alpha: g0 - alpha)
        bar = find_alpha_bar(np.eye(3), np.zeros((3, 3)))
        assert (bar.alpha, bar.npp, bar.evaluations) == (0.0, 0.0, 2)

    def test_infeasible_root_raises(self, monkeypatch):
        # A jump from +1 to -1 just past 0.5: brentq's root lands on the
        # infeasible side, and the search refuses it.
        self.slack_of_alpha(monkeypatch,
                            lambda alpha: 1.0 if alpha <= 0.5 else -1.0)
        with pytest.raises(npp3.GeometryError, match="is not feasible"):
            find_alpha_bar(np.eye(3), np.zeros((3, 3)))


class TestPreprocessDriver:
    def test_record_consistency(self, nested_squares):
        res = preprocess(nested_squares, rescale=False)
        np.testing.assert_allclose(
            res.P_alpha_M,
            nested_squares - nested_squares @ res.B_star, atol=1e-12)
        assert res.rho == pytest.approx(0.75, abs=1e-8)
        assert res.column_kkt.max() <= 1e-8
        assert res.P_alpha_M.min() >= -1e-9 * nested_squares.max()

    def test_rescale_flag(self, sepex):
        res = preprocess(sepex, rescale=True)
        nz = np.linalg.norm(res.P_alpha_M, axis=0) > 1e-8
        np.testing.assert_allclose(
            np.linalg.norm(res.P_alpha_M[:, nz], axis=0),
            np.linalg.norm(sepex[:, nz], axis=0), rtol=1e-9)


class TestTheoryProperties:
    """Spot-check versions of the randomized law suite (the acceptance
    suite runs them at full instance counts)."""

    def test_permutation_scaling_equivariance(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 5, 4)
            P = monomial(rng, 4)
            lhs = preprocess(M @ P).P_alpha_M
            rhs = preprocess(M).P_alpha_M @ P
            np.testing.assert_allclose(lhs, rhs,
                                       atol=1e-8 * np.abs(rhs).max())

    def test_spectral_bound(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 6, 5)
            B, _ = preprocess_matrix(M)
            assert spectral_radius(B) < 1.0 - 1e-10

    def test_diagonal_dominance_on_stochastic(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 6, 5)
            M = M / M.sum(axis=0)
            B, _ = preprocess_matrix(M)
            assert B.sum(axis=0).max() <= 1.0 + 1e-9

    def test_hull_nesting(self, rng):
        from prenmf.matcore import pullback
        for _ in range(5):
            M = random_nonneg(rng, 5, 5)
            B, _ = preprocess_matrix(M)
            alphas = sorted(rng.random(2))
            inner = pullback(apply_alpha(M, B, alphas[0])).theta
            outer = pullback(apply_alpha(M, B, alphas[1])).theta
            for j in range(inner.shape[1]):
                assert npp3.hull_membership(inner[:, j], outer, tol=1e-7)

    def test_rank_preserved(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 6, 5)
            P = preprocess(M).P_alpha_M
            assert npp3.numerical_rank(P) == npp3.numerical_rank(M)

    def test_zero_column_law(self, rng):
        for _ in range(10):
            W = rng.random((6, 3)) + 0.05
            H = np.hstack([np.eye(3), rng.random((3, 2)) + 0.1])
            M = W @ H
            P = preprocess(M).P_alpha_M
            for i in range(M.shape[1]):
                others = np.delete(np.arange(M.shape[1]), i)
                _, resid = nnls_oracle(M[:, others], M[:, i])
                in_cone = resid <= 1e-8 * np.linalg.norm(M[:, i])
                is_zero = np.abs(P[:, i]).max() <= 1e-8 * M.max()
                assert in_cone == is_zero


def test_readme_quick_start(capsys):
    # README's library quick start runs as written, and prints what its
    # comments claim: rho 0.75, alpha_bar ~0.52860, 8 solutions.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Quick start (library)")[1]
    ns = {}
    exec(section.split("```python\n")[1].split("```")[0], ns)
    assert ns["res"].rho == pytest.approx(0.75, abs=1e-12)
    assert round(ns["bar"].alpha, 5) == 0.52860
    assert ns["bar"].alpha == pytest.approx(ALPHA_BAR, abs=1e-9)
    assert capsys.readouterr().out.split() == [repr(ns["res"].rho), "8"]
