import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prenmf import npp3
from prenmf.matcore import (AllColumnsZero, as_matrix, detect_duplicates,
                            numerical_rank, pullback, sparsity)

from oracles import detect_duplicates_oracle


class TestPullback:
    def test_identity_is_fixed_point(self):
        pb = pullback(np.eye(3), drop_tol=1e-12)
        np.testing.assert_allclose(pb.theta, np.eye(3))
        np.testing.assert_allclose(pb.d, np.ones(3))
        assert pb.kept == (0, 1, 2)

    def test_single_column_normalization(self):
        pb = pullback(np.array([[2.0], [2.0]]))
        np.testing.assert_allclose(pb.theta, [[0.5], [0.5]])
        np.testing.assert_allclose(pb.d, [0.25])

    def test_nested_squares_columns(self, nested_squares):
        # Every column of the 4x4 example sums to 16.
        pb = pullback(nested_squares)
        np.testing.assert_allclose(pb.theta.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(pb.d, 1.0 / 16.0)

    def test_zero_columns_dropped(self):
        X = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        pb = pullback(X)
        assert pb.kept == (0, 2)
        np.testing.assert_allclose(pb.theta.sum(axis=0), 1.0)

    def test_nonpositive_signed_sum_falls_back_to_l1_norm(self):
        # Column 1 sums to -2, so it is scaled by its l1 norm 4; its signed
        # sum would give d = -0.5 and flip its signs.
        pb = pullback(np.array([[1.0, -3.0], [1.0, 1.0]]))
        assert pb.theta.tolist() == [[0.5, -0.75], [0.5, 0.25]]
        assert pb.d.tolist() == [0.5, 0.25]

    def test_all_zero_raises(self):
        with pytest.raises(AllColumnsZero):
            pullback(np.zeros((3, 2)))

    def test_idempotent_on_own_output(self, rng):
        X = rng.random((6, 5))
        theta = pullback(X).theta
        again = pullback(theta).theta
        np.testing.assert_allclose(again, theta, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 3),
                  elements=st.floats(min_value=0.01, max_value=100.0)))
    def test_column_sums_one(self, X):
        pb = pullback(X)
        np.testing.assert_allclose(pb.theta.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(pb.d > 0)


class TestSparsity:
    def test_identity(self):
        assert sparsity(np.eye(3), zero_tol=0.0) == pytest.approx(2.0 / 3.0)

    def test_all_ones(self):
        assert sparsity(np.ones((4, 4))) == 0.0

    def test_negative_entries_count_as_zero(self):
        U = np.array([[1.0, -0.5], [2.0, 3.0]])
        assert sparsity(U) == pytest.approx(0.25)

    def test_nested_squares_preprocessed(self):
        # Computed by the column QP oracle: subtracting 3/8 of each of the
        # two adjacent columns leaves 2 * a 0/1 pattern with 8 zeros.
        P = 2.0 * np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                            [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        assert sparsity(P) == pytest.approx(0.5)

    def test_permutation_invariant(self, rng):
        U = rng.random((5, 6))
        U[U < 0.4] = 0.0
        perm = rng.permutation(6)
        assert sparsity(U[:, perm]) == sparsity(U)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            sparsity(np.eye(2), zero_tol=-1.0)


class TestDetectDuplicates:
    def test_exact_multiple(self):
        M = np.array([[1.0, 2.0], [1.0, 2.0]])
        pairs = detect_duplicates(M, tol=1e-8)
        assert len(pairs) == 1
        i, j, alpha = pairs[0]
        assert (i, j) == (1, 0)
        assert alpha == pytest.approx(2.0)

    def test_identity_clean(self):
        assert detect_duplicates(np.eye(3), tol=1e-8) == []

    def test_nested_squares_clean(self, nested_squares):
        assert detect_duplicates(nested_squares, tol=1e-8) == []

    def test_scaling_invariance(self, rng):
        M = rng.random((6, 5)) + 0.1
        M[:, 3] = 2.5 * M[:, 1]
        base = {(i, j) for i, j, _ in detect_duplicates(M, tol=1e-8)}
        scale = rng.random(5) * 3 + 0.5
        scaled = {(i, j) for i, j, _ in detect_duplicates(M * scale, tol=1e-8)}
        assert base == scaled == {(3, 1)}

    def test_zero_columns_skipped(self):
        M = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert detect_duplicates(M, tol=1e-8) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_gram_screen_matches_pair_loop_on_random(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((int(rng.integers(2, 30)), int(rng.integers(2, 40))))
        M[:, rng.integers(M.shape[1])] = 0.0
        for tol in (1e-8, 1e-6, 0.3, 1.0):
            assert detect_duplicates(M, tol) == detect_duplicates_oracle(M, tol)

    @pytest.mark.parametrize("m", [3, 30, 200])
    def test_gram_screen_matches_pair_loop_near_duplicates(self, m):
        # Multiples of earlier columns perturbed at relative sizes around
        # the tolerance, so the exact test both accepts and rejects pairs
        # whose cosines all round to within 1e-15 of one; negative
        # multiples and zero columns ride along.
        rng = np.random.default_rng(m)
        base = rng.random((m, 6)) - 0.2
        cols = [base[:, k] for k in range(6)]
        for k, rel in enumerate([0.0, 1e-12, 5e-9, 9.9e-9, 1.01e-8, 3e-8,
                                 1e-7, 1e-6]):
            src = base[:, k % 6]
            d = rng.standard_normal(m)
            d -= (d @ src) / (src @ src) * src  # orthogonal to its source
            d *= rel * np.linalg.norm(src) / np.linalg.norm(d)
            cols.append(rng.uniform(0.5, 3.0) * (src + d))
        cols += [-2.0 * base[:, 0], np.zeros(m), 1e-3 * base[:, 1]]
        M = np.column_stack(cols)
        perm = rng.permutation(M.shape[1])
        for X in (M, M[:, perm]):
            for tol in (1e-8, 1e-6):
                got = detect_duplicates(X, tol)
                assert got == detect_duplicates_oracle(X, tol)
        assert len(detect_duplicates(M, 1e-8)) >= 5


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 2)))

    def test_vector_becomes_column(self):
        assert as_matrix(np.array([1.0, 2.0])).shape == (2, 1)


class TestNumericalRank:
    def test_zero_matrix_has_rank_zero(self):
        assert numerical_rank(np.zeros((3, 2))) == 0

    def test_cut_is_relative_to_the_largest_singular_value(self):
        M = np.diag([1e6, 1.0, 1e-4])
        assert numerical_rank(M) == 2
        assert numerical_rank(np.ldexp(M, -40)) == 2

    def test_rank3_engine_reads_the_same_function(self):
        assert npp3.numerical_rank is numerical_rank
