import numpy as np
import pytest

from prenmf import uniq


@pytest.fixture
def example_matrix():
    return np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0], [1, 1, 0]], dtype=float)


class TestVertexColumns:
    def test_example_all_certified(self, example_matrix):
        assert uniq.vertex_columns_by_sparsity(example_matrix, 3) == (0, 1, 2)

    def test_identity(self):
        assert uniq.vertex_columns_by_sparsity(np.eye(3), 3) == (0, 1, 2)

    def test_identical_zero_rows_rejected(self):
        # Rows 0 and 1 have the same support: the two facets coincide and
        # cannot pin a vertex.
        M = np.array([[0, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert 0 not in uniq.vertex_columns_by_sparsity(M, 3)

    def test_all_zero_rows_do_not_count(self):
        M = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 1], [1, 1, 0]], dtype=float)
        # Column 0 has zeros in rows 0 and 1, but row 1 is identically zero.
        cols = uniq.vertex_columns_by_sparsity(M, 3)
        assert 0 not in cols

    def test_monomial_block_construction(self, rng):
        # r-by-r scaled permutation stacked over arbitrary positive rows.
        for _ in range(10):
            r = int(rng.integers(2, 5))
            P = np.zeros((r, r))
            P[rng.permutation(r), np.arange(r)] = rng.random(r) + 0.5
            body = rng.random((int(rng.integers(1, 4)), r)) + 0.1
            M = np.vstack([P, body])
            assert uniq.is_unique_by_sparsity(M, r)


    @pytest.mark.parametrize("r", [0, -2])
    @pytest.mark.parametrize("check", [uniq.vertex_columns_by_sparsity,
                                       uniq.is_unique_by_sparsity,
                                       uniq.uniqueness_report])
    def test_rank_below_one_refused(self, example_matrix, check, r):
        # r - 1 < 0 zeros would certify every column as a vertex.
        with pytest.raises(ValueError, match="rank must be at least 1"):
            check(example_matrix, r)


class TestIsUnique:
    def test_example_certified(self, example_matrix):
        assert uniq.is_unique_by_sparsity(example_matrix, 3)

    def test_circulant_not_certified(self):
        # One zero per column is short of the two the certificate needs.
        M = np.ones((3, 3)) - np.eye(3)
        assert not uniq.is_unique_by_sparsity(M, 3)

    def test_positive_matrix_not_certified(self, rng):
        assert not uniq.is_unique_by_sparsity(rng.random((5, 5)) + 0.1, 5)

    def test_proportional_columns_not_double_counted(self):
        M = np.array([[1, 2, 0], [0, 0, 1], [0, 0, 1]], dtype=float)
        # Columns 0 and 1 are proportional: only one direction counts.
        assert not uniq.is_unique_by_sparsity(M, 3)

    def test_permutation_invariance(self, rng, example_matrix):
        M = example_matrix
        for _ in range(5):
            rp = rng.permutation(M.shape[0])
            cp = rng.permutation(M.shape[1])
            assert uniq.is_unique_by_sparsity(M[rp][:, cp], 3)


class TestSupportContainment:
    def test_identity_no_pairs(self):
        assert uniq.support_containment(np.eye(3)) == []

    def test_known_pair(self):
        U = np.array([[1.0, 2.0], [1.0, 3.0], [0.0, 1.0]])
        pairs = uniq.support_containment(U)
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.k, p.l, p.p_bar) == (0, 1, 0)
        assert p.epsilon == pytest.approx(2.0)
        UD = U @ p.matrix(2)
        np.testing.assert_allclose(UD[:, 1], [0.0, 1.0, 1.0])

    def test_full_support_column_dominates(self, rng):
        U = rng.random((5, 3)) + 0.1   # column 0 all positive
        U[2:, 1] = 0.0
        pairs = uniq.support_containment(U)
        assert any(p.k == 1 and p.l == 0 for p in pairs)

    def test_witness_validity_random(self, rng):
        # Every reported witness keeps U D nonnegative and creates the
        # promised zero at a previously positive entry.
        for _ in range(25):
            U = rng.random((6, 4))
            U[U < 0.35] = 0.0
            zero_tol = 1e-8 * max(U.max(), 1e-300)
            for p in uniq.support_containment(U):
                UD = U @ p.matrix(4)
                assert UD.min() >= -zero_tol
                assert U[p.p_bar, p.l] > zero_tol
                assert abs(UD[p.p_bar, p.l]) <= zero_tol * 10


class TestReport:
    def test_bundle(self, example_matrix):
        rep = uniq.uniqueness_report(example_matrix, 3)
        assert rep.unique
        assert rep.vertex_columns == (0, 1, 2)
        assert rep.containment_pairs == ()
        assert rep.epsilon_witness is None

    def test_witness_attached(self):
        U = np.array([[1.0, 2.0], [1.0, 3.0], [0.0, 1.0]])
        rep = uniq.uniqueness_report(U, 2)
        assert rep.epsilon_witness is not None
        eps, D = rep.epsilon_witness
        assert eps == pytest.approx(2.0)
        assert (U @ D).min() >= -1e-12
