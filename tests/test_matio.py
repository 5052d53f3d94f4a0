import numpy as np
import pytest

from prenmf import matio


@pytest.fixture
def sample(rng):
    M = rng.random((7, 5)) * 1e3
    M[2, 3] = 1e-13
    M[0, 0] = 0.0
    return M


class TestCsv:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "m.csv"
        matio.write_csv(path, sample)
        back = matio.read_csv(path)
        np.testing.assert_allclose(back, sample, rtol=1e-15, atol=0)

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        matio.write_csv(path, np.array([[1.5, 2.5, 3.5]]))
        back = matio.read_csv(path)
        assert back.shape == (1, 3)

    @pytest.mark.parametrize("M", [
        np.array([[0.1]]),
        np.random.default_rng(0).standard_normal((2, 9)) * 1e3,
        np.random.default_rng(1).random((9, 2)) / 7.0,
        np.array([[-0.0, 0.0], [1.0, -0.0]]),
        np.array([[5e-324, -2.2250738585072014e-308, 1.7976931348623157e308],
                  [1e-300, -1e300, 123456789.0]]),
    ], ids=["1x1", "wide", "tall", "negative-zero", "extreme-exponents"])
    def test_bytes_equal_savetxt(self, tmp_path, M):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        matio.write_csv(got, M)
        np.savetxt(ref, M, delimiter=",", fmt="%.17g")
        assert got.read_bytes() == ref.read_bytes()
        # The npp command's fk_samples.csv layout.
        matio.write_rows(got, M, "%.18e", header="t,f")
        np.savetxt(ref, M, delimiter=",", fmt="%.18e", header="t,f",
                   comments="")
        assert got.read_bytes() == ref.read_bytes()

    def test_string_parse(self):
        M = matio.loads_csv("1.5,2\n3,4.25\n")
        np.testing.assert_allclose(M, [[1.5, 2.0], [3.0, 4.25]])


class TestMatrixMarket:
    def test_array_round_trip(self, tmp_path, sample):
        path = tmp_path / "m.mtx"
        matio.write_matrix_market(path, sample)
        back = matio.read_matrix_market(path)
        np.testing.assert_allclose(back, sample, rtol=1e-15, atol=0)

    def test_coordinate_format_read(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n"
            "1 1 2.5\n"
            "2 3 -1.25\n"
            "3 2 7\n")
        back = matio.read_matrix_market(path)
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.5
        expected[1, 2] = -1.25
        expected[2, 1] = 7.0
        np.testing.assert_allclose(back, expected)


class TestDispatch:
    def test_formats(self, tmp_path, sample):
        for fmt, name in [("csv", "a.csv"), ("matrixmarket", "a.mtx")]:
            path = tmp_path / name
            matio.write_matrix(path, sample, fmt)
            back = matio.read_matrix(path, fmt)
            np.testing.assert_allclose(back, sample, rtol=1e-15, atol=0)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            matio.read_matrix("x.bin", "bin")
