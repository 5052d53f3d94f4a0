import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from prenmf import cllsolve
from prenmf.cli import main
from prenmf.cllsolve import (KKT_TOL, CllsProblem, Infeasible,
                             InfeasiblePoint, MaxIterations, kkt_check,
                             nnls_columns, preprocess_matrix, solve_column)
from prenmf.fixtures import fixture_names, get_fixture
from prenmf.preprocessing import preprocess
from oracles import (active_set_oracle, column_kernel_oracle,
                     grid_column_oracle, nnls_kkt_check, qp_column_check,
                     qp_column_oracle)

from conftest import (lifted, random_nonneg, separable_rank3, stress_products,
                      sweep_products, synthetic)


class TestSolveColumn:
    def test_identity_column(self):
        # Any positive b only raises the objective; the slack constraint
        # pins every coefficient at zero.
        sol = solve_column(CllsProblem(np.eye(3), 0))
        np.testing.assert_allclose(sol.b, 0.0)
        assert sol.objective == pytest.approx(1.0)
        assert sol.kkt_residual <= 1e-8

    def test_nested_squares_column(self, nested_squares):
        # Frozen value confirmed by both reference solvers below: the two
        # adjacent columns enter with weight 3/8 each.
        sol = solve_column(CllsProblem(nested_squares, 0))
        expected = np.array([0.0, 3.0 / 8.0, 0.0, 3.0 / 8.0])
        np.testing.assert_allclose(sol.b, expected, atol=1e-10)
        np.testing.assert_allclose(nested_squares @ sol.b, 3.0, atol=1e-9)
        assert sol.objective == pytest.approx(8.0, abs=1e-9)

        b_qp, f_qp = qp_column_oracle(nested_squares, 0)
        assert f_qp == pytest.approx(sol.objective, abs=1e-6)
        b_grid, f_grid = grid_column_oracle(nested_squares, 0,
                                            np.linspace(0, 1, 33))
        assert sol.objective <= f_grid + 1e-9

    def test_epsilon_relaxed_noisy(self, noisy):
        # With a 1% slack the small positive entry stops blocking the
        # subtraction: column 0 loses (essentially) all of column 1.
        sol = solve_column(CllsProblem(noisy, 0, epsilon=0.01))
        P0 = noisy[:, 0] - noisy @ sol.b
        np.testing.assert_allclose(P0, [-9.999e-3, 1.0, 9.999e-5],
                                   atol=5e-6)
        sol1 = solve_column(CllsProblem(noisy, 1, epsilon=0.01))
        P1 = noisy[:, 1] - noisy @ sol1.b
        np.testing.assert_allclose(P1, [0.01, -0.01, 0.99], atol=1e-9)

    def test_zero_target_column(self):
        M = np.array([[0.0, 1.0], [0.0, 2.0]])
        sol = solve_column(CllsProblem(M, 0))
        np.testing.assert_allclose(sol.b, 0.0)
        assert sol.objective == 0.0

    def test_b_i_stays_zero(self, rng):
        M = random_nonneg(rng, 6, 5)
        for i in range(5):
            sol = solve_column(CllsProblem(M, i))
            assert sol.b[i] == 0.0

    def test_epsilon_bounds_validated(self):
        with pytest.raises(ValueError):
            CllsProblem(np.eye(2), 0, epsilon=1.0)
        with pytest.raises(ValueError):
            CllsProblem(np.eye(2), 0, epsilon=-0.1)

    def test_infeasible_start_detected(self):
        M = np.array([[-1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(Infeasible):
            solve_column(CllsProblem(M, 0))
        # A lone column has nothing to subtract, but its start is checked
        # all the same.
        with pytest.raises(Infeasible):
            solve_column(CllsProblem(M[:, :1], 0))

    def test_iteration_cap(self, nested_squares):
        (res,) = cllsolve._active_set_ls(lifted(nested_squares),
                                         slice(0, 1), 0.0, max_iter=1)
        assert isinstance(res, MaxIterations)

    def test_matches_qp_oracle_on_random(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 5, 4)
            i = int(rng.integers(4))
            sol = solve_column(CllsProblem(M, i))
            _, f_oracle = qp_column_oracle(M, i)
            assert sol.objective <= f_oracle + 1e-6 * (1 + f_oracle)

    def test_qp_oracle_check_rejects_non_kkt_point(self, nested_squares):
        # The oracle accepts SLSQP's point by feasibility and stationarity,
        # so that check must be able to fail: b = 0 is feasible on
        # nested-squares but not a KKT point, the closed form is both.
        why = qp_column_check(nested_squares, 0, np.zeros(4))
        assert why is not None and why.startswith("not stationary")
        why = qp_column_check(nested_squares, 0, [0.0, 10.0, 0.0, 0.0])
        assert why is not None and why.startswith("infeasible")
        closed_form = np.array([0.0, 3.0 / 8.0, 0.0, 3.0 / 8.0])
        assert qp_column_check(nested_squares, 0, closed_form) is None


class TestKktCheck:
    def test_solver_output_certified(self, nested_squares):
        for i in range(4):
            p = CllsProblem(nested_squares, i)
            sol = solve_column(p)
            assert kkt_check(p, sol.b) <= 1e-8

    def test_origin_not_optimal_on_nested_squares(self, nested_squares):
        # The projected gradient at b = 0 is macroscopically nonzero.
        p = CllsProblem(nested_squares, 0)
        assert kkt_check(p, np.zeros(4)) > 0.1

    def test_closed_form_optimum_certified(self, nested_squares):
        p = CllsProblem(nested_squares, 0)
        b = np.array([0.0, 3.0 / 8.0, 0.0, 3.0 / 8.0])
        assert kkt_check(p, b) <= 1e-8

    def test_infeasible_point_rejected(self, nested_squares):
        p = CllsProblem(nested_squares, 0)
        with pytest.raises(InfeasiblePoint):
            kkt_check(p, np.array([0.0, 10.0, 0.0, 0.0]))
        with pytest.raises(InfeasiblePoint):
            kkt_check(p, np.array([0.5, 0.0, 0.0, 0.0]))


def certificate_spies(monkeypatch, column=None, edit=None):
    """Record each kernel call's columns and drop rule, and the ``_escape``
    pivots that stop a column.  With ``edit``, column ``column``'s kernel
    multipliers first pass through edit(M, x, mult) in every call."""
    calls, stops = [], []
    kernel, escape = cllsolve._active_set_ls, cllsolve._escape

    def kernel_spy(M, cols, epsilon, max_iter, tie_order=None, dantzig=None,
                   counts=None):
        ids = range(M.shape[1])[cols]
        calls.append((list(ids), dantzig))
        results = kernel(M, cols, epsilon, max_iter, tie_order, dantzig,
                         counts)
        if edit is not None:
            s = ids.index(column)
            x, active, it, mult = results[s]
            results[s] = (x, active, it, edit(M, x, mult.copy()))
        return results

    def escape_spy(*args):
        out = escape(*args)
        if out[2]:
            stops.append(args)
        return out

    monkeypatch.setattr(cllsolve, "_active_set_ls", kernel_spy)
    monkeypatch.setattr(cllsolve, "_escape", escape_spy)
    return calls, stops


def grad_scale(M, i):
    """The scale of column i's certificate threshold, KKT_TOL times it."""
    return max(1.0, float(np.abs(2.0 * (M.T @ M[:, i])).max()))


class TestCertificate:
    """Each column is certified by the multipliers its kernel run ends
    with, and a column they do not certify fails; the BVLS certificate
    ``kkt_check`` is the independent reference."""

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("name", fixture_names() + [
        "50x40", "noiseless-100x100"])
    def test_kernel_multipliers_certify_every_column(self, monkeypatch,
                                                     name, eps):
        # Escape stops included: at eps = 0 some of the noiseless columns
        # 50-59 stop at degenerate points proved by ``_escape``'s fit.
        cols = None
        if name == "50x40":
            M = synthetic(50, 40, 5)
        elif name == "noiseless-100x100":
            M, cols = synthetic(100, 100, 8, noise=0.0), range(50, 60)
        else:
            M = get_fixture(name)
        _, stops = certificate_spies(monkeypatch)
        if cols is None:
            _, sols = preprocess_matrix(M, eps)
            cols = range(M.shape[1])
        else:
            sols = [solve_column(CllsProblem(M, i, eps)) for i in cols]
        if name == "noiseless-100x100" and eps == 0.0:
            assert stops
        # At the scale the kernel runs M: lifted only when max|M| < 1.
        # ``kkt_check`` scores its BVLS multipliers with the residual the
        # kernel's pass, so the NNLS oracle, which shares no code with
        # either, must accept every column too.
        L = lifted(M) if np.abs(M).max() < 1.0 else M
        for i, sol in zip(cols, sols):
            assert (kkt_check(CllsProblem(L, i, eps), sol.b)
                    <= KKT_TOL * grad_scale(L, i)), i
            assert qp_column_check(L, i, sol.b, eps) is None, i

    @pytest.mark.parametrize("name,eps,cols", [
        ("noiseless-100x100", 0.0, [4, 7, 16]),
        ("sweep-2", 0.0, [19]),
        ("sweep-3", 0.05, [14]),
    ])
    def test_bvls_multipliers_certify_without_a_polish(self, name, eps,
                                                       cols):
        # Columns where a least-squares polish once lowered kkt_check's
        # residual after the BVLS fit.  Scoring the fitted row multipliers
        # by ``_residuals``, which takes the best bound multipliers for
        # them, must certify them without it.
        if name == "noiseless-100x100":
            M = synthetic(100, 100, 8, noise=0.0)
        else:
            k = int(name.split("-")[1])
            M = next(M for j, M in sweep_products() if j == k)
        L = lifted(M) if np.abs(M).max() < 1.0 else M
        for i in cols:
            b = solve_column(CllsProblem(M, i, eps)).b
            assert (kkt_check(CllsProblem(L, i, eps), b)
                    <= KKT_TOL * grad_scale(L, i)), i

    @pytest.mark.parametrize("kind", ["flip", "double", "slack"])
    def test_corrupted_multipliers_fail_the_certificate(self, monkeypatch,
                                                         kind):
        # Column 3 of 50x40 holds four slack rows; its largest row
        # multiplier with the sign flipped or doubled breaks stationarity.
        # Column 0 of noisy at eps = 0.05 leaves row 1 far from tight, and
        # that row is zero on the free variable: a multiplier there keeps
        # stationarity, and only complementarity can reject it.  Both
        # inputs have max|M| >= 1, so the kernel runs M as it is, and full
        # column rank, so Dantzig's rule runs.  Each corruption must fail
        # the certificate, in the batch and in the column's lowest-index
        # retry alone, and the error names the column.
        if kind == "slack":
            M, eps, i = get_fixture("noisy"), 0.05, 0
        else:
            M, eps, i = synthetic(50, 40, 5), 0.0, 3
        n = M.shape[1]

        def edit(M, x, mult):
            nu = mult[n:]
            j = int(np.argmax(nu))
            if kind == "flip":
                nu[j] = -nu[j]
            elif kind == "double":
                nu[j] *= 2.0
            else:
                gap = M[:, i] + eps * np.abs(M[:, i]).max() - M @ x
                (j,) = np.flatnonzero((M[:, x > 0] == 0).all(axis=1)
                                      & (gap > 1.0))
                nu[j] = 1.0
            return mult

        calls, _ = certificate_spies(monkeypatch, i, edit)
        with pytest.raises(cllsolve.SolverError) as info:
            preprocess_matrix(M, eps)
        assert type(info.value) is cllsolve.SolverError
        assert str(info.value).startswith(
            f"column {i}: optimality certificate failed: KKT residual ")
        assert calls == [(list(range(n)), True), ([i], False)]

    def test_failed_certificate_names_its_column(self, nested_squares,
                                                 monkeypatch, tmp_path,
                                                 capsys):
        # Column 2 of nested-squares ends with two tight slack rows.  With
        # their multipliers zeroed the batched certificate rejects the
        # column.  nested-squares has rank 3 < 4, so the lowest-index rule
        # runs and there is no retry: the column's SolverError carries its
        # index, and the CLI exits 2 with it.
        n = nested_squares.shape[1]

        def drop_rows(M, x, mult):
            assert np.count_nonzero(mult[n:]) == 2
            mult[n:] = 0.0
            return mult

        calls, _ = certificate_spies(monkeypatch, 2, drop_rows)
        with pytest.raises(cllsolve.SolverError) as info:
            preprocess_matrix(nested_squares)
        assert calls == [(list(range(n)), False)]
        assert type(info.value) is cllsolve.SolverError
        assert str(info.value).startswith(
            "column 2: optimality certificate failed: KKT residual ")
        code = main(["preprocess", "--fixture", "nested-squares",
                     "--out", str(tmp_path)])
        assert code == 2
        assert ("error: column 2: optimality certificate failed"
                in capsys.readouterr().err)


class TestPreprocessMatrix:
    def test_nested_squares_circulant(self, nested_squares):
        B, sols = preprocess_matrix(nested_squares)
        C = np.array([[0, 1, 0, 1], [1, 0, 1, 0],
                      [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
        np.testing.assert_allclose(B, 0.375 * C, atol=1e-9)
        assert all(s.kkt_residual <= 1e-8 for s in sols)

    def test_structure(self, rng):
        M = random_nonneg(rng, 6, 5)
        B, _ = preprocess_matrix(M)
        assert B.min() >= 0.0
        np.testing.assert_allclose(np.diag(B), 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("M,zero", [
        (np.array([[1.0], [2.0], [3.0]]), [0]),
        (np.array([[0.1], [0.2]]), [0]),    # max|M| < 1: the kernel runs 8M
        (np.insert(synthetic(10, 5, 3), 2, 0.0, axis=1), [2]),
        (np.zeros((3, 2)), [0, 1]),
    ], ids=["one-column", "one-column-lifted", "zero-column", "all-zero"])
    def test_columns_optimal_at_zero(self, M, zero, eps):
        # A lone column has nothing to subtract and a zero column has a zero
        # target.  Both take the kernel path like any other column and stop
        # at b = 0 with every bound in the working set, in one iteration:
        # the optimality check that every stop counts.
        n = M.shape[1]
        B, sols = preprocess_matrix(M, epsilon=eps)
        for i in zero:
            assert not B[:, i].any()
            assert sols[i].kkt_residual == 0.0
            assert sols[i].active_set == tuple(range(n))
            assert sols[i].iterations == 1
            assert sols[i].objective == pytest.approx(M[:, i] @ M[:, i])

    def test_identity_unchanged(self):
        B, _ = preprocess_matrix(np.eye(4))
        np.testing.assert_allclose(B, 0.0)

    def test_circulant_unchanged(self):
        # Each column already has a zero wherever the others are positive.
        M = np.ones((3, 3)) - np.eye(3)
        B, _ = preprocess_matrix(M)
        np.testing.assert_allclose(B, 0.0, atol=1e-12)
        np.testing.assert_allclose(M - M @ B, M, atol=1e-12)

    def test_feasibility_margin(self, rng):
        for _ in range(5):
            M = random_nonneg(rng, 7, 5)
            B, _ = preprocess_matrix(M)
            assert (M - M @ B).min() >= -1e-9 * M.max()

    def test_pivot_path_pinned(self):
        # Frozen pivot counts and active sets: the ratio test's tie-break
        # decides the path on degenerate inputs, and a path change shows
        # here even when B* stays optimal.
        _, sols = preprocess_matrix(pinned_separable())
        assert [s.iterations for s in sols] == [9, 9, 9] + [7] * 9
        assert sum(len(s.active_set) for s in sols) == 140
        # In column 8 of the same generator at seed 2, pivot 6 meets seven
        # rows that block within 4e-15 of each other, just below a full
        # step.  The sequential fold in index order must take row 8
        # (encoded 12 + 8), not the smallest ratio (row 11).
        _, sols = preprocess_matrix(pinned_separable(seed=2))
        assert [s.iterations for s in sols] == [9, 15, 17] + [7] * 9
        assert sols[8].active_set == (3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 20, 21)

        # The synthetic 50x40 input of the scale notes (r = 5, seed 0): full
        # column rank, so Dantzig's rule drops multipliers (the lowest-index
        # rule took 1,449 and 3,191 pivots), and at eps > 0 each column
        # starts with its bound-only optimum's support free (1,172 pivots
        # from the cold start).  The pivots take 47 and 12 lockstep
        # iterations.
        M = synthetic(50, 40, 5)
        for eps, pivots, lockstep in ((0.0, 632, 47), (0.05, 188, 12)):
            _, sols = preprocess_matrix(M, epsilon=eps)
            assert sum(s.iterations for s in sols) == pivots
            assert sols.counters["lockstep_iterations"] == lockstep


def pinned_separable(seed=0):
    """The separable 12x12 input of test_pivot_path_pinned."""
    rng = np.random.default_rng(seed)
    W = rng.random((12, 3))
    return W @ np.hstack([np.eye(3), rng.random((3, 9))])


def kernel(M, cols=slice(None), epsilon=0.0, tie_order=None):
    """The lockstep kernel's (x, active, pivots, multipliers) for the
    columns ``cols``."""
    return cllsolve._active_set_ls(M, cols, epsilon, 50 * M.shape[1],
                                   tie_order)


def assert_same_path(got, want):
    """Bit-equal x (signed zeros included), active set and pivot count, and
    bit-equal multipliers when both sides carry them (the serial oracle
    returns only the first three)."""
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:3] == want[1:3]
    if len(want) > 3:
        assert got[3].tobytes() == want[3].tobytes()


class TestLockstepKernel:
    """The lockstep kernel against the serial one-column-at-a-time kernel."""

    @pytest.mark.parametrize("M,eps,cols", [
        pytest.param(lifted(pinned_separable()), 0.0, slice(None),
                     id="pinned-12x12"),
        pytest.param(lifted(synthetic(50, 40, 5)), 0.0, slice(None),
                     id="50x40"),
        pytest.param(lifted(synthetic(50, 40, 5)), 0.05, slice(None),
                     id="50x40-eps"),
        # Degenerate points: working sets that are dependent or block a step
        # at zero length.  Columns 52, 53, 55 and 57-59 take escape pivots.
        pytest.param(lifted(synthetic(100, 100, 8, noise=0.0)), 0.0,
                     slice(50, 60), id="noiseless-100x100"),
        # Unlifted, as preprocess_matrix runs them (max|M| >= 1): the
        # working set grows dependent, and a pivot rule that trusted its
        # multipliers cycled until MaxIterations.  Each escapes once.
        pytest.param(synthetic(150, 120, 10, noise=0.0, seed=28), 0.0,
                     slice(45, 46), id="noiseless-150x120-seed28-col45"),
        pytest.param(synthetic(150, 120, 10, noise=0.0, seed=50), 0.0,
                     slice(75, 76), id="noiseless-150x120-seed50-col75"),
        # The benchmark's shapes: rank3-npp's largest separable input, at its
        # own scale on the lowest-index path, and the tall synthetic input.
        pytest.param(separable_rank3(np.random.default_rng(0), 14, 12), 0.0,
                     slice(None), id="separable-14x12"),
        pytest.param(lifted(synthetic(400, 60, 6)), 0.0, slice(None),
                     id="400x60"),
        pytest.param(lifted(synthetic(400, 60, 6)), 0.05, slice(None),
                     id="400x60-eps"),
    ] + [pytest.param(lifted(get_fixture(f)), 0.0, slice(None), id=f)
         for f in fixture_names()])
    def test_matches_serial_oracle(self, M, eps, cols):
        ids = range(M.shape[1])[cols]
        for i, got in zip(ids, kernel(M, cols, epsilon=eps)):
            assert_same_path(got, column_kernel_oracle(M, i, eps))

    def test_matches_serial_oracle_under_tie_order(self, rng):
        M = lifted(random_nonneg(rng, 7, 6))
        order = rng.permutation(6 + 7)
        for i, got in enumerate(kernel(M, tie_order=order)):
            assert_same_path(got, column_kernel_oracle(M, i, tie_order=order))

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_batch_invariance(self, width):
        # A column's path does not depend on which columns share its batch.
        M = lifted(synthetic(50, 40, 5))
        full = kernel(M, epsilon=0.05)
        for lo in range(0, 40, width):
            part = kernel(M, slice(lo, lo + width), epsilon=0.05)
            for got, want in zip(part, full[lo:lo + width]):
                assert_same_path(got, want)

    def test_pivot_cap_is_per_column(self):
        # A full step's optimality check runs in the step's own iteration
        # and counts as a pivot of its column alone, so a cap at a column's
        # pivot count c still finishes it, one below raises, and a shared
        # cap treats each column of a batch as its single-column run.
        M = lifted(synthetic(50, 40, 5))
        full = kernel(M, epsilon=0.05)
        caps = [res[2] for res in full]
        for i, (res, c) in enumerate(zip(full, caps)):
            (got,) = cllsolve._active_set_ls(M, slice(i, i + 1), 0.05, c)
            assert_same_path(got, res)
            (got,) = cllsolve._active_set_ls(M, slice(i, i + 1), 0.05, c - 1)
            assert isinstance(got, MaxIterations)
            assert str(got) == f"active-set method exceeded {c - 1} pivots"
        cap = int(np.median(caps))
        batch = cllsolve._active_set_ls(M, slice(None), 0.05, cap)
        for i, (got, res, c) in enumerate(zip(batch, full, caps)):
            (alone,) = cllsolve._active_set_ls(M, slice(i, i + 1), 0.05, cap)
            for out in (got, alone):
                if c <= cap:
                    assert_same_path(out, res)
                else:
                    assert isinstance(out, MaxIterations)

    def test_first_failing_column_is_reported(self, rng):
        # Columns 2 and 5 have negative entries, so their slack bounds
        # exclude x = 0; the error is column 2's, as in a serial loop.
        M = rng.random((6, 7)) + 0.1
        M[1, 2] = M[4, 5] = -0.5
        with pytest.raises(Infeasible) as info:
            preprocess_matrix(M)
        assert type(info.value) is Infeasible
        assert str(info.value) == ("column 2: slack bound has negative "
                                   "entries; x = 0 is not feasible")
        # The one-column view names its column the same way.
        with pytest.raises(Infeasible, match="^column 5: slack bound"):
            solve_column(CllsProblem(M, 5))

    def test_infeasible_point_names_its_column(self, nested_squares,
                                                monkeypatch, tmp_path, capsys):
        # InfeasiblePoint is a ValueError, not a SolverError; it keeps its
        # type and gains the index like every other column failure.
        feasibility = cllsolve._feasibility

        def flag_column_2(B, ids, MB, U, D):
            why, bound, tight = feasibility(B, ids, MB, U, D)
            why = ["slack constraint violated beyond tolerance" if i == 2
                   else w for w, i in zip(why, ids)]
            return why, bound, tight

        monkeypatch.setattr(cllsolve, "_feasibility", flag_column_2)
        with pytest.raises(InfeasiblePoint) as info:
            preprocess_matrix(nested_squares)
        assert type(info.value) is InfeasiblePoint
        assert str(info.value) == ("column 2: slack constraint violated "
                                   "beyond tolerance")
        code = main(["preprocess", "--fixture", "nested-squares",
                     "--out", str(tmp_path)])
        assert code == 2
        assert ("error: column 2: slack constraint violated"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("m,n,r,seed", [
        (m, n, r, seed) for m, n, r in [(100, 100, 8), (150, 120, 10)]
        for seed in (0, 1, 2)] + [(150, 120, 10, 25), (150, 120, 10, 28),
                                  (150, 120, 10, 50)])
    def test_noiseless_low_rank_preprocesses(self, m, n, r, seed):
        # Exact rank r: points with more tight constraints than free
        # variables abound, and a pivot rule that only prevents cycling
        # stopped 1-7 columns of each input short of the optimum.  At seeds
        # 25, 28 and 50 a working set grew dependent (column 21 of seed 25:
        # 6 rows on 5 free variables), its multipliers were noise, and the
        # column cycled until MaxIterations (seed 25 on one BLAS thread).
        M = synthetic(m, n, r, noise=0.0, seed=seed)
        B, _ = preprocess_matrix(M)
        for i in range(n):
            assert qp_column_check(M, i, B[:, i]) is None, f"column {i}"


def kernel_scale(M):
    """M at the scale ``preprocess_matrix`` runs its kernel on."""
    return lifted(M) if np.abs(M).max() < 1.0 else M


def rank_deficient_inputs():
    """Inputs whose B* is not unique: the pinned separable ones, two
    fixtures and the first 23 rank-deficient sweep products."""
    yield "pinned-0", pinned_separable()
    yield "pinned-2", pinned_separable(seed=2)
    yield "sepex", get_fixture("sepex")
    yield "nested-squares", get_fixture("nested-squares")
    for k, M in sweep_products():
        if k < 24 and np.linalg.matrix_rank(M) < M.shape[1]:
            yield f"sweep-{k}", M


class TestPivotRule:
    """Dantzig's drop rule where M has full column rank, the lowest-index
    rule elsewhere, and the lowest-index retry of a failed column."""

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_rank_deficient_inputs_keep_the_lowest_index_path(self, eps):
        # B* is not unique here, and the pivot rule picks the optimum.
        names = []
        for name, M in rank_deficient_inputs():
            B, sols = preprocess_matrix(M, eps)
            names.append(name)
            for i, sol in enumerate(sols):
                want = column_kernel_oracle(kernel_scale(M), i, eps,
                                            lowest_rank=True)
                assert_same_path((B[:, i], sol.active_set, sol.iterations),
                                 want)
        assert len(names) >= 24

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_full_rank_path_ends_at_the_same_optimum(self, eps):
        # The synthetic 50x40 input has full column rank: each column QP is
        # strictly convex, so the shorter path ends where the old one did.
        M = synthetic(50, 40, 5)
        B, sols = preprocess_matrix(M, eps)
        want = [column_kernel_oracle(M, i, eps, lowest_rank=True)
                for i in range(40)]
        B_old = np.column_stack([w[0] for w in want])
        assert [s.active_set for s in sols] == [w[1] for w in want]
        assert (sum(s.iterations for s in sols)
                < sum(w[2] for w in want) / 2)
        assert np.abs(B - B_old).max() <= 1e-12 * np.abs(B_old).max()
        assert (np.abs(M @ (B - B_old)).max()
                <= 1e-12 * np.abs(M @ B_old).max())

    def test_wide_input_takes_the_lowest_index_path(self):
        # m < n: rank below n, and Dantzig's rule would pivot differently.
        M = lifted(np.random.default_rng(0).random((6, 9)) + 0.05)
        got = kernel(M)
        for i, res in enumerate(got):
            assert_same_path(res, column_kernel_oracle(M, i, lowest_rank=True))
        dantzig = cllsolve._active_set_ls(M, slice(None), 0.0, 450,
                                          dantzig=True)
        assert [r[1:3] for r in dantzig] != [r[1:3] for r in got]

    def test_failed_column_is_solved_again_by_the_lowest_index_rule(self):
        # Stress input 1014 has full column rank.  Dantzig's path for its
        # column 6 meets a degenerate point where ``_escape`` returns an
        # infeasible point; the retry gives the lowest-index rule's result.
        M = next(M for k, M in stress_products() if k == 1014)
        L = kernel_scale(M)
        (x, *_), = cllsolve._active_set_ls(L, slice(6, 7), 0.0, 400)
        with pytest.raises(InfeasiblePoint):
            kkt_check(CllsProblem(L, 6), x)
        B, sols = preprocess_matrix(M)
        assert_same_path((B[:, 6], sols[6].active_set, sols[6].iterations),
                         column_kernel_oracle(L, 6, lowest_rank=True))
        alone = solve_column(CllsProblem(M, 6))
        assert_same_path((alone.b, alone.active_set, alone.iterations),
                         (B[:, 6], sols[6].active_set, sols[6].iterations))


def counted_preprocess(monkeypatch, M, eps):
    """preprocess(M, eps)'s counters, and the same counts taken by wrapping
    the kernel, ``_escape`` and scipy's nnls."""
    seen = {"calls": 0, "pivots": 0, "escapes": 0, "bound_only_starts": 0}
    kernel, escape, nnls = (cllsolve._active_set_ls, cllsolve._escape,
                            scipy.optimize.nnls)
    escaping = []

    def kernel_spy(*args):
        results = kernel(*args)
        seen["calls"] += 1
        seen["pivots"] += sum(r[2] for r in results
                              if not isinstance(r, Exception))
        return results

    def escape_spy(*args):
        seen["escapes"] += 1
        escaping.append(True)
        try:
            return escape(*args)
        finally:
            escaping.pop()

    def nnls_spy(*args, **kwargs):
        out = nnls(*args, **kwargs)     # its iteration cap: no start
        seen["bound_only_starts"] += not escaping
        return out

    monkeypatch.setattr(cllsolve, "_active_set_ls", kernel_spy)
    monkeypatch.setattr(cllsolve, "_escape", escape_spy)
    monkeypatch.setattr(scipy.optimize, "nnls", nnls_spy)
    counters = preprocess(M, eps).counters
    monkeypatch.undo()
    return counters, seen


class TestCounters:
    """The kernel's counters in ``PreprocessResult.counters``."""

    def test_counters_match_counts_taken_outside(self, monkeypatch):
        # Stress input 1014 retries a column and escapes; sparsity-example
        # at eps > 0 fits nnls both to start and to escape; 50x40 starts
        # every column.
        stress = next(M for k, M in stress_products() if k == 1014)
        totals = dict.fromkeys(["escapes", "lowest_index_retries",
                                "bound_only_starts"], 0)
        for M, eps in [(stress, 0.0), (get_fixture("sparsity-example"), 0.05),
                       (synthetic(50, 40, 5), 0.05)]:
            counters, seen = counted_preprocess(monkeypatch, M, eps)
            assert set(counters) == {"pivots", "lockstep_iterations",
                                     "escapes", "lowest_index_retries",
                                     "bound_only_starts"}
            for key in ("pivots", "escapes", "bound_only_starts"):
                assert counters[key] == seen[key], key
            assert counters["lowest_index_retries"] == seen["calls"] - 1
            for key in totals:
                totals[key] += counters[key]
        assert min(totals.values()) > 0

    def test_counters_are_read_only(self, nested_squares):
        res = preprocess(nested_squares)
        with pytest.raises(TypeError):
            res.counters["pivots"] = 0
        assert res.counters["pivots"] == 20


def tight_set(L, i, eps, x):
    """The constraints tight at column i's point x, by ``kkt_check``'s
    activity tolerances, in the kernel's index space."""
    d = L[:, i]
    Mx = L @ x
    _, bound, rows = cllsolve._feasibility(
        x[None], [i], Mx[None], (d + eps * np.abs(d).max())[None], d[None])
    return set(np.flatnonzero(np.concatenate([bound[0], rows[0]])).tolist())


def start_and_cold(M, eps):
    """The kernel's results on every column of M (at its kernel scale), with
    the bound-only start where it applies, and the serial oracle's from the
    cold start, every bound held."""
    L = kernel_scale(M)
    n = L.shape[1]
    cold = [active_set_oracle(L, i, L[:, i] + eps * np.abs(L[:, i]).max(),
                              50 * n) for i in range(n)]
    return L, [cllsolve._active_set_ls(L, slice(None), eps, 50 * n), cold]


class TestBoundOnlyStart:
    """The start at the bound-only optimum's support: taken only under
    Dantzig's rule at eps > 0, and ending where the cold start ends."""

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_start_ends_where_the_cold_start_ends(self, eps):
        # Full column rank: each column QP is strictly convex, so its optimum
        # is unique and the start changes the path, not the answer.  Stress
        # inputs 4 and 6 have degenerate optima, where the two paths can stop
        # with different working sets; those differ only in constraints tight
        # at both ends (ROADMAP item 17: a working set is reported).
        inputs = [("50x40", synthetic(50, 40, 5))] + [
            (f"stress-{k}", M) for k, M in stress_products()
            if k in (1, 3, 4, 6, 7)]
        assert len(inputs) == 6
        for name, M in inputs:
            L, (new, cold) = start_and_cold(M, eps)
            B_new = np.column_stack([r[0] for r in new])
            B_old = np.column_stack([r[0] for r in cold])
            if name == "50x40":
                assert [r[1] for r in new] == [r[1] for r in cold]
            for i, (a, b) in enumerate(zip(new, cold)):
                tight = [tight_set(L, i, eps, r[0]) for r in (a, b)]
                assert set(a[1]) ^ set(b[1]) <= tight[0] & tight[1], name
            assert sum(r[2] for r in new) < sum(r[2] for r in cold), name
            assert (np.abs(B_new - B_old).max()
                    <= 1e-12 * np.abs(B_old).max()), name
            assert (np.abs(L @ (B_new - B_old)).max()
                    <= 1e-12 * np.abs(L @ B_old).max()), name

    @pytest.mark.parametrize("name,M,eps", [
        ("50x40", synthetic(50, 40, 5), 0.0),
        ("sepex", get_fixture("sepex"), 0.05),
        ("nested-squares", get_fixture("nested-squares"), 0.05),
    ])
    def test_no_start_at_eps_zero_or_below_full_rank(self, name, M, eps):
        # At eps = 0 the bound-only optimum is almost never feasible; below
        # full column rank B* is not unique and the path picks the optimum.
        _, (new, cold) = start_and_cold(M, eps)
        for got, want in zip(new, cold):
            assert_same_path(got, want)

    def test_nnls_cap_takes_the_cold_start(self, monkeypatch):
        # scipy reports its iteration cap as a bare RuntimeError; the column
        # then starts cold instead of failing.
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        for got, cold in zip(*start_and_cold(synthetic(50, 40, 5), 0.05)[1]):
            assert_same_path(got, cold)


def escape_calls(monkeypatch, M, i):
    """Arguments and result of each ``_escape`` pivot of column i of M."""
    calls = []
    escape = cllsolve._escape

    def spy(C, d, u, x):
        out = escape(C, d, u, x)
        calls.append(((C, d, u, x.copy()), out))
        return out

    monkeypatch.setattr(cllsolve, "_escape", spy)
    kernel(M, slice(i, i + 1))
    monkeypatch.undo()
    return calls


class TestEscape:
    """The degenerate-point pivot.  Column 53 of noiseless 100x100 takes
    three: the first from a point that is not optimal, where a pivot rule
    that only prevented cycling used to stop, and the last one proves the
    optimum."""

    @pytest.fixture(scope="class")
    def M(self):
        return lifted(synthetic(100, 100, 8, noise=0.0))

    def test_non_optimal_point_strictly_descends(self, M, monkeypatch):
        (C, d, u, x), (x_new, work, stop, _) = escape_calls(monkeypatch, M, 53)[0]
        assert not stop
        assert qp_column_check(M, 53, np.insert(x, 53, 0.0)) is not None
        assert x_new.min() >= 0.0
        assert (C @ x_new - u).max() <= 1e-9 * np.abs(u).max()
        f = np.sum((C @ x - d) ** 2)
        assert np.sum((C @ x_new - d) ** 2) < f - 1e-6 * f
        # The new working set holds independent normals: bounds fix their
        # variables, and the rows have full rank on the free ones.
        rows = C[work[x.size:]][:, ~work[:x.size]]
        assert np.linalg.matrix_rank(rows) == rows.shape[0]

    def test_optimal_point_is_proved_in_place(self, M, monkeypatch):
        (C, d, u, x), (x_new, work, stop, _) = escape_calls(monkeypatch, M, 53)[-1]
        assert stop
        assert x_new.tobytes() == x.tobytes()
        assert qp_column_check(M, 53, np.insert(x, 53, 0.0)) is None
        # Degenerate: more constraints are tight than there are variables.
        assert np.count_nonzero(work) > x.size

    def test_interior_point_takes_the_line_minimum(self, monkeypatch):
        # Nothing is tight, so the direction is -g itself: scipy's nnls
        # aborts the process on a matrix with no columns and must not run.
        def no_columns(A, b):
            raise AssertionError("nnls called")

        monkeypatch.setattr(scipy.optimize, "nnls", no_columns)
        x, work, stop, _ = cllsolve._escape(np.ones((1, 1)), np.array([2.0]),
                                            np.array([10.0]), np.array([1.0]))
        assert not stop and not work.any()
        assert x.tolist() == [2.0]

    def test_nnls_cap_raises_max_iterations(self, M, monkeypatch):
        # scipy reports its iteration cap as a bare RuntimeError.
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        with pytest.raises(MaxIterations, match="degenerate-point"):
            solve_column(CllsProblem(M, 53))

    def test_escape_counts_as_one_pivot(self, noisy, monkeypatch):
        # Column 0 at eps = 0: pivot 1 frees b_1, whose step row 0 blocks at
        # zero length; pivot 2 is the escape, which proves b = 0 optimal.
        M = lifted(noisy)
        assert [out[2] for _, out in escape_calls(monkeypatch, M, 0)] == [True]
        (res,) = kernel(M, slice(0, 1))
        assert res[2] == 2
        (res,) = cllsolve._active_set_ls(M, slice(0, 1), 0.0, max_iter=1)
        assert isinstance(res, MaxIterations)


class TestScaleInvariance:
    @staticmethod
    def synthetic():
        # The 20x15 input of the scale notes (r = 4, seed 0), lifted by a
        # power of two to max in [1, 2): exact, so its B* is the reference.
        rng = np.random.default_rng(0)
        W = rng.random((20, 4)) * (rng.random((20, 4)) < 0.4)
        M = W @ rng.random((4, 15)) + 0.01 * rng.random((20, 15))
        return np.ldexp(M, -np.frexp(M.max())[1] + 1)

    @pytest.mark.parametrize("j", [10, 20, 30])
    def test_power_of_two_scaling_is_exact(self, j):
        # The kernel's tolerances are absolute: unlifted, a small input
        # stops every column at b = 0 and still passes the certificate.
        M = self.synthetic()
        B, sols = preprocess_matrix(M)
        B_small, sols_small = preprocess_matrix(np.ldexp(M, -j))
        np.testing.assert_array_equal(B_small, B)
        assert ([s.active_set for s in sols_small]
                == [s.active_set for s in sols])
        for s, t in zip(sols_small, sols):
            assert s.objective == np.ldexp(t.objective, -2 * j)
            assert s.kkt_residual == np.ldexp(t.kkt_residual, -2 * j)

    def test_small_decimal_scaling_keeps_active_sets(self):
        M = self.synthetic()
        B, sols = preprocess_matrix(M)
        B_small, sols_small = preprocess_matrix(1e-6 * M)
        assert ([s.active_set for s in sols_small]
                == [s.active_set for s in sols])
        np.testing.assert_allclose(B_small, B, atol=1e-9)


class TestInvariants:
    def test_fitted_vector_unique_on_noiseless_low_rank(self, rng):
        # Exact low rank: the pivot order decides which degenerate points
        # the path meets and escapes from, but not where it ends.
        M = synthetic(100, 100, 8, noise=0.0)
        cols = range(50, 60)
        base = [M @ solve_column(CllsProblem(M, i)).b for i in cols]
        for _ in range(3):
            order = rng.permutation(100 + 100)
            for i, want in zip(cols, base):
                got = M @ solve_column(CllsProblem(M, i), tie_order=order).b
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-8 * np.linalg.norm(M[:, i]))

    def test_b_star_same_on_one_and_two_blas_threads(self, tmp_path):
        # G = M^T M is formed without BLAS, and every product that decides a
        # pivot or certifies a column is one matrix-vector call per column,
        # so the BLAS thread count moves no pivot and no KKT residual: B*
        # bytes, active sets, pivots and residuals agree on the synthetic
        # 100x100 input, noisy and noiseless, and so do the files of
        # ``prenmf preprocess`` on the noisy one.
        script = "\n".join([
            "import hashlib, json",
            "import numpy as np",
            "from prenmf.cli import main",
            "from prenmf.cllsolve import preprocess_matrix",
            "from conftest import synthetic",
            "out = []",
            "for noise in (0.01, 0.0):",
            "    B, sols = preprocess_matrix(synthetic(100, 100, 8, noise=noise))",
            "    out.append([hashlib.sha256(B.tobytes()).hexdigest(),",
            "                [s.active_set for s in sols],",
            "                [s.iterations for s in sols],",
            "                [s.kkt_residual.hex() for s in sols]])",
            "np.savetxt('M.csv', synthetic(100, 100, 8), delimiter=',',",
            "           fmt='%.17g')",
            "assert main(['preprocess', '--input', 'M.csv', '--out', 'o']) == 0",
            "print(json.dumps(out))"])
        paths = [str(Path(cllsolve.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                paths + [p for p in [env.get("PYTHONPATH")] if p])
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = threads
            work = tmp_path / threads
            work.mkdir()
            run = subprocess.run([sys.executable, "-c", script], check=True,
                                 capture_output=True, text=True, env=env,
                                 cwd=work)
            outputs.append((json.loads(run.stdout.splitlines()[-1]), {
                f: (work / "o" / f).read_bytes()
                for f in ("preprocess.json", "B_star.csv")}))
        assert outputs[0] == outputs[1]

    def test_fitted_vector_unique_across_pivot_orders(self, rng):
        # Different tie-breaking orders may return different coefficient
        # vectors, but the fitted vector M b is the projection onto a
        # convex set and must agree.
        for _ in range(50):
            m, n = int(rng.integers(4, 8)), int(rng.integers(4, 7))
            M = random_nonneg(rng, m, n)
            i = int(rng.integers(n))
            p = CllsProblem(M, i)
            base = None
            for trial in range(3):
                order = rng.permutation(n + m)
                sol = solve_column(p, tie_order=order)
                fitted = M @ sol.b
                if base is None:
                    base = fitted
                else:
                    np.testing.assert_allclose(
                        fitted, base,
                        atol=1e-8 * np.linalg.norm(M[:, i]))

    def test_objective_monotone_in_epsilon(self, rng):
        for _ in range(10):
            M = random_nonneg(rng, 6, 5)
            i = int(rng.integers(5))
            objs = [solve_column(CllsProblem(M, i, epsilon=e)).objective
                    for e in (0.0, 0.05, 0.2)]
            assert objs[1] <= objs[0] + 1e-10
            assert objs[2] <= objs[1] + 1e-10

    def test_beats_grid_search(self, rng):
        # Coarse grid over 4x4 problems: the active-set optimum is at least
        # as good as any feasible grid point.
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(8):
            M = (rng.integers(1, 6, size=(4, 4))).astype(float)
            if np.linalg.matrix_rank(M) < 2:
                continue
            i = int(rng.integers(4))
            sol = solve_column(CllsProblem(M, i))
            _, f_grid = grid_column_oracle(M, i, grid)
            assert sol.objective <= f_grid + 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("name", fixture_names() + ["50x40",
                                                        "noiseless-100x100"])
    def test_active_set_is_tight(self, name, eps):
        # Every reported constraint is tight at b within kkt_check's
        # activity tolerances, at the scale the kernel runs at.  The
        # converse does not hold: a regular stop reports its working set,
        # which leaves out tight constraints on sepex and the noiseless
        # input at eps = 0.
        if name == "50x40":
            M = synthetic(50, 40, 5)
        elif name == "noiseless-100x100":
            M = synthetic(100, 100, 8, noise=0.0)
        else:
            M = get_fixture(name)
        _, sols = preprocess_matrix(M, eps)
        L = lifted(M)
        n = M.shape[1]
        for i, sol in enumerate(sols):
            p = CllsProblem(L, i, eps)
            b, d = sol.b, p.target
            bound = b <= 1e-10 * max(1.0, np.abs(b).max())
            row = p.slack_bound - L @ b <= 1e-8 * max(np.abs(d).max(), 1.0)
            tight = np.concatenate([bound, row])
            assert all(tight[a] for a in sol.active_set), (i, sol.active_set)


class TestNnlsColumns:
    def test_satisfies_kkt(self, rng):
        for _ in range(5):
            U = rng.random((8, 4))
            M = rng.random((8, 6)) - 0.3
            V = nnls_columns(U, M)
            assert nnls_kkt_check(U, M, V) is None
            # Some entries must be bound for complementarity to be tested.
            assert 0 < np.count_nonzero(V) < V.size

    def test_kkt_check_rejects_suboptimal(self, rng):
        U = rng.random((8, 4))
        M = rng.random((8, 6))
        V = nnls_columns(U, M)
        assert nnls_kkt_check(U, M, V + 0.01).startswith("complementarity")
        assert nnls_kkt_check(U, M, np.zeros_like(V)).startswith("descent")
        assert nnls_kkt_check(U, M, V - 1.0).startswith("negative")

    def test_iteration_cap_raises_max_iterations(self, rng, monkeypatch):
        # scipy reports its iteration cap as a bare RuntimeError; callers
        # catch the package's own exception.
        def capped(A, b, maxiter):
            assert maxiter == 50 * 4
            raise RuntimeError("Maximum number of iterations reached.")
        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        with pytest.raises(MaxIterations, match="column 0"):
            nnls_columns(rng.random((8, 4)), rng.random((8, 6)))

    def test_square_full_rank_recovers_identity(self, rng):
        M = random_nonneg(rng, 5, 5)
        V = nnls_columns(M, M)
        np.testing.assert_allclose(V, np.eye(5), atol=1e-8)

    def test_zero_column_gives_zero_row(self, rng):
        U = rng.random((6, 3))
        U[:, 1] = 0.0
        M = rng.random((6, 4))
        V = nnls_columns(U, M)
        np.testing.assert_allclose(V[1, :], 0.0, atol=1e-12)
