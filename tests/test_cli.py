import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prenmf
from prenmf import cli, cllsolve, matio, nmf, uniq
from prenmf.cli import build_parser, main
from prenmf.fixtures import get_fixture

from conftest import hexagon_slack, parts_50x40, separable_rank3


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


class TestPreprocessCommand:
    def test_sepex_matches_published_values(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["preprocess", "--fixture", "sepex", "--out", str(out)])
        P = matio.read_csv(out / "P_eps_M.csv")
        expected_cols = np.array([
            [3.6, 3.85, 3.93, 4.29, 7.61, 0.0, 3.32, 0.48, 5.93, 5.66],
            [6.27, 2.54, 1.62, 0.0, 1.48, 6.49, 1.48, 0.0, 0.72, 3.44],
            [0.8, 2.4, 2.67, 0.67, 0.67, 1.78, 0.0, 4.2, 0.93, 0.62],
        ]).T
        np.testing.assert_allclose(P[:, :3], expected_cols, atol=0.01)
        np.testing.assert_allclose(P[:, 3:], 0.0, atol=1e-8)

    def test_nested_squares_numbers(self, tmp_path):
        rep = run_cli(["preprocess", "--fixture", "nested-squares",
                       "--out", str(tmp_path / "o")])
        assert rep["rho_B_star"] == pytest.approx(0.75, abs=1e-8)
        assert rep["sparsity"]["preprocessed"] == pytest.approx(0.5)

    def test_noisy_identity_at_zero_eps(self, tmp_path, noisy):
        out = tmp_path / "o"
        run_cli(["preprocess", "--fixture", "noisy", "--out", str(out)])
        P = matio.read_csv(out / "P_eps_M.csv")
        np.testing.assert_allclose(P, noisy, atol=1e-12)

    def test_noisy_relaxed(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["preprocess", "--fixture", "noisy", "--epsilon", "0.01",
                 "--out", str(out)])
        P = matio.read_csv(out / "P_eps_M.csv")
        expected = np.array([[-0.01, 0.01], [1.0, -0.01], [1e-4, 0.99]])
        np.testing.assert_allclose(P, expected, atol=5e-3)

    def test_duplicate_columns_refused(self, tmp_path):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        src = tmp_path / "dup.csv"
        matio.write_csv(src, M)
        code = main(["preprocess", "--input", str(src),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        rep = run_cli(["preprocess", "--input", str(src), "--allow-duplicates",
                       "--out", str(tmp_path / "o2")])
        assert rep["duplicates"]


class TestFactorizeCommand:
    def test_identity_plain(self, tmp_path):
        src = tmp_path / "eye.csv"
        matio.write_csv(src, np.eye(5))
        rep = run_cli(["factorize", "--input", str(src), "--rank", "5",
                       "--method", "nmf", "--seeds", "0-3",
                       "--max-outer", "300", "--out", str(tmp_path / "o")])
        rec = rep["records"][0]
        assert rec["rel_error_plain"] <= 1e-8
        assert rec["s_U"] == pytest.approx(0.8)

    def test_pre_nmf_on_sepex(self, tmp_path):
        rep = run_cli(["factorize", "--fixture", "sepex", "--rank", "3",
                       "--method", "pre-nmf", "--seeds", "0-3",
                       "--max-outer", "400", "--out", str(tmp_path / "o")])
        rec = rep["records"][0]
        assert rec["rel_error_plain"] <= 1e-6
        # The recovered basis inherits the zeros of the three nonzero
        # preprocessed columns (4 of 30 entries).
        assert rec["s_U"] >= 0.13

    def test_singular_q_writes_null_vq(self, tmp_path):
        # rho(B*) = 1 on [I | 2 e1] (see test_nmf): no V through Q^{-1}.
        src = tmp_path / "dup.csv"
        matio.write_csv(src, np.hstack([np.eye(3), 2.0 * np.eye(3)[:, :1]]))
        out = tmp_path / "o"
        code = main(["factorize", "--input", str(src), "--method", "pre-nmf",
                     "--rank", "2", "--allow-duplicates", "--seeds", "0",
                     "--max-outer", "20", "--out", str(out)])
        assert code == 0
        rec = json.loads((out / "report.json").read_text())["records"][0]
        assert rec["rho_B_star"] == 1.0
        assert rec["rel_error_vq"] is None

    def test_report_integrity(self, tmp_path):
        out = tmp_path / "o"
        rep = run_cli(["factorize", "--fixture", "sepex", "--rank", "3",
                       "--method", "nmf,pre-nmf,snmf", "--seeds", "0-2",
                       "--max-outer", "200", "--out", str(out)])
        from prenmf.fixtures import get_fixture
        source = get_fixture("sepex")
        for rec in rep["records"]:
            U = matio.read_csv(out / rec["factors"]["U"])
            V = matio.read_csv(out / rec["factors"]["V"])
            err = np.linalg.norm(source - U @ V) / np.linalg.norm(source)
            assert err == pytest.approx(rec["rel_error_plain"], abs=1e-12)

    def test_determinism(self, tmp_path):
        reps = []
        for sub in ("a", "b"):
            rep = run_cli(["factorize", "--fixture", "nested-squares",
                           "--rank", "3", "--method", "nmf", "--seeds", "0-2",
                           "--max-outer", "150", "--out",
                           str(tmp_path / sub)])
            for rec in rep["records"]:
                rec.pop("wall_time")
            reps.append(json.dumps(rep["records"], sort_keys=True))
        assert reps[0] == reps[1]

    def test_main_twice_in_one_process(self, tmp_path, capsys):
        # main parses with one parser per process; a call in between with
        # other options must leave nothing behind for the next.
        argv = ["factorize", "--fixture", "sepex", "--rank", "3",
                "--method", "nmf,pre-nmf,snmf", "--seeds", "0-1",
                "--max-outer", "60"]
        reports = []
        for sub in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
            assert main(["factorize", "--fixture", "noisy", "--rank", "1",
                         "--method", "nmf", "--epsilon", "0.05",
                         "--out", str(tmp_path / "other")]) == 0
            rep = json.loads((tmp_path / sub / "report.json").read_text())
            for rec in rep["records"]:
                rec.pop("wall_time")
            reports.append(rep)
        assert reports[0] == reports[1]
        assert [rec["method"] for rec in reports[0]["records"]] == [
            "nmf", "pre-nmf", "snmf"]

    @staticmethod
    def factorize_on_one_and_two_blas_threads(tmp_path, argv):
        """The report records (``wall_time`` left out) and the CSV bytes of
        ``prenmf factorize argv`` run in a subprocess with BLAS on one
        thread and on two."""
        parent = str(Path(prenmf.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (parent, env.get("PYTHONPATH")) if p)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = threads
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "prenmf", "factorize", *argv,
                 "--out", str(out)],
                check=True, capture_output=True, env=env)
            rep = json.loads((out / "report.json").read_text())
            for rec in rep["records"]:
                rec.pop("wall_time")
            outputs.append((rep["records"], {
                f.name: f.read_bytes() for f in out.glob("*.csv")}))
        return outputs

    def test_reports_same_on_one_and_two_blas_threads(self, tmp_path):
        one, two = self.factorize_on_one_and_two_blas_threads(tmp_path, [
            "--fixture", "sepex", "--rank", "3", "--method",
            "nmf,pre-nmf,snmf", "--epsilon", "0,0.05", "--seeds", "0-2",
            "--max-outer", "100"])
        assert one == two

    def test_reports_same_on_one_and_two_blas_threads_at_criterion_10(
            self, tmp_path):
        # The 50x40 rank-5 input of the acceptance benchmark, every method.
        src = tmp_path / "parts.csv"
        matio.write_csv(src, parts_50x40())
        one, two = self.factorize_on_one_and_two_blas_threads(tmp_path, [
            "--input", str(src), "--rank", "5", "--method",
            "nmf,pre-nmf,snmf", "--seeds", "0-2", "--max-outer", "200"])
        assert [rec["method"] for rec in one[0]] == ["nmf", "pre-nmf", "snmf"]
        assert one == two

    @pytest.fixture
    def mu_targets(self, monkeypatch):
        """The target sparsity of every tune_mu run, in call order."""
        targets = []
        tune_mu = nmf._tune_mu

        def spy(M, r, target_s_u, *args):
            targets.append(target_s_u)
            return tune_mu(M, r, target_s_u, *args)

        monkeypatch.setattr(nmf, "_tune_mu", spy)
        return targets

    def test_snmf_targets_pre_nmf_at_same_epsilon(self, tmp_path, mu_targets):
        rep = run_cli(["factorize", "--fixture", "sepex", "--rank", "3",
                       "--method", "pre-nmf,snmf", "--epsilon", "0,0.05",
                       "--seeds", "0-1", "--max-outer", "200",
                       "--out", str(tmp_path / "o")])
        pre_s_u = {rec["epsilon"]: rec["s_U"] for rec in rep["records"]
                   if rec["method"] == "pre-nmf"}
        assert pre_s_u[0.0] != pre_s_u[0.05]
        assert mu_targets == [pre_s_u[0.0], pre_s_u[0.05]]

    def test_pre_nmf_listed_after_snmf_is_not_its_target(
            self, tmp_path, capsys, mu_targets):
        argv = ["factorize", "--fixture", "sepex", "--rank", "3",
                "--method", "snmf,pre-nmf", "--epsilon", "0,0.05",
                "--seeds", "0-1", "--max-outer", "200"]
        # Both snmf records target 0.3, so they share one mu search.
        run_cli(argv + ["--snmf-target", "0.3", "--out", str(tmp_path / "a")])
        assert mu_targets == [0.3]
        out = tmp_path / "b"
        assert main(argv + ["--out", str(out)]) == 2
        assert "snmf needs a target sparsity" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("method", ["nmf", "pre-nmf", "snmf"])
    def test_rank_zero_exits_2(self, tmp_path, capsys, method):
        code = main(["factorize", "--fixture", "sepex", "--rank", "0",
                     "--method", method, "--snmf-target", "0.5",
                     "--seeds", "0-1", "--max-outer", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: rank must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["nmf,foo", "pre_nmf"])
    def test_unknown_method_exits_2(self, tmp_path, capsys, method):
        # The library's "pre_nmf" is no CLI name: it would skip the
        # duplicate-column check that pre-nmf runs.
        out = tmp_path / "o"
        code = main(["factorize", "--fixture", "sepex", "--rank", "3",
                     "--method", method, "--out", str(out)])
        assert code == 2
        assert "error: unknown method" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("method", ["nmf", "pre-nmf", "snmf"])
    def test_all_zero_input_exits_2(self, tmp_path, capsys, method):
        src = tmp_path / "zero.csv"
        matio.write_csv(src, np.zeros((6, 5)))
        out = tmp_path / "o"
        code = main(["factorize", "--input", str(src), "--rank", "2",
                     "--method", method, "--snmf-target", "0.5",
                     "--seeds", "0-1", "--max-outer", "10",
                     "--out", str(out)])
        assert code == 2
        assert "all zero" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("method", ["nmf", "pre-nmf", "snmf"])
    def test_max_outer_zero_exits_2(self, tmp_path, capsys, method):
        out = tmp_path / "o"
        code = main(["factorize", "--fixture", "nested-squares", "--rank",
                     "2", "--method", method, "--snmf-target", "0.3",
                     "--seeds", "0-1", "--max-outer", "0", "--out", str(out)])
        assert code == 2
        assert ("error: max_outer must be at least 1"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_reports_refuse_nan(self, tmp_path):
        # NaN is not JSON: no report may carry one.
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            cli._write_json(path, {"rel_error_plain": float("nan")})
        assert not path.exists()

    def test_pgm_dump(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["factorize", "--fixture", "sepex", "--rank", "3",
                 "--method", "nmf", "--seeds", "0", "--max-outer", "50",
                 "--pgm-shape", "5", "2", "--out", str(out)])
        pgms = list(out.glob("*.pgm"))
        assert len(pgms) == 3
        head = pgms[0].read_bytes()[:20]
        assert head.startswith(b"P5\n2 5\n255\n")

    def test_pgm_of_an_all_zero_column(self, tmp_path):
        path = tmp_path / "zero.pgm"
        cli.write_pgm(path, np.zeros(6), (2, 3))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)


@pytest.mark.parametrize("argv", [
    ["preprocess"],
    ["factorize", "--rank", "2", "--method", "pre-nmf", "--seeds", "0",
     "--max-outer", "10"],
    ["npp"],
], ids=["preprocess", "factorize", "npp"])
def test_infeasible_slack_bound_exits_2(tmp_path, capsys, argv):
    # Column 0's negative entry puts its slack bound below zero, so the
    # start b = 0 of its problem is infeasible: a fault of the input.
    src = tmp_path / "neg.csv"
    matio.write_csv(src, np.array([[1.0, 2.0, 3.0], [-1.0, 1.0, 2.0],
                                   [2.0, 1.0, 0.5]]))
    code = main(argv + ["--input", str(src), "--out", str(tmp_path / "o")])
    assert code == 2
    assert ("error: column 0: slack bound has negative entries"
            in capsys.readouterr().err)


@pytest.mark.parametrize("method", ["nmf", "pre-nmf", "snmf", "nmf,snmf"])
def test_negative_input_refused_before_any_hals_run(tmp_path, capsys,
                                                    monkeypatch, method):
    # A report of a nonnegative factorization of a matrix with a negative
    # entry would be false, so no method may start factorizing it.
    calls = []
    hals = nmf._hals

    def spy(*args, **kwargs):
        calls.append(args)
        return hals(*args, **kwargs)

    monkeypatch.setattr(nmf, "_hals", spy)
    src = tmp_path / "neg.csv"
    matio.write_csv(src, np.array([[1.0, 2.0, 3.0], [-1.0, 1.0, 2.0],
                                   [2.0, 1.0, 0.5]]))
    out = tmp_path / "o"
    code = main(["factorize", "--input", str(src), "--rank", "2",
                 "--method", method, "--snmf-target", "0.3", "--seeds", "0-1",
                 "--max-outer", "10", "--out", str(out)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert calls == []
    assert not (out / "report.json").exists()


def test_solver_failure_exits_2(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise cllsolve.MaxIterations("column 5: active-set method exceeded "
                                     "1250 pivots")

    monkeypatch.setattr(cllsolve, "preprocess_matrix", fail)
    code = main(["preprocess", "--fixture", "sepex",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: column 5: active-set method" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["preprocess", "--fixture", "sepex"],
    ["npp", "--fixture", "nested-squares"],
    ["factorize", "--fixture", "sepex", "--rank", "3", "--method", "pre-nmf",
     "--seeds", "0", "--max-outer", "10"],
], ids=["preprocess", "npp", "factorize"])
def test_alpha_out_of_range_exits_before_solving(tmp_path, capsys,
                                                 monkeypatch, argv):
    # alpha is checked before B* is solved for: no column QP runs.
    calls = []
    kernel = cllsolve._active_set_ls

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(cllsolve, "_active_set_ls", spy)
    code = main(argv + ["--alpha", "1.5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err
    assert calls == []
    if argv[0] == "factorize":
        # Plain NMF has no alpha and keeps ignoring it.
        argv = ["nmf" if a == "pre-nmf" else a for a in argv]
        out = str(tmp_path / "n")
        assert main(argv + ["--alpha", "1.5", "--out", out]) == 0


class TestNppCommand:
    def test_nested_squares_auto(self, tmp_path):
        out = tmp_path / "o"
        res = run_cli(["npp", "--fixture", "nested-squares", "--alpha", "auto",
                       "--out", str(out)])
        assert res["alpha"] == pytest.approx(0.52860, abs=1e-3)
        assert res["solutions"] == 8
        samples = np.loadtxt(out / "fk_samples.csv", delimiter=",", skiprows=1)
        assert samples.shape[1] == 2
        assert np.all(np.diff(samples[:, 1]) >= -1e-9)

    def test_identity_triangle(self, tmp_path):
        src = tmp_path / "eye.csv"
        matio.write_csv(src, np.eye(3))
        res = run_cli(["npp", "--input", str(src), "--alpha", "auto",
                       "--out", str(tmp_path / "o")])
        assert res["alpha"] == 1.0
        assert res["solutions"] == 1

    def test_no_nested_triangle_exits_2(self, tmp_path, capsys):
        src = tmp_path / "hexagon.csv"
        matio.write_csv(src, hexagon_slack())
        code = main(["npp", "--input", str(src), "--alpha", "auto",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("error: no 3-vertex nested polygon exists even at alpha = 0"
                in capsys.readouterr().err)

    def test_separable_flagged(self, tmp_path):
        res = run_cli(["npp", "--fixture", "sepex", "--alpha", "1.0",
                       "--out", str(tmp_path / "o")])
        assert res["separable"] is True
        assert res["solutions"] == 1
        sol = matio.read_csv(tmp_path / "o" / "solution_0.csv")
        assert sol.shape == (10, 3)

    def test_no_solution_reported(self, tmp_path):
        # At alpha = 1 a square nests between nested-squares' polygons and
        # no triangle does: a result, not a failure.
        out = tmp_path / "o"
        code = main(["npp", "--fixture", "nested-squares", "--alpha", "1",
                     "--out", str(out)])
        assert code == 0
        assert json.loads((out / "npp.json").read_text())["solutions"] == 0

    def test_continuum_flagged(self, tmp_path):
        res = run_cli(["npp", "--fixture", "counter-example", "--alpha", "1.0",
                       "--out", str(tmp_path / "o")])
        assert res["solutions"] is None
        assert "continuum" in res["note"]

    # Separable products: (6, 10) at seed 0 has one solution, (5, 8) at
    # seed 1 a continuum.
    @pytest.mark.parametrize("source", ["nested-squares", (6, 10, 0),
                                        (5, 8, 1)])
    def test_auto_matches_explicit_alpha(self, tmp_path, source):
        # --alpha auto reports on the instance the alpha search built; an
        # explicit alpha builds it afresh from the same bits of M(I - a B*).
        if isinstance(source, str):
            argv = ["npp", "--fixture", source]
        else:
            m, n, seed = source
            src = tmp_path / "sep.csv"
            matio.write_csv(src, separable_rank3(
                np.random.default_rng([seed, 3]), m, n))
            argv = ["npp", "--input", str(src)]
        auto, fixed = tmp_path / "auto", tmp_path / "fixed"
        res = run_cli(argv + ["--alpha", "auto", "--out", str(auto)])
        run_cli(argv + ["--alpha", repr(res["alpha"]), "--out", str(fixed)])
        reports = [json.loads((d / "npp.json").read_text())
                   for d in (auto, fixed)]
        for rep in reports:
            del rep["alpha_mode"]
        assert reports[0] == reports[1]
        names = sorted(p.name for p in auto.iterdir())
        assert names == sorted(p.name for p in fixed.iterdir())
        assert len(names) == 2 + (res["solutions"] or 0)
        for name in names:
            if name != "npp.json":
                assert (auto / name).read_bytes() == (fixed / name).read_bytes()

    def test_rank_mismatch_exit(self, tmp_path):
        src = tmp_path / "r2.csv"
        matio.write_csv(src, np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]))
        code = main(["npp", "--input", str(src), "--out",
                     str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["auto", "1"])
    def test_degenerate_slice_exits_2(self, tmp_path, capsys, alpha):
        # A multiple of the first column makes rho(B*) = 1, so the
        # preprocessed matrix drops to rank 2: a geometry failure, no crash.
        src = tmp_path / "dup.csv"
        matio.write_csv(src, np.array([[1.0, 0.0, 0.0, 2.0],
                                       [0.0, 1.0, 0.0, 0.0],
                                       [0.0, 0.0, 1.0, 0.0]]))
        code = main(["npp", "--input", str(src), "--alpha", alpha,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: numerical rank is 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--fk", "0"], ["--fk", "1"],
                                       ["--fk-samples", "0"],
                                       ["--fk-samples", "-3"]])
    def test_walk_sample_flags_validated(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = main(["npp", "--fixture", "sepex", "--alpha", "1.0",
                     "--out", str(out)] + flags)
        assert code == 2
        assert f"error: {flags[0]} must be at least" in capsys.readouterr().err
        assert not (out / "npp.json").exists()
        assert not (out / "fk_samples.csv").exists()


class TestUniquenessCommand:
    def test_example_unique(self):
        res = run_cli(["uniqueness", "--fixture", "sparsity-example",
                       "--rank", "3"])
        assert res["unique"] is True

    def test_circulant_not_certified(self):
        res = run_cli(["uniqueness", "--fixture", "ones-minus-identity",
                       "--rank", "3"])
        assert res["unique"] is False

    def test_report_written(self, tmp_path):
        run_cli(["uniqueness", "--fixture", "sparsity-example", "--rank", "3",
                 "--out", str(tmp_path)])
        rep = json.loads((tmp_path / "uniqueness.json").read_text())
        assert rep["unique"] is True
        assert rep["vertex_columns"] == [0, 1, 2]
        assert rep["containment_pairs"] == []

    def test_report_lists_containment_pairs(self, tmp_path):
        run_cli(["uniqueness", "--fixture", "counter-example", "--rank", "3",
                 "--out", str(tmp_path)])
        rep = json.loads((tmp_path / "uniqueness.json").read_text())
        pairs = uniq.support_containment(get_fixture("counter-example"))
        assert len(pairs) == 4
        assert rep["containment_pairs"] == [
            {"k": p.k, "l": p.l, "p_bar": p.p_bar, "epsilon": p.epsilon}
            for p in pairs]

    def test_random_positive_not_certified(self, tmp_path, rng):
        src = tmp_path / "pos.csv"
        matio.write_csv(src, rng.random((5, 5)) + 0.2)
        res = run_cli(["uniqueness", "--input", str(src), "--rank", "5"])
        assert res["unique"] is False

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_rank_below_one_exits_2(self, capsys, rank):
        # Neither may fall back to the numerical rank or print a verdict.
        code = main(["uniqueness", "--fixture", "sepex", "--rank", rank])
        assert code == 2
        out, err = capsys.readouterr()
        assert "error: rank must be at least 1" in err
        assert "certified" not in out


class TestEntryPoint:
    def test_subprocess_roundtrip(self, tmp_path):
        # The child must import the package under test, whether pytest
        # found it through its own pythonpath setting or PYTHONPATH.
        parent = str(Path(prenmf.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (parent, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "prenmf", "uniqueness", "--fixture",
             "sparsity-example", "--rank", "3"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "unique (certified)" in proc.stdout

    def test_matrixmarket_input(self, tmp_path):
        src = tmp_path / "m.mtx"
        matio.write_matrix_market(src, np.eye(3))
        res = run_cli(["uniqueness", "--input", str(src), "--format",
                       "matrixmarket", "--rank", "3"])
        assert res["unique"] is True
