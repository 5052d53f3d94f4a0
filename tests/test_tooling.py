"""The benchmark tracer's view of the package API.

``perfbench/spans.py`` wraps package functions by module attribute name and
reads counters off their return values.  A renamed or deleted function, or
a changed return type, would otherwise surface only in a traced benchmark
run.  The file is loaded from the checkout as it is, without changes.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prenmf
from prenmf import cli, cllsolve, matio, nmf, npp3
from prenmf.fixtures import fixture_names, get_fixture
from prenmf.preprocessing import apply_alpha, find_alpha_bar

from conftest import lifted, separable_rank3, synthetic
from oracles import column_kernel_oracle

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def counter(wrapped, layer, attr):
    return next(c for a, _, c in wrapped[layer] if a == attr)


def test_every_wrapped_attribute_exists(wrapped):
    for layer, entries in wrapped.items():
        module = importlib.import_module(f"prenmf.{layer}")
        for attr, _, _ in entries:
            assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_counters_read_return_values(wrapped):
    rng = np.random.default_rng(0)
    M = rng.random((6, 3)) @ rng.random((3, 5))

    sol = cllsolve.solve_column(cllsolve.CllsProblem(M, 0))
    assert counter(wrapped, "cllsolve", "solve_column")((), {}, sol) == {
        "pivots": sol.iterations}

    V = cllsolve.nnls_columns(M[:, :2], M)
    assert counter(wrapped, "cllsolve", "nnls_columns")((), {}, V) == {
        "columns": 5}

    walk = npp3.walk_fk(npp3.build_npp(M), 0.1, 3)
    assert counter(wrapped, "npp3", "walk_fk")((), {}, walk) == {"steps": 3}


def test_main_calls_commands_through_module(monkeypatch, capsys):
    # perfbench times cli.factorize and the other commands by wrapping the
    # module attributes after the warm-up op, when main's parser is built.
    argv = ["uniqueness", "--fixture", "sepex", "--rank", "3"]
    assert cli.main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_uniqueness", calls.append)
    assert cli.main(argv) == 0
    assert [args.command for args in calls] == ["uniqueness"]


def test_alpha_search_calls_slack_through_module(monkeypatch):
    # perfbench counts find_alpha_bar's slack evaluations as its
    # npp3.max_wrap_slack child spans, so the search must make those calls
    # through the module attribute.
    calls = []
    max_wrap_slack = npp3.max_wrap_slack

    def spy(npp, k):
        calls.append(k)
        return max_wrap_slack(npp, k)

    monkeypatch.setattr(npp3, "max_wrap_slack", spy)
    find_alpha_bar(get_fixture("nested-squares"))
    assert len(calls) > 2


def count_calls(monkeypatch, module, *names):
    """Replace module.<name> by a counting spy for each name; returns the
    counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return counts


@pytest.mark.parametrize("source", ["separable", "nested-squares"])
def test_alpha_auto_builds_and_walks_each_alpha_once(monkeypatch, tmp_path,
                                                     source):
    # npp --alpha auto reports on the instance and walk table that the
    # alpha search built at alpha_bar, so each evaluated alpha is built and
    # walked once.  perfbench counts both calls as spans.
    if source == "separable":
        M = separable_rank3(np.random.default_rng(0), 8, 12)
        matio.write_csv(tmp_path / "in.csv", M)
        argv = ["--input", str(tmp_path / "in.csv")]
    else:
        M = get_fixture(source)
        argv = ["--fixture", source]
    evaluations = find_alpha_bar(M).evaluations
    assert evaluations == (1 if source == "separable" else 13)
    counts = count_calls(monkeypatch, npp3, "build_npp",
                         "contact_change_points")
    assert cli.main(["npp", *argv, "--alpha", "auto",
                     "--out", str(tmp_path / "o")]) == 0
    assert counts == {"build_npp": evaluations,
                      "contact_change_points": evaluations}


def test_instance_walks_its_change_points_once(monkeypatch):
    # max_wrap_slack, feasible_k and enumerate_solutions share the
    # instance's table of change-point walks.
    M = get_fixture("nested-squares")
    B, _ = cllsolve.preprocess_matrix(M)
    npp = npp3.build_npp(apply_alpha(M, B, find_alpha_bar(M, B).alpha))
    counts = count_calls(monkeypatch, npp3, "contact_change_points")
    npp3.max_wrap_slack(npp, 3)
    assert npp3.feasible_k(npp, 3)[0]
    assert len(npp3.enumerate_solutions(npp, 3)) == 8
    assert counts == {"contact_change_points": 1}


def private_api_paths(source):
    """The numpy and scipy paths that ``source`` imports or reads through
    a ``_``-prefixed name, whatever the local aliases."""
    tree = ast.parse(source)
    alias, paths = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] in ("numpy", "scipy"):
                    paths.append(a.name)
                    alias[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0])
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in ("numpy", "scipy")):
            for a in node.names:
                paths.append(f"{node.module}.{a.name}")
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in alias:
            paths.append(".".join([alias[node.id], *reversed(parts)]))
    return sorted({p for p in paths if any(
        part.startswith("_") and not part.endswith("__")
        for part in p.split("."))})


def test_src_uses_no_private_numpy_or_scipy_api():
    # A private module such as numpy.linalg._umath_linalg skips the public
    # function's checks and may change in any release.
    src = Path(prenmf.__file__).resolve().parent
    found = {f.name: private_api_paths(f.read_text())
             for f in sorted(src.glob("*.py"))}
    assert len(found) >= 10
    assert not any(found.values()), found
    # The check sees private paths through imports and aliases alike.
    assert private_api_paths("import numpy as np\n"
                             "np.linalg._umath_linalg.solve(a, b)\n") == [
        "numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg.solve"]
    for source in ["from numpy.linalg import _umath_linalg",
                   "import scipy.optimize._nnls",
                   "from scipy.optimize._nnls import nnls",
                   "import scipy.optimize as so\nso._lsq.bvls"]:
        assert private_api_paths(source), source
    assert private_api_paths("import numpy as np\nnp.__version__\n"
                             "np.linalg.solve(a, b)\n") == []


def test_npp3_does_not_import_scipy():
    assert "scipy" not in vars(npp3)


def cli_import_loads(module, then=""):
    """Whether a fresh interpreter has ``module`` loaded after importing
    prenmf.cli and running the statements ``then``."""
    parent = str(Path(prenmf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, prenmf.cli\n{then}\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_out_matrix_market_io():
    # scipy.io is imported only when a MatrixMarket file is read or written.
    assert not cli_import_loads("scipy.io")


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize, most of a cold start's import time, is imported only
    # by the functions that call it: NNLS refits, degenerate-point escapes,
    # certificate fallbacks and the alpha search.
    assert not cli_import_loads("scipy.optimize")


def test_preprocess_at_eps_zero_leaves_out_scipy_optimize():
    # The bound-only start of the column kernel runs only at eps > 0 and
    # imports scipy.optimize when it runs: at eps = 0 a full-rank input that
    # takes no escape never loads it, and at eps = 0.05 the start does.
    M = synthetic(20, 16, 4)
    assert cllsolve._full_column_rank(M)
    run = ("import numpy as np; from prenmf.cllsolve import preprocess_matrix; "
           f"preprocess_matrix(np.array({M.tolist()!r}), {{}})")
    assert not cli_import_loads("scipy.optimize", run.format(0.0))
    assert cli_import_loads("scipy.optimize", run.format(0.05))


def test_walks_step_all_rows_at_once(monkeypatch):
    # The rank-3 op's cost is its number of batched tangent steps; a return
    # to one walk per start point would multiply it.
    calls = []
    step = npp3._step

    def spy(npp, t):
        calls.append(npp)
        return step(npp, t)

    monkeypatch.setattr(npp3, "_step", spy)
    npp = npp3.build_npp(get_fixture("nested-squares"))
    for k in (2, 3):
        calls.clear()
        npp3.sample_fk(npp, k, num=256)
        assert len(calls) == k
        # k steps back from the seeds on the mirror, k forward walk steps.
        calls.clear()
        npp3._wrap_slacks(npp, k)
        assert sum(c is npp for c in calls) == k
        assert len(calls) == 2 * k


def test_enumeration_walks_each_start_once(monkeypatch):
    # enumerate_solutions reads the solution walks from the table of the
    # change-point walks: three batches (the inverse steps on the mirror,
    # the change points, the midpoints between touching starts), not a
    # fourth that walks the touching starts again.
    calls = []
    walk = npp3._walk

    def spy(npp, ts, k):
        calls.append(len(ts))
        return walk(npp, ts, k)

    M = get_fixture("nested-squares")
    B, _ = cllsolve.preprocess_matrix(M)
    npp = npp3.build_npp(apply_alpha(M, B, find_alpha_bar(M, B).alpha))
    monkeypatch.setattr(npp3, "_walk", spy)
    assert len(npp3.enumerate_solutions(npp, 3)) == 8
    assert len(calls) == 3


def test_preprocess_runs_one_kernel_call(monkeypatch):
    # All columns of B* go through one lockstep kernel call; a return to
    # one call per column would multiply the op's cost.
    kernel_calls = []
    kernel = cllsolve._active_set_ls

    def kernel_spy(M, cols, *args, **kwargs):
        kernel_calls.append(range(M.shape[1])[cols])
        return kernel(M, cols, *args, **kwargs)

    monkeypatch.setattr(cllsolve, "_active_set_ls", kernel_spy)
    rng = np.random.default_rng(0)
    M = rng.random((20, 4)) @ rng.random((4, 16))
    # A zero column takes the same path, and its multipliers certify it.
    Z = M.copy()
    Z[:, 5] = 0.0
    for X in (M, Z):
        kernel_calls.clear()
        cllsolve.preprocess_matrix(X)
        assert kernel_calls == [range(16)]


def test_preprocess_memory_stays_below_a_per_column_store():
    # All column problems read one store, [2G, M^T] over a zero row, of
    # (n + 1)(n + m + 1) numbers, so memory grows as n(n + m).  A copy of
    # [2 C^T C, C^T] per column would take 8 n^2 (n + m) bytes, 16 MB at
    # 100x100; on a tall input a store of (n + m)^2 numbers would take
    # 8 (n + m)^2 bytes, 33 MB at 2000x20.  Peaks: 2.0 and 3.6 MB.
    for M in (synthetic(100, 100, 8), synthetic(2000, 20, 4)):
        m, n = M.shape
        tracemalloc.start()
        try:
            cllsolve.preprocess_matrix(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * max(n * n * (n + m), (n + m) ** 2) / 4


def test_escape_runs_only_at_degenerate_points(monkeypatch):
    # The lockstep kernel and its serial reference share the degenerate-point
    # pivot and must call it at the same points.  A degenerate point is one
    # where a step is blocked at zero length or the working set is
    # dependent: more active rows than free variables, or a KKT system that
    # is singular or solved inaccurately.  On noisy data neither happens, so
    # the pivot never runs there.
    calls = []
    escape = cllsolve._escape

    def spy(*args):
        calls.append(args)
        return escape(*args)

    monkeypatch.setattr(cllsolve, "_escape", spy)
    M = lifted(synthetic(100, 100, 8, noise=0.0))
    cllsolve._active_set_ls(M, slice(53, 54), 0.0, 50 * 100)
    kernel_calls = len(calls)
    calls.clear()
    column_kernel_oracle(M, 53)
    assert kernel_calls == len(calls) == 3

    # Column 21 of noiseless 150x120 at seed 25, at the scale
    # preprocess_matrix runs it (max|M| >= 1): its working set grows
    # dependent, 6 rows on 5 free variables, and one escape leaves it.
    M = synthetic(150, 120, 10, noise=0.0, seed=25)
    calls.clear()
    cllsolve._active_set_ls(M, slice(21, 22), 0.0, 50 * 120)
    kernel_calls = len(calls)
    calls.clear()
    column_kernel_oracle(M, 21)
    assert kernel_calls == len(calls) == 1

    calls.clear()
    for eps in (0.0, 0.05):
        cllsolve.preprocess_matrix(synthetic(50, 40, 5), epsilon=eps)
    assert calls == []


def test_kkt_check_never_reaches_the_kernel(monkeypatch, nested_squares):
    # The certificate's multipliers come from BVLS, so it stays independent
    # of the active-set kernel and its degenerate-point pivot.
    def refuse(*args):
        raise AssertionError("kkt_check reached the column kernel")

    monkeypatch.setattr(cllsolve, "_active_set_ls", refuse)
    monkeypatch.setattr(cllsolve, "_escape", refuse)
    p = cllsolve.CllsProblem(nested_squares, 0)
    assert cllsolve.kkt_check(p, np.array([0.0, 0.375, 0.0, 0.375])) <= 1e-8
    assert cllsolve.kkt_check(p, np.zeros(4)) > 0.1


def test_no_runtime_path_calls_lsq_linear(monkeypatch, tmp_path):
    # The kernel's multipliers are the only runtime certificate: scipy's
    # BVLS, which only ``kkt_check`` calls, must not run while B* is built,
    # escape stops included (noiseless 100x100 columns 50-59 at eps = 0),
    # nor in the rank-3 analysis with its alpha search.
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("lsq_linear called")

    monkeypatch.setattr(scipy.optimize, "lsq_linear", refuse)
    noiseless = synthetic(100, 100, 8, noise=0.0)
    for eps in (0.0, 0.05):
        for M in [get_fixture(name) for name in fixture_names()] + [
                synthetic(50, 40, 5)]:
            cllsolve.preprocess_matrix(M, eps)
        for i in range(50, 60):
            cllsolve.solve_column(cllsolve.CllsProblem(noiseless, i, eps))
    assert cli.main(["npp", "--fixture", "nested-squares", "--alpha", "auto",
                     "--out", str(tmp_path)]) == 0


def test_factorize_runs_three_hals_stages(monkeypatch, tmp_path, capsys):
    # One factorize call makes one stack of the nmf and pre-nmf seeds beside
    # tune_mu's opening probes (which read no target), the rest of tune_mu's
    # probe stacks, one snmf stack for the seeds after the first (tune_mu's
    # winning probe is the first seed's run) and one polish stack with a
    # slice per distinct best pair.  The op's cost follows the number of
    # stacked outer iterations, so more stages would slow it down.
    calls = []  # (slices, stalling slices, penalized slices, masked)
    hals = nmf._hals

    def spy(M, U, V, max_outer, mu=None, mask=None, stall=False):
        pen = 0 if mu is None else int(mu.any(axis=1).sum())
        calls.append((len(U), int(np.sum(stall)), pen, mask is not None))
        return hals(M, U, V, max_outer, mu=mu, mask=mask, stall=stall)

    monkeypatch.setattr(nmf, "_hals", spy)
    seeds = 3
    assert cli.main(["factorize", "--fixture", "sepex", "--rank", "3",
                     "--method", "nmf,pre-nmf,snmf", "--seeds", "0-2",
                     "--max-outer", "50", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    stages = list(calls)

    calls.clear()
    nmf.tune_mu(get_fixture("sepex"), 3, report["records"][1]["s_U"], seed=0,
                max_outer=50)
    opening, *rest = calls
    assert opening == (9, 0, 9, False) and rest
    assert all(stall == 0 and pen == n and not masked
               for n, stall, pen, masked in rest)
    assert stages == ([(2 * seeds + 9, 2 * seeds, 9, False)] + rest
                      + [(seeds - 1, 0, seeds - 1, False), (3, 0, 0, True)])
