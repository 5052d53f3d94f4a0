"""Command line interface.

Subcommands:
  preprocess   write the preprocessed matrix, B*, and a sparsity table
  factorize    run the method comparison protocol and write a report
  npp          rank-3 nested polygon analysis (alpha search, walks, solutions)
  uniqueness   sparsity-pattern certificates

Inputs are CSV or MatrixMarket files, or one of the built-in fixtures by
name.  Reports are JSON with a documented schema (see README); matrices are
written as CSV.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import matio
from . import matcore
from . import cllsolve
from . import npp3
from . import nmf
from . import uniq
from . import preprocessing as prep
from .fixtures import get_fixture, fixture_names

SCHEMA_VERSION = 1


class DuplicateColumns(ValueError):
    """Input has (near-)duplicate columns and --allow-duplicates is not set."""


def _load_matrix(args):
    if args.fixture:
        return get_fixture(args.fixture), f"fixture:{args.fixture}"
    M = matio.read_matrix(args.input, args.format)
    return M, str(args.input)


def _parse_seeds(text):
    """The seeds of ``--seeds``: A-B with A <= B, or a comma list of
    nonnegative integers."""
    try:
        if "-" in text and "," not in text:
            a, b = text.split("-", 1)
            seeds = tuple(range(int(a), int(b) + 1))
        else:
            seeds = tuple(int(s) for s in text.split(",") if s != "")
        if seeds and min(seeds) >= 0:
            return seeds
    except ValueError:
        pass
    raise ValueError(f"--seeds {text!r}: expected A-B with A <= B, or a "
                     "comma list of nonnegative integers")


def _check_duplicates(M, args):
    dups = matcore.detect_duplicates(M, tol=1e-8)
    if dups and not args.allow_duplicates:
        pairs = ", ".join(f"({i},{j})" for i, j, _ in dups)
        raise DuplicateColumns(
            f"columns {pairs} are multiples of each other; the preprocessing "
            "guarantee needs distinct columns (rerun with --allow-duplicates "
            "to proceed anyway)")
    return dups


def _env_block(args, seeds=None):
    env = {
        "package": "prenmf",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "input": args.fixture and f"fixture:{args.fixture}" or str(args.input),
        "zero_tol": args.zero_tol,
    }
    if seeds is not None:
        env["seeds"] = list(seeds)
    return env


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # NaN and infinity are not JSON; refuse them before the file is opened.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_pgm(path, column, shape):
    """Dump one basis column as a raw 8-bit PGM image."""
    h, w = shape
    col = np.asarray(column, dtype=float).reshape(h, w)
    top = col.max()
    if top <= 0:
        top = 1.0
    img = np.clip(255 * col / top, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def cmd_preprocess(args):
    M, source = _load_matrix(args)
    dups = _check_duplicates(M, args)
    out = _out_dir(args)
    res = prep.preprocess(M, epsilon=args.epsilon, alpha=args.alpha,
                          rescale=args.rescale)
    matio.write_csv(out / "P_eps_M.csv", res.P_alpha_M)
    matio.write_csv(out / "B_star.csv", res.B_star)
    report = {
        "environment": _env_block(args),
        "source": source,
        "epsilon": res.epsilon,
        "alpha": res.alpha,
        "rho_B_star": res.rho,
        "duplicates": [[i, j, a] for i, j, a in dups],
        "sparsity": {
            "input": matcore.sparsity(M, args.zero_tol),
            "preprocessed": matcore.sparsity(res.P_alpha_M, args.zero_tol),
        },
        "max_column_kkt_residual": float(res.column_kkt.max()),
    }
    _write_json(out / "preprocess.json", report)
    print(f"rho(B*) = {res.rho:.6f}")
    if res.rho >= 0.99:
        print("warning: rho(B*) >= 0.99; I - B* is close to singular and the "
              "inverse-mapped factors will be unreliable", file=sys.stderr)
    print(f"sparsity: {report['sparsity']['input']:.4f} -> "
          f"{report['sparsity']['preprocessed']:.4f}")
    print(f"wrote {out / 'P_eps_M.csv'}, {out / 'B_star.csv'}, "
          f"{out / 'preprocess.json'}")
    return report


def cmd_factorize(args):
    for method in args.method:
        if method not in ("nmf", "pre-nmf", "snmf"):
            raise ValueError(f"unknown method {method!r}")
    seeds = _parse_seeds(args.seeds)
    M, source = _load_matrix(args)
    h, w = args.pgm_shape or (1, M.shape[0])
    if min(h, w) < 1 or h * w != M.shape[0]:
        raise ValueError(f"--pgm-shape {h} {w} does not fit the "
                         f"{M.shape[0]} rows of M: need H, W >= 1, H*W = rows")
    if "pre-nmf" in args.method:
        _check_duplicates(M, args)
    out = _out_dir(args)
    runs = [(method, eps) for method in args.method
            for eps in (args.epsilon if method != "nmf" else [0.0])]
    reps = nmf.run_comparison(
        M, args.rank, [(m.replace("-", "_"), eps) for m, eps in runs],
        seeds=seeds, max_outer=args.max_outer, alpha=args.alpha_value,
        snmf_target=args.snmf_target, zero_tol=args.zero_tol)
    records = []
    factors = {}
    for (method, eps), rep in zip(runs, reps):
        tag = rep.method if method == "nmf" else f"{rep.method}_eps{eps:g}"
        records.append({
            "method": method,
            "epsilon": eps,
            "alpha": rep.alpha,
            "rel_error_plain": rep.rel_error_plain,
            "rel_error_improved": rep.rel_error_improved,
            "rel_error_vq": rep.rel_error_vq,
            "s_U": rep.s_U,
            "s_V": rep.s_V,
            "rho_B_star": rep.rho_B_star,
            "best_seed": rep.best_seed,
            "wall_time": rep.wall_time,
            "factors": {"U": f"U_{tag}.csv", "V": f"V_{tag}.csv"},
        })
        factors[tag] = (rep.U, rep.V)
    for tag, (U, V) in factors.items():
        matio.write_csv(out / f"U_{tag}.csv", U)
        matio.write_csv(out / f"V_{tag}.csv", V)
        if args.pgm_shape:
            for j in range(U.shape[1]):
                write_pgm(out / f"U_{tag}_basis{j}.pgm", U[:, j], (h, w))
    payload = {
        "environment": _env_block(args, seeds),
        "source": source,
        "rank": args.rank,
        "records": records,
    }
    _write_json(out / "report.json", payload)
    for rec in records:
        vq = ("-" if rec["rel_error_vq"] is None
              else f"{rec['rel_error_vq']:.4f}")
        print(f"{rec['method']:>8} eps={rec['epsilon']:g}: "
              f"plain={rec['rel_error_plain']:.4f} "
              f"improved={rec['rel_error_improved']:.4f} (vq={vq}) "
              f"s(U)={rec['s_U']:.4f} s(V)={rec['s_V']:.4f}")
    print(f"wrote {out / 'report.json'}")
    return payload


def cmd_npp(args):
    if args.fk < 2:
        raise ValueError("--fk must be at least 2 boundary points, "
                         f"got {args.fk}")
    if args.fk_samples < 1:
        raise ValueError("--fk-samples must be at least 1, "
                         f"got {args.fk_samples}")
    alpha = (None if args.alpha == "auto"
             else prep.check_alpha(float(args.alpha)))
    M, source = _load_matrix(args)
    out = _out_dir(args)
    r = npp3.numerical_rank(M)
    if r != 3:
        raise prep.RankMismatch(f"numerical rank is {r}, need exactly 3 for "
                                "the nested polygon analysis")
    B_star, _ = cllsolve.preprocess_matrix(M, epsilon=args.epsilon)
    if alpha is None:
        bar = prep.find_alpha_bar(M, B_star)
        alpha, npp = bar.alpha, bar.npp
    else:
        npp = npp3.build_npp(prep.apply_alpha(M, B_star, alpha))

    separable = len(npp.inner.vertices) == 3
    steps = args.fk - 1  # k boundary points = k-1 chords
    samples = npp3.sample_fk(npp, steps, num=args.fk_samples)
    matio.write_rows(out / "fk_samples.csv", samples, "%.18e", header="t,f")

    result = {
        "environment": _env_block(args),
        "source": source,
        "alpha": alpha,
        "alpha_mode": args.alpha,
        "fk": args.fk,
        "separable": separable,
    }
    if separable:
        result["note"] = ("inner polygon has 3 vertices: the preprocessed "
                          "matrix is separable and its normalized nonzero "
                          "columns are themselves a minimal solution")
    try:
        sols = npp3.enumerate_solutions(npp, 3)
        result["solutions"] = len(sols)
    except npp3.NotFinite as exc:
        sols = []
        result["solutions"] = None
        result["note"] = f"continuum: {exc}"
    for i, S in enumerate(sols):
        matio.write_csv(out / f"solution_{i}.csv", S)
    _write_json(out / "npp.json", result)
    print(f"alpha = {alpha:.6f} ({args.alpha}); "
          f"solutions: {result['solutions']}"
          + (f" [{result['note']}]" if "note" in result else ""))
    print(f"wrote {out / 'npp.json'}, {out / 'fk_samples.csv'}")
    return result


def cmd_uniqueness(args):
    M, source = _load_matrix(args)
    r = npp3.numerical_rank(M) if args.rank is None else args.rank
    report = uniq.uniqueness_report(M, r, zero_tol=args.zero_tol)
    payload = {
        "environment": _env_block(args),
        "source": source,
        "rank": r,
        "vertex_columns": list(report.vertex_columns),
        "unique": report.unique,
        "containment_pairs": [
            {"k": p.k, "l": p.l, "p_bar": p.p_bar, "epsilon": p.epsilon}
            for p in report.containment_pairs],
    }
    if args.out:
        _write_json(Path(args.out) / "uniqueness.json", payload)
    verdict = "unique (certified)" if report.unique else "not certified"
    print(f"rank {r}: {verdict}; vertex columns: {list(report.vertex_columns)}")
    if report.containment_pairs:
        print(f"{len(report.containment_pairs)} support-containment pairs "
              "(each certifies non-uniqueness of the trivial factorization)")
    return payload


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="matrix file")
    src.add_argument("--fixture", choices=fixture_names(),
                     help="built-in example matrix")
    p.add_argument("--format", default="csv", choices=["csv", "matrixmarket"],
                   help="input file format (default csv)")
    p.add_argument("--zero-tol", type=float, default=1e-8,
                   help="relative threshold below which entries count as zero")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="prenmf",
        description="Sparsifying preprocessing for nonnegative matrix "
                    "factorization, with exact rank-3 geometry checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="compute P_eps(M) and B*")
    _add_input_args(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--alpha", dest="alpha", type=float, default=1.0)
    p.add_argument("--rescale", action="store_true",
                   help="rescale preprocessed columns to the input norms")
    p.add_argument("--allow-duplicates", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("factorize", help="method comparison protocol")
    _add_input_args(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--method", default="nmf,pre-nmf,snmf",
                   type=lambda s: s.split(","),
                   help="comma list from {nmf,pre-nmf,snmf}")
    p.add_argument("--epsilon", default="0",
                   type=lambda s: [float(x) for x in s.split(",")])
    p.add_argument("--alpha", dest="alpha_value", type=float, default=1.0)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--max-outer", type=int, default=1000)
    p.add_argument("--snmf-target", type=float, default=None)
    p.add_argument("--allow-duplicates", action="store_true")
    p.add_argument("--pgm-shape", nargs=2, type=int, default=None,
                   metavar=("H", "W"),
                   help="dump each basis column as an HxW PGM image")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("npp", help="rank-3 nested polygon analysis")
    _add_input_args(p)
    p.add_argument("--alpha", default="auto",
                   help="interpolation level, or 'auto' for the largest "
                        "rank-preserving value")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--fk", type=int, default=4,
                   help="number of boundary points in the walk samples")
    p.add_argument("--fk-samples", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_npp)

    p = sub.add_parser("uniqueness", help="sparsity-pattern certificates")
    _add_input_args(p)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_uniqueness)
    return ap


@functools.cache
def _parser():
    """The parser of this process: building one takes about a millisecond."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # The parser holds the commands as they were when it was built; call
    # the module attribute, which a tracer or a test may have wrapped since.
    command = globals()[args.func.__name__]
    try:
        command(args)
    except (ValueError, OSError, cllsolve.SolverError,
            npp3.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
