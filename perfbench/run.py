"""Benchmark of the prenmf command line, run in-process.

    python3 perfbench/run.py --workload preprocess-synth --seed 0 \
        --seconds 30 --trace 0

Run from the root of a source checkout (``src/prenmf`` must exist).  Set-up
generates the workload's input CSVs from ``--seed`` and runs one untimed
warm-up op; the timed part runs whole rounds of ``prenmf.cli.main(argv)``
calls, one after the other (a closed loop with one client), until the next
round would pass ``--seconds`` (and at least MIN_ROUNDS rounds).  Every op's output files are checked; a
nonzero exit code, an exception or a failed check fails the op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then with every wrapped function traced (see spans.py),
and reports the per-layer metrics.  The last line of standard output is one
JSON object; a run record and, when traced, the spans are written under
``.perfbench/records``.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS pool before numpy loads it: one thread, which is at most
# nproc on any machine, keeps op times independent of other load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import functools  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import spans as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The probe: fixed work of the same kind as the ops (interpreted loops
# around small dense solves), timed just before and just after every op.
# Co-tenants on a shared machine change its speed by up to 1.6x from one
# minute to the next; an op's cost in probe units does not move with them.
_PROBE_A = np.random.default_rng(0).random((30, 30))
_PROBE_A = _PROBE_A @ _PROBE_A.T + 30.0 * np.eye(30)
PROBE_REPS = 80


def probe():
    """Seconds taken by the fixed probe work (about 3 ms)."""
    start = time.perf_counter()
    x = np.ones(30)
    for _ in range(PROBE_REPS):
        x = np.linalg.solve(_PROBE_A, x + 1.0)
        acc = 0
        for k in range(300):
            acc += k
    return time.perf_counter() - start

# Shown in the human-readable table; the JSON line carries the ones listed
# in BENCHMARK.json.  The quality metrics belong to one workload each.
END_TO_END = [
    ("setup_s", "s"), ("ops_per_kprobe", "1/kprobe"), ("op_p50_cal", "probe"),
    ("op_tail_cal", "probe"), ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("probe_ms", "ms"), ("fail_ratio", "ratio"),
    ("err_ratio", "ratio"), ("sparsity_gain", "ratio"),
    ("alpha_bar_err", "abs"),
]
GATED = ("setup_s", "ops_per_kprobe", "op_p50_cal", "op_tail_cal",
         "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


Result = collections.namedtuple(
    "Result", "kind start latency before after error quality")


def verdict(op, out):
    """(error message or None, quality values) of an op's output.

    A check that cannot even read the output fails the op too.
    """
    try:
        return None, op.check(out)
    except Exception as exc:  # noqa: BLE001 - any unreadable output is wrong
        return f"{type(exc).__name__}: {exc}", {}


def execute(cli, op, out, run=None):
    """Run one op through ``cli.main`` with its output captured; check it.

    The probe is timed just before and just after the op.
    """
    argv = op.argv + ["--out", out]
    sink = io.StringIO()
    call = (lambda: cli.main(argv))
    before = probe()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = run(call) if run else call()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op
        rc = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    after = probe()
    if rc != 0:
        return Result(op.kind, start, latency, before, after,
                      f"exit {rc}: {sink.getvalue()[-300:]}", {})
    error, quality = verdict(op, out)
    return Result(op.kind, start, latency, before, after, error, quality)


def output_digest(dirs):
    """SHA-256 of the output files; JSON reports lose their wall_time."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "wall_time"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).rglob("*")):
            data = path.read_bytes()
            if path.suffix == ".json":
                data = json.dumps(strip(json.loads(data)),
                                  sort_keys=True).encode()
            h.update(str(path).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def self_test(wl, kept):
    """Feed every check corrupted outputs; returns (caught, missed labels)."""
    caught, missed = 0, []
    scratch = Path("selftest")
    for kind in wl.selftest_kinds:
        op, out = next((op, out) for op, out in kept if op.kind == kind)
        if verdict(op, out)[0] is not None:
            missed.append(f"{kind}: the uncorrupted output already fails")
            continue
        for label, edit in wl.corruptions(Path(out)):
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(out, scratch)
            edit(scratch)
            error, _ = verdict(op, scratch)
            if error is None:
                missed.append(f"{kind}: {label}")
            else:
                caught += 1
    shutil.rmtree(scratch, ignore_errors=True)
    return caught, missed


def git_sha(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_vendor():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def tail(values):
    """Highest percentile with TAIL_BEYOND values beyond it: (value, pct)."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "prenmf" / "__init__.py").is_file():
        print(f"perfbench: no prenmf sources under {src}", file=sys.stderr)
        return 2
    try:
        sys.path.insert(0, str(src))
        import scipy
        from prenmf import cli, cllsolve, matio, nmf, npp3
        from prenmf import preprocessing
    except ImportError as exc:
        print(f"perfbench: cannot import prenmf from {src}: {exc}",
              file=sys.stderr)
        return 2
    modules = {"cli": cli, "matio": matio, "cllsolve": cllsolve,
               "preprocessing": preprocessing, "npp3": npp3, "nmf": nmf}
    import_s = time.perf_counter() - T_START

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (OUT / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    home = Path.cwd()
    # Relative paths keep the reports identical across checkouts.
    os.chdir(work)
    try:
        return bench(args, cli, modules, import_s, records, scipy)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


def bench(args, cli, modules, import_s, records, scipy):
    problems = []
    setups = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree("in", ignore_errors=True)
        Path("in").mkdir()
        wl = WORKLOADS[args.workload](args.seed, Path("."))
        res = execute(cli, wl.warmup, f"out/warmup{rep}")
        setups.append(time.perf_counter() - start)
        shutil.rmtree(f"out/warmup{rep}", ignore_errors=True)
        if res.error:
            problems.append(f"warm-up op failed: {res.error}")

    tracer = tracing.Tracer(modules) if args.trace else None
    plain, traced, kept = [], [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for j, op in enumerate(wl.round(rounds)):
            out = f"out/r{rounds}-{j}"
            plain.append(execute(cli, op, out))
            if tracer is not None:
                tracer.install()
                try:
                    run = functools.partial(tracer.run_op, len(traced))
                    traced.append(execute(cli, op, out + "t", run=run))
                finally:
                    tracer.uninstall()
                shutil.rmtree(out + "t", ignore_errors=True)
            if rounds == 0:
                kept.append((op, out))
            else:
                shutil.rmtree(out, ignore_errors=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > args.seconds:
            break

    caught, missed = self_test(wl, kept)
    problems += [f"self-test: corruption not caught: {m}" for m in missed]
    digest = output_digest([out for _, out in kept])
    results = plain + traced
    failures = [r for r in results if r.error]
    problems += [f"{r.kind}: {r.error}" for r in failures[:5]]

    lat = [r.latency for r in plain]
    # An op's cost: its latency in units of the probes around it.
    cost = [r.latency / (0.5 * (r.before + r.after)) for r in plain]
    tail_s, tail_pct = tail(lat)

    def quality(key):
        vals = [r.quality[key] for r in plain if key in r.quality]
        return (statistics.median(vals), len(vals)) if vals else (None, 0)

    e2e = {
        "setup_s": (import_s + statistics.median(setups), SETUP_REPEATS),
        "ops_per_kprobe": (1000.0 * len(cost) / sum(cost), len(cost)),
        "op_p50_cal": (statistics.median(cost), len(cost)),
        "op_tail_cal": (tail(cost)[0], len(cost)),
        "ops_per_s": (len(lat) / sum(lat), len(lat)),
        "op_p50_s": (statistics.median(lat), len(lat)),
        "op_tail_s": (tail_s, len(lat)),
        "probe_ms": (1000.0 * statistics.median(
            p for r in plain for p in (r.before, r.after)), 2 * len(plain)),
        "fail_ratio": (len(failures) / len(results), len(results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "err_ratio": quality("err_ratio"),
        "sparsity_gain": quality("sparsity_gain"),
        "alpha_bar_err": quality("alpha_bar_err"),
    }
    units = dict(END_TO_END)
    layer = {}
    if tracer is not None:
        try:
            tracing.check_accounting(tracer.spans)
        except tracing.AccountingError as exc:
            problems.append(f"trace accounting: {exc}")
        layer = tracing.layer_metrics(tracer.spans, rounds)
        layer["trace.overhead_ratio"] = (
            sum(r.latency for r in traced) / sum(lat), "ratio")
        tracer.dump(records / f"{args.workload}.seed{args.seed}.spans.jsonl")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"vendor": blas_vendor(), "threads": BLAS_THREADS,
                 "pinned_by": list(BLAS_ENV)},
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": rounds, "attempted": len(results),
        "failed": len(failures),
        "op_tail_percentile": tail_pct,
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": n}
                       for k, (v, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u, "samples": rounds}
                      for k, (v, u) in layer.items()},
        "setup_parts_s": {"import": import_s, "set_ups": setups},
        "ops": [[r.kind, r.start - start, r.latency, r.before, r.after]
                for r in plain],
        "outputs_sha256": digest,
        "self_test": {"caught": caught, "missed": missed},
        "problems": problems,
    }
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(records / name, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  ops {len(results)}  failed {len(failures)}")
    for key, unit in END_TO_END:
        value, n = e2e[key]
        shown = "-" if value is None else f"{value:.6g}"
        extra = f"  (p{tail_pct:.1f})" if key.startswith("op_tail") else ""
        print(f"  {key:<14} {shown:>12} {unit:<6} n={n}{extra}")
    for key, (value, unit) in sorted(layer.items()):
        print(f"  {key:<44} {value:>12.6g} {unit}")
    print(f"  self-test: {caught}/{caught + len(missed)} corruptions rejected")
    print(f"  outputs sha256 {digest}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"  record: {(records / name).relative_to(ROOT)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": units[k]} for k in GATED}
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
