"""Span tracer that wraps prenmf's public functions from outside the package.

``Tracer.install()`` replaces module attributes (``prenmf.nmf.ahals`` and so
on) with timing wrappers and ``uninstall()`` puts the originals back.  Calls
made inside a module resolve the name through the module's globals at call
time, so they are caught too: ``run_pipeline -> ahals``,
``max_wrap_slack -> contact_change_points``, ``preprocess_matrix ->
solve_column``.  Nothing in the package changes.

Each span is (name, start, end, parent, op, error, counts).  Spans stay in
memory; ``dump`` writes them out when the run ends.
"""

import functools
import json
import os
import statistics
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent op error counts")


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        return {"bytes": os.path.getsize(path)}
    return None


# Layer -> (attribute, span name, counter).  A counter turns the call's
# arguments and return value into counts stored on the span.
WRAPPED = {
    "cli": [
        ("cmd_preprocess", "cli.preprocess", None),
        ("cmd_factorize", "cli.factorize", None),
        ("cmd_npp", "cli.npp", None),
    ],
    "matio": [
        (name, f"matio.{name}", _path_bytes)
        for name in ("read_matrix", "read_csv", "read_matrix_market",
                     "write_matrix", "write_csv", "write_matrix_market")
    ],
    "cllsolve": [
        ("preprocess_matrix", "cllsolve.preprocess_matrix", None),
        ("solve_column", "cllsolve.solve_column",
         lambda a, k, r: {"pivots": r.iterations}),
        ("kkt_check", "cllsolve.kkt_check", None),
        ("nnls_columns", "cllsolve.nnls_columns",
         lambda a, k, r: {"columns": r.shape[1]}),
    ],
    "preprocessing": [
        ("preprocess", "preprocessing.preprocess", None),
        ("apply_alpha", "preprocessing.apply_alpha", None),
        ("spectral_radius", "preprocessing.spectral_radius", None),
        ("rescale_columns", "preprocessing.rescale_columns", None),
        ("find_alpha_bar", "preprocessing.find_alpha_bar", None),
    ],
    "npp3": [
        ("numerical_rank", "npp3.numerical_rank", None),
        ("build_npp", "npp3.build_npp", None),
        ("walk_fk", "npp3.walk_fk", lambda a, k, r: {"steps": r.steps}),
        ("sample_fk", "npp3.sample_fk", None),
        ("contact_change_points", "npp3.contact_change_points", None),
        ("max_wrap_slack", "npp3.max_wrap_slack", None),
        ("feasible_k", "npp3.feasible_k", None),
        ("enumerate_solutions", "npp3.enumerate_solutions",
         lambda a, k, r: {"solutions": len(r)}),
        ("hull_membership", "npp3.hull_membership", None),
    ],
    "nmf": [
        ("run_pipeline", "nmf.run_pipeline", None),
        ("ahals", "nmf.ahals", lambda a, k, r: {"iterations": r.iterations}),
        ("snmf", "nmf.snmf", lambda a, k, r: {"iterations": r.iterations,
                                              "collapses": r.collapses}),
        ("tune_mu", "nmf.tune_mu", None),
        ("refit_v", "nmf.refit_v", None),
        ("v_from_q", "nmf.v_from_q", None),
        ("postprocess_fixed_support", "nmf.postprocess_fixed_support", None),
    ],
}

LAYERS = tuple(WRAPPED)
ROOT = "op"


class AccountingError(AssertionError):
    """Self times and the unwrapped remainder do not add up to op wall time."""


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []

    def install(self):
        for layer, entries in WRAPPED.items():
            mod = self.modules[layer]
            for attr, name, counter in entries:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, counter, fn, args, kwargs)
        return wrapper

    def _call(self, name, counter, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = (counter(args, kwargs, result)
                      if counter is not None and error is None else None)
            self.spans[idx] = Span(name, start, end, parent, self._op, error,
                                   counts)

    def run_op(self, op_id, fn):
        """Run ``fn()`` as op ``op_id`` under a root span; returns its result."""
        self._op = op_id
        try:
            return self._call(ROOT, None, fn, (), {})
        finally:
            self._op = None

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans):
    """Span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def check_accounting(spans, tol=1e-6):
    """Per op: wrapped self times plus the unwrapped remainder equal wall time.

    The remainder is the root span's self time (argument parsing and other
    code outside every wrapped function).  Raises AccountingError on a span
    outside its parent or a sum that does not close.
    """
    own = self_times(spans)
    by_op = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s.op, []).append(i)
    for op, idxs in by_op.items():
        roots = [i for i in idxs if spans[i].name == ROOT]
        if len(roots) != 1:
            raise AccountingError(f"op {op}: {len(roots)} root spans")
        root = spans[roots[0]]
        wall = root.end - root.start
        rest = own[roots[0]]
        wrapped = sum(own[i] for i in idxs if i != roots[0])
        if min(own[i] for i in idxs) < -tol:
            raise AccountingError(f"op {op}: a child span outlasts its parent")
        if abs(wrapped + rest - wall) > tol:
            raise AccountingError(
                f"op {op}: self times {wrapped:.6f} s + remainder {rest:.6f} s "
                f"!= wall {wall:.6f} s")


def _stat(spans, own, name):
    idxs = [i for i, s in enumerate(spans) if s.name == name]
    durs = [spans[i].end - spans[i].start for i in idxs]
    counts = {}
    for i in idxs:
        for key, val in (spans[i].counts or {}).items():
            counts[key] = counts.get(key, 0) + val
    return {
        "idxs": idxs,
        "calls": len(idxs),
        "s": sum(durs),
        "self_s": sum(own[i] for i in idxs),
        "p50_s": statistics.median(durs) if durs else 0.0,
        "counts": counts,
        "errors": sum(1 for i in idxs if spans[i].error is not None),
    }


def _children_named(spans, parents, name):
    parents = set(parents)
    return sum(1 for s in spans if s.name == name and s.parent in parents)


def layer_metrics(spans, rounds):
    """Per-layer metrics of a traced run, per round of the workload's op list.

    Returns {metric name: (value, unit)}.  Shares are fractions of the traced
    ops' wall time.
    """
    own = self_times(spans)
    st = {name: _stat(spans, own, name)
          for name in {s.name for s in spans} | {
              n for entries in WRAPPED.values() for _, n, _ in entries}}
    per = 1.0 / rounds
    out = {}

    def put(key, value, unit):
        out[key] = (value, unit)

    def calls_s(name, *fields):
        for f in fields:
            value = st[name][f] if f == "p50_s" else st[name][f] * per
            put(f"{name}.{f}", value, "count" if f == "calls" else "s")

    for name in ("cli.preprocess", "cli.factorize", "cli.npp"):
        put(f"{name}.s", st[name]["s"] * per, "s")

    matio_outer = [i for i, s in enumerate(spans) if s.name.startswith("matio.")
                   and not (s.parent is not None
                            and spans[s.parent].name.startswith("matio."))]
    put("matio.calls", len(matio_outer) * per, "count")
    put("matio.s", sum(spans[i].end - spans[i].start for i in matio_outer) * per,
        "s")
    put("matio.bytes",
        sum((spans[i].counts or {}).get("bytes", 0) for i in matio_outer) * per,
        "bytes")

    calls_s("cllsolve.preprocess_matrix", "calls", "s")
    sc = st["cllsolve.solve_column"]
    calls_s("cllsolve.solve_column", "calls", "self_s", "p50_s")
    pivots = sc["counts"].get("pivots", 0)
    put("cllsolve.solve_column.pivots", pivots * per, "count")
    put("cllsolve.solve_column.s_per_pivot",
        sc["self_s"] / pivots if pivots else 0.0, "s")
    calls_s("cllsolve.kkt_check", "calls", "self_s")
    calls_s("cllsolve.nnls_columns", "calls", "self_s")
    put("cllsolve.nnls_columns.columns",
        st["cllsolve.nnls_columns"]["counts"].get("columns", 0) * per, "count")

    calls_s("preprocessing.preprocess", "calls", "self_s")
    calls_s("preprocessing.spectral_radius", "calls", "s")
    calls_s("preprocessing.apply_alpha", "calls", "s")
    calls_s("preprocessing.find_alpha_bar", "calls", "self_s")
    put("preprocessing.find_alpha_bar.slack_evals",
        _children_named(spans, st["preprocessing.find_alpha_bar"]["idxs"],
                        "npp3.max_wrap_slack") * per, "count")

    calls_s("npp3.build_npp", "calls", "s")
    calls_s("npp3.max_wrap_slack", "calls", "self_s")
    calls_s("npp3.contact_change_points", "calls", "s")
    es = st["npp3.enumerate_solutions"]
    calls_s("npp3.enumerate_solutions", "calls", "self_s")
    put("npp3.enumerate_solutions.solutions",
        es["counts"].get("solutions", 0) * per, "count")
    put("npp3.enumerate_solutions.continuum",
        sum(1 for i in es["idxs"] if spans[i].error == "NotFinite") * per,
        "count")
    calls_s("npp3.walk_fk", "calls", "s")
    put("npp3.walk_fk.steps", st["npp3.walk_fk"]["counts"].get("steps", 0) * per,
        "count")
    calls_s("npp3.sample_fk", "calls", "self_s")

    calls_s("nmf.run_pipeline", "calls", "self_s")
    ah = st["nmf.ahals"]
    calls_s("nmf.ahals", "calls", "s")
    its = ah["counts"].get("iterations", 0)
    put("nmf.ahals.iterations", its * per, "count")
    put("nmf.ahals.s_per_iteration", ah["s"] / its if its else 0.0, "s")
    sn = st["nmf.snmf"]
    calls_s("nmf.snmf", "calls", "s")
    put("nmf.snmf.iterations", sn["counts"].get("iterations", 0) * per, "count")
    put("nmf.snmf.collapses", sn["counts"].get("collapses", 0) * per, "count")
    calls_s("nmf.tune_mu", "calls", "self_s")
    put("nmf.tune_mu.probes",
        _children_named(spans, st["nmf.tune_mu"]["idxs"], "nmf.snmf") * per,
        "count")
    calls_s("nmf.refit_v", "calls", "s")
    calls_s("nmf.postprocess_fixed_support", "calls", "s")
    calls_s("nmf.v_from_q", "calls", "s")

    # cllsolve.errors counts SolverError and friends; npp3.errors leaves out
    # NotFinite, which is the engine's documented answer "continuum".
    put("cllsolve.errors",
        sum(1 for s in spans if s.name.startswith("cllsolve.") and s.error)
        * per, "count")
    put("npp3.errors",
        sum(1 for s in spans if s.name.startswith("npp3.") and s.error
            and s.error != "NotFinite") * per, "count")

    wall = sum(s.end - s.start for s in spans if s.name == ROOT)
    remainder = sum(own[i] for i, s in enumerate(spans) if s.name == ROOT)
    for layer in LAYERS:
        busy = sum(own[i] for i, s in enumerate(spans)
                   if s.name.split(".", 1)[0] == layer)
        put(f"share.{layer}", busy / wall, "ratio")
    put("share.unwrapped", remainder / wall, "ratio")
    put("trace.unwrapped_s", remainder * per, "s")
    return out
