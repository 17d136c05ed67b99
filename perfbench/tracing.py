"""Spans and counters around the program's layers, for the traced run.

Tracing lives entirely in the benchmark: :func:`install` replaces each
traced public function at the name its caller resolves (the benchmark
resolves ``dimdecomp.<name>``, the CLI ``dimdecomp.cli.<name>``, the
library its own module globals) with a wrapper that records a span, and
restores the originals on exit.  A span's self time is its duration minus
the time its child spans cover.

Three closed-form counts are pinned while tracing; a mismatch is recorded
in :attr:`Tracer.pin_errors` and fails the task that caused it:

* each ``build_add`` evaluates the target on exactly ``prod_j q_j`` points;
* each ``mc_expected_rdd_error`` evaluates it on exactly
  ``n_pairs * (1 + sum_{k<=S} C(N, k))`` points;
* each ``rdd_direct`` on exactly ``m * sum_{k<=S} C(N, k)`` points.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

ROWS = "functions.rows"


def _count_up_to(N: int, S: int) -> int:
    return sum(math.comb(N, k) for k in range(S + 1))


class Tracer:
    """In-memory span totals and counters for one pass over a task list."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.reset()

    def reset(self) -> None:
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_mib = 0.0
        self.pin_errors: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1

    def pin(self, label: str, got: int, want: int) -> None:
        if got != want:
            self.pin_errors.append(f"{label}: {got} target rows, closed form {want}")


# -- wrappers -----------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    """Span around each call; `after(tracer, bound_args, rows)` sees the
    target rows evaluated inside the call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rows0 = tracer.counts[ROWS]
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(tracer, _bound(fn, args, kwargs), tracer.counts[ROWS] - rows0)
        return out

    return traced


def _wrap_gen(tracer: Tracer, name: str, fn):
    """Span around each step of a generator; counts the items yielded."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            tracer.counts["subsets.yielded"] += 1
            yield item

    return traced


def _wrap_make_function(tracer: Tracer, make):
    """Wrap each target function the factory returns in a counting span."""

    @functools.wraps(make)
    def traced(*args, **kwargs):
        fn = make(*args, **kwargs)

        def counted(x):
            tracer.counts[ROWS] += math.prod(np.shape(x)[:-1])
            with tracer.span("functions"):
                return fn(x)

        return counted

    return traced


def _wrap_alloc_peak(tracer: Tracer, name: str, fn):
    """Span plus a tracemalloc peak (MiB) of the allocations inside it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            with tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak_mib = max(tracer.peak_mib, peak / 2**20)

    return traced


def _after_build_add(tracer, a, rows):
    want = math.prod(a["problem"].orders)
    tracer.counts["decomp.grid_points"] += want
    tracer.pin("build_add", rows, want)


def _after_rdd_direct(tracer, a, rows):
    x = np.asarray(a["x"])
    m = 1 if x.ndim == 1 else x.shape[0]
    tracer.counts["rdd.points"] += m
    tracer.counts["rdd.rows"] += rows
    tracer.pin("rdd_direct", rows, m * _count_up_to(a["problem"].dim, a["order"]))


def _after_expected_rdd(tracer, a, rows):
    n = a["n_pairs"]
    tracer.counts["mc.pairs"] += n
    tracer.pin(
        "mc_expected_rdd_error", rows, n * (1 + _count_up_to(a["problem"].dim, a["order"]))
    )


def _after_sample(tracer, a, rows):
    size = a["size"]
    tracer.counts["measures.sample_rows"] += 1 if size is None else int(size)


_CALL, _GEN, _MAKE, _ALLOC = "call", "gen", "make", "alloc"

# (module, attribute, span, kind, after-hook).  An attribute may name a
# method as "Class.method"; callers resolve those through the class.
PLAN = (
    ("dimdecomp", "make_function", "functions", _MAKE, None),
    ("dimdecomp.cli", "make_function", "functions", _MAKE, None),
    ("dimdecomp.decomp", "product_rules", "measures.rules", _CALL, None),
    ("dimdecomp.measures", "ProductMeasure.sample", "measures.sample", _CALL, _after_sample),
    ("dimdecomp.decomp", "all_subsets_up_to", "subsets", _GEN, None),
    ("dimdecomp.decomp", "strict_subsets", "subsets", _GEN, None),
    ("dimdecomp.decomp", "subsets_of_cardinality", "subsets", _GEN, None),
    ("dimdecomp.variance", "all_subsets_up_to", "subsets", _GEN, None),
    ("dimdecomp.cli", "all_subsets_up_to", "subsets", _GEN, None),
    ("dimdecomp", "build_add", "decomp.build_add", _CALL, _after_build_add),
    ("dimdecomp.cli", "build_add", "decomp.build_add", _CALL, _after_build_add),
    ("dimdecomp", "check_add_structure", "decomp.check_add_structure", _CALL, None),
    ("dimdecomp.cli", "check_add_structure", "decomp.check_add_structure", _CALL, None),
    ("dimdecomp.mc", "rdd_direct", "decomp.rdd_direct", _CALL, _after_rdd_direct),
    ("dimdecomp.decomp", "rdd_direct", "decomp.rdd_direct", _CALL, _after_rdd_direct),
    ("dimdecomp.decomp", "ComponentTable.truncated", "decomp.truncated", _CALL, None),
    ("dimdecomp.cli", "check_form_equivalence", "decomp.check_form_equivalence", _CALL, None),
    ("dimdecomp.cli", "check_rdd_structure", "decomp.check_rdd_structure", _CALL, None),
    ("dimdecomp", "variance_components", "variance.components", _CALL, None),
    ("dimdecomp.cli", "variance_components", "variance.components", _CALL, None),
    ("dimdecomp.cli", "sobol_D", "variance.sobol_D", _CALL, None),
    ("dimdecomp", "rdd_expected_error", "errors.budgets", _CALL, None),
    ("dimdecomp.cli", "rdd_expected_error", "errors.budgets", _CALL, None),
    ("dimdecomp.errors", "rdd_expected_error", "errors.budgets", _CALL, None),
    ("dimdecomp.cli", "decay_curves", "errors.decay_curves", _CALL, None),
    ("dimdecomp.cli", "pmin_for_N", "errors.pmin", _CALL, None),
    ("dimdecomp", "mc_expected_rdd_error", "mc.expected_rdd", _CALL, _after_expected_rdd),
    ("dimdecomp.cli", "mc_expected_rdd_error", "mc.expected_rdd", _CALL, _after_expected_rdd),
    ("dimdecomp.cli", "mc_add_error", "mc.add_error", _ALLOC, None),
    ("dimdecomp.cli", "cmd_decompose", "cli.decompose", _CALL, None),
    ("dimdecomp.cli", "cmd_errors", "cli.errors", _CALL, None),
    ("dimdecomp.cli", "cmd_verify", "cli.verify", _CALL, None),
    ("dimdecomp.cli", "cmd_figure1", "cli.figure1", _CALL, None),
    ("dimdecomp.cli", "cmd_contrived", "cli.contrived", _CALL, None),
)


def _owner(module: str, attr: str):
    """(object holding the attribute, attribute name), or None if gone."""
    obj = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return (obj, leaf) if hasattr(obj, leaf) else None


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace every PLAN target that exists; yields the spans with a
    missing target, whose metrics are then reported missing."""
    saved, missing = [], set()
    try:
        for module, attr, span, kind, after in PLAN:
            owner = _owner(module, attr)
            if owner is None:
                missing.add(span)
                continue
            obj, leaf = owner
            fn = inspect.getattr_static(obj, leaf)  # a method stays unbound
            if kind == _MAKE:
                wrapped = _wrap_make_function(tracer, fn)
            elif kind == _GEN:
                wrapped = _wrap_gen(tracer, span, fn)
            elif kind == _ALLOC:
                wrapped = _wrap_alloc_peak(tracer, span, fn)
            else:
                wrapped = _wrap_call(tracer, span, fn, after)
            saved.append((obj, leaf, fn))
            setattr(obj, leaf, wrapped)
        yield missing
    finally:
        for obj, leaf, fn in reversed(saved):
            setattr(obj, leaf, fn)


# -- per-layer metrics ------------------------------------------------------------

CLI_SPANS = ("cli.decompose", "cli.errors", "cli.verify", "cli.figure1", "cli.contrived")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str, tuple[str, ...]]]:
    """Per-layer metrics of one traced pass: name -> (value, unit, spans it
    needs).  Gate and overhead metrics are added by the runner."""
    t, s, n, c = tr.total_s, tr.self_s, tr.calls, tr.counts
    return {
        "functions.rows": (c[ROWS], "count", ("functions",)),
        "functions.calls": (n["functions"], "count", ("functions",)),
        "functions.busy_s": (t["functions"], "s", ("functions",)),
        "functions.rows_per_call": (_ratio(c[ROWS], n["functions"]), "rows/call", ("functions",)),
        "measures.rules_s": (t["measures.rules"], "s", ("measures.rules",)),
        "measures.sample_s": (t["measures.sample"], "s", ("measures.sample",)),
        "measures.sample_rows": (c["measures.sample_rows"], "count", ("measures.sample",)),
        "subsets.yielded": (c["subsets.yielded"], "count", ("subsets",)),
        "subsets.busy_s": (t["subsets"], "s", ("subsets",)),
        "decomp.build_add_s": (t["decomp.build_add"], "s", ("decomp.build_add",)),
        "decomp.build_add_self_s": (s["decomp.build_add"], "s", ("decomp.build_add",)),
        "decomp.grid_points": (c["decomp.grid_points"], "count", ("decomp.build_add",)),
        "decomp.check_add_structure_s": (
            t["decomp.check_add_structure"], "s", ("decomp.check_add_structure",)
        ),
        "decomp.rdd_direct_s": (t["decomp.rdd_direct"], "s", ("decomp.rdd_direct",)),
        "decomp.rdd_direct_self_s": (s["decomp.rdd_direct"], "s", ("decomp.rdd_direct",)),
        "decomp.rdd_evals_per_pair": (
            _ratio(c["rdd.rows"], c["rdd.points"]), "evals/pair", ("decomp.rdd_direct",)
        ),
        "decomp.truncated_s": (t["decomp.truncated"], "s", ("decomp.truncated",)),
        "decomp.check_form_equivalence_s": (
            t["decomp.check_form_equivalence"], "s", ("decomp.check_form_equivalence",)
        ),
        "decomp.check_rdd_structure_s": (
            t["decomp.check_rdd_structure"], "s", ("decomp.check_rdd_structure",)
        ),
        "variance.components_s": (t["variance.components"], "s", ("variance.components",)),
        "variance.sobol_D_s": (t["variance.sobol_D"], "s", ("variance.sobol_D",)),
        "errors.budgets_s": (t["errors.budgets"], "s", ("errors.budgets",)),
        "errors.decay_curves_s": (t["errors.decay_curves"], "s", ("errors.decay_curves",)),
        "errors.pmin_s": (t["errors.pmin"], "s", ("errors.pmin",)),
        "mc.expected_rdd_s": (t["mc.expected_rdd"], "s", ("mc.expected_rdd",)),
        "mc.expected_rdd_self_s": (s["mc.expected_rdd"], "s", ("mc.expected_rdd",)),
        "mc.pairs": (c["mc.pairs"], "count", ("mc.expected_rdd",)),
        "mc.pairs_per_s": (
            _ratio(c["mc.pairs"], t["mc.expected_rdd"]), "1/s", ("mc.expected_rdd",)
        ),
        "mc.add_error_s": (t["mc.add_error"], "s", ("mc.add_error",)),
        "mc.add_error_peak_mib": (tr.peak_mib, "MiB", ("mc.add_error",)),
        "cli.decompose_s": (t["cli.decompose"], "s", ("cli.decompose",)),
        "cli.errors_s": (t["cli.errors"], "s", ("cli.errors",)),
        "cli.verify_s": (t["cli.verify"], "s", ("cli.verify",)),
        "cli.figure1_s": (t["cli.figure1"], "s", ("cli.figure1",)),
        "cli.contrived_s": (t["cli.contrived"], "s", ("cli.contrived",)),
        "cli.self_s": (sum(s[name] for name in CLI_SPANS), "s", CLI_SPANS),
    }
