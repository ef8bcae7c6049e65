"""In-process traced runs: spans and counters around expanderlab's layers.

:class:`Tracer` wraps, for as long as it is entered, every public function
of the seven layer modules (``field``, ``poly``, ``bound``, ``certificate``,
``explore``, ``rng``, ``cli``) in every expanderlab namespace that holds it,
so ``cli.image`` is wrapped as well as ``bound.image``.  A wrapped call
records a span (name, layer, start, end, parent) in memory.  Primitives
called up to millions of times per run are counted, not spanned, so that
tracing does not swamp the run: the field operators, ``is_prime`` and
``lucas_nonvanishing``.  ``Poly.__call__`` is counted and timed, and its
time is charged to the ``poly`` layer.

A span's self time is its duration minus the durations of the spans and
timed primitives directly inside it.  The layers' self times add up to the
time covered by top-level spans; the rest of the traced wall time is the
harness's own residual.  The library itself is not modified.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import io
import operator
import statistics
import sys
import time
import tracemalloc

from expanderlab import cli
from expanderlab.field import FieldElem, parse_field
from expanderlab.poly import Poly
from expanderlab.rng import Xoshiro256StarStar

LAYERS = ("field", "poly", "bound", "certificate", "explore", "rng", "cli")

# Public functions called per k, per pair or per element: counted only.
COUNTED = {"is_prime": "field.is_prime_calls",
           "lucas_nonvanishing": "bound.k_scanned"}

FIELD_OPERATORS = {"__add__": "field.add_calls", "__radd__": "field.add_calls",
                   "__sub__": "field.add_calls", "__rsub__": "field.add_calls",
                   "__neg__": "field.add_calls", "__mul__": "field.mul_calls",
                   "__rmul__": "field.mul_calls", "inverse": "field.inv_calls"}

# Microbenchmark fields, one per field kind the workloads use.
MICRO_FIELDS = {"F13": "13", "F251": "251", "F31_2": "31^2"}


def run_cli(argv):
    """Run the CLI in this process: (exit code, stdout bytes, stderr bytes).
    ``cli.main`` is looked up per call, so a Tracer's wrapper is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.spans = []        # (name, layer, start_ns, end_ns, parent index)
        self.child_ns = []     # per span: time inside directly nested spans
        self.stack = []
        self.cells = collections.defaultdict(lambda: [0])
        self.eval_ns = [0]
        self.loose_ns = 0      # timed primitives outside every span
        self._patches = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "expanderlab" or n.startswith("expanderlab.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.partition(".")
                if package != "expanderlab" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = (self._counter(obj, COUNTED[obj.__name__])
                                     if obj.__name__ in COUNTED
                                     else self._span(obj, f"{layer}.{obj.__name__}",
                                                     layer))
                self._patch(module, name, wrappers[obj])
        for name, key in FIELD_OPERATORS.items():
            self._patch(FieldElem, name, self._counter(vars(FieldElem)[name], key))
        self._patch(Poly, "__call__", self._timed_leaf(Poly.__call__))
        self._patch(Xoshiro256StarStar, "sample_indices",
                    self._span(Xoshiro256StarStar.sample_indices,
                               "rng.sample_indices", "rng"))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, fn, key):
        cell = self.cells[key]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed_leaf(self, fn):
        cell, total, stack, child = (self.cells["poly.eval_calls"], self.eval_ns,
                                     self.stack, self.child_ns)
        clock = time.perf_counter_ns

        def timed(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                total[0] += elapsed
                if stack:
                    child[stack[-1]] += elapsed
                else:
                    self.loose_ns += elapsed
        return timed

    def _span(self, fn, name, layer):
        spans, child, stack = self.spans, self.child_ns, self.stack
        clock = time.perf_counter_ns
        hook = RESULT_HOOKS.get(name)
        cells = self.cells

        def spanned(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
                if parent >= 0:
                    child[parent] += end - start
            if hook is not None:
                for key, amount in hook(args, kwargs, result):
                    cells[key][0] += amount
            return result
        return spanned

    # -- analysis ------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced run that took ``wall_s``."""
        self_ns = collections.Counter()
        calls = collections.Counter()
        layer_ns = dict.fromkeys(LAYERS, 0)
        covered_ns = self.loose_ns
        for index, (name, layer, start, end, parent) in enumerate(self.spans):
            own = end - start - self.child_ns[index]
            self_ns[name] += own
            calls[name] += 1
            layer_ns[layer] += own
            if parent < 0:
                covered_ns += end - start
        layer_ns["poly"] += self.eval_ns[0]
        count = {key: cell[0] for key, cell in self.cells.items()}
        s = {name: ns / 1e9 for name, ns in self_ns.items()}
        layers_s = sum(layer_ns.values()) / 1e9
        out = {
            "field.add_calls": count.get("field.add_calls", 0),
            "field.mul_calls": count.get("field.mul_calls", 0),
            "field.inv_calls": count.get("field.inv_calls", 0),
            "poly.eval_calls": count.get("poly.eval_calls", 0),
            "poly.eval_s": self.eval_ns[0] / 1e9,
            "bound.k_scanned": count.get("bound.k_scanned", 0),
            "bound.theorem_bound_calls": calls["bound.theorem_bound"],
            "bound.theorem_bound_s": s.get("bound.theorem_bound", 0.0),
            "bound.image_calls": calls["bound.image"],
            "bound.image_s": s.get("bound.image", 0.0),
            "certificate.solve_alpha_s": s.get("certificate.solve_alpha", 0.0),
            "certificate.solve_beta_s": s.get("certificate.solve_beta", 0.0),
            "certificate.lambda_s": s.get("certificate.lambda_coefficients", 0.0),
            "certificate.alpha_unknowns": count.get("certificate.alpha_unknowns", 0),
            "certificate.build_self_s": s.get("certificate.build_certificate", 0.0),
            "explore.search_self_s": s.get("explore.search_extremal", 0.0),
            "explore.pairs": count.get("explore.pairs", 0),
            "explore.subfield_self_s": s.get("explore.subfield_experiment", 0.0),
            "explore.records": count.get("explore.records", 0),
            "explore.render_s": s.get("explore.records_to_csv", 0.0),
            "rng.sample_calls": calls["rng.sample_indices"],
            "rng.sample_s": s.get("rng.sample_indices", 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
        out["trace.wall_s"] = wall_s
        out["trace.residual_s"] = wall_s - covered_ns / 1e9
        out["trace.layer_share"] = layers_s / wall_s
        return out

    def span_records(self) -> list[dict]:
        return [{"name": name, "layer": layer, "start_ns": start, "end_ns": end,
                 "parent": parent}
                for name, layer, start, end, parent in self.spans]


def _alpha_unknowns(args, kwargs, result):
    target_degree = args[3] if len(args) > 3 else kwargs["target_degree"]
    return [("certificate.alpha_unknowns", target_degree + 1)]


# Counts read off a spanned call's arguments or result.  search_extremal
# returns one record per pair it evaluates.
RESULT_HOOKS = {
    "explore.search_extremal": lambda args, kwargs, result: [
        ("explore.pairs", len(result)), ("explore.records", len(result))],
    "explore.subfield_experiment": lambda args, kwargs, result: [
        ("explore.records", len(result))],
    "certificate.solve_alpha": _alpha_unknowns,
}


def microbench(ops: int = 1000, repeats: int = 5) -> dict:
    """ns per call of the public field operators, untraced: median over
    ``repeats`` passes of ``ops`` calls on fixed nonzero operands, including
    the cost of the ``map`` loop."""
    out = {}
    for label, text in MICRO_FIELDS.items():
        nonzero = parse_field(text).elements()[1:]
        xs = [nonzero[(7919 * i) % len(nonzero)] for i in range(ops)]
        ys = [nonzero[(104729 * i + 3) % len(nonzero)] for i in range(ops)]
        for op, fn, args in (("add", operator.add, (xs, ys)),
                             ("mul", operator.mul, (xs, ys)),
                             ("inv", FieldElem.inverse, (xs,))):
            per_op = []
            for _ in range(repeats):
                start = time.perf_counter_ns()
                collections.deque(map(fn, *args), maxlen=0)
                per_op.append((time.perf_counter_ns() - start) / ops)
            out[f"field.{op}_ns.{label}"] = statistics.median(per_op)
    return out


def traced_run(argv, check, seconds: float):
    """The field microbenchmark, an untraced tracemalloc pass, then untraced
    and traced in-process runs of one invocation in turn, at least one pair
    and as many as fit in about ``seconds`` in all.  Returns (metrics,
    attempted, failed, the last traced run's spans)."""
    began = time.perf_counter()
    metrics = microbench()
    attempted = failed = 0

    def checked(run):
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        try:
            code, out, err = run(argv)
        except Exception as exc:  # a crash is a failed invocation, not a harness error
            print(f"run crashed: {exc!r}", file=sys.stderr)
            failed += 1
            return time.perf_counter() - start, 0
        wall = time.perf_counter() - start
        problem = f"exit code {code}" if code != 0 else check(argv, out, err)
        if problem is not None:
            print(f"incorrect output: {problem}", file=sys.stderr)
            failed += 1
        return wall, len(out)

    tracemalloc.start()
    try:
        checked(run_cli)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    untraced, traced = [], []
    while True:
        wall_untraced, _ = checked(run_cli)
        with Tracer() as tracer:
            wall_traced, out_bytes = checked(run_cli)
        summary = tracer.summary(wall_traced)
        summary["cli.output_bytes"] = out_bytes
        untraced.append(wall_untraced)
        traced.append(summary)
        if time.perf_counter() - began + wall_untraced + wall_traced > seconds:
            break
    for key in traced[0]:
        metrics[key] = statistics.median(t[key] for t in traced)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_s"]
    records = metrics["explore.records"]
    metrics["explore.bytes_per_record"] = peak_bytes / records if records else 0.0
    return metrics, attempted, failed, tracer.span_records()
