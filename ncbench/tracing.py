"""Spans and counters recorded around calls into ncadmm, from outside it.

Every wrapper is installed on a module or class attribute that the package
looks up at call time (``solvers_mod.run``, ``metrics.stationarity``,
``problem.grad``, ...), so no file of the package changes. A span is the list
``[name, start, end, parent]``; the parent is the index of the enclosing span
and comes from a call stack, which is exact because the benchmark runs one
experiment at a time on one thread.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import ncadmm.cli as cli_mod
import ncadmm.data as data_mod
import ncadmm.metrics as metrics_mod
import ncadmm.params as params_mod
import ncadmm.solvers as solvers_mod
from ncadmm.problems import (
    BlockSeparableRegularizer,
    CompositeProblem,
    SigmoidLoss,
    SmoothedMultiTaskLoss,
)

ROOT = "cli.run_experiment"

# Span names whose inclusive and self times are reported, in report order.
SPAN_NAMES = [
    "data.gen", "data.split", "data.parse",
    "problems.constraints", "problems.grad", "problems.grad_matrix",
    "problems.value", "problems.prox",
    "params.lipschitz", "params.certify", "params.suggest",
    "solvers.run", "solvers.y_update", "solvers.grad_estimate",
    "solvers.x_step", "solvers.dual", "solvers.saga_table", "solvers.record",
    "metrics.stationarity",
    "cli.build_problem", "cli.test_eval", "cli.output",
]

COUNT_NAMES = [
    "problems.grad_calls", "problems.grad_rows", "problems.gather_bytes",
    "problems.grad_matrix_rows", "problems.value_rows",
    "params.cert_attempts", "params.cert_accepted",
    "metrics.stationarity_calls",
]


class RunProbe:
    """Always-on wrapper of ``solvers.run``: entry time, duration and result.

    It is the only instrumentation of an untraced run (a handful of calls per
    experiment), so end-to-end metrics need no tracing.
    """

    def __init__(self):
        self.calls = []
        self._orig = None

    def install(self):
        self._orig = orig = solvers_mod.run
        calls = self.calls

        def run(problem, config, callback=None):
            call = {
                "variant": config.variant, "T": config.T, "n": problem.n,
                "d": problem.d, "p": problem.p, "q": problem.constraints.q,
                "start": time.perf_counter(), "error": None,
            }
            calls.append(call)
            try:
                result = orig(problem, config, callback)
            except BaseException as exc:
                call["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                call["end"] = time.perf_counter()
            call["ifo"] = result.trace[-1].ifo if result.trace else 0
            table = result.state.grad_table
            call["saga_table_bytes"] = 0 if table is None else table.nbytes
            return result

        solvers_mod.run = run

    def uninstall(self):
        solvers_mod.run = self._orig


class _JsonProxy:
    """Stands in for ``json`` inside ``ncadmm.cli`` so ``summary.json``'s
    ``json.dump`` is timed; every other attribute is the real module's."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


def _index_rows(args, kwargs, pos, n):
    idx = args[pos] if len(args) > pos else kwargs.get("index_set")
    return n if idx is None else len(idx)


class Tracer:
    """Records spans and counters for one experiment at a time."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [-1]

    def open(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(i)
        return i

    def close(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr, name, count=None):
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, orig in reversed(self._patched):
                setattr(owner, attr, orig)
            self._patched = []

    def _install(self):
        w = self._wrap_attr
        w(data_mod, "gen_graph_guided", "data.gen")
        w(data_mod, "split", "data.split")
        w(data_mod, "parse_libsvm", "data.parse")
        # cli imported the constructors by name, so its own bindings are
        # the ones run_experiment calls
        for attr in ("build_graph_guided_A", "build_overlap_A",
                     "build_multitask_constraints"):
            w(cli_mod, attr, "problems.constraints")

        def grad_count(c, args, kwargs, out):
            problem = args[0]
            rows = _index_rows(args, kwargs, 2, problem.n)
            c["problems.grad_calls"] += 1
            c["problems.grad_rows"] += rows
            # dense-equivalent bytes of the gathered feature rows
            c["problems.gather_bytes"] += rows * problem.loss.features.shape[1] * 8

        def grad_matrix_count(c, args, kwargs, out):
            c["problems.grad_matrix_rows"] += _index_rows(args, kwargs, 2, args[0].n)

        def value_count(c, args, kwargs, out):
            c["problems.value_rows"] += _index_rows(args, kwargs, 2, args[0].n)

        w(CompositeProblem, "grad", "problems.grad", grad_count)
        w(CompositeProblem, "grad_matrix", "problems.grad_matrix", grad_matrix_count)
        w(SigmoidLoss, "value", "problems.value", value_count)
        w(SmoothedMultiTaskLoss, "value", "problems.value", value_count)
        w(BlockSeparableRegularizer, "prox", "problems.prox")

        def cert_count(c, args, kwargs, out):
            c["params.cert_attempts"] += 1
            c["params.cert_accepted"] += int(bool(out.accepted))

        w(params_mod, "estimate_lipschitz", "params.lipschitz")
        w(params_mod, "check_feasible", "params.certify", cert_count)
        w(params_mod, "min_admissible_r", "params.suggest")
        w(params_mod, "suggest_params", "params.suggest")

        w(solvers_mod, "run", "solvers.run")
        w(solvers_mod, "y_update", "solvers.y_update")
        for attr in ("stoc_gradient", "svrg_gradient", "saga_gradient"):
            w(solvers_mod, attr, "solvers.grad_estimate")
        w(solvers_mod, "x_update_uzawa", "solvers.x_step")
        w(solvers_mod, "lambda_update", "solvers.dual")
        w(solvers_mod, "saga_table_update", "solvers.saga_table")
        w(solvers_mod, "_record", "solvers.record")

        def stationarity_count(c, args, kwargs, out):
            c["metrics.stationarity_calls"] += 1

        w(metrics_mod, "stationarity", "metrics.stationarity", stationarity_count)

        w(cli_mod, "build_problem", "cli.build_problem")
        make_eval = cli_mod.make_test_evaluator

        def make_test_evaluator(problem, test):
            return self.wrap("cli.test_eval", make_eval(problem, test))

        self._patch(cli_mod, "make_test_evaluator", make_test_evaluator)
        w(cli_mod, "_write_csv_atomic", "cli.output")
        w(cli_mod, "_aggregate_rows", "cli.output")
        self._patch(cli_mod, "json", _JsonProxy(self.wrap("cli.output", json.dump)))


def layer_metrics(spans, counts, calls):
    """Per-layer values of one traced experiment.

    ``<span>_s`` is inclusive time (nested spans of the same name counted
    once), ``<span>_self_s`` is duration minus the time child spans cover.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    full_grad = 0.0
    active = []  # stack of open span indices while replaying in start order
    for i, (name, start, end, parent) in enumerate(spans):
        while active and active[-1] != parent:
            active.pop()
        dur = end - start
        if not any(spans[j][0] == name for j in active):
            inclusive[name] += dur
        self_time[name] += dur - child[i]
        if (parent >= 0 and spans[parent][0] == "solvers.run"
                and name in ("problems.grad", "problems.grad_matrix")):
            full_grad += dur
        active.append(i)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = inclusive[name]
        out[f"{name}_self_s"] = self_time[name]
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0)
    out["solvers.full_grad_s"] = full_grad
    out["solvers.saga_table_bytes"] = sum(c.get("saga_table_bytes", 0) for c in calls)
    out["solvers.iterations"] = sum(c["T"] for c in calls)
    out["solvers.ifo"] = sum(c.get("ifo", 0) for c in calls)
    out["cli.wall_s"] = inclusive[ROOT]
    out["cli.unattributed_s"] = self_time[ROOT]
    return out


def spans_to_json(spans):
    """Compact column form of a span list, times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    return {
        "names": [s[0] for s in spans],
        "start": [s[1] - t0 for s in spans],
        "end": [s[2] - t0 for s in spans],
        "parent": [s[3] for s in spans],
    }
