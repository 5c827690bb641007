"""The benchmark's tracer wraps package attributes by name.

`ncbench/tracing.py` installs its wrappers on module and class attributes of
ncadmm that the package looks up at call time. Renaming or deleting one, or
binding it at import, breaks `ncbench/run.py --trace 1`; these tests catch
that in the unit suite. They read `ncbench/` and change nothing there.
"""

import importlib.util
import os

import numpy as np

from ncadmm import cli, metrics, params, solvers

from conftest import make_graph_guided_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "ncbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("ncbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    names = [(params, "check_feasible"), (params, "min_admissible_r"),
             (params, "suggest_params"), (cli, "_aggregate_rows"),
             (cli, "build_problem"), (solvers, "svrg_gradient"),
             (solvers, "saga_gradient"), (solvers, "stoc_gradient"),
             (solvers, "y_update"), (solvers, "x_update_uzawa"),
             (solvers, "lambda_update"), (solvers, "_record"),
             (solvers, "run"), (metrics, "stationarity")]
    before = [getattr(owner, attr) for owner, attr in names]
    with tracing.Tracer().installed():
        during = [getattr(owner, attr) for owner, attr in names]
    after = [getattr(owner, attr) for owner, attr in names]
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_traced_run_reaches_every_layer(tmp_path):
    tracing = load_tracing()
    spec = {
        "version": "v1",
        "problem": {"kind": "graph_guided", "n": 120, "d": 6, "seed": 3,
                    "empty_support": True},
        "solvers": [{"variant": v, "eta": 1.0, "rho": 60.0, "M": 20, "T": 4}
                    for v in ("dete", "stoc", "svrg", "saga")],
        "repetitions": 2,
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.run_experiment(spec, str(tmp_path), allow_uncertified=True,
                                  echo=lambda *a: None)
    assert code == cli.EXIT_OK
    names = [span[0] for span in tracer.spans]
    assert {"params.certify", "params.suggest", "solvers.grad_estimate",
            "solvers.y_update", "solvers.x_step", "solvers.dual",
            "solvers.saga_table", "solvers.record", "metrics.stationarity",
            "cli.build_problem", "cli.output"} <= set(names)
    # one table write per saga iteration: T x repetitions
    assert names.count("solvers.saga_table") == 4 * 2
    # one record per iteration of each solver, and one stationarity call each
    assert names.count("solvers.record") == 4 * 4 * 2
    assert tracer.counts["metrics.stationarity_calls"] == 4 * 4 * 2
    assert tracer.counts["params.cert_attempts"] == 4


class _CountedProducts:
    """A matrix whose products with a vector are counted by name."""

    def __init__(self, matrix, name, seen):
        self.matrix, self.name, self.seen = matrix, name, seen

    def __matmul__(self, v):
        self.seen.append(self.name)
        return self.matrix @ v


def test_record_makes_two_products_with_A(monkeypatch):
    # the dual step's residual serves the record: A^T lambda and A dx remain
    prob = make_graph_guided_problem()
    cs = prob.constraints
    rng = np.random.default_rng(0)
    x, x_prev = rng.standard_normal(prob.d), rng.standard_normal(prob.d)
    y, lam, resid = (rng.standard_normal(cs.q) for _ in range(3))
    state = solvers.SolverState(x=x, y=y, lam=lam, x_prev=x_prev)
    cfg = solvers.SolverConfig("stoc", eta=1.0, rho=2.0, r=1.0, M=1, T=1)
    seen = []
    monkeypatch.setattr(cs, "A", _CountedProducts(cs.A, "A", seen))
    monkeypatch.setattr(cs, "AT", _CountedProducts(cs.AT, "AT", seen))
    solvers._record(prob, cfg, state, solvers.BatchMean(prob, 1), 0.0, resid)
    assert sorted(seen) == ["A", "AT"]
