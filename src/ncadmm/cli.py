"""Benchmark CLI: experiment runs, parameter certification, rho sweeps.

Experiment specs are JSON (schema version "v1"); every run emits one CSV per
(solver, repetition), an across-repetition mean CSV per solver and a JSON
summary. CSV column order is fixed:

    t, wall_time_s, ifo, objective, test_error, test_loss,
    feas_sq, dual_sq, subgrad_sq, lyapunov
"""

import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import data as data_mod
from . import params as params_mod
from . import solvers as solvers_mod
from .exceptions import ConfigError, DivergenceError, NcadmmError
from .problems import (
    BlockSeparableRegularizer,
    CompositeProblem,
    SigmoidLoss,
    SmoothedMultiTaskLoss,
    build_graph_guided_A,
    build_multitask_constraints,
    build_overlap_A,
)

CSV_COLUMNS = [
    "t", "wall_time_s", "ifo", "objective", "test_error", "test_loss",
    "feas_sq", "dual_sq", "subgrad_sq", "lyapunov",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

_REFUSED = (
    "a solver configuration fails its certificate (see summary.json); "
    "pass --allow-uncertified to run it anyway"
)


# keys build_problem reads without a default, per problem kind
_PROBLEM_KEYS = {
    "graph_guided": ("n", "d"),
    "overlap": ("n",),
    "libsvm": ("path",),
    "multitask": ("path",),
}
_SOLVER_KEYS = ("variant", "rho")

# spec values read as numbers: reals, and integers with their lower bound
_SOLVER_REALS = ("eta", "rho", "r")
_SOLVER_INTS = {"T": 1, "M": 1, "m": 1, "seed": 0}
_SPEC_INTS = {"repetitions": 1, "seed_base": 0, "trace_stride": 1}
_PROBLEM_REALS = ("nu", "train_fraction", "support_density", "nu1", "nu2",
                  "beta", "theta")
_PROBLEM_INTS = {"n": 1, "d": 1, "grid": 1, "k": 1, "seed": 0, "support_seed": 0}
# `config_defaults` fills these in when they are null
_NULL_MEANS_DEFAULT = ("r", "M", "m")


def _require(entry, keys, where):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in keys:
        if key not in entry:
            raise ConfigError(f"{where} lacks required key {key!r}")


def _check_numbers(owner, where, reals=(), ints=None):
    """Refuse a present value that is not a finite number, or not an
    integer at or above its bound."""
    ints = ints or {}
    for key in (*reals, *ints):
        if key not in owner:
            continue
        value = owner[key]
        if value is None and key in _NULL_MEANS_DEFAULT:
            continue
        integer = key in ints
        ok = (isinstance(value, int if integer else (int, float))
              and not isinstance(value, bool))
        if ok and isinstance(value, float):
            ok = math.isfinite(value)
        if not ok:
            kind = "an integer" if integer else "a finite number"
            raise ConfigError(f"{where}: {key} must be {kind}, got {value!r}")
        if integer and value < ints[key]:
            raise ConfigError(
                f"{where}: {key} must be >= {ints[key]}, got {value!r}"
            )


def _check_strings(owner, where, keys):
    """Refuse a present value that is not a string."""
    for key in keys:
        value = owner.get(key, "")
        if value is None and key == "name":
            continue  # a null name means the variant's
        if not isinstance(value, str):
            raise ConfigError(f"{where}: {key} must be a string, got {value!r}")


def _check_problem_spec(problem):
    """Refuse a problem spec that build_problem could not assemble."""
    _require(problem, ("kind",), "problem")
    _check_strings(problem, "problem", ("kind",))
    kind = problem["kind"]
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    _require(problem, _PROBLEM_KEYS[kind], f"{kind} problem")
    _check_strings(problem, f"{kind} problem", ("path",))
    _check_numbers(problem, f"{kind} problem", _PROBLEM_REALS, _PROBLEM_INTS)
    return problem


def _check_spec(spec, solver_keys=_SOLVER_KEYS):
    """Refuse an experiment spec with a wrong version or a missing key."""
    _require(spec, ("problem",), "experiment spec")
    if spec.get("version") != "v1":
        raise ConfigError(f"unsupported spec version {spec.get('version')!r}")
    _check_problem_spec(spec["problem"])
    if not spec.get("solvers"):
        raise ConfigError("experiment spec lists no solvers")
    for i, entry in enumerate(spec["solvers"]):
        _require(entry, solver_keys, f"solver entry {i}")
        _check_strings(entry, f"solver entry {i}", ("variant", "name"))
        _check_numbers(entry, f"solver entry {i}", _SOLVER_REALS, _SOLVER_INTS)
    names = [s.get("name") or s["variant"] for s in spec["solvers"]]
    if len(set(names)) != len(names):
        raise ConfigError("solver names must be distinct")
    _check_numbers(spec, "experiment spec", ints=_SPEC_INTS)
    return spec


def load_spec(path, solver_keys=_SOLVER_KEYS):
    return _check_spec(_load_json(path), solver_keys)


def build_problem(problem_spec):
    """Assemble (CompositeProblem, test Dataset, info) from a spec dict."""
    kind = problem_spec["kind"]
    seed = problem_spec.get("seed", 0)
    nu = problem_spec.get("nu", 1e-5)
    frac = problem_spec.get("train_fraction", 0.5)
    info = {"kind": kind, "seed": seed}

    if kind in ("graph_guided", "overlap"):
        # generated straight into split order; train and test are views
        train_idx, test_idx = data_mod.split_indices(problem_spec["n"], frac, seed + 1)
        order = np.concatenate([train_idx, test_idx])
    if kind == "graph_guided":
        ds, prec, x_star = data_mod.gen_graph_guided(
            problem_spec["n"], problem_spec["d"], seed, order=order
        )
        support = prec.support
        if problem_spec.get("empty_support"):
            support = np.zeros_like(support)
        cs = build_graph_guided_A(support)
        train, test = data_mod.split_views(ds, train_idx.size)
        loss = SigmoidLoss(train.features, train.labels)
        reg = BlockSeparableRegularizer.l1(cs.q, nu)
        info["edges"] = int(support.sum() // 2)
    elif kind == "overlap":
        ds, x_star = data_mod.gen_overlap(
            problem_spec["n"], seed, grid=problem_spec.get("grid", 20), order=order
        )
        k = problem_spec.get("k", 2)
        cs = build_overlap_A(ds.d, k)
        train, test = data_mod.split_views(ds, train_idx.size)
        loss = SigmoidLoss(train.features, train.labels)
        reg = BlockSeparableRegularizer.l1(cs.q, nu)
    elif kind == "libsvm":
        ds = data_mod.parse_libsvm(problem_spec["path"], label_mode="binary")
        train, test = data_mod.split(ds, frac, seed + 1)
        d = ds.d
        support = _random_support(
            d,
            problem_spec.get("support_density", 0.05),
            problem_spec.get("support_seed", seed),
        )
        cs = build_graph_guided_A(support)
        loss = SigmoidLoss(train.features, train.labels)
        reg = BlockSeparableRegularizer.l1(cs.q, nu)
    elif kind == "multitask":
        ds = data_mod.parse_libsvm(problem_spec["path"], label_mode="multiclass")
        train, test = data_mod.split(ds, frac, seed + 1)
        m = ds.meta["classes"]
        data_mod.check_dim(
            m * ds.d, f"multitask model of {m} classes x {ds.d} features"
        )
        nu1 = problem_spec.get("nu1", 1e-5)
        nu2 = problem_spec.get("nu2", 1e-4)
        beta = problem_spec.get("beta", 1.0)
        theta = problem_spec.get("theta", 1.0)
        loss = SmoothedMultiTaskLoss(
            train.features, train.labels.astype(int), m, nu1,
            beta=beta, theta=theta,
        )
        cs, reg = build_multitask_constraints(m, ds.d, nu1, nu2, loss.kappa0)
        info["classes"] = m
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")

    problem = CompositeProblem(loss=loss, regularizer=reg, constraints=cs)
    return problem, test, info


def _random_support(d, density, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    try:
        draw = rng.random((d, d))
    except MemoryError:
        raise ConfigError(
            f"the random support over d={d} features needs a d x d array "
            "that does not fit in memory"
        ) from None
    upper = draw < density
    upper = np.triu(upper, k=1)
    return upper | upper.T


def make_test_evaluator(problem, test):
    """Return f(x) -> (misclassification rate, mean test loss)."""
    loss = problem.loss
    if isinstance(loss, SigmoidLoss):
        test_loss = SigmoidLoss(test.features, test.labels)
        feats, labels = test_loss.features, test_loss.labels

        def evaluate(x):
            scores = np.asarray(feats @ x).ravel()
            pred = np.where(scores >= 0, 1.0, -1.0)
            err = float(np.mean(pred != labels))
            return err, test_loss.value_from_scores(x, scores)
    else:
        test_loss = SmoothedMultiTaskLoss(
            test.features, test.labels.astype(int), loss.classes, loss.nu1,
            beta=loss.beta, theta=loss.theta,
        )

        def evaluate(x):
            X = x.reshape(loss.classes, loss.d_features)
            scores = np.asarray(test_loss.features @ X.T)
            pred = scores.argmax(axis=1)
            err = float(np.mean(pred != test_loss.labels))
            return err, test_loss.value_from_scores(x, scores)

    return evaluate


def solver_config_from_spec(entry, problem, trace_stride=1):
    variant = entry["variant"]
    eta = entry.get("eta", 1.0)
    rho = entry["rho"]
    r, M, m = solvers_mod.config_defaults(
        problem, variant, eta, rho, entry.get("r"), entry.get("M"), entry.get("m")
    )
    return solvers_mod.SolverConfig(
        variant=variant, eta=eta, rho=rho, r=r, M=M,
        T=entry.get("T", 1000), m=m, seed=entry.get("seed", 0),
        trace_stride=trace_stride,
    )


def _write_csv_atomic(path, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    os.replace(tmp, path)


def run_single(problem, evaluate, config, zeta):
    """One solver run; returns (rows, result) with CSV-ready rows.

    zeta fills the lyapunov column with
    Psi_t = L_rho + (zeta/rho) ||x_t - x_{t-1}||^2.
    """
    rows = []

    def on_record(rec, state):
        err, tloss = evaluate(state.x)
        lyap = rec.lrho + (zeta / config.rho) * rec.dx_sq
        rows.append([
            rec.t, rec.wall_time, rec.ifo, rec.objective, err, tloss,
            rec.feasibility_sq, rec.dual_sq, rec.subgrad_dist_sq, lyap,
        ])

    result = solvers_mod.run(problem, config, callback=on_record)
    return rows, result


def run_experiment(spec, out_dir, allow_uncertified=False, workers=1, echo=print):
    """Full cmd_run workflow; returns the process exit code.

    Every solver is certified before any of them runs. A refusal writes
    summary.json with the certificates and returns EXIT_CONFIG. Repetitions
    run one after another in the calling process; `workers` takes only 1.
    """
    _check_spec(spec)
    if workers != 1:
        raise ConfigError(
            f"workers must be 1, got {workers!r}: repetitions run one after "
            "another in the calling process"
        )
    os.makedirs(out_dir, exist_ok=True)
    problem, test, info = build_problem(spec["problem"])
    L = params_mod.estimate_lipschitz(problem)
    reps = spec.get("repetitions", 1)
    seed_base = spec.get("seed_base", 0)
    stride = spec.get("trace_stride", 1)

    summary = {"problem": info, "L": L, "solvers": {}}
    any_success = False

    planned = []
    for entry in spec["solvers"]:
        name = entry.get("name") or entry["variant"]
        cfg = solver_config_from_spec(entry, problem, trace_stride=stride)
        cert = params_mod.check_feasible(
            cfg.variant, L, problem.constraints, cfg.eta, cfg.rho, cfg.r,
            n=problem.n, M=cfg.M, m=cfg.m, T=max(1, cfg.T),
        )
        planned.append((name, cfg, cert))
    if not allow_uncertified and not all(c.accepted for _, _, c in planned):
        for name, _, cert in planned:
            summary["solvers"][name] = {"certificate": cert.to_dict()}
            if not cert.accepted:
                echo(f"[{name}] refused: configuration fails its certificate")
                echo(json.dumps(cert.to_dict(), indent=2, default=str))
        _write_summary(out_dir, summary)
        return EXIT_CONFIG

    evaluate = make_test_evaluator(problem, test)
    for name, base_cfg, cert in planned:
        rep_rows = []
        diverged = []
        for rep in range(reps):
            cfg = dataclasses.replace(base_cfg, seed=seed_base + rep)
            try:
                rows, _ = run_single(problem, evaluate, cfg, cert.constants.zeta)
            except DivergenceError as exc:
                diverged.append({"rep": rep, "error": str(exc)})
                continue
            _write_csv_atomic(os.path.join(out_dir, f"{name}_rep{rep}.csv"), rows)
            rep_rows.append(rows)
            any_success = True

        solver_summary = {
            "certificate": cert.to_dict(),
            "diverged": diverged,
            "repetitions_completed": len(rep_rows),
        }
        if rep_rows:
            mean_rows = _aggregate_rows(rep_rows)
            _write_csv_atomic(os.path.join(out_dir, f"{name}_mean.csv"), mean_rows)
            last = dict(zip(CSV_COLUMNS, mean_rows[-1]))
            feas_sq = CSV_COLUMNS.index("feas_sq")
            solver_summary.update({
                "final_objective": last["objective"],
                "final_feas_sq": last["feas_sq"],
                "final_dual_sq": last["dual_sq"],
                "final_subgrad_sq": last["subgrad_sq"],
                "min_feas_sq": min(r[feas_sq] for r in mean_rows),
            })
        summary["solvers"][name] = solver_summary
        echo(f"[{name}] {len(rep_rows)}/{reps} repetitions completed")

    _write_summary(out_dir, summary)
    if not any_success:
        return EXIT_DIVERGED
    return EXIT_OK


def _write_summary(out_dir, summary):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)


def _aggregate_rows(rep_rows):
    """Across-repetition mean of every numeric column, aligned on t.

    Repetitions are cut to the shortest. Each mean is taken over a
    contiguous axis, so it is bitwise the `np.mean` of that cell's values.
    """
    n_rows = min(len(rows) for rows in rep_rows)
    values = np.array([rows[:n_rows] for rows in rep_rows], dtype=float)
    values = values.reshape(len(rep_rows), n_rows, len(CSV_COLUMNS))
    means = np.ascontiguousarray(np.moveaxis(values, 0, -1)).mean(axis=-1)
    out = means.tolist()
    for row in out:
        row[0] = int(row[0])
    return out


@contextmanager
def _fail_closed(ctx):
    """End a command on a NcadmmError, or an OSError on a path it was given,
    with one `error:` line and exit 2."""
    try:
        yield
    except (NcadmmError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_CONFIG)


@click.group()
def main():
    """Mini-batch stochastic ADMM benchmark harness."""


@main.command("run")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None,
              help="Override the spec's seed_base.")
@click.option("--allow-uncertified", is_flag=True, default=False)
@click.pass_context
def cmd_run(ctx, spec_path, out_dir, seed, allow_uncertified):
    """Run an experiment spec and emit CSV traces plus a JSON summary."""
    with _fail_closed(ctx):
        spec = load_spec(spec_path)
        if seed is not None:
            spec["seed_base"] = seed
        code = run_experiment(
            spec, out_dir, allow_uncertified=allow_uncertified, echo=click.echo
        )
    if code == EXIT_CONFIG:
        click.echo(f"error: {_REFUSED}", err=True)
    ctx.exit(code)


@main.command("check-params")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--variant", required=True,
              type=click.Choice(["dete", "stoc", "svrg", "saga"]))
@click.option("--eta", type=float, required=True)
@click.option("--rho", type=float, required=True)
@click.option("--r", "r_val", type=float, default=None)
@click.option("--batch", "M", type=int, default=None,
              help="Mini-batch size; n for dete, else min(100, n).")
@click.option("--epoch-length", "m", type=int, default=None)
@click.option("--iterations", "T", type=int, default=1000)
@click.pass_context
def cmd_check_params(ctx, spec_path, variant, eta, rho, r_val, M, m, T):
    """Evaluate the feasibility certificate for one configuration."""
    with _fail_closed(ctx):
        _check_numbers({"eta": eta, "rho": rho, "r": r_val}, "check-params",
                       _SOLVER_REALS)
        raw = _load_json(spec_path)
        if isinstance(raw, dict) and raw.get("version") == "v1":
            problem_spec = _check_spec(raw)["problem"]
        else:
            problem_spec = _check_problem_spec(raw)
        problem, _, _ = build_problem(problem_spec)
        L = params_mod.estimate_lipschitz(problem)
        r_val, M, m = solvers_mod.config_defaults(
            problem, variant, eta, rho, r_val, M, m
        )
        cert = params_mod.check_feasible(
            variant, L, problem.constraints, eta, rho, r_val,
            n=problem.n, M=M, m=m, T=T,
        )
    click.echo(json.dumps(cert.to_dict(), indent=2, default=str))
    ctx.exit(EXIT_OK if cert.accepted else EXIT_CONFIG)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None


@main.command("rho-sweep")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--rho", "rhos", multiple=True, type=float, required=True)
@click.option("--allow-uncertified", is_flag=True, default=False)
@click.pass_context
def cmd_rho_sweep(ctx, spec_path, out_dir, rhos, allow_uncertified):
    """Rerun the spec's solvers across a rho grid; emit per-rho aggregates."""
    with _fail_closed(ctx):
        # the sweep sets every solver's rho itself
        spec = load_spec(spec_path, solver_keys=("variant",))
        for rho in rhos:
            _check_numbers({"rho": rho}, "rho-sweep", _SOLVER_REALS)
        if any(rho <= 0 for rho in rhos):
            raise ConfigError("all rho values must be > 0")
        # each rho writes rho_{rho:g}/, so no two may share that name
        dirs = {}
        for rho in rhos:
            dirs.setdefault(f"rho_{rho:g}", []).append(rho)
        for name, same in dirs.items():
            if len(same) > 1:
                raise ConfigError(
                    f"rho values {', '.join(map(str, same))} would all write "
                    f"{name}/; give values that differ in their first 6 "
                    "significant digits"
                )
        table = []
        worst = EXIT_OK
        refused = []
        for rho in rhos:
            sub = json.loads(json.dumps(spec))
            for entry in sub["solvers"]:
                entry["rho"] = rho
                entry.pop("r", None)
            sub_dir = os.path.join(out_dir, f"rho_{rho:g}")
            code = run_experiment(
                sub, sub_dir, allow_uncertified=allow_uncertified, echo=click.echo
            )
            worst = max(worst, code)
            if code == EXIT_CONFIG:
                refused.append(f"{rho:g}")
            with open(os.path.join(sub_dir, "summary.json")) as fh:
                summary = json.load(fh)
            for name, solver in summary["solvers"].items():
                table.append([
                    rho, name,
                    solver.get("final_objective", ""),
                    solver.get("final_feas_sq", ""),
                    solver["certificate"]["accepted"],
                ])
        os.makedirs(out_dir, exist_ok=True)
        tmp = os.path.join(out_dir, "sweep_table.csv.tmp")
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho", "solver", "final_objective",
                             "final_feas_sq", "certified"])
            writer.writerows(table)
        os.replace(tmp, os.path.join(out_dir, "sweep_table.csv"))
    if refused:
        click.echo(f"error: at rho={', '.join(refused)}: {_REFUSED}", err=True)
    ctx.exit(worst)


@main.command("gen-data")
@click.option("--kind", required=True, type=click.Choice(["graph_guided", "overlap"]))
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, default=None,
              help="Feature count: 200 for graph_guided, 400 (a 20 x 20 "
                   "grid) for overlap, whose d must be a square.")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def cmd_gen_data(ctx, kind, n, d, seed, out_path):
    """Generate a synthetic dataset and persist it as LIBSVM + JSON sidecar."""
    with _fail_closed(ctx):
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if kind == "graph_guided":
            ds, _, _ = data_mod.gen_graph_guided(n, 200 if d is None else d, seed)
        else:
            grid = 20 if d is None else math.isqrt(max(d, 0))
            if d is not None and (grid < 1 or grid * grid != d):
                raise ConfigError(
                    "overlap features form a grid x grid matrix, so d must "
                    f"be a positive perfect square, got {d}"
                )
            ds, _ = data_mod.gen_overlap(n, seed, grid=grid)
        data_mod.write_libsvm(ds, out_path, sidecar=f"{out_path}.meta.json")
    click.echo(f"wrote {ds.n} samples x {ds.d} features to {out_path}")


@main.command("parse")
@click.option("--path", required=True, type=click.Path(exists=True))
@click.pass_context
def cmd_parse(ctx, path):
    """Validate a LIBSVM file and print its shape."""
    with _fail_closed(ctx):
        ds = data_mod.parse_libsvm(path)
    click.echo(json.dumps(ds.meta, default=str))


if __name__ == "__main__":
    main()
