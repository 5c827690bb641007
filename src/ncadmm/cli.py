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
import operator
import os
from contextlib import contextmanager
from typing import NamedTuple

import click
import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
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


class _Key(NamedTuple):
    """One spec key: its type, its least value and its default. A key
    without a default is required; one whose default is None takes null."""
    type: type
    least: int = None
    default: object = dataclasses.MISSING


_TYPES = {int: (int, "an integer"), float: ((int, float), "a finite number"),
          str: (str, "a string"), bool: (bool, "true or false")}

_EXPERIMENT_KEYS = {
    "repetitions": _Key(int, 1, 1),
    "seed_base": _Key(int, 0, 0),
    "trace_stride": _Key(int, 1, 1),
}
# null r, M or m is filled in by `solvers.config_defaults`; a null or
# empty name means the variant's
_SOLVER_KEYS = {
    "variant": _Key(str),
    "name": _Key(str, default=None),
    "eta": _Key(float, default=1.0),
    "rho": _Key(float),
    "r": _Key(float, default=None),
    "M": _Key(int, 1, None),
    "m": _Key(int, 1, None),
    "T": _Key(int, 1, 1000),
}
_PROBLEM_KEYS = {
    "seed": _Key(int, 0, 0),
    "nu": _Key(float, default=1e-5),
    "train_fraction": _Key(float, default=0.5),
}
_KIND_KEYS = {
    "graph_guided": {"n": _Key(int, 1), "d": _Key(int, 1),
                     "empty_support": _Key(bool, default=False)},
    "overlap": {"n": _Key(int, 1), "grid": _Key(int, 1, 20), "k": _Key(int, 1, 2)},
    "libsvm": {"path": _Key(str), "support_density": _Key(float, default=0.05),
               "support_seed": _Key(int, 0, operator.itemgetter("seed"))},
    "multitask": {"path": _Key(str), "nu1": _Key(float, default=1e-5),
                  "nu2": _Key(float, default=1e-4), "beta": _Key(float, default=1.0),
                  "theta": _Key(float, default=1.0)},
}


def _checked(owner, keys, where):
    """A copy of `owner` with each of `keys` checked against its Key and
    each absent default filled in; other entries are kept unchecked."""
    if not isinstance(owner, dict):
        raise ConfigError(f"{where} must be a JSON object")
    out = dict(owner)
    for name, key in keys.items():
        if name not in owner:
            if key.default is dataclasses.MISSING:
                raise ConfigError(f"{where} lacks required key {name!r}")
            out[name] = key.default(out) if callable(key.default) else key.default
            continue
        value = owner[name]
        if value is None and key.default is None:
            continue
        accepts, noun = _TYPES[key.type]
        if (not isinstance(value, accepts)
                or isinstance(value, bool) != (key.type is bool)
                or isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"{where}: {name} must be {noun}, got {value!r}")
        if key.least is not None and value < key.least:
            raise ConfigError(f"{where}: {name} must be >= {key.least}, got {value!r}")
    return out


def _check_problem_spec(problem):
    """A copy of a problem spec checked against its kind's keys."""
    kind = _checked(problem, {"kind": _Key(str)}, "problem")["kind"]
    if kind not in _KIND_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    return _checked(problem, {**_PROBLEM_KEYS, **_KIND_KEYS[kind]}, f"{kind} problem")


def _check_spec(spec):
    """A copy of an experiment spec checked level by level, with every
    default filled in. Keys no level declares are kept and ignored."""
    out = _checked(spec, _EXPERIMENT_KEYS, "experiment spec")
    if "problem" not in out:
        raise ConfigError("experiment spec lacks required key 'problem'")
    if out.get("version") != "v1":
        raise ConfigError(f"unsupported spec version {out.get('version')!r}")
    out["problem"] = _check_problem_spec(out["problem"])
    solvers = out.get("solvers")
    if not solvers:
        raise ConfigError("experiment spec lists no solvers")
    if not isinstance(solvers, list):
        raise ConfigError(f"experiment spec: solvers must be a list, got {solvers!r}")
    out["solvers"] = []
    for i, entry in enumerate(solvers):
        where = f"solver entry {i}"
        entry = _checked(entry, _SOLVER_KEYS, where)
        name = entry["name"]
        # a name prefixes the solver's file names in the output directory
        if name and (name in (".", "..") or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep, "\0"))):
            raise ConfigError(f"{where}: name must be one path component, got {name!r}")
        out["solvers"].append(entry)
    names = [s["name"] or s["variant"] for s in out["solvers"]]
    if len(set(names)) != len(names):
        raise ConfigError("solver names must be distinct")
    return out


def load_spec(path):
    return _check_spec(_load_json(path))


def build_problem(problem_spec):
    """Assemble (CompositeProblem, test Dataset, info) from a problem spec,
    which is checked and its defaults filled in first."""
    spec = _check_problem_spec(problem_spec)
    kind, seed, frac = spec["kind"], spec["seed"], spec["train_fraction"]
    info = {"kind": kind, "seed": seed}

    if kind in ("graph_guided", "overlap"):
        # generated straight into split order; train and test are views
        train_idx, test_idx = data_mod.split_indices(spec["n"], frac, seed + 1)
        order = np.concatenate([train_idx, test_idx])
    if kind == "graph_guided":
        ds, prec, _ = data_mod.gen_graph_guided(spec["n"], spec["d"], seed, order=order)
        # empty_support keeps the features and drops every edge
        edges = np.nonzero(np.triu(prec.support & (not spec["empty_support"]), 1))
        # Lambda and its support are d x d; neither is needed past the edges
        del prec
        train, test = data_mod.split_views(ds, train_idx.size)
    elif kind == "overlap":
        ds, _ = data_mod.gen_overlap(spec["n"], seed, grid=spec["grid"], order=order)
        cs = build_overlap_A(ds.d, spec["k"])
        train, test = data_mod.split_views(ds, train_idx.size)
    elif kind == "libsvm":
        ds = data_mod.parse_libsvm(spec["path"], label_mode="binary")
        train, test = data_mod.split(ds, frac, seed + 1)
        edges = _random_edges(ds.d, spec["support_density"], spec["support_seed"])
    else:
        ds = data_mod.parse_libsvm(spec["path"], label_mode="multiclass")
        train, test = data_mod.split(ds, frac, seed + 1)
        m = ds.meta["classes"]
        data_mod.check_dim(
            m * ds.d, f"multitask model of {m} classes x {ds.d} features"
        )
        loss = SmoothedMultiTaskLoss(
            train.features, train.labels, m, spec["nu1"],
            beta=spec["beta"], theta=spec["theta"],
        )
        cs, reg = build_multitask_constraints(
            m, ds.d, spec["nu1"], spec["nu2"], loss.kappa0
        )
        info["classes"] = m
    if kind in ("graph_guided", "libsvm"):
        cs = build_graph_guided_A(edges, ds.d)
        info["edges"] = edges[0].size
    if kind != "multitask":
        loss = SigmoidLoss(train.features, train.labels)
        reg = BlockSeparableRegularizer.l1(cs.q, spec["nu"])

    problem = CompositeProblem(loss=loss, regularizer=reg, constraints=cs)
    return problem, test, info


def _random_edges(d, density, seed):
    """Edges (ii, jj), in row-major order, of a graph on d nodes with each
    pair i < j drawn with probability `density` (clipped to [0, 1]). Row i
    draws its edge count, then that many of its columns j > i: O(edges + d)
    memory."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    counts = rng.binomial(np.arange(d - 1, -1, -1), min(max(density, 0.0), 1.0))
    jj = [np.arange(0)] + [
        i + 1 + np.sort(rng.choice(d - 1 - i, k, replace=False, shuffle=False))
        for i, k in enumerate(counts) if k
    ]
    return np.repeat(np.arange(d), counts), np.concatenate(jj)


def make_test_evaluator(problem, test):
    """Return f(x) -> (misclassification rate, mean test loss)."""
    return problem.loss.on_rows(test.features, test.labels).error_and_value


def _prepared(problem_spec):
    """(problem, test Dataset, info, L): what every solver and rho shares."""
    problem, test, info = build_problem(problem_spec)
    return problem, test, info, params_mod.estimate_lipschitz(problem)


def _planned(entries, problem, L, trace_stride):
    """(name, SolverConfig, Certificate) of each checked solver entry (see
    `_check_spec`), unset r, M and m from `solvers.config_defaults`. An r
    below the H >= I bound raises ConfigError before anything runs."""
    planned = []
    for entry in entries:
        variant, eta, rho = entry["variant"], entry["eta"], entry["rho"]
        r, M, m = solvers_mod.config_defaults(
            problem, variant, eta, rho, entry["r"], entry["M"], entry["m"]
        )
        cfg = solvers_mod.SolverConfig(
            variant=variant, eta=eta, rho=rho, r=r, M=M, T=entry["T"], m=m,
            trace_stride=trace_stride,
        )
        cfg.validate_against(problem)
        cert = params_mod.check_feasible(
            cfg.variant, L, problem.constraints, cfg.eta, cfg.rho, cfg.r,
            n=problem.n, M=cfg.M, m=cfg.m, T=cfg.T,
        )
        planned.append((entry["name"] or variant, cfg, cert))
    return planned


def _write_csv_atomic(path, rows):
    """Write rows, the header first, to path through a temporary file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    os.replace(tmp, path)


def run_single(problem, evaluate, config, zeta):
    """One solver run; returns (rows, result) with CSV-ready rows.

    The lyapunov column is `metrics.lyapunov_psi` of the trace at zeta.
    """
    evals = []
    result = solvers_mod.run(
        problem, config, callback=lambda rec, state: evals.append(evaluate(state.x))
    )
    psi = metrics_mod.lyapunov_psi(result.trace, zeta, config.rho).tolist()
    rows = [
        [rec.t, rec.wall_time, rec.ifo, rec.objective, err, tloss,
         rec.feasibility_sq, rec.dual_sq, rec.subgrad_dist_sq, lyap]
        for rec, (err, tloss), lyap in zip(result.trace, evals, psi)
    ]
    return rows, result


def run_experiment(spec, out_dir, allow_uncertified=False, workers=1, echo=print):
    """Full cmd_run workflow; returns the process exit code.

    Every solver's r is checked and every solver certified before any of
    them runs. A refusal writes summary.json with the certificates and
    returns EXIT_CONFIG. Repetitions run one after another in the calling
    process; `workers` takes only 1.
    """
    spec = _check_spec(spec)
    if workers != 1:
        raise ConfigError(
            f"workers must be 1, got {workers!r}: repetitions run one after "
            "another in the calling process"
        )
    prepared = problem, _, _, L = _prepared(spec["problem"])
    planned = _planned(spec["solvers"], problem, L, spec["trace_stride"])
    return _run_planned(spec, prepared, planned, out_dir, allow_uncertified, echo)[0]


def _run_planned(spec, prepared, planned, out_dir, allow_uncertified, echo):
    """Run every planned solver, or refuse them all if one is uncertified;
    returns (exit code, summary) once summary.json is written."""
    problem, test, info, L = prepared
    reps, seed_base = spec["repetitions"], spec["seed_base"]
    os.makedirs(out_dir, exist_ok=True)
    summary = {"problem": info, "L": L, "solvers": {}}

    if not allow_uncertified and not all(c.accepted for _, _, c in planned):
        for name, _, cert in planned:
            summary["solvers"][name] = {"certificate": cert.to_dict()}
            if not cert.accepted:
                echo(f"[{name}] refused: configuration fails its certificate")
                echo(json.dumps(_null_non_finite(cert.to_dict()), indent=2))
        _write_summary(out_dir, summary)
        return EXIT_CONFIG, summary

    evaluate = make_test_evaluator(problem, test)
    for name, base_cfg, cert in planned:
        rep_rows = []
        diverged = []
        for rep in range(reps):
            cfg = dataclasses.replace(base_cfg, seed=seed_base + rep)
            try:
                rows, _ = run_single(problem, evaluate, cfg, cert.constants.zeta)
            except DivergenceError as exc:
                diverged.append(
                    {"rep": rep, "error": str(exc), "iteration": exc.iteration}
                )
                continue
            _write_csv_atomic(os.path.join(out_dir, f"{name}_rep{rep}.csv"),
                              [CSV_COLUMNS, *rows])
            rep_rows.append(rows)

        solver_summary = {
            "certificate": cert.to_dict(),
            "diverged": diverged,
            "repetitions_completed": len(rep_rows),
        }
        if rep_rows:
            mean_rows = _aggregate_rows(rep_rows)
            _write_csv_atomic(os.path.join(out_dir, f"{name}_mean.csv"),
                              [CSV_COLUMNS, *mean_rows])
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
    ran = any(s["repetitions_completed"] for s in summary["solvers"].values())
    return (EXIT_OK if ran else EXIT_DIVERGED), summary


def _write_summary(out_dir, summary):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_null_non_finite(summary), fh, indent=2)


def _null_non_finite(obj):
    """obj with each non-finite float in it, at any depth, set to None.
    JSON has no inf or NaN; an overflowed certificate schedule is written
    as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _null_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(value) for value in obj]
    return obj


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
    """End a command on a NcadmmError, an OSError on a path it was given or
    a MemoryError from a size too large to allocate, with one `error:` line
    and exit 2."""
    try:
        yield
    except (NcadmmError, OSError, MemoryError) as exc:
        # a bare MemoryError carries no message
        click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
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
              type=click.Choice(solvers_mod.VARIANTS))
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
        entry = {"variant": variant, "name": None, "eta": eta, "rho": rho,
                 "r": r_val, "M": M, "m": m, "T": T}
        _checked(entry, _SOLVER_KEYS, "check-params")
        raw = _load_json(spec_path)
        if isinstance(raw, dict) and raw.get("version") == "v1":
            raw = _check_spec(raw)["problem"]
        problem, _, _, L = _prepared(raw)
        [(_, _, cert)] = _planned([entry], problem, L, 1)
    click.echo(json.dumps(_null_non_finite(cert.to_dict()), indent=2))
    ctx.exit(EXIT_OK if cert.accepted else EXIT_CONFIG)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _at_rho(spec, rho):
    """`spec` with each solver's rho set and r null, to take its default."""
    if isinstance(spec, dict) and isinstance(spec.get("solvers"), list):
        spec = {**spec, "solvers": [
            {**entry, "rho": rho, "r": None} if isinstance(entry, dict) else entry
            for entry in spec["solvers"]
        ]}
    return spec


@main.command("rho-sweep")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--rho", "rhos", multiple=True, type=float, required=True)
@click.option("--allow-uncertified", is_flag=True, default=False)
@click.pass_context
def cmd_rho_sweep(ctx, spec_path, out_dir, rhos, allow_uncertified):
    """Rerun the spec's solvers across a rho grid; emit per-rho aggregates."""
    with _fail_closed(ctx):
        raw = _load_json(spec_path)
        for rho in rhos:
            _checked({"rho": rho}, {"rho": _SOLVER_KEYS["rho"]}, "rho-sweep")
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
        specs = [_check_spec(_at_rho(raw, rho)) for rho in rhos]
        # the rhos share one problem; every one is planned before any runs
        prepared = problem, _, _, L = _prepared(specs[0]["problem"])
        plans = [_planned(sub["solvers"], problem, L, sub["trace_stride"])
                 for sub in specs]
        table = [["rho", "solver", "final_objective", "final_feas_sq", "certified"]]
        worst = EXIT_OK
        refused = []
        for rho, sub, planned in zip(rhos, specs, plans):
            code, summary = _run_planned(
                sub, prepared, planned, os.path.join(out_dir, f"rho_{rho:g}"),
                allow_uncertified, click.echo,
            )
            worst = max(worst, code)
            if code == EXIT_CONFIG:
                refused.append(f"{rho:g}")
            # as summary.json has it: a non-finite value is null, an empty cell
            for name, solver in _null_non_finite(summary)["solvers"].items():
                table.append([rho, name, solver.get("final_objective", ""),
                              solver.get("final_feas_sq", ""),
                              solver["certificate"]["accepted"]])
        _write_csv_atomic(os.path.join(out_dir, "sweep_table.csv"), table)
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
    click.echo(json.dumps(ds.meta))


if __name__ == "__main__":
    main()
