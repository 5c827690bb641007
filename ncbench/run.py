"""ncadmm benchmark: one workload per process, closed loop, one experiment at a time.

    python3 ncbench/run.py --workload gg_solve --seed 0 --seconds 35 --trace 0

Each repetition is one in-process ``ncadmm.cli.run_experiment`` call (the
``ncadmm run`` code path) with ``workers=1`` and ``allow_uncertified=True``.
Repetitions run back to back until ``--seconds`` is used up; every metric is
the median over repetitions. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics. Every repetition passes the correctness gate or counts its
solver runs as failed. The last stdout line is the JSON result.
"""

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEFAULT_REFERENCE = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "iters_per_s": "1/s",
    "ifo_per_s": "1/s", "peak_rss_mb": "MiB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from tracing import COUNT_NAMES, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for name in COUNT_NAMES:
        units[name] = "count"
    units["problems.gather_bytes"] = "bytes-computed"
    units["solvers.full_grad_s"] = "s"
    units["solvers.saga_table_bytes"] = "bytes"
    units["solvers.iterations"] = "count"
    units["solvers.ifo"] = "count"
    units["cli.unattributed_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("gg_solve", "gg_trace", "mt_sparse"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes exist for the self-check only")
    ap.add_argument("--reference", default=DEFAULT_REFERENCE,
                    help="JSON file of trace digests for the default seed")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's trace digests in --reference")
    return ap.parse_args(argv)


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def make_manifest(args, spec, n_train, dims):
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ[v] for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 process, 1 experiment at a time, workers=1",
        "solvers": [(e["name"], e["T"], e.get("M")) for e in spec["solvers"]],
        "dims": {"n_total": spec["problem"].get("n", 2 * n_train),
                 "n_train": n_train, **dims},
    }


def trace_digest(out_dir, name, reps):
    """sha256 of a solver's CSVs (per repetition and mean), wall_time_s dropped."""
    h = hashlib.sha256()
    for fname in [f"{name}_rep{r}.csv" for r in range(reps)] + [f"{name}_mean.csv"]:
        with open(os.path.join(out_dir, fname), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_s")
        h.update(fname.encode() + b"\n")
        for row in rows:
            h.update(",".join(v for j, v in enumerate(row) if j != drop).encode() + b"\n")
    return h.hexdigest()


def gate(rep, spec, n_train, out_dir):
    """Correctness checks of one repetition: {solver: [reasons]} and digests."""
    from workloads import closed_form_ifo

    entries = spec["solvers"]
    names = [e["name"] for e in entries]
    if rep["error"] is not None:
        return {n: [f"run_experiment raised {rep['error']}"] for n in names}, {}
    if rep["code"] != 0:
        return {n: [f"run_experiment exit code {rep['code']}"] for n in names}, {}
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)["solvers"]
    failures, digests = {}, {}
    calls = rep["calls"]
    reps = spec["repetitions"]
    for i, entry in enumerate(entries):
        name = entry["name"]
        why = []
        mine = calls[i * reps:(i + 1) * reps]
        if len(mine) != reps or any(c["variant"] != entry["variant"] for c in mine):
            why.append("solver runs missing or out of order")
        for c in mine:
            if c["error"] is not None:
                why.append(f"solver raised {c['error']}")
            elif c["ifo"] != closed_form_ifo(entry, n_train):
                why.append(f"ifo {c['ifo']} != closed form "
                           f"{closed_form_ifo(entry, n_train)}")
        s = summary.get(name, {})
        for key in ("final_objective", "final_feas_sq"):
            if not math.isfinite(s.get(key, math.nan)):
                why.append(f"{key} not finite: {s.get(key)}")
        try:
            digests[name] = trace_digest(out_dir, name, reps)
        except (OSError, ValueError, IndexError) as exc:
            why.append(f"trace CSV unreadable: {exc}")
        if why:
            failures[name] = why
    return failures, digests


def run_rep(spec, out_dir, probe, tracer):
    """One run_experiment call; tracer is None for an untraced repetition."""
    import ncadmm.cli as cli_mod
    from tracing import ROOT as ROOT_SPAN, layer_metrics

    probe.calls.clear()
    gc.collect()  # start every repetition from the same heap state
    messages = []
    rep = {"code": None, "error": None, "messages": messages}
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rep["code"] = cli_mod.run_experiment(
                spec, out_dir, allow_uncertified=True, workers=1,
                echo=messages.append)
        else:
            with tracer.installed():
                root = tracer.open(ROOT_SPAN)
                try:
                    rep["code"] = cli_mod.run_experiment(
                        spec, out_dir, allow_uncertified=True, workers=1,
                        echo=messages.append)
                finally:
                    tracer.close(root)
    except Exception as exc:  # the gate counts it; the loop keeps measuring
        rep["error"] = f"{type(exc).__name__}: {exc}"
        rep["traceback"] = traceback.format_exc()
    t1 = time.perf_counter()
    calls = [dict(c) for c in probe.calls]
    rep["calls"] = calls
    rep["wall_s"] = t1 - t0
    done = [c for c in calls if "end" in c]
    if done:
        solve = sum(c["end"] - c["start"] for c in done)
        rep["setup_s"] = done[0]["start"] - t0
        rep["solve_s"] = solve
        rep["iters_per_s"] = sum(c["T"] for c in done) / solve
        rep["ifo_per_s"] = sum(c.get("ifo", 0) for c in done) / solve
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer.spans, tracer.counts, calls)
        rep["spans"] = tracer.spans
    return rep


def load_reference(path, seed, scale, workload):
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref.get("seed") != seed:
        return None
    return ref.get("digests", {}).get(scale, {}).get(workload)


def write_reference(path, seed, scale, workload, digests):
    ref = {"seed": seed, "digests": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["digests"].setdefault(scale, {})[workload] = digests
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def measure(args, spec, n_train, work):
    """Closed loop of repetitions until --seconds is used up; gate each one."""
    from tracing import RunProbe, Tracer, spans_to_json

    reference = None if args.write_reference else load_reference(
        args.reference, args.seed, args.scale, args.workload)
    probe = RunProbe()
    probe.install()
    tracer = Tracer() if args.trace else None
    min_reps = 4 if args.trace else 3
    reps, failures = [], []
    attempted = 0
    first_digests = None
    last_spans = None
    start = time.perf_counter()
    try:
        while True:
            k = len(reps)
            traced = tracer is not None and k % 2 == 1
            out_dir = os.path.join(work, f"rep{k}")
            rep = run_rep(spec, out_dir, probe, tracer if traced else None)
            why, digests = gate(rep, spec, n_train, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            if first_digests is None and digests:
                first_digests = digests
            for name, digest in digests.items():
                if first_digests.get(name) != digest:
                    why.setdefault(name, []).append(
                        "trace digest differs from this run's first repetition")
                if reference is not None and reference.get(name) != digest:
                    why.setdefault(name, []).append(
                        f"trace digest mismatch for solver {name}: reference "
                        f"{reference.get(name)}, got {digest}")
            attempted += len(spec["solvers"]) * spec["repetitions"]
            for name, reasons in why.items():
                failures.append({"rep": k, "solver": name, "reasons": reasons})
            rep["failed"] = sorted(why)
            rep["traced"] = traced
            if traced:
                last_spans = rep.pop("spans")
            reps.append(rep)
            if len(reps) == 1:
                # what one `ncadmm run` process peaks at; later repetitions
                # add allocator-dependent heap growth that varies run to run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > args.seconds:
                break
    finally:
        probe.uninstall()
    return {
        "reps": reps, "failures": failures, "attempted": attempted,
        "peak_rss_mb": peak_rss_mb,
        "digests": first_digests or {}, "reference_checked": reference is not None,
        "spans": None if last_spans is None else spans_to_json(last_spans),
    }


def median_of(reps, key):
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else None


def summarize(args, measured):
    """Metric values for this run's mode, plus human-readable report lines."""
    reps = measured["reps"]
    failed_reps = {f["rep"] for f in measured["failures"]}
    good = [r for i, r in enumerate(reps) if i not in failed_reps]
    untraced = [r for r in good if not r["traced"]]
    lines = []
    if args.trace == 0:
        metrics = {}
        for name, unit in END_TO_END.items():
            if name == "peak_rss_mb":
                value = measured["peak_rss_mb"]
                lines.append(f"{name} {value!r} {unit} (process peak through "
                             "the first repetition)")
            else:
                vals = [r[name] for r in untraced if name in r]
                if not vals:
                    continue
                value = statistics.median(vals)
                lines.append(f"{name} {value!r} {unit} (median of {len(vals)}, "
                             f"min {min(vals)!r}, max {max(vals)!r})")
            metrics[name] = {"value": value, "unit": unit}
    else:
        traced = [r for r in good if r["traced"]]
        units = per_layer_units()
        metrics = {}
        for name, unit in units.items():
            if name in ("trace.wall_s", "trace.overhead_s"):
                continue
            vals = [r["layers"][name] for r in traced]
            if vals:
                # counts stay whole numbers: take an observed value, not a mean of two
                mid = statistics.median if unit == "s" else statistics.median_low
                metrics[name] = {"value": mid(vals), "unit": unit}
        wall_t = median_of(traced, "wall_s")
        wall_u = median_of(untraced, "wall_s")
        if wall_t is not None and wall_u is not None:
            metrics["trace.wall_s"] = {"value": wall_t, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": wall_t - wall_u, "unit": "s"}
        lines.append(f"traced repetitions {len(traced)}, untraced {len(untraced)}")
        for name, m in metrics.items():
            lines.append(f"{name} {m['value']!r} {m['unit']}")
    fail_rate = len(measured["failures"]) / measured["attempted"]
    lines.append(f"fail_rate {fail_rate!r} ratio ({len(measured['failures'])} of "
                 f"{measured['attempted']} solver runs failed)")
    return metrics, lines


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads, so every run uses one BLAS thread
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "ncadmm", "__init__.py")):
        print(f"error: no ncadmm package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ncadmm

    if os.path.dirname(os.path.abspath(ncadmm.__file__)) != os.path.join(SRC, "ncadmm"):
        print(f"error: imported ncadmm from {ncadmm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import make_spec

    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        spec, n_train = make_spec(args.workload, args.seed, args.scale, work)
        measured = measure(args, spec, n_train, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = measured["reps"][0]["calls"]
    dims = {k: calls[0][k] for k in ("d", "p", "q")} if calls else {}
    manifest = make_manifest(args, spec, n_train, dims)
    metrics, lines = summarize(args, measured)
    failures = measured["failures"]
    correct = not failures and bool(metrics)

    if args.write_reference:
        if failures:
            print("error: not recording a reference from a failing run",
                  file=sys.stderr)
            return 1
        write_reference(args.reference, args.seed, args.scale, args.workload,
                        measured["digests"])

    tag = f"{args.workload}_{args.scale}_seed{args.seed}_trace{args.trace}"
    report = {
        "manifest": manifest, "metrics": metrics, "failures": failures,
        "attempted": measured["attempted"], "digests": measured["digests"],
        "reference_checked": measured["reference_checked"],
        "reps": [{k: v for k, v in r.items() if k != "calls"} for r in measured["reps"]],
    }
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if measured["spans"] is not None:
        with open(os.path.join(OUT_DIR, f"spans_{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(measured["spans"], fh)

    print("manifest " + json.dumps(manifest))
    for f in failures:
        print(f"FAILED rep {f['rep']} solver {f['solver']}: " + "; ".join(f["reasons"]))
    if not measured["reference_checked"]:
        print(f"reference digests not checked (seed {args.seed}, scale {args.scale})")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
