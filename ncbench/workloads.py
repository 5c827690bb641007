"""Workload specs for the benchmark, generated from the workload seed.

The program sees only the spec (and, for mt_sparse, a LIBSVM file written
before timing starts). Sizes come in two scales: ``full`` is what the
benchmark measures, ``tiny`` exists so that the self-check runs in seconds.
"""

import math
import os
import types

import numpy as np
import scipy.sparse as sp

from ncadmm.data import write_libsvm

NAMES = ("gg_solve", "gg_trace", "mt_sparse")

TRAIN_FRACTION = 0.5

SIZES = {
    "full": {
        "gg": {"n": 20000, "d": 200},
        "gg_solve_T": 2000, "gg_solve_dete_T": 200, "gg_trace_T": 250,
        "mt": {"n": 20000, "features": 500, "density": 0.03, "classes": 5},
        "mt_T": 500, "M": 100,
    },
    "tiny": {
        "gg": {"n": 400, "d": 20},
        "gg_solve_T": 40, "gg_solve_dete_T": 10, "gg_trace_T": 10,
        "mt": {"n": 400, "features": 30, "density": 0.1, "classes": 3},
        "mt_T": 20, "M": 20,
    },
}


def _solver(variant, T, M):
    entry = {"name": variant, "variant": variant, "eta": 1.0, "rho": 1.0, "T": T}
    if variant != "dete":
        entry["M"] = M
    return entry


def make_spec(workload, seed, scale, work_dir):
    """Return the experiment spec for one workload; writes mt_sparse's data file."""
    size = SIZES[scale]
    M = size["M"]
    if workload in ("gg_solve", "gg_trace"):
        problem = {"kind": "graph_guided", "seed": seed, **size["gg"]}
        if workload == "gg_solve":
            T = size["gg_solve_T"]
            solvers = [_solver("dete", size["gg_solve_dete_T"], M)]
            solvers += [_solver(v, T, M) for v in ("stoc", "svrg", "saga")]
            stride = T  # one trace record per solver entry
        else:
            T = size["gg_trace_T"]
            solvers = [_solver("svrg", T, M)]
            stride = 1
        n_total = problem["n"]
    elif workload == "mt_sparse":
        path = os.path.join(work_dir, "mt_sparse.libsvm")
        n_total = write_multiclass_libsvm(path, seed, **size["mt"])
        problem = {"kind": "multitask", "path": path, "seed": seed}
        T = size["mt_T"]
        solvers = [_solver(v, T, M) for v in ("stoc", "svrg", "saga")]
        stride = T
    else:
        raise ValueError(f"unknown workload {workload!r}")
    problem["train_fraction"] = TRAIN_FRACTION
    spec = {
        "version": "v1", "problem": problem, "solvers": solvers,
        "repetitions": 1, "seed_base": seed, "trace_stride": stride,
    }
    return spec, int(round(TRAIN_FRACTION * n_total))


def write_multiclass_libsvm(path, seed, n, features, density, classes):
    """Sparse Gaussian features, labels from a sparse linear model plus Gumbel
    noise (a softmax draw); every class and feature column is present."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mask = rng.random((n, features)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal(rows.size)
    feats = sp.csr_matrix((vals, (rows, cols)), shape=(n, features))
    W = rng.standard_normal((classes, features)) * (rng.random((classes, features)) < 0.2)
    scores = np.asarray(feats @ W.T) + rng.gumbel(size=(n, classes))
    labels = scores.argmax(axis=1)
    if np.unique(labels).size != classes or not mask[:, -1].any():
        raise ValueError(f"seed {seed} leaves a class or the last column empty")
    write_libsvm(types.SimpleNamespace(features=feats, labels=labels), path)
    return n


def closed_form_ifo(entry, n_train):
    """Component-gradient count the paper's IFO model predicts for one entry."""
    T = entry["T"]
    variant = entry["variant"]
    if variant == "dete":
        return T * n_train
    M = min(entry.get("M", 100), n_train)
    if variant == "stoc":
        return T * M
    if variant == "svrg":
        m = entry.get("m") or max(1, n_train // M)
        return T * M + math.ceil(T / m) * n_train
    return n_train + T * M
