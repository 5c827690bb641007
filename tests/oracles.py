"""Dense and Monte-Carlo oracles for the paper's claims: unbiased gradient
estimators, their variance bounds, the dual-update identity and the O(1/T)
rate, the d x d support form of the graph-guided constraint builder, a
test-set evaluator with one closure per loss type, the CLI's rows with the
test evaluation run in the solver's callback, and the one-pass forms of
the sigmoid curvature scan and of the graph-guided generator.
No run calls them; the tests check the package against them.
"""

import numpy as np
import scipy.sparse as sp

from scipy.special import expit

from ncadmm import metrics, solvers
from ncadmm.data import (
    _MIN_PRECISION_EIG, Dataset, PrecisionModel, _draw_rows, _substreams,
    check_count, check_dim,
)
from ncadmm.exceptions import CapabilityError, ConfigError, InputError
from ncadmm.problems import ConstraintSystem, SigmoidLoss, SmoothedMultiTaskLoss


def build_graph_guided_A_from_support(precision_support):
    """Constraint system for the graph-guided fused lasso.

    One row e_i^T - e_j^T per upper-triangle edge of the support, followed by
    an identity block so A has full column rank even for dense graphs; c = 0.
    """
    S = np.asarray(precision_support, dtype=bool)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError("precision support must be a square matrix")
    if not np.array_equal(S, S.T):
        raise InputError("precision support must be symmetric")
    d = S.shape[0]
    ii, jj = np.nonzero(np.triu(S, k=1))
    n_edges = ii.size
    q = n_edges + d
    rows = np.concatenate(
        [np.arange(n_edges), np.arange(n_edges), n_edges + np.arange(d)]
    )
    cols = np.concatenate([ii, jj, np.arange(d)])
    vals = np.concatenate(
        [np.ones(n_edges), -np.ones(n_edges), np.ones(d)]
    )
    A = sp.csr_matrix((vals, (rows, cols)), shape=(q, d))
    return ConstraintSystem(A, np.zeros(q))


def sigmoid_curvature_bound():
    """sup_u |d^2/du^2 1/(1+e^u)|, found by a dense 1-D scan (about 0.0962)."""
    u = np.linspace(-8.0, 8.0, 200001)
    p = expit(-u)
    return float(np.max(p * (1.0 - p) * np.abs(1.0 - 2.0 * p)))


def gen_graph_guided(n, d, seed, order=None):
    """Sparse-precision Gaussian features with sigmoid-model labels; the
    precision matrix built out of place, with every d x d temporary alive
    until the features are drawn."""
    if n < 1 or d < 1:
        raise ConfigError("n and d must be >= 1")
    check_dim(d, "graph_guided features")
    check_count(n * d, f"n={n} samples x d={d} features")
    rng_prec, rng_x, rng_feat, rng_noise = _substreams(seed, 4)

    raw = np.zeros((d, d))
    mask = rng_prec.random((d, d)) >= 0.95
    mags = rng_prec.uniform(0.25, 0.75, size=(d, d))
    signs = np.where(rng_prec.random((d, d)) < 0.5, -1.0, 1.0)
    raw[mask] = (signs * mags)[mask]
    Lam = 0.5 * (raw + raw.T)
    evals, evecs = np.linalg.eigh(Lam)
    shift = max(0.0, _MIN_PRECISION_EIG - float(evals[0]))
    Lam = Lam + shift * np.eye(d)
    evals = evals + shift
    edges = np.nonzero(np.triu(np.abs(Lam) > 0, k=1))

    x_star = rng_x.standard_normal(d)

    # N(0, Lam^{-1}) through the symmetric inverse square root
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    noise = rng_noise.uniform(0.0, 1.0, size=n)
    feats, labels = _draw_rows(rng_feat, n, d, x_star, noise, order, inv_sqrt)
    ds = Dataset(
        features=feats,
        labels=labels,
        meta={"name": "graph_guided", "n": n, "d": d, "classes": 2,
              "source": "synthetic", "seed": seed},
    )
    return ds, PrecisionModel(Lambda=Lam, edges=edges, shift=shift), x_star


def smooth_value(problem, x):
    return problem.loss.value(x, problem.loss.all_rows)


def objective(problem, x, y):
    """f(x) + g(y), the constrained-form objective."""
    return smooth_value(problem, x) + problem.regularizer.value(y)


def objective_x(problem, x):
    """f(x) + g(Ax). Only meaningful for c = 0."""
    return smooth_value(problem, x) + problem.regularizer.value(
        problem.constraints.A @ x
    )


def make_test_evaluator(problem, test):
    """Return f(x) -> (misclassification rate, mean test loss): a closure
    per loss type over a loss built on the test rows, each loss value
    written out from the scores."""
    loss = problem.loss
    if isinstance(loss, SigmoidLoss):
        test_loss = SigmoidLoss(test.features, test.labels)
        feats, labels = test_loss.features, test_loss.labels

        def evaluate(x):
            scores = np.asarray(feats @ x).ravel()
            pred = np.where(scores >= 0, 1.0, -1.0)
            err = float(np.mean(pred != labels))
            return err, float(np.mean(expit(-(labels * scores))))
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
            return err, test_loss._mean_nll(
                scores, test_loss.labels
            ) + test_loss.penalty_value(test_loss._as_X(x))

    return evaluate


def run_single_rows(problem, evaluate, config, zeta):
    """`cli.run_single`'s rows with each record's `evaluate(x)` called in
    the solver's callback, on the calling thread, before the next step."""
    evals = []
    result = solvers.run(
        problem, config, callback=lambda rec, state: evals.append(evaluate(state.x))
    )
    psi = metrics.lyapunov_psi(result.trace, zeta, config.rho).tolist()
    return [
        [rec.t, rec.wall_time, rec.ifo, rec.objective, err, tloss,
         rec.feasibility_sq, rec.dual_sq, rec.subgrad_dist_sq, lyap]
        for rec, (err, tloss), lyap in zip(result.trace, evals, psi)
    ]


def saga_table_from_points(problem, points):
    """A SagaTable with sample i stored at points[i]."""
    loss = problem.loss
    points = np.array(points, dtype=float)
    if len(points) != loss.n:
        raise InputError(f"need one stored point per sample, n={loss.n}")
    parts = [loss.coefficients(p, loss.gather([i])) for i, p in enumerate(points)]
    coef = np.concatenate([c for c, _ in parts])
    shared = None if parts[0][1] is None else np.stack([s for _, s in parts])
    return solvers.SagaTable(loss, coef, points, shared, np.arange(loss.n))


def apply_H_over_eta(constraints, v, eta, rho, r):
    """(H / eta) v with H = rI - rho*eta*A^T A, without forming H."""
    return (r / eta) * v - rho * (constraints.AT @ (constraints.A @ v))


def dual_identity_residual(problem, g_hat, x_old, x_new, lam_new, eta, rho, r):
    """||A^T lam_{t+1} - g_hat + (H/eta)(x_t - x_{t+1})|| / (1 + ||g_hat||)."""
    cs = problem.constraints
    lhs = cs.AT @ lam_new - g_hat + apply_H_over_eta(
        cs, x_old - x_new, eta, rho, r
    )
    return float(np.linalg.norm(lhs)) / (1.0 + float(np.linalg.norm(g_hat)))


def variance_diagnostics(problem, variant, x, L, M=1, snapshot_x=None,
                         snapshot_grad=None, point_table=None, n_draws=2000,
                         rng=None):
    """Empirical gradient-estimator variance vs. its closed-form bound
    (L^2 / M) * snap_sq, snap_sq the estimator's own diagnostic at x.

    saga builds its table, and psi as the table's mean, from point_table
    (row i stored at point_table[i]).
    Exhaustive enumeration over single-index batches when n <= 8 and M = 1,
    Monte-Carlo with n_draws otherwise.
    """
    n = problem.n
    full_grad = problem.grad(x)
    variant = variant.lower()
    if variant == "svrg":
        if snapshot_x is None or snapshot_grad is None:
            raise CapabilityError("svrg variance diagnostics need the snapshot")
        estimator = solvers.SvrgEstimator(problem, M, None)
        estimator.x_snap, estimator.snap_grad = snapshot_x, snapshot_grad
    elif variant == "saga":
        if point_table is None:
            raise CapabilityError("saga variance diagnostics need point_table")
        table = saga_table_from_points(problem, point_table)
        estimator = solvers.SagaEstimator(problem, M, table)
    else:
        raise InputError("variance diagnostics apply to svrg and saga only")
    bound = (L**2 / M) * estimator.snap_sq(x, x)[0]

    if n <= 8 and M == 1:
        batches = [np.array([i]) for i in range(n)]
    else:
        rng = rng or np.random.default_rng(0)
        batches = [rng.integers(0, n, size=M) for _ in range(n_draws)]
    errors = (estimator.estimate(x, problem.loss.gather(batch)) - full_grad
              for batch in batches)
    empirical = float(np.mean([float(e @ e) for e in errors]))
    return {"empirical_var": empirical, "bound": bound}


def rate_summary(dx_sq):
    """Running min of theta_t = ||x_{t+1}-x_t||^2 + ||x_t-x_{t-1}||^2 vs T.

    dx_sq[t] is the squared consecutive-step length at effective iteration
    t+1; the slope is a log-log least-squares fit over the tail half.
    """
    dx_sq = np.asarray(dx_sq, dtype=float)
    if dx_sq.size < 4:
        raise InputError("need at least 4 recorded steps for a rate summary")
    theta = dx_sq[1:] + dx_sq[:-1]
    running_min = np.minimum.accumulate(theta)
    tail = running_min[running_min.size // 2 :]
    ts = np.arange(running_min.size // 2, running_min.size) + 2.0
    positive = tail > 0
    if positive.sum() < 2 or np.allclose(tail[positive], tail[positive][0]):
        slope = 0.0
    else:
        slope = float(
            np.polyfit(np.log(ts[positive]), np.log(tail[positive]), 1)[0]
        )
    return {"min_theta_by_T": running_min, "slope_estimate": slope}
