"""Deterministic and mini-batch stochastic ADMM with linearized x-updates.

All four variants share the y-update (blockwise prox), the inexact-Uzawa
x-step and the dual ascent; they differ only in how the smooth gradient
estimate is built. Runs are bitwise reproducible for a fixed seed.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConfigError,
    DivergenceError,
    InputError,
    InternalInvariantError,
)
from . import metrics, params

_DIVERGENCE_NORM = 1e12

# rows of the full SAGA table are rebuilt about this many bytes at a time
_BLOCK_BYTES = 1 << 20


@dataclass
class SolverConfig:
    variant: str
    eta: float
    rho: float
    r: float
    M: int
    T: int
    m: int = None  # epoch length, svrg only
    seed: int = 0
    trace_stride: int = 1

    def __post_init__(self):
        estimator = variant(self.variant)
        self.variant = estimator.name
        # a NaN passes every comparison below, and an infinite r freezes x
        if not all(math.isfinite(v) for v in (self.eta, self.rho, self.r)):
            raise ConfigError(
                "eta, rho and r must be finite numbers, got "
                f"eta={self.eta!r}, rho={self.rho!r}, r={self.r!r}"
            )
        if self.eta <= 0 or self.rho <= 0:
            raise ConfigError("eta and rho must be > 0")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.M < 1:
            raise ConfigError("mini-batch size M must be >= 1")
        estimator.check_m(self.m)
        if self.trace_stride < 1:
            raise ConfigError("trace_stride must be >= 1")

    def validate_against(self, problem):
        r_min = params.min_admissible_r(problem.constraints, self.eta, self.rho)
        if self.r < r_min * (1.0 - 1e-12):
            raise ConfigError(
                f"r={self.r:g} below the H >= I bound "
                f"eta*rho*||A^T A|| + 1 = {r_min:g}"
            )
        if self.M > problem.n:
            raise ConfigError(f"M={self.M} exceeds sample count n={problem.n}")

    @classmethod
    def for_problem(cls, problem, variant_name, eta, rho, T, *, r=None, M=None,
                    m=None, seed=0, trace_stride=1):
        """A config for `problem`, checked against it, with r, M and m each
        filled in when None.

        M: the variant's `default_M` or a given M, refused below 1, clamped to
        n. m: max(1, n // M) for a variant that runs in epochs, then checked.
        r: `min_admissible_r`.
        """
        n = problem.n
        estimator = variant(variant_name)
        if M is not None and M < 1:
            raise ConfigError("mini-batch size M must be >= 1")
        M = min(estimator.default_M if M is None else M, n)
        if m is None and estimator.needs_m:
            m = max(1, n // M)
        estimator.check_m(m)
        if r is None:
            r = params.min_admissible_r(problem.constraints, eta, rho)
        config = cls(variant=variant_name, eta=eta, rho=rho, r=r, M=M, T=T, m=m,
                     seed=seed, trace_stride=trace_stride)
        config.validate_against(problem)
        return config


@dataclass
class SolverState:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    t: int = 0
    x_prev: np.ndarray = None
    grad_table: "SagaTable" = None  # saga only


@dataclass
class TraceRecord:
    t: int
    wall_time: float
    objective: float
    feasibility_sq: float
    dual_sq: float
    subgrad_dist_sq: float
    ifo: int
    lrho: float
    dx_sq: float
    # snapshot distances; None for an estimator without a snapshot
    snap_sq: float = None
    snap_prev_sq: float = None


@dataclass
class RunResult:
    trace: list
    state: SolverState


def y_update(problem, Ax_t, lambda_t, rho):
    """argmin_y L_rho(x_t, y, lambda_t), blockwise prox; Ax_t is A x_t."""
    v = Ax_t - problem.constraints.c - lambda_t / rho
    return problem.regularizer.prox(np.asarray(v).ravel(), 1.0 / rho)


def x_update_uzawa(problem, x_t, y_new, lambda_t, g_hat, eta, rho, r, Ax_t):
    """Single inexact-Uzawa step; equals the minimizer of the linearized
    surrogate with H = rI - rho*eta*A^T A. Ax_t is A x_t.
    """
    g_hat = np.asarray(g_hat, dtype=float)
    if g_hat.shape != x_t.shape:
        raise InputError("gradient estimate has the wrong dimension")
    cs = problem.constraints
    resid = Ax_t - y_new - cs.c - lambda_t / rho
    return x_t - (eta / r) * (g_hat + rho * (cs.AT @ resid))


def lambda_update(Ax_new, y_new, lambda_t, rho, constraints):
    """lambda_{t+1} = lambda_t - rho * (A x_{t+1} - y_{t+1} - c); Ax_new is
    A x_{t+1}."""
    return lambda_t - rho * (Ax_new - y_new - constraints.c)


def stoc_gradient(problem, x, rows):
    """Mini-batch mean gradient over the Rows of a with-replacement batch."""
    return problem.grad(x, rows)


def svrg_gradient(problem, x, rows, snapshot_x, snapshot_grad):
    """Snapshot-corrected gradient estimate; the batch's Rows serve both
    gradients. Grouped as batch-mean + (snapshot - batch-mean-at-snapshot)
    so the correction cancels exactly (bitwise) when the batch is the full
    set; `run` takes `FullBatchSvrg`'s step there, which computes neither
    snapshot gradient.
    """
    g = problem.grad(x, rows)
    g_snap_batch = problem.grad(snapshot_x, rows)
    return g + (snapshot_grad - g_snap_batch)


class SagaTable:
    """SAGA's stored component gradients grad f_i(phi_i), one per sample,
    and their running mean `psi`.

    A linear model's component gradient is a per-sample coefficient times
    the sample's feature row, plus, for some losses, a term shared by every
    sample that depends only on the point phi_i. The table keeps the
    coefficients (n x 1 or n x classes) and a pool: all samples written in
    one step point at one pool slot, which holds that step's point and, when
    the loss has one, its shared term. A slot is reused once no sample
    points at it, so at most min(n, writes + 1) are live. A shared term is
    kept plus 0.0, the form the loss's `add_products` rebuilds rows onto.
    Rows are rebuilt by the loss only where they are read, bitwise equal to
    the rows `grad_matrix` gave when they were stored.
    """

    def __init__(self, loss, coef, points, shared, slot):
        self.loss, self.n, self.d = loss, loss.n, loss.d
        self.coef = coef
        self.points = points
        self.shared = None if shared is None else shared + 0.0
        self.slot = slot
        self.refs = np.bincount(slot, minlength=len(points))
        self.free = np.flatnonzero(self.refs == 0)[::-1].tolist()
        self.psi = self.mean()

    @classmethod
    def at(cls, problem, x):
        """Every sample stored at the one point x, as SAGA starts."""
        loss = problem.loss
        coef, shared = loss.coefficients(x, loss.all_rows)
        return cls(loss, coef, x[None] + 0.0,
                   None if shared is None else shared[None],
                   np.zeros(loss.n, dtype=np.intp))

    @property
    def nbytes(self):
        arrays = (self.coef, self.points, self.slot, self.refs, self.shared)
        return sum(a.nbytes for a in arrays if a is not None)

    def rows(self, rows):
        """Stored gradients of gathered Rows, as a len(rows) x d array."""
        idx = rows.index
        if self.shared is None:
            return self.loss.component_rows(self.coef[idx], rows.features)
        shared = np.take(self.shared, self.slot[idx], axis=0)
        return self.loss.add_products(self.coef[idx], rows.features, shared)

    def mean(self):
        """Row mean over every sample, bitwise what `.mean(axis=0)` of the
        dense rows gives.

        The rows go in blocks of about 1 MB: numpy sums wider than one
        column row by row in order, and adding the running total into each
        block's first row keeps that order. A single column it sums
        pairwise, so that goes in one block.
        """
        rows = self.loss.all_rows
        step = self.n if self.d == 1 else max(1, _BLOCK_BYTES // (8 * self.d))
        total = None
        for start in range(0, self.n, step):
            block = self.rows(rows.take(slice(start, start + step)))
            if total is not None:
                block[0] += total
            total = block.sum(axis=0)
        return total / self.n

    def product_mean(self):
        """Row mean from one product with the features, O(nnz) and without
        rebuilding a row; equal to `mean()` up to rounding."""
        shared = None
        if self.shared is not None:
            live = np.flatnonzero(self.refs)
            shared = np.tensordot(self.refs[live], self.shared[live], axes=1) / self.n
        feats = self.loss.all_rows.features
        return self.loss.component_mean(self.coef, feats, shared)

    def spread(self, x):
        """mean_i ||x - phi_i||^2 over the stored points, one term per live
        slot weighted by the samples that point at it."""
        live = np.flatnonzero(self.refs)
        diff = x - self.points[live]
        return float(self.refs[live] @ np.einsum("ij,ij->i", diff, diff)) / self.n

    def write(self, index, x, coef, shared=None):
        """Store the samples of the unique `index` at the one new point x:
        their coefficients and, when the loss has one, x's shared term."""
        self.coef[index] = coef
        old = self.slot[index]
        np.subtract.at(self.refs, old, 1)
        # each slot once, in first-seen order
        self.free.extend(dict.fromkeys(old[self.refs[old] == 0].tolist()))
        if not self.free:
            self._grow()
        s = self.free.pop()
        self.points[s] = x
        if shared is not None:
            np.add(shared, 0.0, out=self.shared[s])
        self.slot[index] = s
        self.refs[s] = index.size

    def _grow(self):
        # with every slot live some sample sits outside this write, so fewer
        # than n slots are live and n slots always suffice
        cap = len(self.points)
        new_cap = min(2 * cap, self.n)
        self.points = np.resize(self.points, (new_cap,) + self.points.shape[1:])
        if self.shared is not None:
            self.shared = np.resize(self.shared, (new_cap,) + self.shared.shape[1:])
        self.refs = np.concatenate([self.refs, np.zeros(new_cap - cap, int)])
        self.free.extend(range(new_cap - 1, cap - 1, -1))


def saga_gradient(problem, table, x, rows):
    """Table-corrected gradient estimate at x over the batch's Rows, and the
    batch's stored rows for saga_table_update; does not mutate the table.
    """
    g = problem.grad(x, rows)
    stored = table.rows(rows)
    return g + (table.psi - stored.mean(axis=0)), stored


def saga_table_update(problem, table, rows, stored, x_new):
    """Write grad f_i(x_new) for the batch Rows' unique samples, update psi.

    Old minus new is formed in one buffer: the unique rows of the batch's
    `stored` rows, as `saga_gradient` returned them, minus the new rows in
    place.
    """
    uniq, first = np.unique(rows.index, return_index=True)
    new = rows.take(first)
    coef, shared = problem.loss.coefficients(x_new, new)
    diff = stored[first]
    problem.loss.subtract_rows(diff, coef, new.features, shared)
    table.psi = table.psi - diff.sum(axis=0) / table.n
    table.write(uniq, x_new, coef, shared)


class BatchMean:
    """`stoc`: the mean gradient over a batch of M samples. One class per
    variant; `variant` finds it by its `name`. An estimator owns its state and IFO
    count; `run` calls begin, estimate and commit each iteration, finish after."""

    table = None
    default_M = 100  # clamped to n by SolverConfig.for_problem
    needs_m = False  # whether the variant runs in epochs of length m

    def __init__(self, problem, M):
        self.problem, self.M, self.ifo = problem, M, 0

    @classmethod
    def check_m(cls, m):
        if cls.needs_m and (m is None or m < 1):
            raise ConfigError(f"{cls.name} requires epoch length m >= 1")

    @classmethod
    def start(cls, problem, config, x0):
        return cls(problem, config.M)

    @staticmethod
    def shift_sequence(L, constraints, rho, n, M, m, T, beta):
        """(schedule, its shift of L~ at each step, overflow reason); None here."""
        return None, None, None

    @staticmethod
    def size_fallbacks(n, M, m):
        return [(M, None)]

    def begin(self, t, x):
        pass

    def estimate(self, x, rows):
        self.ifo += len(rows)
        return stoc_gradient(self.problem, x, rows)

    def commit(self, x_new):
        pass

    def snap_sq(self, x, x_prev):
        """(snap_sq, snap_prev_sq) of a trace record; None where unused."""
        return None, None

    def finish(self):
        pass


class FullBatchMean(BatchMean):
    """`dete`: the mean gradient over the full set, whatever M is named."""

    default_M = math.inf  # every sample, once clamped to n

    @classmethod
    def start(cls, problem, config, x0):
        return cls(problem, problem.n)


class SvrgEstimator(BatchMean):
    """The batch mean corrected at a snapshot, retaken every m iterations
    at a cost of n IFO."""

    needs_m = True

    def __init__(self, problem, M, m, x_snap=None, snap_grad=None):
        super().__init__(problem, M)
        self.m = m
        self.x_snap, self.snap_grad = x_snap, snap_grad

    @classmethod
    def start(cls, problem, config, x0):
        if config.M == problem.n:
            return FullBatchSvrg(problem, problem.n, config.m)
        return cls(problem, config.M, config.m)

    @staticmethod
    def shift_sequence(L, constraints, rho, n, M, m, T, beta):
        if m is None or M is None:
            raise ConfigError("svrg certificate needs m and M")
        if n is not None and not 1 <= M <= n:
            raise ConfigError("mini-batch size M must satisfy 1 <= M <= n")
        h = params.svrg_h_schedule(L, constraints, rho, M, m, beta)
        # (1+1/beta) h_{t+1}, and at the epoch's end h[0], the next epoch's h_1
        shifts = [(1.0 + 1.0 / beta) * h[t + 1] for t in range(m - 1)]
        return h, shifts + [float(h[0])], (
            f"h schedule overflows float64 within m={m} steps: "
            "the backward recursion grows geometrically in the epoch"
        )

    @staticmethod
    def size_fallbacks(n, M, m):
        # the schedule grows geometrically in m: epochs m, m//2, ..., 1
        return [(M, m >> k) for k in range(m.bit_length())]

    def begin(self, t, x):
        if t % self.m == 0:
            self.x_snap = x.copy()
            self.snap_grad = self.problem.grad(self.x_snap)
            self.ifo += self.problem.n

    def estimate(self, x, rows):
        self.ifo += len(rows)
        return svrg_gradient(self.problem, x, rows, self.x_snap, self.snap_grad)

    def snap_sq(self, x, x_prev):
        a, b = x - self.x_snap, x_prev - self.x_snap
        return float(a @ a), float(b @ b)


class FullBatchSvrg(SvrgEstimator):
    """`svrg` at M = n: the batch is the full set, so the correction is zero
    and the step is dete's. No snapshot gradient is taken, but each snapshot
    still keeps its point, for snap_sq, and counts n IFO, as svrg's does."""

    estimate = BatchMean.estimate

    def begin(self, t, x):
        if t % self.m == 0:
            self.x_snap = x.copy()
            self.ifo += self.problem.n


class SagaEstimator(BatchMean):
    """The batch mean corrected by a SagaTable; the table's start counts n
    IFO. The batch's Rows, and its stored rows that the estimate rebuilds,
    serve the estimate and the table write."""

    def __init__(self, problem, M, table):
        super().__init__(problem, M)
        self.table = table
        self.ifo = problem.n

    @classmethod
    def start(cls, problem, config, x0):
        if config.M == problem.n:
            return FullBatchSaga(problem, problem.n)
        return cls(problem, config.M, SagaTable.at(problem, x0))

    @staticmethod
    def shift_sequence(L, constraints, rho, n, M, m, T, beta):
        if T is None or n is None or M is None:
            raise ConfigError("saga certificate needs T, n and M")
        alpha = params.saga_alpha_schedule(L, constraints, rho, n, M, T, beta)
        frac = (n - M) / n * (1.0 + 1.0 / beta)
        return alpha[:T], [frac * alpha[t] for t in range(1, T + 1)], (
            f"alpha schedule overflows float64 within T={T} steps: "
            "the backward recursion grows geometrically for M < n"
        )

    @staticmethod
    def size_fallbacks(n, M, m):
        # the schedule grows geometrically in T unless M = n
        return [(M, None)] if M == n else [(M, None), (n, None)]

    def estimate(self, x, rows):
        self.ifo += len(rows)
        g, stored = saga_gradient(self.problem, self.table, x, rows)
        self._batch = rows, stored
        return g

    def commit(self, x_new):
        saga_table_update(self.problem, self.table, *self._batch, x_new)
        del self._batch  # the stored rows are not held into the next step

    def snap_sq(self, x, x_prev):
        return self.table.spread(x), None

    def finish(self):
        # a tolerance check: the O(nnz) product is an independent recomputation
        recomputed = self.table.product_mean()
        scale = max(1.0, float(np.linalg.norm(recomputed)))
        if np.linalg.norm(self.table.psi - recomputed) > 1e-8 * scale:
            raise InternalInvariantError("SAGA running mean psi drifted from its table")


class FullBatchSaga(FullBatchMean):
    """`saga` at M = n: every step stores every sample at the new x, so the
    table's correction is zero and the step is dete's. No table is built,
    but its start counts n IFO, as saga's does."""

    def __init__(self, problem, M):
        super().__init__(problem, M)
        self.ifo = problem.n

    def snap_sq(self, x, x_prev):
        return 0.0, None  # every stored point is x


_VARIANTS = {"dete": FullBatchMean, "stoc": BatchMean,
             "svrg": SvrgEstimator, "saga": SagaEstimator}
for _name, _estimator in _VARIANTS.items():
    _estimator.name = _name
VARIANTS = tuple(_VARIANTS)


def variant(name):
    """The estimator class of the variant `name`, in any case."""
    try:
        return _VARIANTS[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown variant {name!r}") from None


def init_state(problem, config):
    """Seeded standard-normal x0, y0, zero dual start and the batch stream."""
    init_ss, batch_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng_init = np.random.Generator(np.random.Philox(init_ss))
    x0 = rng_init.standard_normal(problem.d)
    y0 = rng_init.standard_normal(problem.p)
    lam0 = np.zeros(problem.constraints.q)
    state = SolverState(x=x0, y=y0, lam=lam0, x_prev=x0.copy())
    return state, np.random.Generator(np.random.Philox(batch_ss))


def _draw_batch(rng, loss, M):
    """One step's batch as Rows: M indices drawn with replacement and
    gathered, or at M == n the loss's `all_rows` itself, without a draw, so
    that stoc's step there is bitwise dete's. svrg and saga take dete's step
    at M == n (`FullBatchSvrg`, `FullBatchSaga`) and form no correction."""
    if M == loss.n:
        return loss.all_rows
    return loss.gather(rng.integers(0, loss.n, size=M))


def run(problem, config, callback=None):
    """Execute the configured variant for T effective iterations.

    callback, when given, is invoked as callback(record, state) as each
    TraceRecord is recorded; at trace_stride=1 that is after every step.
    Raises DivergenceError on NaN/Inf state or runaway norms.

    Each iteration makes two products with A: A x_{t+1}, carried into the
    next iteration's y- and x-steps, and A^T times the x-step residual.
    """
    config.validate_against(problem)
    cs = problem.constraints
    eta, rho, r = config.eta, config.rho, config.r

    state, rng_batch = init_state(problem, config)
    Ax = cs.A @ state.x
    estimator = variant(config.variant).start(problem, config, state.x)
    state.grad_table = estimator.table

    trace = []
    solver_time = 0.0

    for t in range(config.T):
        tic = time.perf_counter()

        estimator.begin(t, state.x)
        y_new = y_update(problem, Ax, state.lam, rho)
        batch = _draw_batch(rng_batch, problem.loss, estimator.M)
        g_hat = estimator.estimate(state.x, batch)
        x_new = x_update_uzawa(
            problem, state.x, y_new, state.lam, g_hat, eta, rho, r, Ax
        )
        Ax = cs.A @ x_new
        lam_new = lambda_update(Ax, y_new, state.lam, rho, cs)
        estimator.commit(x_new)

        state.x_prev = state.x
        state.x, state.y, state.lam = x_new, y_new, lam_new
        state.t = t + 1
        solver_time += time.perf_counter() - tic

        if not (np.isfinite(x_new).all() and np.isfinite(lam_new).all()):
            raise DivergenceError("non-finite solver state", t + 1)
        if np.linalg.norm(x_new) > _DIVERGENCE_NORM:
            raise DivergenceError("primal iterate norm exceeded 1e12", t + 1)

        if (t + 1) % config.trace_stride == 0 or t + 1 == config.T:
            rec = _record(problem, config, state, estimator, solver_time)
            trace.append(rec)
            if callback is not None:
                callback(rec, state)

    estimator.finish()
    return RunResult(trace=trace, state=state)


def _record(problem, config, state, estimator, wall_time):
    rho = config.rho
    f, grad = problem.loss.value_and_grad(state.x, problem.loss.all_rows)
    obj = f + problem.regularizer.value(state.y)
    report = metrics.stationarity(
        problem, state.x, state.y, state.lam, state.x_prev, rho, grad
    )
    resid = problem.constraints.residual(state.x, state.y)
    dx = state.x - state.x_prev
    snap_sq, snap_prev_sq = estimator.snap_sq(state.x, state.x_prev)
    return TraceRecord(
        t=state.t,
        wall_time=wall_time,
        objective=obj,
        feasibility_sq=report.feasibility_sq,
        dual_sq=report.dual_sq,
        subgrad_dist_sq=report.subgrad_dist_sq,
        ifo=estimator.ifo,
        lrho=obj - float(state.lam @ resid) + 0.5 * rho * float(resid @ resid),
        dx_sq=float(dx @ dx),
        snap_sq=snap_sq,
        snap_prev_sq=snap_prev_sq,
    )
