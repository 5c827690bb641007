"""Deterministic and mini-batch stochastic ADMM with linearized x-updates.

All four variants share the y-update (blockwise prox), the inexact-Uzawa
x-step and the dual ascent; they differ only in how the smooth gradient
estimate is built. Runs are bitwise reproducible for a fixed seed.
"""

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

VARIANTS = ("dete", "stoc", "svrg", "saga")

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
        self.variant = self.variant.lower()
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.eta <= 0 or self.rho <= 0:
            raise ConfigError("eta and rho must be > 0")
        if self.T < 0:
            raise ConfigError("T must be >= 0")
        if self.M < 1:
            raise ConfigError("mini-batch size M must be >= 1")
        if self.variant == "svrg":
            if self.m is None or self.m < 1:
                raise ConfigError("svrg requires epoch length m >= 1")
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


def config_defaults(problem, variant, eta, rho, r=None, M=None, m=None):
    """(r, M, m) of a SolverConfig for `problem`, each filled in when None.

    M: n for dete, else min(100, n); a given M is clamped to n, refused
    below 1. m: max(1, n // M) for svrg. r: `params.min_admissible_r`.
    """
    n = problem.n
    variant = variant.lower()
    if M is None:
        M = n if variant == "dete" else min(100, n)
    elif M < 1:
        raise ConfigError("mini-batch size M must be >= 1")
    M = min(M, n)
    if m is None and variant == "svrg":
        m = max(1, n // M)
    if r is None:
        r = params.min_admissible_r(problem.constraints, eta, rho)
    return r, M, m


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
    x_rand: np.ndarray
    y_rand: np.ndarray
    t_rand: int


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


def stoc_gradient(problem, x, batch):
    """Mini-batch mean gradient over a with-replacement batch."""
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise ConfigError("empty mini-batch")
    return problem.grad(x, batch)


def svrg_gradient(problem, x, batch, snapshot_x, snapshot_grad):
    """Snapshot-corrected gradient estimate.

    The batch rows are gathered once and serve both gradients. Grouped as
    batch-mean + (snapshot - batch-mean-at-snapshot) so the correction
    cancels exactly (bitwise) when the batch is the full set.
    """
    rows = problem.gather(batch)
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
        self._kept = None
        self.psi = self.mean()

    @classmethod
    def at(cls, problem, x):
        """Every sample stored at the one point x, as SAGA starts."""
        loss = problem.loss
        coef, shared = loss.coefficients(x, problem.full_index_set())
        return cls(loss, coef, x[None] + 0.0,
                   None if shared is None else shared[None],
                   np.zeros(loss.n, dtype=np.intp))

    @classmethod
    def from_points(cls, problem, points):
        """Sample i stored at points[i]."""
        loss = problem.loss
        points = np.array(points, dtype=float)
        if len(points) != loss.n:
            raise InputError(f"need one stored point per sample, n={loss.n}")
        parts = [loss.coefficients(p, [i]) for i, p in enumerate(points)]
        coef = np.concatenate([c for c, _ in parts])
        shared = None if parts[0][1] is None else np.stack([s for _, s in parts])
        return cls(loss, coef, points, shared, np.arange(loss.n))

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

    def mean(self, rows=None):
        """Row mean over `rows` (every sample by default), bitwise what
        `.mean(axis=0)` of the dense rows gives.

        A batch smaller than n is rebuilt at once and kept for the
        `kept_rows` of the next write. Anything larger goes in blocks of
        about 1 MB: numpy sums wider than one column row by row in order,
        and adding the running total into each block's first row keeps that
        order. A single column it sums pairwise, so that goes in one block.
        """
        if rows is None:
            rows = self.loss.gather(np.arange(self.n))
        if len(rows) < self.n:
            block = self.rows(rows)
            self._kept = (rows, block)
            return block.mean(axis=0)
        step = len(rows) if self.d == 1 else max(1, _BLOCK_BYTES // (8 * self.d))
        total = None
        for start in range(0, len(rows), step):
            block = self.rows(rows.take(slice(start, start + step)))
            if total is not None:
                block[0] += total
            total = block.sum(axis=0)
        return total / len(rows)

    def product_mean(self):
        """Row mean from one product with the features, O(nnz) and without
        rebuilding a row; equal to `mean()` up to rounding."""
        shared = None
        if self.shared is not None:
            live = np.flatnonzero(self.refs)
            shared = np.tensordot(self.refs[live], self.shared[live], axes=1) / self.n
        rows = self.loss.gather(np.arange(self.n))
        return self.loss.component_mean(self.coef, rows.features, shared)

    def spread(self, x):
        """mean_i ||x - phi_i||^2 over the stored points, one term per live
        slot weighted by the samples that point at it."""
        live = np.flatnonzero(self.refs)
        diff = x - self.points[live]
        return float(self.refs[live] @ np.einsum("ij,ij->i", diff, diff)) / self.n

    def kept_rows(self, rows, positions):
        """Stored gradients at `positions` of `rows`, taken from what `mean`
        rebuilt for the same Rows object when it did; a new array."""
        if self._kept is not None and self._kept[0] is rows:
            return self._kept[1][positions]
        return self.rows(rows.take(positions))

    def write(self, index, x, coef, shared=None):
        """Store the samples of the unique `index` at the one new point x:
        their coefficients and, when the loss has one, x's shared term."""
        self._kept = None
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


def saga_gradient(problem, table, x, batch):
    """Table-corrected gradient estimate at x; does not mutate the table.

    The batch rows are gathered once, for the gradient and the stored rows;
    passing the same gathered Rows on to saga_table_update reuses both.
    """
    rows = problem.gather(batch)
    g = problem.grad(x, rows)
    return g + (table.psi - table.mean(rows))


def saga_table_update(problem, table, batch, x_new):
    """Write grad f_i(x_new) for deduplicated batch indices, update psi.

    The new coefficients are those of exactly the unique rows. Below the
    full set, old minus new is formed in one buffer: the stored rows
    `saga_gradient` rebuilt, minus the new rows in place.
    """
    n = table.n
    rows = problem.gather(batch)
    uniq, first = np.unique(rows.index, return_index=True)
    new = rows.take(first)
    coef, shared = problem.loss.coefficients(x_new, new)
    if uniq.size < n:
        diff = table.kept_rows(rows, first)
        problem.loss.subtract_rows(diff, coef, new.features, shared)
        table.psi = table.psi - diff.sum(axis=0) / n
    table.write(uniq, x_new, coef, shared)
    if uniq.size == n:
        table.psi = table.mean()


class BatchMean:
    """The mean gradient over a batch of M samples: `stoc`, and `dete` with
    the full set as its batch. An estimator owns its state and IFO count;
    `run` calls begin, estimate and commit each iteration, finish after."""

    table = None

    def __init__(self, problem, M):
        self.problem, self.M, self.ifo = problem, M, 0

    def begin(self, t, x):
        pass

    def estimate(self, x, batch):
        self.ifo += len(batch)
        return stoc_gradient(self.problem, x, batch)

    def commit(self, x_new):
        pass

    def snap_sq(self, x, x_prev):
        """(snap_sq, snap_prev_sq) of a trace record; None where unused."""
        return None, None

    def finish(self):
        pass


class SvrgEstimator(BatchMean):
    """The batch mean corrected at a snapshot, retaken every m iterations
    at a cost of n IFO."""

    def __init__(self, problem, M, m, x_snap=None, snap_grad=None):
        super().__init__(problem, M)
        self.m = m
        self.x_snap, self.snap_grad = x_snap, snap_grad

    def begin(self, t, x):
        if t % self.m == 0:
            self.x_snap = x.copy()
            self.snap_grad = self.problem.grad(self.x_snap)
            self.ifo += self.problem.n

    def estimate(self, x, batch):
        self.ifo += len(batch)
        return svrg_gradient(self.problem, x, batch, self.x_snap, self.snap_grad)

    def snap_sq(self, x, x_prev):
        a, b = x - self.x_snap, x_prev - self.x_snap
        return float(a @ a), float(b @ b)


class SagaEstimator(BatchMean):
    """The batch mean corrected by a SagaTable; the table's start counts n
    IFO. The batch is gathered once for the estimate and the table write."""

    def __init__(self, problem, M, table):
        super().__init__(problem, M)
        self.table = table
        self.ifo = problem.n

    def estimate(self, x, batch):
        self._rows = self.problem.gather(batch)
        self.ifo += len(self._rows)
        return saga_gradient(self.problem, self.table, x, self._rows)

    def commit(self, x_new):
        saga_table_update(self.problem, self.table, self._rows, x_new)

    def snap_sq(self, x, x_prev):
        return self.table.spread(x), None

    def finish(self):
        # a tolerance check: the O(nnz) product is an independent recomputation
        recomputed = self.table.product_mean()
        scale = max(1.0, float(np.linalg.norm(recomputed)))
        if np.linalg.norm(self.table.psi - recomputed) > 1e-8 * scale:
            raise InternalInvariantError("SAGA running mean psi drifted from its table")


def make_estimator(problem, config, x0):
    """The gradient estimator of config.variant, started at x0."""
    if config.variant == "svrg":
        return SvrgEstimator(problem, config.M, config.m)
    if config.variant == "saga":
        return SagaEstimator(problem, config.M, SagaTable.at(problem, x0))
    # dete's batch is the full set, which _draw_batch gives without a draw
    return BatchMean(problem, problem.n if config.variant == "dete" else config.M)


def init_state(problem, config):
    """Seeded standard-normal x0, y0 and zero dual start."""
    ss = np.random.SeedSequence(config.seed)
    init_ss, batch_ss, out_ss = ss.spawn(3)
    rng_init = np.random.Generator(np.random.Philox(init_ss))
    x0 = rng_init.standard_normal(problem.d)
    y0 = rng_init.standard_normal(problem.p)
    lam0 = np.zeros(problem.constraints.q)
    state = SolverState(x=x0, y=y0, lam=lam0, x_prev=x0.copy())
    return state, np.random.Generator(np.random.Philox(batch_ss)), \
        np.random.Generator(np.random.Philox(out_ss))


def _draw_batch(rng, n, M):
    # M == n degenerates to the deterministic full index set so that the
    # variance-reduced corrections cancel exactly
    if M == n:
        return np.arange(n)
    return rng.integers(0, n, size=M)


def run(problem, config, callback=None):
    """Execute the configured variant for T effective iterations.

    callback, when given, is invoked as callback(record, state) as each
    TraceRecord is recorded; at trace_stride=1 that is after every step.
    Raises DivergenceError on NaN/Inf state or runaway norms.

    Each iteration makes two products with A: A x_{t+1}, carried into the
    next iteration's y- and x-steps, and A^T times the x-step residual.
    """
    config.validate_against(problem)
    n = problem.n
    cs = problem.constraints
    eta, rho, r = config.eta, config.rho, config.r

    state, rng_batch, rng_out = init_state(problem, config)
    Ax = cs.A @ state.x
    estimator = make_estimator(problem, config, state.x)
    state.grad_table = estimator.table

    t_rand = int(rng_out.integers(1, config.T + 1)) if config.T > 0 else 0
    x_rand, y_rand = state.x.copy(), state.y.copy()

    trace = []
    solver_time = 0.0

    for t in range(config.T):
        tic = time.perf_counter()

        estimator.begin(t, state.x)
        y_new = y_update(problem, Ax, state.lam, rho)
        batch = _draw_batch(rng_batch, n, estimator.M)
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

        if t + 1 == t_rand:
            x_rand, y_rand = state.x.copy(), state.y.copy()

        if (t + 1) % config.trace_stride == 0 or t + 1 == config.T:
            rec = _record(problem, config, state, estimator, solver_time)
            trace.append(rec)
            if callback is not None:
                callback(rec, state)

    if config.T > 0:
        estimator.finish()

    return RunResult(
        trace=trace,
        state=state,
        x_rand=x_rand,
        y_rand=y_rand,
        t_rand=t_rand,
    )


def _record(problem, config, state, estimator, wall_time):
    rho = config.rho
    f, grad = problem.value_and_grad(state.x)
    obj = f + problem.reg_value(state.y)
    report = metrics.stationarity(
        problem, state.x, state.y, state.lam,
        x_prev=state.x_prev, rho=rho, grad=grad,
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
