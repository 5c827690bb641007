import numpy as np
import pytest
import scipy.sparse as sp

from ncadmm import data, problems, solvers


def make_graph_guided_problem(n=120, d=8, seed=0, nu=1e-5, empty_support=False):
    ds, prec, x_star = data.gen_graph_guided(n, d, seed)
    edges = ([], []) if empty_support else prec.edges
    cs = problems.build_graph_guided_A(edges, d)
    loss = problems.SigmoidLoss(ds.features, ds.labels)
    reg = problems.BlockSeparableRegularizer.l1(cs.q, nu)
    return problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)


def make_overlap_problem(n=100, grid=4, k=2, seed=1, nu=1e-5):
    ds, x_star = data.gen_overlap(n, seed, grid=grid)
    cs = problems.build_overlap_A(ds.d, k)
    loss = problems.SigmoidLoss(ds.features, ds.labels)
    reg = problems.BlockSeparableRegularizer.l1(cs.q, nu)
    return problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)


def make_multitask_problem(n=60, features=30, classes=3, density=0.06,
                           seed=2, nu1=1e-2, nu2=1e-3):
    """Multi-task problem on csr features, which the loss stores as csr."""
    rng = np.random.default_rng(seed)
    feats = sp.random(n, features, density=density, format="csr", random_state=rng,
                      data_rvs=rng.standard_normal)
    labels = rng.integers(0, classes, size=n)
    loss = problems.SmoothedMultiTaskLoss(feats, labels, classes, nu1)
    cs, reg = problems.build_multitask_constraints(
        classes, features, nu1, nu2, loss.kappa0
    )
    return problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)


def make_sparse_sigmoid_problem(n=80, d=20, density=0.08, seed=3, nu=1e-5):
    """Sigmoid loss on csr features over a random graph, as the libsvm kind
    builds it; the loss keeps the csr layout."""
    rng = np.random.default_rng(seed)
    feats = sp.random(n, d, density=density, format="csr", random_state=rng,
                      data_rvs=rng.standard_normal)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    upper = np.triu(rng.random((d, d)) < 0.2, k=1)
    cs = problems.build_graph_guided_A(np.nonzero(upper), d)
    loss = problems.SigmoidLoss(feats, labels)
    reg = problems.BlockSeparableRegularizer.l1(cs.q, nu)
    return problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)


def dense_AtA(cs):
    """A^T A formed in cs.A's own format, then made dense."""
    AtA = cs.AT @ cs.A
    return AtA.toarray() if sp.issparse(AtA) else AtA


def run_with_iterates(problem, config):
    """run() and every (x, y, lam) it stepped through, in order, taken from
    its callback; a stride-1 trace calls it after every step."""
    assert config.trace_stride == 1
    iterates = []

    def keep(rec, state):
        iterates.append((state.x.copy(), state.y.copy(), state.lam.copy()))

    return solvers.run(problem, config, callback=keep), iterates


@pytest.fixture
def gradient_estimates(monkeypatch):
    """Every gradient estimate run()'s estimators return, in order.

    The estimators look the gradient functions up on the solvers module at
    call time, so wrapping them there captures the g_hat the x-step used;
    saga's comes first in the pair it returns with the batch's stored rows.
    """
    seen = []
    for name in ("stoc_gradient", "svrg_gradient", "saga_gradient"):
        def capture(*args, _orig=getattr(solvers, name)):
            out = _orig(*args)
            seen.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(solvers, name, capture)
    return seen


@pytest.fixture
def x_steps(monkeypatch):
    """Every x_{t+1} run()'s x-step returns, in order, at any trace_stride.

    run() looks x_update_uzawa up on the solvers module at call time, as
    the estimators do the gradient functions (see gradient_estimates).
    """
    seen = []

    def capture(*args, _orig=solvers.x_update_uzawa):
        x_new = _orig(*args)
        seen.append(x_new)
        return x_new

    monkeypatch.setattr(solvers, "x_update_uzawa", capture)
    return seen


@pytest.fixture
def gg_problem():
    return make_graph_guided_problem()


@pytest.fixture
def identity_problem():
    # empty support makes A the identity, the certifiable end of the family
    return make_graph_guided_problem(empty_support=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
