import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncadmm import metrics, params, problems, solvers
from ncadmm.exceptions import ConfigError, DivergenceError, InternalInvariantError

from conftest import (
    dense_AtA,
    make_graph_guided_problem,
    make_multitask_problem,
    make_overlap_problem,
    make_sparse_sigmoid_problem,
    run_with_iterates,
)


def small_config(variant="dete", **kw):
    defaults = dict(eta=0.5, rho=2.0, r=None, M=10, T=50, m=5, seed=0)
    defaults.update(kw)
    return defaults, variant


def build(problem, variant="dete", **kw):
    kw.setdefault("eta", 0.5)
    kw.setdefault("rho", 2.0)
    kw.setdefault(
        "r", params.min_admissible_r(problem.constraints, kw["eta"], kw["rho"])
    )
    kw.setdefault("M", 10)
    kw.setdefault("T", 50)
    if variant == "svrg":
        kw.setdefault("m", 5)
    return solvers.SolverConfig(variant=variant, **kw)


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            solvers.SolverConfig(variant="sgd", eta=1, rho=1, r=2, M=1, T=1)

    def test_svrg_needs_m(self):
        with pytest.raises(ConfigError):
            solvers.SolverConfig(variant="svrg", eta=1, rho=1, r=2, M=1, T=1)

    def test_r_bound_enforced(self, gg_problem):
        cfg = build(gg_problem, r=1.0)
        with pytest.raises(ConfigError):
            cfg.validate_against(gg_problem)

    def test_batch_larger_than_n_rejected(self, gg_problem):
        cfg = build(gg_problem, M=10_000)
        with pytest.raises(ConfigError):
            cfg.validate_against(gg_problem)


class TestPureUpdates:
    def test_y_update_is_prox(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        lam = rng.standard_normal(gg_problem.constraints.q)
        rho = 3.0
        y = solvers.y_update(gg_problem, gg_problem.constraints.A @ x, lam, rho)
        v = np.asarray(gg_problem.constraints.A @ x).ravel() - lam / rho
        assert np.allclose(y, gg_problem.regularizer.prox(v, 1.0 / rho))

    def test_y_update_minimizes_over_random_competitors(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        lam = rng.standard_normal(gg_problem.constraints.q)
        rho = 2.0
        cs = gg_problem.constraints

        def lrho_y(y):
            resid = cs.residual(x, y)
            return (
                gg_problem.reg_value(y)
                - float(lam @ resid)
                + 0.5 * rho * float(resid @ resid)
            )

        y_star = solvers.y_update(gg_problem, cs.A @ x, lam, rho)
        base = lrho_y(y_star)
        for _ in range(30):
            assert base <= lrho_y(y_star + 0.1 * rng.standard_normal(y_star.size)) + 1e-12

    def test_x_update_formula(self, gg_problem, rng):
        cs = gg_problem.constraints
        x = rng.standard_normal(gg_problem.d)
        y = rng.standard_normal(gg_problem.p)
        lam = rng.standard_normal(cs.q)
        g = rng.standard_normal(gg_problem.d)
        eta, rho, r = 0.7, 2.5, 9.0
        out = solvers.x_update_uzawa(
            gg_problem, x, y, lam, g, eta, rho, r, cs.A @ x
        )
        resid = np.asarray(cs.A @ x - y - cs.c).ravel() - lam / rho
        expected = x - (eta / r) * (g + rho * np.asarray(cs.A.T @ resid).ravel())
        assert np.allclose(out, expected, atol=1e-14)

    def test_lambda_update(self, gg_problem, rng):
        cs = gg_problem.constraints
        x = rng.standard_normal(gg_problem.d)
        y = rng.standard_normal(gg_problem.p)
        lam = rng.standard_normal(cs.q)
        out = solvers.lambda_update(cs.A @ x, y, lam, 1.5, cs)
        assert np.allclose(out, lam - 1.5 * cs.residual(x, y))

    def test_apply_H_over_eta_matches_dense(self, gg_problem, rng):
        cs = gg_problem.constraints
        eta, rho, r = 0.4, 3.0, 12.0
        H = r * np.eye(cs.d) - rho * eta * dense_AtA(cs)
        v = rng.standard_normal(cs.d)
        assert np.allclose(
            metrics.apply_H_over_eta(cs, v, eta, rho, r), (H / eta) @ v
        )

    def test_gradient_estimators_at_full_batch(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        full = gg_problem.full_index_set()
        g = gg_problem.grad(x)
        assert np.array_equal(solvers.stoc_gradient(gg_problem, x, full), g)
        snap = rng.standard_normal(gg_problem.d)
        sg = gg_problem.grad(snap)
        assert np.array_equal(
            solvers.svrg_gradient(gg_problem, x, full, snap, sg), g
        )


class TestSagaTable:
    def test_psi_tracks_table(self, gg_problem, rng):
        table = solvers.SagaTable.at(gg_problem, rng.standard_normal(gg_problem.d))
        for _ in range(10):
            batch = rng.integers(0, gg_problem.n, size=7)
            x_new = rng.standard_normal(gg_problem.d)
            solvers.saga_table_update(gg_problem, table, batch, x_new)
        assert np.allclose(table.psi, table.mean(), atol=1e-12)

    def test_duplicate_batch_indices_written_once(self, gg_problem, rng):
        table = solvers.SagaTable.at(gg_problem, rng.standard_normal(gg_problem.d))
        x_new = rng.standard_normal(gg_problem.d)
        batch = np.array([3, 3, 3, 5])
        solvers.saga_table_update(gg_problem, table, batch, x_new)
        expect = gg_problem.grad_matrix(x_new, np.array([3, 5]))
        assert np.allclose(table.rows(gg_problem.gather([3, 5])), expect)
        assert table.refs[table.slot[3]] == 2
        assert np.array_equal(table.points[table.slot[3]], x_new)


class TestRun:
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_bitwise_reproducible(self, gg_problem, variant):
        a = solvers.run(gg_problem, build(gg_problem, variant))
        b = solvers.run(gg_problem, build(gg_problem, variant))
        assert np.array_equal(a.state.x, b.state.x)
        assert np.array_equal(a.state.lam, b.state.lam)
        assert a.t_rand == b.t_rand
        assert np.array_equal(a.x_rand, b.x_rand)
        assert [r.objective for r in a.trace] == [r.objective for r in b.trace]

    def test_seed_changes_run(self, gg_problem):
        a = solvers.run(gg_problem, build(gg_problem, "stoc", seed=0))
        b = solvers.run(gg_problem, build(gg_problem, "stoc", seed=1))
        assert not np.array_equal(a.state.x, b.state.x)

    def test_ifo_accounting(self, gg_problem):
        n, M, T, m = gg_problem.n, 10, 20, 4
        dete = solvers.run(gg_problem, build(gg_problem, "dete", T=T))
        assert dete.trace[-1].ifo == n * T
        stoc = solvers.run(gg_problem, build(gg_problem, "stoc", M=M, T=T))
        assert stoc.trace[-1].ifo == M * T
        svrg = solvers.run(gg_problem, build(gg_problem, "svrg", M=M, T=T, m=m))
        assert svrg.trace[-1].ifo == M * T + n * ((T + m - 1) // m)
        saga = solvers.run(gg_problem, build(gg_problem, "saga", M=M, T=T))
        assert saga.trace[-1].ifo == n + M * T

    def test_trace_stride(self, gg_problem):
        res = solvers.run(gg_problem, build(gg_problem, T=25, trace_stride=10))
        assert [r.t for r in res.trace] == [10, 20, 25]

    def test_callback_receives_record_and_state(self, gg_problem):
        seen = []
        solvers.run(
            gg_problem,
            build(gg_problem, T=5),
            callback=lambda rec, state: seen.append((rec.t, state.x.copy())),
        )
        assert [t for t, _ in seen] == [1, 2, 3, 4, 5]

    def test_output_iterate_drawn_from_trajectory(self, gg_problem):
        cfg = build(gg_problem, "stoc", T=30)
        res, iterates = run_with_iterates(gg_problem, cfg)
        assert 1 <= res.t_rand <= 30
        assert np.array_equal(res.x_rand, iterates[res.t_rand - 1][0])

    def test_feasibility_decreases(self, identity_problem):
        cfg = build(identity_problem, "dete", eta=1.0, rho=50.0, T=200)
        res = solvers.run(identity_problem, cfg)
        assert res.trace[-1].feasibility_sq < 1e-8

    def test_overlap_problem_runs(self):
        prob = make_overlap_problem()
        res = solvers.run(prob, build(prob, "svrg", T=30))
        assert np.isfinite(res.trace[-1].objective)

    def test_divergence_detected(self):
        # a gradient oracle large enough to blow past the norm guard in one step
        class ExplodingLoss:
            n = 4
            d = 3

            def value(self, x, idx):
                return 0.0

            def grad(self, x, idx):
                return np.full(3, 1e16)

            def grad_matrix(self, x, idx):
                return np.full((len(idx), 3), 1e16)

        cs = problems.build_graph_guided_A(np.zeros((3, 3), dtype=bool))
        prob = problems.CompositeProblem(
            loss=ExplodingLoss(),
            regularizer=problems.BlockSeparableRegularizer.l1(3, 1e-5),
            constraints=cs,
        )
        cfg = build(prob, "dete", eta=1.0, rho=1.0, M=4, T=5)
        with pytest.raises(DivergenceError) as exc:
            solvers.run(prob, cfg)
        assert exc.value.iteration == 1

    def test_diagnostics_populated(self, gg_problem):
        rec = solvers.run(gg_problem, build(gg_problem, "svrg", T=10)).trace[-1]
        assert rec.lrho is not None and rec.dx_sq is not None
        assert rec.snap_sq is not None and rec.snap_prev_sq is not None
        rec = solvers.run(gg_problem, build(gg_problem, "stoc", T=10)).trace[-1]
        assert rec.lrho is not None and rec.dx_sq is not None
        assert rec.snap_sq is None and rec.snap_prev_sq is None

    def test_dual_identity_tracked(self, gg_problem, gradient_estimates):
        cfg = build(gg_problem, "saga", T=20)
        residuals = []

        def check(rec, state):
            residuals.append(metrics.dual_identity_residual(
                gg_problem, gradient_estimates[rec.t - 1], state.x_prev,
                state.x, state.lam, cfg.eta, cfg.rho, cfg.r,
            ))

        solvers.run(gg_problem, cfg, callback=check)
        assert len(gradient_estimates) == len(residuals) == 20
        assert max(residuals) < 1e-10


def reference_run(problem, config):
    """run()'s iterates rebuilt from the public step functions, with every
    product with A recomputed inside the step that uses it. saga keeps the
    dense n x d table of component gradients the paper describes."""
    n, cs = problem.n, problem.constraints
    eta, rho, r = config.eta, config.rho, config.r
    state, rng_batch, _ = solvers.init_state(problem, config)
    all_idx = problem.full_index_set()
    if config.variant == "saga":
        table = problem.grad_matrix(state.x, all_idx)
        psi = table.mean(axis=0)
    iterates = []
    for t in range(config.T):
        if config.variant == "svrg" and t % config.m == 0:
            x_snap = state.x.copy()
            snap_grad = problem.grad(x_snap, all_idx)
        y = solvers.y_update(problem, cs.A @ state.x, state.lam, rho)
        if config.variant == "dete":
            g = problem.grad(state.x, all_idx)
        else:
            batch = solvers._draw_batch(rng_batch, n, config.M)
            if config.variant == "stoc":
                g = solvers.stoc_gradient(problem, state.x, batch)
            elif config.variant == "svrg":
                g = solvers.svrg_gradient(problem, state.x, batch, x_snap, snap_grad)
            else:
                g = problem.grad(state.x, batch) + (psi - table[batch].mean(axis=0))
        x = solvers.x_update_uzawa(
            problem, state.x, y, state.lam, g, eta, rho, r, cs.A @ state.x
        )
        lam = solvers.lambda_update(cs.A @ x, y, state.lam, rho, cs)
        if config.variant == "saga":
            uniq = np.unique(batch)
            new = problem.grad_matrix(x, uniq)
            if uniq.size == n:
                table[:] = new
                psi = table.mean(axis=0)
            else:
                psi = psi - (table[uniq] - new).sum(axis=0) / n
                table[uniq] = new
        state.x, state.y, state.lam = x, y, lam
        iterates.append((x, y, lam))
    return iterates


PROBLEM_MAKERS = [
    make_graph_guided_problem, make_overlap_problem, make_multitask_problem,
    make_sparse_sigmoid_problem,
]


def assert_same_iterates(iterates, ref, T):
    assert len(iterates) == len(ref) == T
    for got, want in zip(iterates, ref):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestCarriedProducts:
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_run_matches_step_by_step_reference(self, variant, make):
        prob = make()
        cfg = build(prob, variant, T=30)
        _, iterates = run_with_iterates(prob, cfg)
        assert_same_iterates(iterates, reference_run(prob, cfg), 30)


class TestCompactSagaTable:
    """The coefficient table must reproduce the dense n x d table bitwise."""

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_run_matches_dense_table_with_duplicate_indices(self, make):
        prob = make()
        cfg = build(prob, "saga", M=10, T=30)
        _, rng_batch, _ = solvers.init_state(prob, cfg)
        batches = [solvers._draw_batch(rng_batch, prob.n, 10) for _ in range(30)]
        assert any(np.unique(b).size < b.size for b in batches)
        _, iterates = run_with_iterates(prob, cfg)
        assert_same_iterates(iterates, reference_run(prob, cfg), 30)

    @pytest.mark.parametrize("nu1", [0.0, 1e-2])
    @pytest.mark.parametrize("M", [10, 60])
    def test_sparse_run_bytewise_equal_to_einsum_table(self, nu1, M, monkeypatch):
        """Rows rebuilt from stored entries only give, byte for byte, the
        iterates of a table rebuilt by einsum over densified rows."""
        prob = make_multitask_problem(nu1=nu1)
        cfg = build(prob, "saga", M=M, T=30)
        _, iterates = run_with_iterates(prob, cfg)

        def einsum_rows(loss, P, feats, shared):
            G = np.einsum("ic,ij->icj", P, feats.toarray())
            G += shared
            return G.reshape(len(P), loss.d)

        monkeypatch.setattr(
            problems.SmoothedMultiTaskLoss, "component_rows", einsum_rows
        )
        ref = reference_run(prob, cfg)
        assert len(iterates) == len(ref) == 30
        for got, want in zip(iterates, ref):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_run_matches_dense_table_at_full_batch(self, make):
        prob = make()
        cfg = build(prob, "saga", M=prob.n, T=8)
        _, iterates = run_with_iterates(prob, cfg)
        assert_same_iterates(iterates, reference_run(prob, cfg), 8)

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_blocked_mean_equals_dense_mean(self, make, monkeypatch, rng):
        prob = make()
        x = rng.standard_normal(prob.d)
        dense = prob.grad_matrix(x, prob.full_index_set()).mean(axis=0)
        for rows_per_block in (1, 3, 7, prob.n):
            monkeypatch.setattr(solvers, "_BLOCK_BYTES", 8 * prob.d * rows_per_block)
            assert np.array_equal(solvers.SagaTable.at(prob, x).mean(), dense)

    def test_pool_reuses_slots(self):
        prob = make_multitask_problem(n=40)
        cfg = build(prob, "saga", M=10, T=200)
        res = solvers.run(prob, cfg)
        table = res.state.grad_table
        live = np.count_nonzero(table.refs)
        assert live <= prob.n and len(table.points) <= prob.n
        assert table.refs.sum() == prob.n
        assert np.array_equal(np.flatnonzero(table.refs), np.unique(table.slot))

    def test_write_drops_rows_kept_for_the_batch(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        table = solvers.SagaTable.at(gg_problem, x)
        rows = gg_problem.gather(rng.integers(0, gg_problem.n, size=7))
        solvers.saga_gradient(gg_problem, table, x, rows)
        for _ in range(2):
            x_new = rng.standard_normal(gg_problem.d)
            solvers.saga_table_update(gg_problem, table, rows, x_new)
        assert np.allclose(table.psi, table.mean(), atol=1e-12)

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_psi_check_uses_an_independent_product(self, make):
        prob = make()
        res = solvers.run(prob, build(prob, "saga", M=10, T=30))
        table = res.state.grad_table
        assert np.allclose(table.product_mean(), table.mean(), rtol=1e-12, atol=1e-15)
        estimator = solvers.SagaEstimator(prob, 10, table)
        estimator.finish()
        table.psi = table.psi + 1e-6 * np.abs(table.psi).max()
        with pytest.raises(InternalInvariantError):
            estimator.finish()

    def test_table_is_small(self, gg_problem):
        """n coefficients, n slot numbers, and per pool slot a reference
        count and a point; T = 5 writes leave at most 2 * (5 + 1) slots."""
        T, n, d = 5, gg_problem.n, gg_problem.d
        table = solvers.run(gg_problem, build(gg_problem, "saga", T=T)).state.grad_table
        cap = len(table.points)
        assert table.shared is None and cap <= min(n, 2 * (T + 1))
        assert table.nbytes == n * 8 + n * 8 + cap * 8 + cap * d * 8

    def test_saga_memory_is_a_fraction_of_a_dense_table(self):
        prob = make_multitask_problem(n=4000, features=400, classes=5, density=0.03)
        cfg = build(prob, "saga", M=50, T=40, trace_stride=40)
        tracemalloc.start()
        try:
            solvers.run(prob, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prob.n * prob.d * 8 / 8


class TestPooledPoints:
    """The pool's points give saga's snap_sq, the mean squared distance to
    the stored points, without an n x d point table."""

    @pytest.mark.parametrize("full_batch", [False, True])
    @pytest.mark.parametrize("make", [make_graph_guided_problem, make_multitask_problem])
    def test_snap_sq_equals_dense_point_table(self, make, full_batch):
        prob = make()
        n = prob.n
        M = n if full_batch else 10
        cfg = build(prob, "saga", M=M, T=30)
        res, iterates = run_with_iterates(prob, cfg)
        # replay the batches into the dense table of stored points
        state, rng_batch, _ = solvers.init_state(prob, cfg)
        points = np.tile(state.x, (n, 1))
        repeats = 0
        for rec, (x, _, _) in zip(res.trace, iterates, strict=True):
            batch = solvers._draw_batch(rng_batch, n, M)
            repeats += np.unique(batch).size < batch.size
            points[batch] = x
            diff = x[None, :] - points
            want = float(np.einsum("ij,ij->i", diff, diff).mean())
            assert np.isclose(rec.snap_sq, want, rtol=1e-12, atol=0.0)
        assert full_batch or repeats > 0

_SMALL = {
    "sigmoid": make_graph_guided_problem(n=12, d=4),
    "multitask": make_multitask_problem(n=12, features=20, classes=3, density=0.08),
}


@pytest.mark.parametrize("kind", sorted(_SMALL))
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows_per_block=st.integers(1, 13),
    steps=st.lists(
        st.one_of(
            st.just(None),  # the full set, as M = n draws it
            st.lists(st.integers(0, 11), min_size=1, max_size=12),
        ),
        min_size=1, max_size=8,
    ),
)
def test_saga_table_follows_dense_reference(kind, seed, rows_per_block, steps):
    """Under any batch sequence psi equals the table's blocked mean, and every
    rebuilt row equals, bitwise, the row grad_matrix gave at its stored point."""
    prob = _SMALL[kind]
    n, full = prob.n, prob.full_index_set()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(prob.d)
    with mock.patch.object(solvers, "_BLOCK_BYTES", 8 * prob.d * rows_per_block):
        table = solvers.SagaTable.at(prob, x)
        dense = prob.grad_matrix(x, full)
        psi = dense.mean(axis=0)
        assert np.array_equal(table.psi, psi)
        for k, batch in enumerate(steps, start=1):
            batch = full if batch is None else np.array(batch)
            x = rng.standard_normal(prob.d)
            x_new = rng.standard_normal(prob.d)
            rows = prob.gather(batch)
            g = solvers.saga_gradient(prob, table, x, rows)
            want = prob.grad(x, batch) + (psi - dense[batch].mean(axis=0))
            assert np.array_equal(g, want)
            solvers.saga_table_update(prob, table, rows, x_new)
            uniq = np.unique(batch)
            new = prob.grad_matrix(x_new, uniq)
            if uniq.size == n:
                dense[:] = new
                psi = dense.mean(axis=0)
            else:
                psi = psi - (dense[uniq] - new).sum(axis=0) / n
                dense[uniq] = new
            assert np.array_equal(table.psi, psi)
            assert np.array_equal(table.rows(prob.gather(full)), dense)
            assert np.allclose(table.psi, table.mean(), atol=1e-12)
            assert np.count_nonzero(table.refs) <= min(n, k + 1)
