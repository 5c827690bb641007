import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncadmm import params, problems, solvers
from ncadmm.exceptions import ConfigError, DivergenceError, InternalInvariantError

from conftest import (
    dense_AtA,
    make_graph_guided_problem,
    make_multitask_problem,
    make_overlap_problem,
    make_sparse_sigmoid_problem,
    run_with_iterates,
)
import oracles


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

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError, match="T must be >= 1"):
            solvers.SolverConfig(variant="dete", eta=1, rho=1, r=2, M=1, T=0)

    @pytest.mark.parametrize("name, value", [
        ("eta", float("nan")), ("eta", float("inf")),
        ("rho", float("nan")), ("rho", float("inf")),
        ("r", float("nan")), ("r", float("inf")),
    ])
    def test_non_finite_parameter_rejected(self, name, value):
        kw = dict(eta=1.0, rho=1.0, r=10.0, M=5, T=3)
        kw[name] = value
        with pytest.raises(ConfigError, match="finite"):
            solvers.SolverConfig(variant="stoc", **kw)

    def test_r_bound_enforced(self, gg_problem):
        cfg = build(gg_problem, r=1.0)
        with pytest.raises(ConfigError):
            cfg.validate_against(gg_problem)

    def test_batch_larger_than_n_rejected(self, gg_problem):
        cfg = build(gg_problem, M=10_000)
        with pytest.raises(ConfigError):
            cfg.validate_against(gg_problem)

    # (variant, n, M given, m given) -> (M, m): M defaults to n for dete and
    # to min(100, n) otherwise, a given M is clamped to n, and only svrg
    # fills in m, as max(1, n // M); a given m passes through for any variant
    @pytest.mark.parametrize("variant, n, M, m, expected", [
        ("dete", 250, None, None, (250, None)),
        ("stoc", 250, None, None, (100, None)),
        ("svrg", 250, None, None, (100, 2)),
        ("saga", 250, None, None, (100, None)),
        ("stoc", 80, None, None, (80, None)),
        ("svrg", 80, None, None, (80, 1)),
        ("dete", 250, 7, None, (7, None)),
        ("stoc", 250, 7, None, (7, None)),
        ("svrg", 250, 7, None, (7, 35)),
        ("saga", 250, 7, None, (7, None)),
        ("dete", 250, 1000, None, (250, None)),
        ("stoc", 250, 1000, None, (250, None)),
        ("svrg", 250, 1000, None, (250, 1)),
        ("saga", 250, 1000, None, (250, None)),
        ("dete", 250, None, 3, (250, 3)),
        ("stoc", 250, None, 3, (100, 3)),
        ("svrg", 250, None, 3, (100, 3)),
        ("saga", 250, 7, 3, (7, 3)),
        ("SVRG", 250, None, None, (100, 2)),
    ])
    def test_for_problem_defaults(self, variant, n, M, m, expected):
        prob = make_graph_guided_problem(n=n, d=5, empty_support=True)
        cfg = solvers.SolverConfig.for_problem(prob, variant, 0.5, 2.0, 10, M=M, m=m)
        assert (cfg.M, cfg.m) == expected
        assert cfg.r == params.min_admissible_r(prob.constraints, 0.5, 2.0)
        assert solvers.SolverConfig.for_problem(
            prob, variant, 0.5, 2.0, 10, r=7.5, M=M, m=m).r == 7.5

    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_for_problem_checks_against_the_problem(self, variant):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        with pytest.raises(ConfigError, match="below the H >= I bound"):
            solvers.SolverConfig.for_problem(prob, variant, 0.5, 2.0, 10, r=1.0)

    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @pytest.mark.parametrize("M", [0, -5])
    def test_for_problem_refuses_batch_below_one(self, variant, M):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        with pytest.raises(ConfigError, match="M must be >= 1"):
            solvers.SolverConfig.for_problem(prob, variant, 0.5, 2.0, 10, M=M)


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
                gg_problem.regularizer.value(y)
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
            oracles.apply_H_over_eta(cs, v, eta, rho, r), (H / eta) @ v
        )

    def test_gradient_estimators_at_full_batch(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        full = gg_problem.loss.all_rows
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
            rows = gg_problem.loss.gather(rng.integers(0, gg_problem.n, size=7))
            x_new = rng.standard_normal(gg_problem.d)
            solvers.saga_table_update(gg_problem, table, rows, table.rows(rows), x_new)
        assert np.allclose(table.psi, table.mean(), atol=1e-12)

    def test_duplicate_batch_indices_written_once(self, gg_problem, rng):
        table = solvers.SagaTable.at(gg_problem, rng.standard_normal(gg_problem.d))
        x_new = rng.standard_normal(gg_problem.d)
        loss = gg_problem.loss
        rows = loss.gather([3, 3, 3, 5])
        solvers.saga_table_update(gg_problem, table, rows, table.rows(rows), x_new)
        expect = gg_problem.grad_matrix(x_new, loss.gather([3, 5]))
        assert np.allclose(table.rows(loss.gather([3, 5])), expect)
        assert table.refs[table.slot[3]] == 2
        assert np.array_equal(table.points[table.slot[3]], x_new)


class TestRun:
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_bitwise_reproducible(self, gg_problem, variant):
        a = solvers.run(gg_problem, build(gg_problem, variant))
        b = solvers.run(gg_problem, build(gg_problem, variant))
        assert np.array_equal(a.state.x, b.state.x)
        assert np.array_equal(a.state.lam, b.state.lam)
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

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @pytest.mark.parametrize("make", [make_graph_guided_problem, make_multitask_problem])
    def test_a_drawn_batch_is_gathered_once(self, make, variant, full, monkeypatch):
        """Each step below M = n gathers its drawn batch exactly once; the
        full set, and with it every dete step, is never gathered."""
        prob, T = make(), 12
        gather, sizes = type(prob.loss).gather, []

        def counting(loss, index_set):
            sizes.append(len(index_set))
            return gather(loss, index_set)

        monkeypatch.setattr(type(prob.loss), "gather", counting)
        M = prob.n if full else 10
        solvers.run(prob, build(prob, variant, M=M, T=T))
        drawn = not full and variant != "dete"
        assert sizes == ([M] * T if drawn else [])

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
            all_rows = problems.Rows(np.arange(4), np.zeros((4, 3)), np.zeros(4))

            def value(self, x, idx):
                return 0.0

            def grad(self, x, idx):
                return np.full(3, 1e16)

            def grad_matrix(self, x, idx):
                return np.full((len(idx), 3), 1e16)

        cs = problems.build_graph_guided_A(([], []), 3)
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
            residuals.append(oracles.dual_identity_residual(
                gg_problem, gradient_estimates[rec.t - 1], state.x_prev,
                state.x, state.lam, cfg.eta, cfg.rho, cfg.r,
            ))

        solvers.run(gg_problem, cfg, callback=check)
        assert len(gradient_estimates) == len(residuals) == 20
        assert max(residuals) < 1e-10


class TestFullSetInPlace:
    """Full passes read the stored features through the loss's `all_rows`
    and never copy them."""

    def test_full_passes_allocate_less_than_a_feature_copy(self):
        prob = make_graph_guided_problem(n=2000, d=50)
        assert isinstance(prob.loss.features, np.ndarray)
        copy_bytes = prob.n * prob.d * 8
        cfg = build(prob, "svrg", M=10, T=1)
        state, rng_batch = solvers.init_state(prob, cfg)
        dete = solvers.variant("dete").start(prob, build(prob, "dete", T=1), state.x)
        svrg = solvers.variant("svrg").start(prob, cfg, state.x)
        passes = {
            "dete step": lambda: dete.estimate(
                state.x, solvers._draw_batch(rng_batch, prob.loss, dete.M)
            ),
            "svrg snapshot": lambda: svrg.begin(0, state.x),
            "trace record": lambda: solvers._record(prob, cfg, state, svrg, 0.0),
        }
        tracemalloc.start()
        try:
            for name, full_pass in passes.items():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                full_pass()
                grown = tracemalloc.get_traced_memory()[1] - before
                assert grown < copy_bytes, name
        finally:
            tracemalloc.stop()


def reference_run(problem, config):
    """run()'s iterates rebuilt from the public step functions, with every
    product with A recomputed inside the step that uses it. saga keeps the
    dense n x d table of component gradients the paper describes. Full
    passes read a gathered copy of every row; a drawn batch's index addresses
    the table."""
    n, cs = problem.n, problem.constraints
    eta, rho, r = config.eta, config.rho, config.r
    state, rng_batch = solvers.init_state(problem, config)
    every = problem.loss.gather(np.arange(n))
    if config.variant == "saga":
        table = problem.grad_matrix(state.x, every)
        psi = table.mean(axis=0)
    iterates = []
    for t in range(config.T):
        if config.variant == "svrg" and t % config.m == 0:
            x_snap = state.x.copy()
            snap_grad = problem.grad(x_snap, every)
        y = solvers.y_update(problem, cs.A @ state.x, state.lam, rho)
        if config.variant == "dete":
            g = problem.grad(state.x, every)
        else:
            batch = solvers._draw_batch(rng_batch, problem.loss, config.M)
            idx = batch.index
            if config.variant == "stoc":
                g = solvers.stoc_gradient(problem, state.x, batch)
            elif config.variant == "svrg":
                g = solvers.svrg_gradient(problem, state.x, batch, x_snap, snap_grad)
            else:
                g = problem.grad(state.x, batch) + (psi - table[idx].mean(axis=0))
        x = solvers.x_update_uzawa(
            problem, state.x, y, state.lam, g, eta, rho, r, cs.A @ state.x
        )
        lam = solvers.lambda_update(cs.A @ x, y, state.lam, rho, cs)
        if config.variant == "saga":
            uniq = np.unique(idx)
            new = problem.grad_matrix(x, problem.loss.gather(uniq))
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


class TestFullBatchSvrg:
    """At M = n svrg takes dete's step: one coefficient pass per step, for
    the gradient, and none for a snapshot; its IFO, snapshot distances and
    iterates are those of the snapshot-corrected step."""

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_one_full_pass_per_step(self, make, m, monkeypatch):
        prob, T = make(), 12
        n, calls = prob.n, []
        cfg = build(prob, "svrg", M=n, m=m, T=T, trace_stride=1)
        # the snapshot-corrected estimator, as svrg runs below M = n
        with monkeypatch.context() as patch:
            patch.setattr(solvers.SvrgEstimator, "start", classmethod(
                lambda cls, problem, config, x0: cls(problem, config.M, config.m)))
            corrected = solvers.run(prob, cfg).trace
        coefficients = type(prob.loss).coefficients

        def counting(loss, x, rows):
            calls.append(len(rows))
            return coefficients(loss, x, rows)

        monkeypatch.setattr(type(prob.loss), "coefficients", counting)
        res, iterates = run_with_iterates(prob, cfg)
        assert calls == [n] * T
        assert_same_iterates(iterates, reference_run(prob, cfg), T)
        assert [rec.ifo for rec in res.trace] == [
            t * n + -(-t // m) * n for t in range(1, T + 1)
        ]
        for got, want in zip(res.trace, corrected, strict=True):
            got.wall_time = want.wall_time
            assert got == want


class TestCompactSagaTable:
    """The coefficient table must reproduce the dense n x d table bitwise."""

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_run_matches_dense_table_with_duplicate_indices(self, make):
        prob = make()
        cfg = build(prob, "saga", M=10, T=30)
        _, rng_batch = solvers.init_state(prob, cfg)
        batches = [solvers._draw_batch(rng_batch, prob.loss, 10).index
                   for _ in range(30)]
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

    @pytest.mark.parametrize("make", [make_graph_guided_problem, make_multitask_problem])
    def test_full_batch_builds_no_table(self, make, monkeypatch):
        """At M = n saga takes dete's step: one coefficient pass per step,
        for the gradient, and no table; its IFO still counts the start."""
        prob, T = make(), 12
        n, calls = prob.n, []
        coefficients = type(prob.loss).coefficients

        def counting(loss, x, rows):
            calls.append(len(rows))
            return coefficients(loss, x, rows)

        monkeypatch.setattr(type(prob.loss), "coefficients", counting)
        res = solvers.run(prob, build(prob, "saga", M=n, T=T, trace_stride=1))
        assert res.state.grad_table is None
        assert calls == [n] * T
        assert [(rec.ifo, rec.snap_sq) for rec in res.trace] == [
            (n + t * n, 0.0) for t in range(1, T + 1)
        ]

    @pytest.mark.parametrize("make", PROBLEM_MAKERS)
    def test_blocked_mean_equals_dense_mean(self, make, monkeypatch, rng):
        prob = make()
        x = rng.standard_normal(prob.d)
        dense = prob.grad_matrix(x, prob.loss.gather(np.arange(prob.n))).mean(axis=0)
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

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("make", [make_graph_guided_problem, make_multitask_problem])
    def test_saga_gradient_leaves_the_table_as_it_was(self, make, full, rng):
        prob = make()
        table = solvers.SagaTable.at(prob, rng.standard_normal(prob.d))
        for _ in range(3):  # several live slots and a free list
            rows = prob.loss.gather(rng.integers(0, prob.n, size=7))
            solvers.saga_table_update(prob, table, rows, table.rows(rows),
                                      rng.standard_normal(prob.d))

        def snapshot():
            return {k: v.copy() if isinstance(v, (np.ndarray, list)) else v
                    for k, v in vars(table).items()}

        before = snapshot()
        assert {"coef", "points", "shared", "slot", "refs", "free", "psi"} <= before.keys()
        rows = prob.loss.all_rows if full else prob.loss.gather(
            rng.integers(0, prob.n, size=7))
        solvers.saga_gradient(prob, table, rng.standard_normal(prob.d), rows)
        after = snapshot()
        assert after.keys() == before.keys()
        for key, want in before.items():
            got = after[key]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, key
                assert got.tobytes() == want.tobytes(), key
            elif isinstance(want, list):
                assert got == want, key
            else:
                assert got is want, key

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
        state, rng_batch = solvers.init_state(prob, cfg)
        points = np.tile(state.x, (n, 1))
        repeats = 0
        for rec, (x, _, _) in zip(res.trace, iterates, strict=True):
            batch = solvers._draw_batch(rng_batch, prob.loss, M).index
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
    n, full = prob.n, prob.loss.all_rows
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(prob.d)
    with mock.patch.object(solvers, "_BLOCK_BYTES", 8 * prob.d * rows_per_block):
        table = solvers.SagaTable.at(prob, x)
        dense = prob.grad_matrix(x, full)
        psi = dense.mean(axis=0)
        assert np.array_equal(table.psi, psi)
        for k, batch in enumerate(steps, start=1):
            # the full set is the loss's all_rows, as _draw_batch gives it
            rows = full if batch is None else prob.loss.gather(batch)
            batch = rows.index
            x = rng.standard_normal(prob.d)
            x_new = rng.standard_normal(prob.d)
            g, stored = solvers.saga_gradient(prob, table, x, rows)
            want = prob.grad(x, prob.loss.gather(batch)) + (
                psi - dense[batch].mean(axis=0)
            )
            assert np.array_equal(g, want)
            solvers.saga_table_update(prob, table, rows, stored, x_new)
            uniq = np.unique(batch)
            new = prob.grad_matrix(x_new, prob.loss.gather(uniq))
            psi = psi - (dense[uniq] - new).sum(axis=0) / n
            dense[uniq] = new
            assert np.array_equal(table.psi, psi)
            assert np.array_equal(table.rows(full), dense)
            assert np.allclose(table.psi, table.mean(), atol=1e-12)
            assert np.count_nonzero(table.refs) <= min(n, k + 1)
