from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ncadmm import metrics, params, problems, solvers
from ncadmm.exceptions import CapabilityError, InputError

from conftest import (
    make_graph_guided_problem,
    make_multitask_problem,
    make_overlap_problem,
)
import oracles


class TestL1SubgradDist:
    def test_zero_inside_subdifferential(self):
        # y != 0 pins v to w*sign(y); y = 0 allows the box [-w, w]
        y = np.array([2.0, -1.0, 0.0, 0.0])
        v = np.array([0.5, -0.5, 0.3, -0.5])
        assert problems.l1_subgrad_dist_sq(v, y, 0.5) == 0.0

    def test_pinned_distance(self):
        y = np.array([1.0])
        v = np.array([0.0])
        assert np.isclose(problems.l1_subgrad_dist_sq(v, y, 0.5), 0.25)

    def test_boxed_distance(self):
        y = np.array([0.0])
        v = np.array([0.8])
        assert np.isclose(problems.l1_subgrad_dist_sq(v, y, 0.5), 0.09)


class TestBlockSubgradDist:
    @settings(max_examples=300, deadline=None)
    @given(
        v=hnp.arrays(float, st.integers(1, 12), elements=st.floats(-1e6, 1e6)),
        weight=st.floats(0.0, 1e6),
        rho=st.floats(1e-6, 1e6),
    )
    def test_l1_zero_at_a_prox_output(self, v, weight, rho):
        # y = prox(v, 1/rho) satisfies rho (v - y) in the subdifferential
        # at y, so the distance is rounding alone. Over 20000 examples its
        # square root peaked at 1.41 eps (rho max|v| + weight); the bound
        # allows 2 eps sqrt(len(v)) of that scale.
        blk = problems.L1Block(0, v.size, weight)
        y = blk.prox(v, 1.0 / rho)
        dist_sq = blk.subgrad_dist_sq(rho * (v - y), y, None)
        scale = rho * float(np.max(np.abs(v))) + weight
        tol = 2.0 * np.finfo(float).eps * np.sqrt(v.size) * scale
        assert dist_sq <= tol**2


class TestStationarity:
    def test_report_fields(self, gg_problem, rng):
        x = rng.standard_normal(gg_problem.d)
        y = rng.standard_normal(gg_problem.p)
        lam = rng.standard_normal(gg_problem.constraints.q)
        cs = gg_problem.constraints
        resid = cs.A @ x - y - cs.c
        rep = metrics.stationarity(
            gg_problem, resid, np.zeros(gg_problem.d), y, lam, 1.0, gg_problem.grad(x)
        )
        assert rep.feasibility_sq == float(resid @ resid)
        dual = gg_problem.grad(x) - np.asarray(
            gg_problem.constraints.A.T @ lam
        ).ravel()
        assert np.isclose(rep.dual_sq, float(dual @ dual))

    def test_residuals_shrink_along_certified_run(self):
        prob = make_graph_guided_problem(n=200, d=6, empty_support=True)
        cfg, cert = params.suggest_params(prob, "dete", T=800)
        res = solvers.run(prob, cfg)
        first, last = res.trace[0], res.trace[-1]
        assert last.feasibility_sq < 1e-8
        assert last.dual_sq < 1e-4
        assert last.subgrad_dist_sq < first.subgrad_dist_sq

    def test_nuclear_surrogate_needs_iterates(self, rng):
        cs, reg = problems.build_multitask_constraints(2, 3, 1e-3, 1e-2, 1.0)
        feats = rng.standard_normal((10, 3))
        labels = rng.integers(0, 2, size=10)
        loss = problems.SmoothedMultiTaskLoss(feats, labels, 2, 1e-3)
        prob = problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)
        y = rng.standard_normal(prob.p)
        lam = rng.standard_normal(cs.q)
        val = metrics.subgrad_dist_sq(
            prob, y, lam, dx=rng.standard_normal(6) - rng.standard_normal(6), rho=2.0,
        )
        assert val >= 0.0


class TestCouplingIsMinusIdentity:
    """The coupling A x - y = c gives, bitwise where it is a scalar, what
    the general form A x + B y = c gives with an explicit B = -I."""

    @staticmethod
    def point(prob, rng):
        q = prob.constraints.q
        return (rng.standard_normal(prob.d), rng.standard_normal(q),
                rng.standard_normal(q), rng.standard_normal(prob.d))

    @staticmethod
    def explicit(prob, x, y, lam, x_prev, rho):
        """(residual, subgradient distance) with B = -I as a matrix."""
        cs = prob.constraints
        B = -sp.identity(cs.q, format="csr")
        resid = cs.A @ x + B @ y - cs.c
        v = np.asarray(B.T @ lam).ravel()
        w = np.asarray(B.T @ (cs.A @ (x - x_prev))).ravel()
        total = 0.0
        for blk in prob.regularizer.blocks:
            if isinstance(blk, problems.L1Block):
                total += problems.l1_subgrad_dist_sq(
                    v[blk.start : blk.stop], y[blk.start : blk.stop], blk.weight
                )
            else:
                wb = rho * w[blk.start : blk.stop]
                total += float(wb @ wb)
        return resid, total

    @pytest.mark.parametrize("make", [
        make_graph_guided_problem, make_overlap_problem, make_multitask_problem,
    ])
    def test_residual_stationarity_and_lrho(self, make):
        prob = make()
        rng = np.random.default_rng(31)
        rho = 2.5
        for _ in range(5):
            x, y, lam, x_prev = self.point(prob, rng)
            resid, subgrad = self.explicit(prob, x, y, lam, x_prev, rho)
            cs = prob.constraints
            # the form run() hands the dual step and the trace record
            assert np.array_equal(cs.A @ x - y - cs.c, resid)

            rep = metrics.stationarity(
                prob, resid, x - x_prev, y, lam, rho=rho, grad=prob.grad(x)
            )
            assert rep.feasibility_sq == float(resid @ resid)
            assert rep.subgrad_dist_sq == subgrad

            state = solvers.SolverState(x=x, y=y, lam=lam, x_prev=x_prev)
            cfg = solvers.SolverConfig("stoc", eta=1.0, rho=rho, r=1.0, M=1, T=1)
            rec = solvers._record(
                prob, cfg, state, solvers.BatchMean(prob, 1), 0.0, resid
            )
            every = prob.loss.gather(np.arange(prob.n))
            obj = prob.loss.value(x, every) + prob.regularizer.value(y)
            lrho = obj - float(lam @ resid) + 0.5 * rho * float(resid @ resid)
            assert rec.lrho == lrho
            assert rec.feasibility_sq == rep.feasibility_sq


class TestLyapunov:
    def run_diag(self, variant="dete", **kw):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        cfg = solvers.SolverConfig(
            variant=variant, eta=1.0, rho=30.0,
            r=params.min_admissible_r(prob.constraints, 1.0, 30.0),
            M=20, T=30, m=kw.pop("m", 5) if variant == "svrg" else None, **kw,
        )
        return prob, cfg, solvers.run(prob, cfg)

    def test_psi_formula(self):
        prob, cfg, res = self.run_diag()
        vals = metrics.lyapunov_psi(res.trace, zeta=7.0, rho=cfg.rho)
        for v, rec in zip(vals, res.trace):
            assert np.isclose(v, rec.lrho + (7.0 / cfg.rho) * rec.dx_sq)

    def test_snapshot_terms_need_a_snapshot(self):
        # dete keeps no snapshot, so its records carry no snapshot distances
        prob, cfg, res = self.run_diag()
        with pytest.raises(CapabilityError, match="snap_sq"):
            metrics.lyapunov_phi(res.trace, np.ones(5), 1.0, cfg.rho)
        with pytest.raises(CapabilityError, match="snap_sq"):
            metrics.lyapunov_theta(res.trace, np.ones(cfg.T), 1.0, cfg.rho)

    def test_phi_values(self):
        # stride 1: one record per step t, weighted by h[(t - 1) mod m]
        prob, cfg, res = self.run_diag("svrg", m=5)
        assert [rec.t for rec in res.trace] == list(range(1, cfg.T + 1))
        h = params.check_feasible("svrg", 2.0, prob.constraints, cfg.eta, cfg.rho,
                                  cfg.r, M=cfg.M, m=5).schedule
        vals = metrics.lyapunov_phi(res.trace, h, zeta=3.0, rho=cfg.rho)
        assert vals.tolist() == [
            rec.lrho + h[(rec.t - 1) % 5] * (rec.snap_sq + rec.snap_prev_sq)
            + (3.0 / cfg.rho) * rec.dx_sq
            for rec in res.trace
        ]

    def test_theta_values(self):
        # alpha[t - 1] weighs step t; the lagged term is the previous
        # record's snap_sq, zero before the first step
        prob, cfg, res = self.run_diag("saga")
        assert [rec.t for rec in res.trace] == list(range(1, cfg.T + 1))
        alpha = params.check_feasible(
            "saga", 2.0, prob.constraints, cfg.eta, cfg.rho, cfg.r,
            n=prob.n, M=cfg.M, T=cfg.T,
        ).schedule
        vals = metrics.lyapunov_theta(res.trace, alpha, zeta=3.0, rho=cfg.rho)
        assert np.isfinite(vals).all()
        lags = [0.0] + [rec.snap_sq for rec in res.trace[:-1]]
        assert vals.tolist() == [
            rec.lrho + alpha[rec.t - 1] * (rec.snap_sq + lag)
            + (3.0 / cfg.rho) * rec.dx_sq
            for rec, lag in zip(res.trace, lags)
        ]

    def test_theta_refuses_a_strided_trace(self):
        # at stride 3 the previous record is three steps back, not the lag
        prob, cfg, res = self.run_diag("saga", trace_stride=3)
        assert [rec.t for rec in res.trace] == list(range(3, cfg.T + 1, 3))
        with pytest.raises(InputError, match="not a trace_stride of 3"):
            metrics.lyapunov_theta(res.trace, np.ones(cfg.T), 1.0, cfg.rho)
        # a gap after the first steps is refused too: t = 1, 2, 3, 6, ...
        head = [replace(res.trace[0], t=1), replace(res.trace[0], t=2)]
        with pytest.raises(InputError, match="not a trace_stride of 3"):
            metrics.lyapunov_theta(head + res.trace, np.ones(cfg.T), 1.0, cfg.rho)

    def test_theta_schedule_length_checked(self):
        # the trace reads alpha_1..alpha_T; one entry fewer is refused
        prob, cfg, res = self.run_diag("saga")
        alpha = np.ones(cfg.T)
        assert metrics.lyapunov_theta(res.trace, alpha, 1.0, cfg.rho).size == cfg.T
        with pytest.raises(InputError, match="alpha schedule shorter than the trace"):
            metrics.lyapunov_theta(res.trace, alpha[:-1], 1.0, cfg.rho)


class TestOnePassRecord:
    @pytest.mark.parametrize("variant", ["dete", "saga"])
    def test_trace_record_equals_separate_passes(self, variant):
        prob = make_graph_guided_problem()
        eta, rho = 0.5, 2.0
        r = params.min_admissible_r(prob.constraints, eta, rho)
        cfg = solvers.SolverConfig(variant=variant, eta=eta, rho=rho, r=r, M=10, T=5)
        res = solvers.run(prob, cfg)
        rec, st = res.trace[-1], res.state
        cs = prob.constraints
        report = metrics.stationarity(
            prob, cs.A @ st.x - st.y - cs.c, st.x - st.x_prev, st.y, st.lam,
            rho=rho, grad=prob.grad(st.x),
        )
        assert rec.objective == oracles.objective(prob, st.x, st.y)
        assert rec.feasibility_sq == report.feasibility_sq
        assert rec.dual_sq == report.dual_sq
        assert rec.subgrad_dist_sq == report.subgrad_dist_sq


class TestVarianceDiagnostics:
    def test_svrg_bound_holds_by_enumeration(self, rng):
        prob = make_graph_guided_problem(n=6, d=3)
        L = params.estimate_lipschitz(prob)
        x = rng.standard_normal(3)
        snap = x + 0.5 * rng.standard_normal(3)
        out = oracles.variance_diagnostics(
            prob, "svrg", x, L, M=1,
            snapshot_x=snap, snapshot_grad=prob.grad(snap),
        )
        assert out["empirical_var"] <= out["bound"] * (1 + 1e-12)

    def test_saga_bound_holds_by_enumeration(self, rng):
        prob = make_graph_guided_problem(n=6, d=3)
        L = params.estimate_lipschitz(prob)
        x = rng.standard_normal(3)
        pts = x[None, :] + 0.3 * rng.standard_normal((6, 3))
        out = oracles.variance_diagnostics(
            prob, "saga", x, L, M=1, point_table=pts,
        )
        assert out["empirical_var"] <= out["bound"] * (1 + 1e-12)

    def test_unsupported_variant_rejected(self, rng):
        prob = make_graph_guided_problem(n=6, d=3)
        with pytest.raises(InputError):
            oracles.variance_diagnostics(prob, "stoc", np.zeros(3), 1.0)


class TestRateSummary:
    def test_power_law_slope_recovered(self):
        t = np.arange(1, 400)
        dx_sq = 1.0 / t**2
        out = oracles.rate_summary(dx_sq)
        assert out["min_theta_by_T"].shape == (398,)
        assert -2.3 < out["slope_estimate"] < -1.7

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            oracles.rate_summary([1.0, 0.5])
