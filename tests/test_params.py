import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from ncadmm import params, problems
from ncadmm.exceptions import ConfigError

from conftest import (
    make_graph_guided_problem,
    make_multitask_problem,
    make_sparse_sigmoid_problem,
)
import oracles


def identity_constraints(d=4):
    return problems.build_graph_guided_A(([], []), d)


class TestLipschitz:
    def test_curvature_bound_closed_form(self):
        # max of p(1-p)|1-2p| over p in (0,1) is sqrt(3)/18; the constant
        # sits the scan's documented 2.1e-13 below it
        gap = math.sqrt(3) / 18 - problems.SIGMOID_CURVATURE
        assert 0 < gap < 3e-13

    def test_curvature_bound_is_the_one_pass_scan(self):
        bound = problems.SIGMOID_CURVATURE
        assert bound == oracles.sigmoid_curvature_bound() == 0.09622504486472483

    def test_sigmoid_estimate(self, rng):
        prob = make_graph_guided_problem(n=40, d=5)
        feats = prob.loss.features
        max_sq = float(np.einsum("ij,ij->i", feats, feats).max())
        L = params.estimate_lipschitz(prob)
        assert np.isclose(L, max_sq * problems.SIGMOID_CURVATURE, rtol=1e-9)

    @pytest.mark.parametrize("make", [
        make_graph_guided_problem, make_sparse_sigmoid_problem, make_multitask_problem,
    ])
    def test_estimate_is_bitwise_the_closed_form(self, make):
        # each loss's L written out, so a change in its last bit, which only
        # the bench digests would catch otherwise, fails here
        prob = make()
        loss, feats = prob.loss, prob.loss.features
        if sp.issparse(feats):
            max_sq = float(np.asarray(feats.multiply(feats).sum(axis=1)).ravel().max())
        else:
            max_sq = float(np.einsum("ij,ij->i", feats, feats).max())
        if isinstance(loss, problems.SigmoidLoss):
            want = max_sq * 0.09622504486472483
        else:
            want = max_sq * 0.5 + loss.nu1 * loss.beta / loss.theta**2
        assert params.estimate_lipschitz(prob) == want

    def test_estimate_dominates_numeric_curvature(self, rng):
        # directional second differences of f never exceed the bound
        prob = make_graph_guided_problem(n=30, d=4)
        L = params.estimate_lipschitz(prob)
        x = rng.standard_normal(4)
        for _ in range(20):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            eps = 1e-4
            g1 = prob.grad(x + eps * v)
            g2 = prob.grad(x - eps * v)
            assert np.linalg.norm(g1 - g2) / (2 * eps) <= L * (1 + 1e-6)


class TestConstants:
    def test_h_spectrum(self):
        cs = problems.build_overlap_A(3, 2)  # AtA = 2I
        cert = params.check_feasible("stoc", 1.0, cs, 0.5, 4.0, r=5.0)
        assert np.isclose(cert.constants.phi_max_H, 5.0 - 4.0 * 0.5 * 2.0)
        assert np.isclose(cert.constants.phi_min_H, 5.0 - 4.0 * 0.5 * 2.0)

    def test_rho_star_quadratic_residual(self):
        cs = identity_constraints(3)
        L = 1.0
        cert = params.check_feasible("stoc", L, cs, 1.0, 10.0, r=11.0)
        rs = cert.rho_star
        L_eff = L + 1.0
        resid = cs.phi_min_A * rs**2 - L_eff * rs - 10.0 * L**2 / cs.phi_min_A
        assert abs(resid) <= 1e-9 * max(1.0, rs**2)
        # frozen closed-form value at L = 1, phi_min = 1
        assert np.isclose(rs, (2.0 + math.sqrt(44.0)) / 2.0, rtol=1e-12)

    def test_zeta_formula(self):
        cs = identity_constraints(3)
        L, eta, rho, r = 2.0, 0.5, 8.0, 5.0
        cert = params.check_feasible("stoc", L, cs, eta, rho, r)
        phi_max_H = r - rho * eta * cs.phi_min_A
        expected = 5.0 * (L**2 * eta**2 + phi_max_H**2) / (cs.phi_min_A * eta**2)
        assert np.isclose(cert.constants.zeta, expected)

    def test_gamma_sign_drives_acceptance(self):
        cs = identity_constraints(3)
        L = 1.0
        good = params.check_feasible("stoc", L, cs, 1.0, 20.0, params.min_admissible_r(cs, 1.0, 20.0))
        assert good.accepted and good.gamma > 0
        bad = params.check_feasible("stoc", L, cs, 1.0, 0.5, params.min_admissible_r(cs, 1.0, 0.5))
        assert not bad.accepted
        assert bad.reasons


class TestSchedules:
    def test_svrg_schedule_matches_recursion(self):
        cs = identity_constraints(2)
        L, rho, M, m, beta = 2.0, 6.0, 4, 5, 1.0
        h = params.svrg_h_schedule(L, cs, rho, M, m, beta)
        pa = cs.phi_min_A
        assert np.isclose(h[-1], 10 * L**2 / (pa * rho * M))
        step = (10 + pa * rho) * L**2 / (2 * rho * pa * M)
        for t in range(m - 1):
            assert np.isclose(h[t], (2 + beta) * h[t + 1] + step)

    def test_svrg_schedule_positive_decreasing(self):
        cs = identity_constraints(2)
        h = params.svrg_h_schedule(1.0, cs, 10.0, 8, 6, 1.0)
        assert np.all(h > 0)
        assert np.all(np.diff(h) < 0)

    def test_saga_schedule_boundary_and_shape(self):
        cs = identity_constraints(2)
        alpha = params.saga_alpha_schedule(1.0, cs, 10.0, n=20, M=5, T=6, beta=1.0)
        assert alpha.size == 7
        assert alpha[-1] == 0.0
        assert np.all(alpha[:-1] > 0)
        assert np.all(np.diff(alpha) < 0)

    def test_saga_full_batch_schedule_is_linear(self):
        cs = identity_constraints(2)
        n = 10
        alpha = params.saga_alpha_schedule(1.0, cs, 10.0, n=n, M=n, T=5, beta=1.0)
        # factor collapses to 1 at M = n, so the recursion is arithmetic
        diffs = np.diff(alpha)
        assert np.allclose(diffs, diffs[0])

    def test_saga_overflow_refused_without_warnings(self):
        cs = identity_constraints(2)
        eta, rho = 0.5, 5.0
        r = params.min_admissible_r(cs, eta, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = params.check_feasible("saga", 1.0, cs, eta, rho, r, T=2000, n=1000, M=10)
        assert not cert.accepted
        assert cert.gamma == -math.inf
        assert any("overflows" in reason for reason in cert.reasons)

    def test_svrg_overflow_refused_without_warnings(self):
        cs = identity_constraints(2)
        eta, rho = 0.5, 5.0
        r = params.min_admissible_r(cs, eta, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = params.check_feasible("svrg", 1.0, cs, eta, rho, r, M=1, m=2000)
        assert not cert.accepted
        assert cert.gamma == -math.inf
        assert any("h schedule overflows" in reason for reason in cert.reasons)

    @pytest.mark.parametrize("M", [0, -5])
    def test_svrg_batch_below_one_refused(self, M):
        # at M = -5 the certificate used to accept, with a larger Gamma
        # than at M = 20; at M = 0 it was refused as an overflow
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        L = params.estimate_lipschitz(prob)
        assert params.check_feasible("svrg", L, prob.constraints, 2.0, 116.1, 233.2,
                                     M=20, m=2).accepted
        with pytest.raises(ConfigError, match="M must be >= 1"):
            params.check_feasible("svrg", L, prob.constraints, 2.0, 116.1, 233.2,
                                  M=M, m=2)

    def test_svrg_batch_above_n_refused_when_n_is_given(self):
        # M = 10**6 at n = 80 used to accept, with a larger Gamma than at M = n
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        L = params.estimate_lipschitz(prob)
        assert params.check_feasible("svrg", L, prob.constraints, 2.0, 116.1, 233.2,
                                     n=80, M=80, m=2).accepted
        for M in (81, 10**6):
            with pytest.raises(ConfigError, match=r"1 <= M <= n"):
                params.check_feasible("svrg", L, prob.constraints, 2.0, 116.1, 233.2,
                                      n=80, M=M, m=2)

    def test_invalid_arguments(self):
        cs = identity_constraints(2)
        with pytest.raises(ConfigError):
            params.svrg_h_schedule(1.0, cs, 1.0, 4, 0, 1.0)
        with pytest.raises(ConfigError):
            params.saga_alpha_schedule(1.0, cs, 1.0, n=5, M=9, T=3, beta=1.0)


class TestSuggest:
    @pytest.mark.parametrize("variant", ["dete", "stoc", "svrg", "saga"])
    def test_suggest_self_certifies(self, variant):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        cfg, cert = params.suggest_params(prob, variant, M=20, T=100)
        assert cert.accepted
        assert cfg.variant == variant
        # the returned configuration re-certifies through the public checker
        again = params.check_feasible(
            variant, params.estimate_lipschitz(prob), prob.constraints,
            cfg.eta, cfg.rho, cfg.r, n=prob.n, M=cfg.M, m=cfg.m, T=cfg.T,
        )
        assert again.accepted

    def test_min_admissible_r(self):
        cs = problems.build_overlap_A(3, 2)
        r = params.min_admissible_r(cs, 0.5, 4.0)
        assert np.isclose(r, 0.5 * 4.0 * 2.0 + 1.0)

    # (variant, M, m) -> the (M, m) pairs certified in turn at each (eta,
    # rho): svrg halves its epoch down to 1, saga falls back to the full
    # batch unless it has it, dete and stoc try their one size
    @pytest.mark.parametrize("variant, M, m, sizes", [
        ("dete", None, None, [(80, None)]),
        ("dete", 20, None, [(20, None)]),
        ("stoc", 20, None, [(20, None)]),
        ("stoc", None, None, [(80, None)]),
        ("svrg", 20, 8, [(20, 8), (20, 4), (20, 2), (20, 1)]),
        ("svrg", 20, None, [(20, 4), (20, 2), (20, 1)]),
        ("svrg", 20, 1, [(20, 1)]),
        ("saga", 20, None, [(20, None), (80, None)]),
        ("saga", None, None, [(80, None)]),
    ])
    def test_size_fallbacks(self, monkeypatch, variant, M, m, sizes):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        calls = []

        def refuse(variant, L, cs, eta, rho, r, *, n, M, m, T, beta=1.0):
            calls.append((variant, eta, rho, M, m))
            return SimpleNamespace(accepted=False)

        monkeypatch.setattr(params, "check_feasible", refuse)
        with pytest.raises(ConfigError, match="no feasible"):
            params.suggest_params(prob, variant, M=M, m=m, T=50)
        pairs = list(dict.fromkeys((eta, rho) for _, eta, rho, _, _ in calls))
        assert len(pairs) > 1
        assert calls == [(variant, eta, rho, M_try, m_try)
                         for eta, rho in pairs for M_try, m_try in sizes]

    @pytest.mark.parametrize("variant", ["stoc", "svrg", "saga"])
    def test_refusal_names_each_pair_once(self, variant):
        # no (eta, rho) certifies on an edged graph; the refusal lists the
        # 7 x 11 grid it searched once, whatever the sizes tried per pair
        prob = make_graph_guided_problem(n=400, d=20, seed=0)
        with pytest.raises(ConfigError, match="no feasible") as err:
            params.suggest_params(prob, variant, M=20, T=100)
        named = re.findall(r"\(eta=[^)]*\)", str(err.value))
        assert len(named) == len(set(named)) == 77

    @pytest.mark.parametrize("m", [0, -3])
    def test_svrg_epoch_below_one_refused_before_the_search(self, monkeypatch, m):
        prob = make_graph_guided_problem(n=80, d=5, empty_support=True)
        calls = []
        monkeypatch.setattr(params, "check_feasible", lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigError, match="svrg requires epoch length m >= 1"):
            params.suggest_params(prob, "svrg", m=m)
        assert calls == []

    def test_check_feasible_missing_args(self):
        cs = identity_constraints(2)
        with pytest.raises(ConfigError):
            params.check_feasible("svrg", 1.0, cs, 1.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            params.check_feasible("nope", 1.0, cs, 1.0, 1.0, 2.0)

