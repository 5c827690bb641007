"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line; thresholds and instance sizes are
fixed, so the suite doubles as a regression harness for solver behavior.
"""

import functools
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from ncadmm import data, metrics, params, problems, solvers

from conftest import (
    dense_AtA,
    make_graph_guided_problem,
    make_multitask_problem,
    make_overlap_problem,
    make_sparse_sigmoid_problem,
    run_with_iterates,
)
import oracles


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def tiny_problem(n, d=3, seed=0):
    return make_graph_guided_problem(n=n, d=d, seed=seed)


@functools.lru_cache(maxsize=None)
def rate_problem():
    """n=2000, d=50 graph-guided with row-normalized features.

    Normalization keeps the smoothness constant near the curvature bound so
    the certified penalty parameter leaves a usable step size.
    """
    ds, prec, _ = data.gen_graph_guided(2000, 50, seed=5)
    feats = ds.features / np.linalg.norm(ds.features, axis=1, keepdims=True)
    cs = problems.build_graph_guided_A(([], []), 50)
    prob = problems.CompositeProblem(
        loss=problems.SigmoidLoss(feats, ds.labels),
        regularizer=problems.BlockSeparableRegularizer.l1(50, 2e-3),
        constraints=cs,
    )
    cfg, cert = params.suggest_params(prob, "stoc", M=100, T=100)
    return prob, cfg.eta, cfg.rho, cfg.r


def run_min_theta(prob, variant, T, eta, rho, r, x_steps, M=100, m=None,
                  seed=0):
    """Rate summary of a run's iterates, which x_steps (the fixture's list)
    collects from the x-step; the trace keeps only the last record."""
    cfg = solvers.SolverConfig(
        variant=variant, eta=eta, rho=rho, r=r, M=M, T=T, m=m, seed=seed,
        trace_stride=T,
    )
    x_steps.clear()
    res = solvers.run(prob, cfg)
    xs = np.array(x_steps)
    dx = np.sum(np.diff(xs, axis=0) ** 2, axis=1)
    summary = oracles.rate_summary(dx)
    return summary, res.trace[-1].ifo


def test_criterion_01_unbiasedness():
    worst = 0.0
    for n in range(3, 7):
        prob = tiny_problem(n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(prob.d)
        full = prob.grad(x)
        scale = np.linalg.norm(full)

        singles = [prob.grad(x, prob.loss.gather([i])) for i in range(n)]
        worst = max(worst, np.linalg.norm(np.mean(singles, 0) - full) / scale)

        snap = rng.standard_normal(prob.d)
        snap_grad = prob.grad(snap)
        svrg = [
            solvers.svrg_gradient(prob, x, prob.loss.gather([i]), snap, snap_grad)
            for i in range(n)
        ]
        worst = max(worst, np.linalg.norm(np.mean(svrg, 0) - full) / scale)

        pts = snap[None, :] + 0.2 * rng.standard_normal((n, prob.d))
        table = oracles.saga_table_from_points(prob, pts)
        saga = [
            solvers.saga_gradient(prob, table, x, prob.loss.gather([i]))[0]
            for i in range(n)
        ]
        worst = max(worst, np.linalg.norm(np.mean(saga, 0) - full) / scale)
    _report(1, "enumerated estimator means equal the full gradient",
            worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_02_variance_bounds():
    worst = 0.0
    for n in range(3, 7):
        prob = tiny_problem(n)
        L = params.estimate_lipschitz(prob)
        rng = np.random.default_rng(100 + n)
        x = rng.standard_normal(prob.d)
        snap = x + 0.5 * rng.standard_normal(prob.d)
        out = oracles.variance_diagnostics(
            prob, "svrg", x, L, M=1,
            snapshot_x=snap, snapshot_grad=prob.grad(snap),
        )
        worst = max(worst, out["empirical_var"] / max(out["bound"], 1e-300))

        pts = x[None, :] + 0.4 * rng.standard_normal((n, prob.d))
        out = oracles.variance_diagnostics(
            prob, "saga", x, L, M=1, point_table=pts,
        )
        worst = max(worst, out["empirical_var"] / max(out["bound"], 1e-300))
    _report(2, "enumerated estimator variance within the closed-form bounds",
            worst <= 1.0 + 1e-12, f"worst var/bound {worst:.3f}")


def test_criterion_03_dual_identity(gradient_estimates):
    prob = make_graph_guided_problem(n=200, d=10, seed=3)
    eta, rho = 1.0, 2.0
    r = params.min_admissible_r(prob.constraints, eta, rho)
    worst = 0.0

    def check(rec, state):
        # the estimate of step t is the t-th the estimators returned
        nonlocal worst
        g_hat = gradient_estimates[rec.t - 1]
        worst = max(worst, oracles.dual_identity_residual(
            prob, g_hat, state.x_prev, state.x, state.lam, eta, rho, r
        ))

    for variant in solvers.VARIANTS:
        cfg = solvers.SolverConfig(
            variant=variant, eta=eta, rho=rho, r=r, M=20, T=1000,
            m=20 if variant == "svrg" else None, seed=0, trace_stride=1,
        )
        gradient_estimates.clear()
        solvers.run(prob, cfg, callback=check)
        assert len(gradient_estimates) == cfg.T
    _report(3, "dual identity residual stays below 1e-6 relative for 1000 steps",
            worst <= 1e-6, f"worst rel residual {worst:.2e}")


def test_criterion_04_surrogate_minimizer():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        q = int(rng.integers(d, d + 4))
        A = rng.standard_normal((q, d))
        cs = problems.ConstraintSystem(A, rng.standard_normal(q))
        holder = SimpleNamespace(constraints=cs)
        eta = float(rng.uniform(0.1, 2.0))
        rho = float(rng.uniform(0.5, 5.0))
        r = params.min_admissible_r(cs, eta, rho) * float(rng.uniform(1.0, 2.0))
        x = rng.standard_normal(d)
        y = rng.standard_normal(q)
        lam = rng.standard_normal(q)
        g = rng.standard_normal(d)
        step = solvers.x_update_uzawa(holder, x, y, lam, g, eta, rho, r, cs.A @ x)
        # dense solve of the linearized subproblem's normal equations
        AtA = dense_AtA(cs)
        H = r * np.eye(d) - rho * eta * AtA
        lhs = H / eta + rho * AtA
        rhs = (H / eta) @ x - g - rho * A.T @ (-y - cs.c - lam / rho)
        direct = np.linalg.solve(lhs, rhs)
        worst = max(
            worst,
            np.linalg.norm(step - direct) / max(np.linalg.norm(direct), 1.0),
        )
    _report(4, "inexact-Uzawa step equals the dense surrogate minimizer",
            worst <= 1e-8, f"worst rel diff {worst:.2e}")


def test_criterion_05_lyapunov_decrease():
    instances = [
        make_graph_guided_problem(n=60, d=6, seed=1, empty_support=True),
        make_graph_guided_problem(n=40, d=4, seed=7, empty_support=True),
        make_overlap_problem(n=50, grid=3, k=2, seed=2),
    ]
    worst = -np.inf
    for prob in instances:
        cfg, cert = params.suggest_params(prob, "dete", T=300)
        res = solvers.run(prob, cfg)
        psi = metrics.lyapunov_psi(res.trace, cert.constants.zeta, cfg.rho)
        worst = max(worst, float(np.diff(psi).max()))
    _report(5, "certified deterministic runs have nonincreasing Lyapunov value",
            worst <= 1e-9, f"max increase {worst:.2e}")


def _decay_slope(rm, head=10):
    """Slope of the floor-subtracted running-min envelope, transit excluded."""
    floor = rm[-1]
    t = np.arange(2, rm.size + 2, dtype=float)
    excess = rm - floor
    start = int(np.argmax(excess <= 0.8 * excess[head]))
    mask = np.zeros(rm.size, dtype=bool)
    mask[start:] = excess[start:] > 0.5 * floor
    if mask.sum() < 20:
        return None
    return float(np.polyfit(np.log(t[mask]), np.log(excess[mask]), 1)[0])


def test_criterion_06_rate_shapes(x_steps):
    prob, eta, rho, r = rate_problem()
    dete, _ = run_min_theta(prob, "dete", 1500, eta, rho, r, x_steps, M=prob.n)
    slope_dete = dete["slope_estimate"]

    stoc, ifo_s = run_min_theta(prob, "stoc", 10000, eta, rho, r, x_steps, seed=2)
    slope_stoc = _decay_slope(stoc["min_theta_by_T"])
    floor_s = stoc["min_theta_by_T"][-1]

    # epoch snapshots cost n, so these iteration counts equalize total IFO
    svrg, ifo_v = run_min_theta(prob, "svrg", 4900, eta, rho, r, x_steps, m=20,
                                seed=2)
    saga, ifo_g = run_min_theta(prob, "saga", 9980, eta, rho, r, x_steps, seed=2)
    floor_v = svrg["min_theta_by_T"][-1]
    floor_g = saga["min_theta_by_T"][-1]
    assert abs(ifo_v - ifo_s) <= 0.02 * ifo_s
    assert abs(ifo_g - ifo_s) <= 0.02 * ifo_s

    ok = (
        slope_dete <= -0.8
        and slope_stoc is not None
        and slope_stoc <= -0.8
        and floor_v < floor_s
        and floor_g < floor_s
    )
    _report(
        6, "running-min stationarity envelopes have the predicted shapes", ok,
        f"dete slope {slope_dete:.2f}, stoc slope {slope_stoc}, floors "
        f"stoc {floor_s:.1e} svrg {floor_v:.1e} saga {floor_g:.1e}",
    )


@functools.lru_cache(maxsize=None)
def desk_problem():
    ds, prec, _ = data.gen_graph_guided(20000, 200, seed=11)
    cs = problems.build_graph_guided_A(np.nonzero(np.triu(prec.support, 1)), 200)
    return problems.CompositeProblem(
        loss=problems.SigmoidLoss(ds.features, ds.labels),
        regularizer=problems.BlockSeparableRegularizer.l1(cs.q, 1e-5),
        constraints=cs,
    )


@functools.lru_cache(maxsize=None)
def desk_runs():
    """Criterion 07's runs, which its wall-time gate and its IFO companion
    share: per variant, one (wall ratio, IFO ratio) pair per seed. Each is
    the first record reaching dete's objective after 100 steps, over dete's
    wall time and IFO; both are inf when no record reaches it."""
    prob = desk_problem()
    eta, rho = 1.0, 1.0
    r = params.min_admissible_r(prob.constraints, eta, rho)
    fracs = {"stoc": [], "svrg": [], "saga": []}
    for seed in range(5):
        base = solvers.SolverConfig(
            variant="dete", eta=eta, rho=rho, r=r, M=prob.n, T=100,
            seed=seed, trace_stride=10,
        )
        res = solvers.run(prob, base)
        W = res.trace[-1].wall_time
        ifo = res.trace[-1].ifo
        target = res.trace[-1].objective
        for variant in fracs:
            cfg = solvers.SolverConfig(
                variant=variant, eta=eta, rho=rho, r=r, M=100, T=2000,
                m=200 if variant == "svrg" else None, seed=seed,
                trace_stride=50,
            )
            run = solvers.run(prob, cfg)
            hit = next(
                (rec for rec in run.trace if rec.objective <= target), None
            )
            fracs[variant].append(
                (np.inf, np.inf) if hit is None
                else (hit.wall_time / W, hit.ifo / ifo)
            )
    return fracs


def test_criterion_07_desk_scale_speedup():
    means = {v: float(np.mean([w for w, _ in f])) for v, f in desk_runs().items()}
    ok = all(m <= 0.25 for m in means.values())
    _report(
        7, "stochastic variants reach the deterministic objective in a "
        "quarter of its wall time", ok,
        ", ".join(f"{v} {m:.3f}" for v, m in means.items()),
    )


def test_criterion_07_ifo_to_target():
    """The deterministic companion of criterion 07: IFO counts, unlike wall
    times, depend on the seed only."""
    means = {v: float(np.mean([i for _, i in f])) for v, f in desk_runs().items()}
    ok = all(m <= 0.05 for m in means.values())
    _report(
        7, "stochastic variants reach the deterministic objective within "
        "5% of its IFO", ok,
        ", ".join(f"{v} {m:.4f}" for v, m in means.items()),
    )


def test_criterion_08_parameter_certificates():
    # closed-form penalty threshold, frozen oracle at L = 1, phi_min = 1
    cs1 = problems.build_graph_guided_A(([], []), 3)
    cert = params.check_feasible("stoc", 1.0, cs1, 1.0, 10.0, r=11.0)
    oracle = (2.0 + np.sqrt(44.0)) / 2.0
    resid_ok = abs(cert.rho_star - oracle) <= 1e-9
    quad_worst = 0.0
    for L, cs in [(1.0, cs1), (3.5, problems.build_overlap_A(4, 2))]:
        c = params.check_feasible("stoc", L, cs, 0.5, 8.0, r=9.0)
        pa = cs.phi_min_A
        resid = pa * c.rho_star**2 - (L + 1) * c.rho_star - 10 * L**2 / pa
        quad_worst = max(quad_worst, abs(resid) / max(1.0, c.rho_star**2))

    suggest_ok = True
    for prob in [
        make_graph_guided_problem(n=80, d=5, empty_support=True),
        make_overlap_problem(n=60, grid=3, k=2),
    ]:
        for variant in solvers.VARIANTS:
            cfg, cert = params.suggest_params(prob, variant, M=20, T=50)
            suggest_ok &= cert.accepted

    h = params.svrg_h_schedule(2.0, cs1, 10.0, M=4, m=6, beta=1.0)
    alpha = params.saga_alpha_schedule(2.0, cs1, 10.0, n=20, M=5, T=6, beta=1.0)
    sched_ok = (
        np.all(h > 0) and np.all(np.diff(h) < 0)
        and np.all(alpha[:-1] > 0) and np.all(np.diff(alpha) < 0)
    )
    ok = resid_ok and quad_worst <= 1e-9 and suggest_ok and sched_ok
    _report(
        8, "certificate constants, schedules and suggestions are consistent",
        ok, f"quad residual {quad_worst:.1e}",
    )


def test_criterion_09_prox_oracles():
    rng = np.random.default_rng(17)
    margin = 0.0

    # l1: 100 inputs x 1000 candidates, objective w||y||_1 + ||y - v||^2 / 2s
    w, s, p = 0.7, 1.3, 30
    for _ in range(100):
        v = 3.0 * rng.standard_normal(p)
        y_star = problems.prox_l1(v, w * s)
        obj_star = w * np.abs(y_star).sum() + ((y_star - v) ** 2).sum() / (2 * s)
        cand = y_star[None, :] + rng.standard_normal((1000, p)) * rng.choice(
            [1e-3, 0.1, 1.0], size=(1000, 1)
        )
        objs = w * np.abs(cand).sum(1) + ((cand - v) ** 2).sum(1) / (2 * s)
        margin = max(margin, obj_star - objs.min())

    # nuclear: batched SVD over candidate matrices
    w, s, rows, cols = 0.5, 0.8, 3, 4
    for _ in range(100):
        V = rng.standard_normal((rows, cols))
        Y = problems.prox_nuclear(V, w * s)
        obj_star = (
            w * np.linalg.svd(Y, compute_uv=False).sum()
            + ((Y - V) ** 2).sum() / (2 * s)
        )
        cand = Y[None, :, :] + rng.standard_normal((1000, rows, cols)) * (
            rng.choice([1e-3, 0.1, 1.0], size=(1000, 1, 1))
        )
        svals = np.linalg.svd(cand, compute_uv=False)
        objs = w * svals.sum(1) + ((cand - V) ** 2).sum((1, 2)) / (2 * s)
        margin = max(margin, obj_star - objs.min())

    # parser round trip on a generated dataset
    ds, _, _ = data.gen_graph_guided(20, 6, seed=8)
    sparse = ds.features.copy()
    sparse[np.abs(sparse) < 0.3] = 0.0
    src = data.Dataset(features=sparse, labels=ds.labels, meta={})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.libsvm")
        data.write_libsvm(src, path)
        back = data.parse_libsvm(path, n_features=6)
        rt_ok = np.array_equal(back.features.toarray(), sparse) and np.array_equal(
            back.labels, ds.labels
        )
    ok = margin <= 1e-12 and rt_ok
    _report(
        9, "prox operators beat random competitors and the parser round-trips",
        ok, f"worst prox margin {margin:.1e}",
    )


def test_criterion_10_full_batch_degeneracy():
    """On dense sigmoid features, on csr sigmoid features and on the
    multi-task loss with its shared penalty term."""
    T, eta, rho = 200, 1.0, 2.0
    ok = True
    for prob in [make_graph_guided_problem(n=50, d=6, seed=4),
                 make_sparse_sigmoid_problem(), make_multitask_problem()]:
        r = params.min_admissible_r(prob.constraints, eta, rho)

        def run_variant(variant, m=None):
            cfg = solvers.SolverConfig(
                variant=variant, eta=eta, rho=rho, r=r, M=prob.n, T=T, m=m,
                seed=9, trace_stride=1,
            )
            return run_with_iterates(prob, cfg)

        ref, ref_iterates = run_variant("dete")
        for variant, m in [("stoc", None), ("svrg", 10), ("saga", None)]:
            res, iterates = run_variant(variant, m)
            ok &= len(iterates) == len(ref_iterates) == T
            for (xa, ya, la), (xb, yb, lb) in zip(ref_iterates, iterates):
                if not (
                    np.array_equal(xa, xb)
                    and np.array_equal(ya, yb)
                    and np.array_equal(la, lb)
                ):
                    ok = False
                    break
            ok &= ref.trace[-1].objective == res.trace[-1].objective
    _report(10, "full-batch stochastic variants coincide bitwise with the "
            "deterministic solver", ok)


def _floor_slope(prob, Ms):
    """Log-log slope against M of stoc's feasibility floor at eta = rho = 1
    and the minimal r: the tail feas_sq, the mean of the last 10 of 40
    records over 2000 steps, averaged over seeds 0-4; and the floors."""
    eta, rho = 1.0, 1.0
    r = params.min_admissible_r(prob.constraints, eta, rho)
    floors = []
    for M in Ms:
        tails = []
        for seed in range(5):
            cfg = solvers.SolverConfig(
                variant="stoc", eta=eta, rho=rho, r=r, M=M, T=2000, seed=seed,
                trace_stride=50,
            )
            trace = solvers.run(prob, cfg).trace
            tails.append(np.mean([rec.feasibility_sq for rec in trace[-10:]]))
        floors.append(float(np.mean(tails)))
    slope = float(np.polyfit(np.log(Ms), np.log(floors), 1)[0])
    return slope, f"slope {slope:.3f}, floors " + ", ".join(f"{f:.1e}" for f in floors)


def test_criterion_11_minibatch_floor():
    """At a fixed step stoc's stationarity floor falls like sigma^2 / M, the
    abstract's "appropriate mini-batch size": the log-log slope of the
    seed-mean tail feas_sq against M is near -1. Over 40 seeds, disjoint
    groups of 5 gave slopes from -1.05 to -0.93, and these 5 give -1.03."""
    slope, detail = _floor_slope(make_overlap_problem(n=2000, grid=5, seed=5),
                                 [1, 10, 100, 1000])
    _report(11, "stoc's feasibility floor falls like 1/M", -1.2 <= slope <= -0.8,
            detail)


def test_criterion_11_minibatch_floor_graph_guided():
    """Criterion 11 on a graph-guided problem, whose A has edge rows. Over 50
    seeds, disjoint groups of 5 gave slopes from -1.05 to -0.92, and these 5
    give -1.00."""
    slope, detail = _floor_slope(make_graph_guided_problem(n=2000, d=20, seed=5),
                                 [1, 10, 100])
    _report(11, "stoc's feasibility floor on a graph-guided problem falls "
            "like 1/M", -1.2 <= slope <= -0.8, detail)
