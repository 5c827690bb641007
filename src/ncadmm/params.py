"""Theory constants, feasibility certificates and parameter suggestion.

All certificate arithmetic is pure float evaluation of the closed-form
constants; nothing here runs a solver.
"""

import math
from dataclasses import dataclass, field, asdict, replace
from typing import NamedTuple

import numpy as np

from .data import check_count
from .exceptions import ConfigError

_RHO_STAR_RTOL = 1e-9


def estimate_lipschitz(problem):
    """Bound on the Lipschitz constant of the full smooth gradient: the
    loss's `lipschitz_bound` of the largest squared feature-row norm."""
    feats = problem.loss.features
    try:
        sq_norms = np.asarray(feats.multiply(feats).sum(axis=1)).ravel()
    except AttributeError:
        sq_norms = np.einsum("ij,ij->i", feats, feats)
    max_sq = float(sq_norms.max()) if sq_norms.size else 0.0
    return problem.loss.lipschitz_bound(max_sq)


@dataclass
class TheoryConstants:
    """All scalar constants the convergence statements are phrased in."""

    L: float
    L_tilde: float
    phi_min_A: float
    norm_AtA: float
    phi_max_H: float
    phi_min_H: float
    zeta: float
    zeta1: float
    phi_H: float
    rho_star: float
    rho_0: float
    delta: float
    gamma: float


@dataclass
class Certificate:
    """Outcome of a feasibility check for one (eta, rho, r) configuration."""

    variant: str
    accepted: bool
    gamma: float
    rho_star: float
    rho_0: float
    delta: float
    case: int
    eta_interval: tuple
    constants: TheoryConstants
    schedule: list = field(default=None)
    gamma_sequence: list = field(default=None)
    reasons: list = field(default_factory=list)

    def to_dict(self):
        out = asdict(self)
        out["eta_interval"] = list(self.eta_interval)
        return out


class _Interval(NamedTuple):
    """Outcome of the three-case (eta, rho) admissibility condition."""

    ok: bool
    case: int
    lo: float
    hi: float
    rho_star: float
    rho_0: float
    delta: float
    reason: str  # why the condition fails; read only when ok is false


def _rho_star(L, L_eff, phi_min_A):
    """The penalty threshold rho*, the positive root of
    phi_min_A rho^2 - L_eff rho - 10 L^2 / phi_min_A."""
    return (L_eff + math.sqrt(40.0 * L**2 + L_eff**2)) / (2.0 * phi_min_A)


def _interval_case(L, L_eff, constraints, eta, rho, r, phi_max_H, phi_min_H, phi_H):
    """Evaluate the three-case (eta, rho) admissibility condition.

    L_eff is the shifted smoothness constant L + 1 + 2*shift.
    """
    pa = constraints.phi_min_A
    rho_star = _rho_star(L, L_eff, pa)
    varphi = (L_eff + 10.0 * L**2 / (rho * pa)) - pa * rho
    delta = phi_min_H**2 + (20.0 * phi_max_H**2 / (rho * pa)) * (
        pa * rho - (L_eff + 10.0 * L**2 / (rho * pa))
    )
    rho_0 = (
        10.0
        * phi_max_H
        * (L_eff * phi_max_H + math.sqrt(L_eff**2 * phi_max_H**2 + 2.0 * L**2 * phi_H))
        / (pa * phi_H)
    )
    eta_cap = (r - 1.0) / (rho * constraints.norm_AtA)

    if abs(rho - rho_star) <= _RHO_STAR_RTOL * rho_star:
        case = 2
        lo = 10.0 * phi_max_H**2 / (rho * pa * phi_min_H)
        hi = eta_cap
        ok = lo < eta <= hi * (1.0 + 1e-12)
        reason = f"eta={eta:g} outside ({lo:g}, {hi:g}] at rho=rho*"
        return _Interval(ok, case, lo, hi, rho_star, rho_0, delta, reason)
    case = 1 if rho < rho_star else 3
    if case == 1 and rho <= rho_0:
        reason = f"rho={rho:g} <= rho_0={rho_0:g} in the rho < rho* case"
    elif delta < 0:
        reason = "discriminant is negative; no admissible eta exists"
    else:
        sd = math.sqrt(delta)
        lo = (phi_min_H - sd) / varphi
        if case == 1:
            hi = (phi_min_H + sd) / varphi
            ok = lo < eta < hi
            reason = f"eta={eta:g} outside ({lo:g}, {hi:g})"
        else:
            hi = eta_cap
            ok = lo < eta <= hi * (1.0 + 1e-12)
            reason = f"eta={eta:g} outside ({lo:g}, {hi:g}]"
        return _Interval(ok, case, lo, hi, rho_star, rho_0, delta, reason)
    return _Interval(False, case, math.nan, math.nan, rho_star, rho_0, delta, reason)


def _backward(last, factor, const, size):
    """x[0..size-1] with x[size-1] = last and x[t] = factor * x[t+1] + const.

    A factor above 1 (svrg's always, saga's unless M = n) makes long
    sequences overflow to inf; check_feasible refuses such a schedule by name.
    """
    x = np.empty(size)
    x[size - 1] = last
    with np.errstate(over="ignore"):
        for t in range(size - 2, -1, -1):
            x[t] = factor * x[t + 1] + const
    return x


def svrg_h_schedule(L, constraints, rho, M, m, beta):
    """Backward recursion h_m, ..., h_1 (returned in forward order h_1..h_m)."""
    if m < 1:
        raise ConfigError("epoch length m must be >= 1")
    check_count(m, "svrg epoch length m")
    if M < 1:
        raise ConfigError("mini-batch size M must be >= 1")
    if beta <= 0:
        raise ConfigError("beta must be > 0")
    pa = constraints.phi_min_A
    step = (10.0 + pa * rho) * L**2 / (2.0 * rho * pa * M)
    return _backward(10.0 * L**2 / (pa * rho * M), 2.0 + beta, step, m)


def saga_alpha_schedule(L, constraints, rho, n, M, T, beta):
    """Backward recursion alpha_T, ..., alpha_1 with alpha_{T+1} = 0."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    check_count(T + 1, "saga horizon T + 1")
    if not 1 <= M <= n:
        raise ConfigError("mini-batch size M must satisfy 1 <= M <= n")
    if beta <= 0:
        raise ConfigError("beta must be > 0")
    pa = constraints.phi_min_A
    const = (10.0 * L**2 + pa * rho * L**2) / (2.0 * rho * pa * M)
    factor = (2.0 * n - M) / n + (n - M) * beta / n
    # alpha[t-1] is the step-t weight; alpha[T] is the zero boundary
    return _backward(0.0, factor, const, T + 1)


@np.errstate(all="ignore")
def check_feasible(variant, L, constraints, eta, rho, r, *, n=None, M=None,
                   m=None, T=None, beta=1.0):
    """Certificate for one (eta, rho, r) configuration of any variant.

    All variants share the interval condition and Gamma; they differ only in
    the shift sequence added to L~, their estimator's `shift_sequence`. The
    interval uses L + 1 + 2*min(shift) and Gamma_t is the base minus shift_t.
    dete and stoc, with no shift, keep their own closed form of Gamma.
    svrg needs m and M, saga needs T, n and M.

    The arithmetic runs on float64 scalars, which overflow to inf and divide
    by zero to inf or nan where Python floats raise; a finite result is
    bitwise the Python float's. A constant that is not finite refuses the
    certificate and is named in its reasons, but for a Gamma of -inf, which
    "Gamma <= 0" and an overflowed schedule name already.
    """
    from . import solvers  # local import to avoid a cycle
    if eta <= 0 or rho <= 0 or r <= 0:
        raise ConfigError("eta, rho and r must all be > 0")
    estimator = solvers.variant(variant)
    L, eta, rho, r = (np.float64(v) for v in (L, eta, rho, r))
    schedule, shifts, overflow_reason = estimator.shift_sequence(
        L, constraints, rho, n, M, m, T, beta
    )
    pa = constraints.phi_min_A
    phi_max_H = r - rho * eta * pa
    phi_min_H = r - rho * eta * constraints.norm_AtA
    zeta = 5.0 * (L**2 * eta**2 + phi_max_H**2) / (pa * eta**2)
    zeta1 = 5.0 * phi_max_H**2 / (pa * eta**2)
    phi_H = phi_min_H**2 + 20.0 * phi_max_H**2

    shift = 0.0 if shifts is None else min(shifts)
    interval = _interval_case(
        L, L + 1.0 + 2.0 * shift, constraints, eta, rho, r,
        phi_max_H, phi_min_H, phi_H,
    )
    reasons = [] if interval.ok else [interval.reason]
    head = phi_min_H / eta + pa * rho / 2.0 - (L + 1.0) / 2.0
    if shifts is None:
        gammas = None
        gamma = head - 5.0 * (L**2 * eta**2 + 2.0 * phi_max_H**2) / (rho * pa * eta**2)
        if gamma <= 0:
            reasons.append(f"gamma={gamma:g} <= 0")
    else:
        base = head - (zeta + zeta1) / rho
        gammas = [float(base - s) for s in shifts]
        gamma = min(gammas)  # an overflowed shift leaves -inf
        if not (np.isfinite(schedule).all() and np.isfinite(shifts).all()):
            reasons.append(overflow_reason)
        if gamma <= 0:
            reasons.append(f"min Gamma = {gamma:g} <= 0")
    constants = TheoryConstants(**{name: float(v) for name, v in dict(
        L=L, L_tilde=L + 1.0, phi_min_A=pa,
        norm_AtA=constraints.norm_AtA, phi_max_H=phi_max_H,
        phi_min_H=phi_min_H, zeta=zeta, zeta1=zeta1, phi_H=phi_H,
        rho_star=interval.rho_star, rho_0=interval.rho_0,
        delta=interval.delta, gamma=gamma,
    ).items()})
    non_finite = [name for name, v in asdict(constants).items()
                  if not (math.isfinite(v) or name == "gamma" and v < 0)]
    if non_finite:
        reasons.append(f"not finite in float64: {', '.join(non_finite)}")
    return Certificate(
        variant="stoc" if shifts is None else estimator.name,
        accepted=bool(interval.ok and gamma > 0 and not non_finite),
        gamma=constants.gamma,
        rho_star=constants.rho_star,
        rho_0=constants.rho_0,
        delta=constants.delta,
        case=interval.case,
        eta_interval=(float(interval.lo), float(interval.hi)),
        constants=constants,
        schedule=None if schedule is None else [float(v) for v in schedule],
        gamma_sequence=gammas,
        reasons=reasons,
    )


def min_admissible_r(constraints, eta, rho):
    """Smallest r with H = rI - rho*eta*A^T A >= I."""
    return eta * rho * constraints.norm_AtA + 1.0


_ETA_GRID = [2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3]
_RHO_MULTS = [2.0, 3.0, 5.0, 10.0, 1.5, 20.0, 50.0]


def suggest_params(problem, variant, M=None, T=1000, m=None):
    """Search for a certified (eta, rho, r) and return it with its certificate.

    Starts from rho = 2*rho* (third interval case) with r at its minimum and
    falls back to a log grid over (eta, rho), each with the variant's
    `size_fallbacks`. M, m and r default as in `SolverConfig.for_problem`.
    Raises ConfigError naming the searched (eta, rho) grid, once, when
    nothing certifies.
    """
    from . import solvers  # local import to avoid a cycle
    estimator = solvers.variant(variant)
    L = estimate_lipschitz(problem)
    if L <= 0:
        raise ConfigError("estimated Lipschitz constant is 0; nothing to certify")
    cs = problem.constraints
    n = problem.n
    rho_star_base = _rho_star(L, L + 1.0, cs.phi_min_A)
    grid = [(eta, mult * rho_star_base) for mult in _RHO_MULTS for eta in _ETA_GRID]
    for eta, rho in grid:
        base = solvers.SolverConfig.for_problem(problem, variant, eta, rho, T, M=M, m=m)
        for M_try, m_try in estimator.size_fallbacks(n, base.M, base.m):
            cfg = replace(base, M=M_try, m=m_try)
            cert = check_feasible(
                cfg.variant, L, cs, eta, rho, cfg.r,
                n=n, M=M_try, m=m_try, T=T,
            )
            if cert.accepted:
                return cfg, cert
    raise ConfigError(
        f"no feasible (eta, rho) found for variant {estimator.name!r}; tried "
        + ", ".join(f"(eta={e:g}, rho={p:g})" for e, p in grid)
    )
