"""Stationarity residuals and Lyapunov sequences.

Expectations in the convergence statements are replaced by single-run values
here; decrease assertions on noisy variants belong in seeded Monte-Carlo
tests, not in this module.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import CapabilityError, InputError


@dataclass
class StationarityReport:
    feasibility_sq: float
    dual_sq: float
    subgrad_dist_sq: float


def subgrad_dist_sq(problem, y, lam, dx, rho):
    """dist(-lam, subdifferential of g at y)^2: the sum, in block order, of
    each block's own `subgrad_dist_sq` on its slices of v = -lam, of y and
    of w = rho * -(A dx), dx = x - x_prev."""
    v = -np.asarray(lam).ravel()
    w = rho * -np.asarray(problem.constraints.A @ dx).ravel()
    total = 0.0
    for blk in problem.regularizer.blocks:
        s = slice(blk.start, blk.stop)
        total += blk.subgrad_dist_sq(v[s], y[s], w[s])
    return total


def stationarity(problem, resid, dx, y, lam, rho, grad):
    """Feasibility, dual and subgradient-distance residuals at (x, y, lam),
    from resid = A x - y - c, the step dx = x - x_prev and grad, the full
    gradient at x."""
    dual = grad - np.asarray(problem.constraints.AT @ lam).ravel()
    return StationarityReport(
        feasibility_sq=float(resid @ resid),
        dual_sq=float(dual @ dual),
        subgrad_dist_sq=subgrad_dist_sq(problem, y, lam, dx, rho),
    )


def _require_diag(records, *fields):
    for rec in records:
        for f in fields:
            if getattr(rec, f) is None:
                raise CapabilityError(
                    f"trace records lack the {f!r} diagnostic; the run's "
                    "estimator keeps no snapshot"
                )


def lyapunov_psi(records, zeta, rho):
    """Psi_t = L_rho + (zeta/rho) ||x_t - x_{t-1}||^2 from trace records."""
    return np.array([rec.lrho + (zeta / rho) * rec.dx_sq for rec in records])


def _snapshot_sequence(records, weights, lags, zeta, rho):
    """L_rho + w_t (snap_sq_t + lag_t) + (zeta/rho) ||x_t - x_{t-1}||^2 for
    each record, with its weight w_t and lagged snapshot distance lag_t."""
    return np.array([
        rec.lrho + w * (rec.snap_sq + lag) + (zeta / rho) * rec.dx_sq
        for rec, w, lag in zip(records, weights, lags)
    ])


def lyapunov_phi(records, h_schedule, zeta, rho):
    """Phi_t^s from svrg diagnostic records (stride-1 traces).

    h_schedule is the forward epoch schedule h_1..h_m, whose length is m;
    records carry the snapshot distances for the current and previous iterate.
    """
    _require_diag(records, "snap_sq", "snap_prev_sq")
    h = np.asarray(h_schedule, dtype=float)
    return _snapshot_sequence(
        records, [h[(rec.t - 1) % h.size] for rec in records],
        [rec.snap_prev_sq for rec in records], zeta, rho,
    )


def lyapunov_theta(records, alpha_schedule, zeta, rho):
    """Theta_t from saga diagnostic records; a strided trace is refused.

    alpha_schedule holds alpha_1..alpha_T; snap_sq is the mean squared
    distance of x_t to the stored points at step t, the previous record
    supplies the lagged term (zero before the first step).
    """
    _require_diag(records, "snap_sq")
    steps = np.diff([0] + [rec.t for rec in records])
    if (steps != 1).any():
        raise InputError("Theta's lag needs a record at every step, not a "
                         f"trace_stride of {steps[steps != 1][0]}")
    alpha = np.asarray(alpha_schedule, dtype=float)
    if any(rec.t > alpha.size for rec in records):
        raise InputError("alpha schedule shorter than the trace")
    return _snapshot_sequence(
        records, [alpha[rec.t - 1] for rec in records],
        [0.0] + [rec.snap_sq for rec in records], zeta, rho,
    )
