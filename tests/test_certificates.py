"""Certificates: a byte-for-byte golden grid and an acceptance property.

The golden file holds `check_feasible(...).to_dict()` as JSON, one
certificate a line, for a fixed grid of configurations: every variant,
interval cases 1, 2 and 3, accepted and refused, the saga schedule overflow,
beta != 1 and svrg with m = 1. Regenerate it only for an intended change of
the certificate output:

    PYTHONPATH=src python tests/test_certificates.py
"""

import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncadmm import params, problems, solvers

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_certificates.jsonl")


CONSTRAINTS = {
    "identity3": problems.build_graph_guided_A(([], []), 3),
    "overlap4x2": problems.build_overlap_A(4, 2),
    # the path graph 0 - 1 - 2 - 3
    "chain4": problems.build_graph_guided_A((np.arange(3), np.arange(1, 4)), 4),
}

# (n, M, m, T, beta) per variant. dete gives stoc's certificate, so one
# constraint system suffices for it; saga's beta only matters for M < n, and
# saga at (1000, 10, T=700) overflows float64
SIZES = {
    "dete": [(None, None, None, None, 1.0)],
    "stoc": [(None, None, None, None, 1.0)],
    "svrg": [(None, 4, 5, None, 1.0), (None, 20, 1, None, 0.5)],
    "saga": [(20, 5, None, 6, 2.0), (10, 10, None, 5, 1.0)],
}
OVERFLOW = (1000, 10, None, 700, 1.0)


def _rho_star(L, cs):
    # the threshold of the unshifted (stoc) certificate, so that rho = rho*
    # lands in interval case 2
    return (L + 1.0 + math.sqrt(40.0 * L**2 + (L + 1.0) ** 2)) / (2.0 * cs.phi_min_A)


def golden_grid():
    """(args, certificate) for every configuration of the golden grid."""
    out = []
    for cs_name, cs in CONSTRAINTS.items():
        for L in (1.0, 3.5):
            # 0.99 rho* is the narrow case 1 window above rho_0
            for mult in (0.5, 0.99, 1.0, 3.0):
                rho = mult * _rho_star(L, cs)
                for eta, r_mult in ((1.0, 1.0), (1.0, 1.5), (0.05, 1.0)):
                    r = r_mult * params.min_admissible_r(cs, eta, rho)
                    for variant, sizes in SIZES.items():
                        if variant == "dete" and cs_name != "identity3":
                            continue
                        for n, M, m, T, beta in sizes:
                            out.append(_entry(variant, L, cs_name, eta, rho,
                                              r, n, M, m, T, beta))
    cs = CONSTRAINTS["identity3"]
    for eta in (1.0, 0.05):
        rho = 3.0 * _rho_star(1.0, cs)
        n, M, m, T, beta = OVERFLOW
        out.append(_entry("saga", 1.0, "identity3", eta, rho,
                          params.min_admissible_r(cs, eta, rho), n, M, m, T, beta))
    return out


def _entry(variant, L, cs_name, eta, rho, r, n, M, m, T, beta):
    args = {"variant": variant, "L": L, "constraints": cs_name, "eta": eta,
            "rho": rho, "r": r, "n": n, "M": M, "m": m, "T": T, "beta": beta}
    cert = params.check_feasible(variant, L, CONSTRAINTS[cs_name], eta, rho, r,
                                 n=n, M=M, m=m, T=T, beta=beta)
    return args, cert


def golden_text():
    return "".join(
        json.dumps({"args": args, "certificate": cert.to_dict()}, default=str) + "\n"
        for args, cert in golden_grid()
    )


class TestGolden:
    def test_output_matches_golden_bytes(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            expected = fh.read()
        got = golden_text()
        for i, (a, b) in enumerate(zip(got.splitlines(), expected.splitlines())):
            assert a == b, f"golden line {i + 1} differs"
        assert got == expected

    def test_grid_covers_cases_and_outcomes(self):
        seen = {(c.variant, c.case, c.accepted) for _, c in golden_grid()}
        for case in (1, 2, 3):
            assert ("stoc", case, True) in seen and ("stoc", case, False) in seen
        for variant in ("svrg", "saga"):
            assert (variant, 3, True) in seen and (variant, 3, False) in seen
        assert any("overflows" in reason for _, c in golden_grid()
                   for reason in c.reasons)

    def test_fields_are_plain_python(self):
        for _, cert in golden_grid():
            assert type(cert.accepted) is bool
            assert type(cert.gamma) is float
            assert all(type(g) is float for g in cert.gamma_sequence or [])


_CS = list(CONSTRAINTS.values())


@st.composite
def configurations(draw):
    cs = draw(st.sampled_from(_CS))
    L = draw(st.floats(0.05, 20.0))
    rho = draw(st.floats(0.3, 30.0)) * _rho_star(L, cs)
    eta = draw(st.floats(1e-3, 3.0))
    r = draw(st.floats(1.0, 2.0)) * params.min_admissible_r(cs, eta, rho)
    n = draw(st.integers(1, 60))
    M = draw(st.integers(1, n))
    return dict(
        variant=draw(st.sampled_from(solvers.VARIANTS)), L=L, constraints=cs,
        eta=eta, rho=rho, r=r, n=n, M=M, m=draw(st.integers(1, 8)),
        T=draw(st.integers(1, 40)), beta=draw(st.floats(0.25, 4.0)),
    )


@settings(max_examples=300, deadline=None)
@given(configurations())
def test_accepted_certificate_has_positive_gamma_inside_interval(cfg):
    cert = params.check_feasible(**cfg)
    assert type(cert.accepted) is bool
    if not cert.accepted:
        assert cert.reasons
        return
    assert cert.gamma > 0
    assert all(g > 0 for g in cert.gamma_sequence or [])
    lo, hi = cert.eta_interval
    assert lo < cfg["eta"] <= hi * (1.0 + 1e-12)


# kappa(A^T A) = 1 and a graph-guided system; the chain's kappa is about 5.8
_EXTREME_CS = [CONSTRAINTS["identity3"], CONSTRAINTS["chain4"]]


@st.composite
def extreme_configurations(draw):
    """Any finite positive eta and rho from 1e-300 to 1e300, r from its H >= I
    bound up (inf where that bound overflows), as Python or numpy floats."""
    cs = draw(st.sampled_from(_EXTREME_CS))
    eta, rho = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    r = draw(st.floats(1.0, 4.0)) * params.min_admissible_r(cs, eta, rho)
    L = draw(st.floats(0.05, 20.0))
    if draw(st.booleans()):
        L, eta, rho, r = map(np.float64, (L, eta, rho, r))
    n = draw(st.integers(1, 60))
    return dict(
        variant=draw(st.sampled_from(solvers.VARIANTS)), L=L, constraints=cs,
        eta=eta, rho=rho, r=r, n=n, M=draw(st.integers(1, n)),
        m=draw(st.integers(1, 8)), T=draw(st.integers(1, 40)),
    )


@settings(max_examples=400, deadline=None)
@given(extreme_configurations())
def test_certificate_never_raises_on_extreme_finite_input(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = params.check_feasible(**cfg)
    assert type(cert.accepted) is bool
    if not cert.accepted:
        assert cert.reasons
        return
    values = [*asdict(cert.constants).values(), *cert.eta_interval,
              *(cert.gamma_sequence or []), *(cert.schedule or [])]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("eta, rho, named", [
    (1.0, 1e300, "rho_0"), (1e-200, 1.0, "zeta, zeta1"),
])
@pytest.mark.parametrize("as_numpy", [False, True])
def test_non_finite_constant_refuses_by_name(eta, rho, named, as_numpy):
    # on the kappa = 1 system, r = rho * eta + 1 rounds to rho at rho = 1e300,
    # so phi_H = 0 and rho_0 = 0/0; eta**2 = 1e-400 underflows to 0
    cs = CONSTRAINTS["identity3"]
    args = (1.0, eta, rho, params.min_admissible_r(cs, eta, rho))
    if as_numpy:
        args = tuple(map(np.float64, args))
    L, eta, rho, r = args
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = params.check_feasible("stoc", L, cs, eta, rho, r)
    assert cert.accepted is False
    assert f"not finite in float64: {named}" in cert.reasons
    assert all(type(v) is float for v in asdict(cert.constants).values())


if __name__ == "__main__":
    sys.stdout.write(f"writing {GOLDEN}\n")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(golden_text())
