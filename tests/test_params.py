"""Admissibility arithmetic, decay constants, and parameter validation."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from iswaves.params import (
    AdmissibilityReport,
    DegenerateParameterError,
    InadmissibleParameterError,
    ModelParams,
    admissibility_report,
    compute_decay_rates,
    compute_f_min,
    compute_M,
    compute_mu2_threshold,
    compute_speed_window,
    eta_roots,
    family_params,
    validate_bfd_params,
)
from iswaves.spectral import make_grid, symbols

from conftest import P1_KW, symbol_f


def test_derived_coefficient_and_depth_flag(p1_mu2_4, p1_inf):
    assert p1_mu2_4.r == pytest.approx(0.1)
    assert p1_mu2_4.finite_depth
    assert not p1_inf.finite_depth


@pytest.mark.parametrize(
    "kw",
    [
        dict(gamma=0.0), dict(gamma=1.0), dict(epsilon=0.0), dict(mu=-0.1),
        dict(mu2=0.0), dict(beta=1.0),
        # NaN fails every range, and only mu2 may be infinite
        dict(gamma=math.nan), dict(epsilon=math.nan), dict(mu=math.nan), dict(a=math.nan),
        dict(b=math.nan), dict(c=math.nan), dict(d=math.nan), dict(mu2=math.nan),
        dict(beta=math.nan), dict(epsilon=math.inf), dict(mu=math.inf), dict(a=-math.inf),
        dict(d=math.inf), dict(mu2=-math.inf), dict(beta=math.inf),
    ],
)
def test_parameter_range_rejection(kw):
    base = dict(P1_KW, mu2=4.0)
    base.update(kw)
    # the message begins with the refused field, which the CLI names as its key
    (name,) = kw
    with pytest.raises(InadmissibleParameterError, match=f"^{name} must"):
        ModelParams(**base)


def test_canonical_family_names(p1_mu2_4, p1_inf):
    assert family_params("bo", p1_inf) == ("BO", p1_inf)
    assert family_params("ILW", p1_mu2_4) == ("ILW", p1_mu2_4)
    assert family_params("bfd_finite", p1_mu2_4) == ("BFD_finite", p1_mu2_4)
    assert family_params(" BFD-infinite", p1_inf) == ("BFD_inf", p1_inf)
    with pytest.raises(ValueError, match="unknown family"):
        family_params("kdv", p1_inf)


def test_family_params_set_the_depth(p1_mu2_4, p1_inf):
    # the mu2 = inf members take p at infinite depth, whatever mu2 it carries;
    # the finite-depth members refuse mu2 = inf
    for name in ("BO", "BFD_inf"):
        assert family_params(name, p1_mu2_4)[1] == p1_inf
        assert family_params(name, p1_inf)[1] is p1_inf
    for name in ("ILW", "BFD_finite"):
        assert family_params(name, p1_mu2_4)[1] is p1_mu2_4
        with pytest.raises(InadmissibleParameterError, match="finite mu2"):
            family_params(name, p1_inf)


def test_speed_window_value(p1_mu2_4):
    # (1-gamma) min{1, |c|/b} = 0.5 * (1/12)/(1/4) = 1/6
    assert compute_speed_window(p1_mu2_4) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_f_min_closed_form(p1_mu2_4):
    f_min, x0, beta0 = compute_f_min(p1_mu2_4, 0.0)
    assert f_min == pytest.approx(74.0 / 49.0, abs=1e-12)
    assert beta0 == pytest.approx(49.0 / 6.0, abs=1e-12)
    # the symbol attains the reported minimum at the reported location
    assert symbol_f(p1_mu2_4, 0.0, x0) == pytest.approx(f_min, abs=1e-12)


def test_f_min_matches_brute_force(p1_mu2_4):
    for omega in (0.0, 0.05, 0.1):
        f_min, x0, _ = compute_f_min(p1_mu2_4, omega)
        res = minimize_scalar(
            lambda x: float(symbol_f(p1_mu2_4, omega, x)),
            bounds=(0.0, 10.0 * x0),
            method="bounded",
            options={"xatol": 1e-14},
        )
        assert f_min == pytest.approx(res.fun, abs=1e-10)


@settings(max_examples=60)
@given(
    gamma=st.floats(0.05, 0.95),
    mu=st.floats(1e-3, 10.0),
    b=st.floats(1.0 / 6.0, 1.0),
    split=st.floats(0.0, 1.0),
    speed=st.floats(-0.99, 0.99),
)
def test_f_min_property(gamma, mu, b, split, speed):
    # admissible BFD parameters: b = d in [1/6, 1], a + c = 1/3 - 2b split
    # between a, c <= 0, and omega inside the speed window of either sign.
    # f_min and x0 are the minimum of symbol_f found by a brute-force scan:
    # a geometric grid over [1e-6, 1e6], then a dense grid between the
    # neighbours of its best point
    a = split * (1.0 / 3.0 - 2.0 * b)
    p = ModelParams(gamma=gamma, epsilon=0.1, mu=mu, a=a, b=b, c=1.0 / 3.0 - 2.0 * b - a, d=b)
    assert validate_bfd_params(p) == []
    omega = speed * compute_speed_window(p)
    f_min, x0, beta0 = compute_f_min(p, omega)
    coarse = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 4001)])
    i = int(np.argmin(symbol_f(p, omega, coarse)))
    dense = np.linspace(coarse[max(i - 1, 0)], coarse[i + 1], 20001)
    values = symbol_f(p, omega, dense)
    j = int(np.argmin(values))
    h = dense[1] - dense[0]
    # f = f_min + mu beta0 (x - x0)^2; roundoff on the size of its terms
    roundoff = 1e-12 * (1.0 / gamma + abs(omega) + math.sqrt(mu) / gamma**2 * x0)
    assert -roundoff <= values[j] - f_min <= mu * beta0 * h * h + roundoff
    assert abs(dense[j] - x0) <= h + math.sqrt(roundoff / (mu * beta0))


@settings(max_examples=60)
@given(
    gamma=st.floats(0.05, 0.95),
    mu=st.floats(1e-3, 10.0),
    b=st.floats(1.0 / 6.0, 0.6),
    split=st.floats(0.0, 1.0),
    speed=st.floats(-0.99, 0.99),
)
def test_admissibility_f_min_is_the_symbol_minimum(gamma, mu, b, split, speed):
    # at infinite depth L - |omega| J_b is symbol_f in |k|, so the report's
    # f_min lies below the minimum of the symbols' tables over the grid's
    # k >= 0, by at most mu beta0_tilde (dk/2)^2 (the minimizer x0 is within
    # dk/2 of a grid frequency and far below the band edge, about 206)
    a = split * (1.0 / 3.0 - 2.0 * b)
    p = ModelParams(gamma=gamma, epsilon=0.1, mu=mu, a=a, b=b, c=1.0 / 3.0 - 2.0 * b - a, d=b)
    omega = speed * compute_speed_window(p)
    report = admissibility_report(p, omega)
    grid = make_grid(125.0, 2**14)
    sym = symbols(p, grid)
    gap = float(np.min(sym.L - abs(omega) * sym.jb)) - report.f_min
    dk = grid.k_half[1]
    x0 = compute_f_min(p, omega)[1]
    roundoff = 1e-12 * (1.0 / gamma + abs(omega) + math.sqrt(mu) / gamma**2 * x0)
    assert -roundoff <= gap <= mu * report.beta0_tilde * (dk / 2.0) ** 2 + roundoff


def test_mu2_threshold_value(p1_mu2_4):
    thr = compute_mu2_threshold(p1_mu2_4, 0.0)
    assert thr == pytest.approx(0.7015339663988314, abs=1e-12)
    # direct arithmetic: mu/(gamma^2 f_min)^2
    assert thr == pytest.approx(0.1 / (0.25 * 74.0 / 49.0) ** 2, abs=1e-14)


def test_amplitude_constant_value(p1_mu2_4):
    assert compute_M(p1_mu2_4, 0.0) == pytest.approx(37.0 / 12.0, abs=1e-12)


def test_sum_rule_and_sign_conditions():
    # a + b + c + d must equal 1/3 for the family to be consistent
    bad = ModelParams(gamma=0.5, epsilon=0.1, mu=0.1, a=0.0, b=0.25, c=-1.0 / 12, d=0.25)
    msgs = validate_bfd_params(bad)
    assert any("1/3" in m or "sum" in m.lower() for m in msgs)
    good = ModelParams(mu2=4.0, **P1_KW)
    assert validate_bfd_params(good) == []


def test_admissibility_report_roundtrip(p1_mu2_4):
    rep = admissibility_report(p1_mu2_4, 0.1)
    assert isinstance(rep, AdmissibilityReport)
    assert rep.admissible
    assert rep.violations == ()
    d = asdict(rep)
    assert d["speed_bound"] == pytest.approx(1.0 / 6.0)

    bad = admissibility_report(p1_mu2_4, 0.2)
    assert not bad.admissible
    assert any("speed" in v for v in bad.violations)


def test_admissibility_flags_low_mu2():
    p = ModelParams(mu2=0.5, **P1_KW)  # below the ~0.7015 threshold
    rep = admissibility_report(p, 0.0)
    assert not rep.admissible
    assert any("mu2" in v for v in rep.violations)


def test_eta_roots_bracketing_and_equation():
    theta = math.sqrt(10.0)
    roots = eta_roots(theta, 6)
    assert roots[0] == pytest.approx(2.477100572052743, abs=1e-10)
    for m, e in enumerate(roots, start=1):
        assert (2 * m - 1) * math.pi / 2 < e < m * math.pi
        assert e + theta * math.tan(e) == pytest.approx(0.0, abs=1e-9)
    assert all(b > a for a, b in zip(roots, roots[1:]))


@settings(max_examples=60)
@given(theta=st.floats(1e-4, 1e4), count=st.integers(1, 8))
def test_eta_roots_property(theta, count):
    # the m-th root lies in ((2m - 1) pi/2, m pi) and solves e + theta tan e
    # = 0 to the resolution of the bracket (1e-14 in e, times the slope)
    roots = eta_roots(theta, count)
    assert len(roots) == count
    for m, e in enumerate(roots, start=1):
        assert (2 * m - 1) * math.pi / 2 < e < m * math.pi
        slope = 1.0 + theta / math.cos(e) ** 2
        assert abs(e + theta * math.tan(e)) <= 1e-12 * slope


def test_eta_roots_rejects_nonpositive_theta():
    with pytest.raises(DegenerateParameterError):
        eta_roots(0.0, 3)


def test_decay_rates_finite_depth(p1_mu2_4):
    rates = compute_decay_rates(p1_mu2_4)
    assert rates.sigma == pytest.approx(9.698075483206937, rel=1e-12)
    assert rates.theta == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert rates.ilw_rate == pytest.approx(1.2385502860263715, rel=1e-10)
    # eta_1/sqrt(mu2) consistency
    assert rates.ilw_rate == pytest.approx(rates.eta_roots[0] / 2.0, rel=1e-12)


def test_decay_rates_mu2_25(p1_mu2_25):
    rates = compute_decay_rates(p1_mu2_25)
    assert rates.theta == pytest.approx(7.905694150420948, rel=1e-12)
    assert rates.eta_roots[0] == pytest.approx(2.8010816582645544, abs=1e-10)
    assert rates.ilw_rate == pytest.approx(0.5602163316529108, rel=1e-10)


def test_decay_rates_infinite_depth(p1_inf):
    rates = compute_decay_rates(p1_inf)
    assert rates.ell == pytest.approx(1.5488706906947165, rel=1e-12)
    assert rates.c_K == pytest.approx(2.4489795918367347, rel=1e-12)
    assert rates.discriminant == pytest.approx(7.396917950853811, rel=1e-12)
    assert rates.discriminant > 0.0


def test_decay_rates_sharp_point(p_sharp):
    rates = compute_decay_rates(p_sharp)
    assert rates.sigma == pytest.approx(1.4079179830635131, rel=1e-10)


def test_threshold_raises_when_no_finite_depth_admissible():
    # a > 0 large enough drives f_min below zero (at gamma = 1/2 the
    # crossover is a = 3), so no finite lower-layer depth is admissible
    p = ModelParams(gamma=0.5, epsilon=0.1, mu=0.1, a=3.5, b=0.25,
                    c=-1.0 / 12, d=0.25)
    f_min, _, _ = compute_f_min(p, 0.0)
    assert f_min < 0.0
    with pytest.raises(InadmissibleParameterError):
        compute_mu2_threshold(p, 0.0)
