"""Acceptance gate: one check per shipped guarantee, one printed line each.

Every test prints `criterion N: PASS/FAIL - detail` before asserting, so a
plain pytest run of this file doubles as the release checklist.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from iswaves.cli import main
from iswaves.evolution import run
from iswaves.functionals import quadratic_form_check
from iswaves.kernels import (
    fit_algebraic_tail,
    fit_exponential_tail,
    kernel_fft_oracle,
    kernel_K1,
    kernel_K2_plateau,
    kernel_K2_quadrature,
    kernel_K3_series,
    kernel_K_plateau,
    kernel_K_quadrature,
    kernel_symbol,
)
from iswaves.params import (
    compute_decay_rates,
    compute_f_min,
    compute_M,
    compute_mu2_threshold,
    compute_speed_window,
    symbol_f,
)
from iswaves.solvers import (
    constrained_minimize,
    residual_norm,
    solve,
)
from iswaves.spectral import WavePair, make_grid


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_admissibility_constants(p1_mu2_4, capsys):
    p = p1_mu2_4
    fmin, _, _ = compute_f_min(p, 0.0)
    disc = compute_decay_rates(p).discriminant
    targets = [
        ("speed_bound", compute_speed_window(p), 1.0 / 6.0),
        ("f_min", fmin, 74.0 / 49.0),
        ("mu2_threshold", compute_mu2_threshold(p, 0.0), 0.7015339663988314),
        ("M_0", compute_M(p, 0.0), 37.0 / 12.0),
        ("discriminant", disc, 7.396917950853811),
    ]
    errs = {name: abs(got - want) for name, got, want in targets}
    res = minimize_scalar(
        lambda x: symbol_f(p, 0.0, x),
        bounds=(0.0, 10.0),
        method="bounded",
        options={"xatol": 1e-14},
    )
    brute_err = abs(res.fun - fmin)
    ok = max(errs.values()) <= 1e-6 and brute_err <= 1e-10
    _report(
        capsys, 1,
        ok,
        f"constants max err {max(errs.values()):.2e} (tol 1e-6), "
        f"brute-force f_min err {brute_err:.2e} (tol 1e-10)",
    )
    assert max(errs.values()) <= 1e-6, errs
    assert brute_err <= 1e-10


def test_criterion_02_positivity_sweep(p1_mu2_4, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    code = main([
        "sweep", "--out", out,
        "--set", "sweep.draws=200", "--set", "sweep.fields_per_draw=5",
        "--set", "seed=0",
    ])
    import json

    data = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    detect = quadratic_form_check(p1_mu2_4, 0.17, make_grid(20.0, 1024))
    ok = (
        code == 0
        and data["violations"] == []
        and data["min_quadratic_form"] > 0.0
        and data["min_normalized_energy"] >= -1e-12
        and detect.global_min < 0.0
    )
    _report(
        capsys, 2,
        ok,
        f"200 draws x 5 fields: 0 violations, min form "
        f"{data['min_quadratic_form']:.3e}, min E {data['min_normalized_energy']:.3e}; "
        f"omega=0.17 detected ({detect.global_min:.3f} < 0)",
    )
    assert code == 0 and data["violations"] == []
    assert data["min_quadratic_form"] > 0.0
    assert detect.global_min < 0.0


def test_criterion_03_petviashvili_ground_state(p1_inf, bo_state, capsys):
    info = bo_state["info"]
    res = info["residual"]
    s_err = abs(info["S_minus_1"])

    import dataclasses

    half = dataclasses.replace(p1_inf, epsilon=p1_inf.epsilon / 2.0)
    g = make_grid(50.0, 512)
    nu_full = solve("BO", p1_inf, 0.0, grid=g)[0].nu
    nu_half = solve("BO", half, 0.0, grid=g)[0].nu
    scale_err = float(np.max(np.abs(nu_half - 2.0 * nu_full)))
    scale_err /= float(np.max(np.abs(nu_half)))

    ok = res <= 1e-10 and s_err <= 1e-12 and scale_err <= 1e-8
    _report(
        capsys, 3,
        ok,
        f"residual {res:.2e} (tol 1e-10), |S-1| {s_err:.2e} (tol 1e-12), "
        f"scaling symmetry {scale_err:.2e} (tol 1e-8)",
    )
    assert res <= 1e-10 and s_err <= 1e-12
    assert scale_err <= 1e-8


def test_criterion_04_system_residuals(
    p1_inf, p1_mu2_25, bo_state, bo_branch, ilw_chain,
    bfd_finite, bfd_sharp, bfd_inf, p1_mu2_4, p_sharp, capsys,
):
    worst = {}
    worst["BO"] = residual_norm("BO", p1_inf, 0.0, bo_state["pair"])
    worst["BO branch"] = max(
        residual_norm("BO", p1_inf, c, w)
        for c, w in zip(bo_branch.parameter_values, bo_branch.waves)
    )
    ilw_res = []
    for mu2, w in zip(ilw_chain.parameter_values, ilw_chain.waves):
        if math.isinf(mu2):
            ilw_res.append(residual_norm("BO", p1_inf, 0.0, w))
        else:
            import dataclasses

            pmu = dataclasses.replace(p1_mu2_25, mu2=mu2)
            ilw_res.append(residual_norm("ILW", pmu, 0.0, w))
    worst["ILW chain"] = max(ilw_res)
    worst["BFD finite"] = residual_norm("BFD_finite", p1_mu2_4, 0.1, bfd_finite["pair"])
    worst["BFD sharp"] = residual_norm("BFD_finite", p_sharp, 0.1, bfd_sharp["pair"])
    worst["BFD inf"] = residual_norm("BFD_inf", p1_inf, 0.1, bfd_inf["pair"])
    overall = max(worst.values())
    ok = overall <= 1e-9
    _report(
        capsys, 4,
        ok,
        "max residual over {BO, BO branch, ILW chain, BFD finite/sharp/inf} = "
        f"{overall:.2e} (tol 1e-9)",
    )
    assert overall <= 1e-9, worst


def test_criterion_05_branch_limits(p1_inf, bo_state, bo_branch, ilw_chain, capsys):
    nu0 = bo_state["pair"].nu
    scale = float(np.max(np.abs(nu0)))
    devs = [float(np.max(np.abs(w.nu - nu0))) / scale for w in bo_branch.waves]
    # waves are stored at increasing |c|; the first entry is c = 0 itself
    cs = bo_branch.parameter_values
    nonzero = [(c, d) for c, d in zip(cs, devs) if c != 0.0]
    smallest_c_dev = nonzero[0][1]
    monotone_c = all(d1 <= d2 for (_, d1), (_, d2) in zip(nonzero, nonzero[1:]))

    last_c, last_w = cs[-1], bo_branch.waves[-1]
    flipped = WavePair(grid=last_w.grid, xi=last_w.xi, nu=-last_w.nu)
    flip_res = residual_norm("BO", p1_inf, -last_c, flipped)

    base = ilw_chain.waves[0].nu
    bscale = float(np.max(np.abs(base)))
    mu2s = ilw_chain.parameter_values[1:]
    ddevs = [
        float(np.max(np.abs(w.nu - base))) / bscale for w in ilw_chain.waves[1:]
    ]
    monotone_mu2 = all(d1 <= d2 for d1, d2 in zip(ddevs, ddevs[1:]))

    ok = (
        smallest_c_dev <= 0.05
        and monotone_c
        and flip_res <= 1e-9
        and monotone_mu2
    )
    _report(
        capsys, 5,
        ok,
        f"smallest-|c| deviation {smallest_c_dev:.2%} (tol 5%), monotone in c: "
        f"{monotone_c}; sign-symmetry residual {flip_res:.2e} (tol 1e-9); "
        f"deviation grows as mu2 drops {[f'{v:.3g}' for v in mu2s]}: {monotone_mu2}",
    )
    assert smallest_c_dev <= 0.05
    assert monotone_c and monotone_mu2
    assert flip_res <= 1e-9


def test_criterion_06_variational_structure(p1_mu2_4, variational, capsys):
    grid = variational["grid"]
    # I(lambda) is the minimizer's energy at its constraint level
    base = variational["info"]["energy"]
    ratio_errs = []
    for tau in (0.5, 2.0, 4.0):
        energy = constrained_minimize(p1_mu2_4, 0.1, tau, grid)[2]["energy"]
        ratio_errs.append(abs(energy / base / tau ** (2.0 / 3.0) - 1.0))

    k_mult = variational["K"]
    direct, wave = variational["direct"], variational["wave"]
    rel = float(np.max(np.abs(direct.nu - wave.nu)) / np.max(np.abs(direct.nu)))

    ok = max(ratio_errs) <= 0.01 and k_mult > 0.0 and rel <= 1e-4
    _report(
        capsys, 6,
        ok,
        f"I_tau-lambda scaling err {max(ratio_errs):.2e} (tol 1e-2), K = "
        f"{k_mult:.4f} > 0, minimizer vs reduced solver {rel:.2e} (tol 1e-4)",
    )
    assert max(ratio_errs) <= 0.01
    assert k_mult > 0.0
    assert rel <= 1e-4


def test_criterion_07_kernel_oracles(p1_inf, p1_mu2_4, capsys):
    diffs = {}

    g1 = make_grid(16.0, 2**16)
    o1 = kernel_fft_oracle(kernel_symbol("K1", None, 3.0), g1)
    diffs["K1"] = max(
        abs(kernel_K1(3.0, x) - float(o1[int(round((x + g1.L) / g1.dx))]))
        for x in (0.5, 1.0, 2.0, 4.0)
    )

    g2 = make_grid(1024.0, 2**22)
    o2 = kernel_fft_oracle(kernel_symbol("K2", p1_mu2_4), g2)
    diffs["K2"] = max(
        abs(kernel_K2_quadrature(p1_mu2_4, x) - float(o2[int(round((x + g2.L) / g2.dx))]))
        for x in (1.0, 5.0, 10.0)
    )

    gk = make_grid(1024.0, 2**20)
    o3 = kernel_fft_oracle(kernel_symbol("K", p1_inf), gk)
    diffs["K"] = max(
        abs(kernel_K_quadrature(p1_inf, x) - float(o3[int(round((x + gk.L) / gk.dx))]))
        for x in (1.0, 2.0, 5.0)
    )

    g3 = make_grid(32.0, 2**21)
    o4 = kernel_fft_oracle(kernel_symbol("K3", p1_mu2_4), g3)
    diffs["K3"] = max(
        abs(kernel_K3_series(p1_mu2_4, x)[0] - float(o4[int(round((x + g3.L) / g3.dx))]))
        for x in (1.0, 2.0, 5.0)
    )

    x_far = 150.0
    kp = kernel_K_plateau(p1_inf)
    k2p = kernel_K2_plateau(p1_mu2_4)
    rec_k = x_far**2 * float(o3[int(round((x_far + gk.L) / gk.dx))])
    rec_k2 = x_far**2 * float(o2[int(round((x_far + g2.L) / g2.dx))])
    plat_err = max(abs(rec_k - kp) / abs(kp), abs(rec_k2 - k2p) / k2p)

    worst = max(diffs.values())
    ok = worst <= 1e-5 and plat_err <= 0.03
    _report(
        capsys, 7,
        ok,
        f"max |closed - oracle| {worst:.2e} (tol 1e-5) over K, K1, K2, K3; "
        f"plateau recovery at x=150 err {plat_err:.2%} (tol 3%)",
    )
    assert worst <= 1e-5, diffs
    assert plat_err <= 0.03


def test_criterion_08_decay_laws(
    p1_mu2_25, p_sharp, bo_state, bfd_inf, ilw_chain, bfd_sharp, capsys
):
    bo_fit = fit_algebraic_tail(
        bo_state["pair"].grid.x, bo_state["pair"].nu, window=(20.0, 60.0)
    )
    inf_pair = bfd_inf["pair"]
    inf_fit_nu = fit_algebraic_tail(inf_pair.grid.x, inf_pair.nu, window=(20.0, 60.0))
    inf_fit_xi = fit_algebraic_tail(inf_pair.grid.x, inf_pair.xi, window=(20.0, 60.0))
    algebraic_ok = (
        not bo_fit.flags and not inf_fit_nu.flags and not inf_fit_xi.flags
        and bo_fit.details["max_rel_deviation"] < 0.10
        and inf_fit_nu.details["max_rel_deviation"] < 0.10
        and inf_fit_xi.details["max_rel_deviation"] < 0.10
    )

    ilw_rate = compute_decay_rates(p1_mu2_25).ilw_rate
    ilw_wave = ilw_chain.waves[-1]
    ilw_fit = fit_exponential_tail(
        ilw_wave.grid.x, ilw_wave.nu, window=(10.0, 40.0), predicted=ilw_rate
    )

    sigma = compute_decay_rates(p_sharp).sigma
    sharp_pair = bfd_sharp["pair"]
    sharp_fit = fit_exponential_tail(
        sharp_pair.grid.x, sharp_pair.nu, window=(4.8, 14.4), predicted=sigma
    )
    caps_reported = (
        "resolvable_rate_cap" in ilw_fit.details
        and "resolvable_rate_cap" in sharp_fit.details
    )
    exponential_ok = (
        ilw_fit.rel_error <= 0.10 and sharp_fit.rel_error <= 0.10 and caps_reported
    )

    ok = algebraic_ok and exponential_ok
    _report(
        capsys, 8,
        ok,
        f"x^2 plateaus (BO, BFD-inf nu/xi) max deviation "
        f"{max(bo_fit.details['max_rel_deviation'], inf_fit_nu.details['max_rel_deviation'], inf_fit_xi.details['max_rel_deviation']):.2%} "
        f"(tol 10%); ILW rate {ilw_fit.measured:.5f} vs {ilw_rate:.5f} "
        f"({ilw_fit.rel_error:.2%}), sharp-point rate {sharp_fit.measured:.5f} vs "
        f"{sigma:.5f} ({sharp_fit.rel_error:.2%}) (tol 10%); caps reported: {caps_reported}",
    )
    assert algebraic_ok
    assert ilw_fit.rel_error <= 0.10
    assert sharp_fit.rel_error <= 0.10
    assert caps_reported


def test_criterion_09_evolution(p1_mu2_4, bfd_finite, capsys):
    grid = make_grid(20.0, 256)
    small = WavePair(
        grid=grid, xi=0.02 * np.exp(-grid.x**2), nu=np.zeros(grid.N)
    )
    drift_run = run("bfd_finite", p1_mu2_4, small, T=50.0, dt=0.02)
    drift_ok = (
        drift_run["status"] == "completed"
        and drift_run["h_drift_max"] <= 1e-8
        and drift_run["condH"]["satisfied"]
        and drift_run["sup_zeta_max"] <= drift_run["condH"]["alpha"]
        and drift_run["condH"]["alpha"] < drift_run["condH"]["gamma_over_eps"]
    )

    pair = bfd_finite["pair"]
    omega = bfd_finite["omega"]
    T = 0.5 * pair.grid.L / omega  # quarter of the periodic domain 2L
    wave_run = run("bfd_finite", p1_mu2_4, pair, T=T, dt=2e-3)
    shift = np.exp(-1j * pair.grid.k_half * omega * T)
    z_exact = np.fft.irfft(np.fft.rfft(pair.xi) * shift, n=pair.grid.N)
    final = wave_run["final_state"]
    rel_shape = float(np.linalg.norm(final.xi - z_exact) / np.linalg.norm(z_exact))

    init = WavePair(
        grid=grid,
        xi=0.8 * np.exp(-0.5 * grid.x**2),
        nu=0.3 * grid.x * np.exp(-0.5 * grid.x**2),
    )
    ref = run("bfd_finite", p1_mu2_4, init, T=1.0, dt=1.0 / 1024)["final_state"]
    errs = []
    for dt in (0.32, 0.08, 0.02):
        out = run("bfd_finite", p1_mu2_4, init, T=1.0, dt=dt)["final_state"]
        errs.append(float(np.max(np.abs(out.xi - ref.xi))))
    orders = [
        math.log(e1 / e2) / math.log(4.0) for e1, e2 in zip(errs, errs[1:])
    ]
    order_ok = min(orders) > 3.5

    ok = drift_ok and rel_shape <= 1e-3 and order_ok
    _report(
        capsys, 9,
        ok,
        f"H drift {drift_run['h_drift_max']:.2e} over T=50 (tol 1e-8), amplitude "
        f"bound held (sup {drift_run['sup_zeta_max']:.3g} <= alpha "
        f"{drift_run['condH']['alpha']:.3g}); travelling-wave shape err "
        f"{rel_shape:.2e} over quarter crossing (tol 1e-3); ETDRK4 orders "
        f"{[f'{o:.2f}' for o in orders]} (> 3.5)",
    )
    assert drift_ok
    assert rel_shape <= 1e-3
    assert order_ok
