"""Solitary-wave solvers: ground states, Newton polish, continuation."""

import numpy as np
import pytest

from iswaves.params import ModelParams
from iswaves.solvers import (
    ConvergenceError,
    SolverConfig,
    assemble_bo_pair,
    canonical_family,
    continue_in_mu2,
    load_branch,
    newton_solve,
    petviashvili_ground_state,
    reconstruct_xi,
    residual_norm,
    save_branch,
    solve_bfd_reduced,
    trivial_threshold,
)
from iswaves.solvers import _Reduced, _System
from iswaves.spectral import WavePair, make_grid

from conftest import P1_KW

INNER_EXITS = {"converged", "stagnated", "maxiter", "nonfinite"}


def test_canonical_family_names():
    assert canonical_family("bo") == "BO"
    assert canonical_family("ILW") == "ILW"
    assert canonical_family("bfd_finite") == "BFD_finite"
    with pytest.raises(ValueError):
        canonical_family("kdv")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(petviashvili_exponent=1.0)
    with pytest.raises(ValueError):
        SolverConfig(petviashvili_exponent=3.0)
    assert SolverConfig().petviashvili_exponent == 2.0


def test_trivial_threshold_positive(p1_inf):
    assert trivial_threshold(p1_inf) > 0.0


def test_ground_state_frozen_amplitude(bo_state):
    nu0, info = bo_state["nu0"], bo_state["info"]
    assert float(np.max(nu0.values)) == pytest.approx(13.393894896770515, rel=1e-9)
    assert info["residual"] <= 1e-10
    assert abs(info["S_minus_1"]) <= 1e-12
    # even, positive, decaying
    vals = nu0.values
    n = vals.shape[0]
    assert np.allclose(vals, vals[(n - np.arange(n)) % n], atol=1e-12)
    assert np.min(vals) >= -1e-8 * np.max(vals)
    assert np.abs(vals[0]) < 1e-3 * np.max(vals)


def test_ground_state_scaling_symmetry():
    # halving epsilon quarters the cubic coefficient and doubles the wave
    g = make_grid(50.0, 512)
    cfg = SolverConfig(tol_residual=1e-11)
    base = dict(P1_KW)
    p_full = ModelParams(mu2=np.inf, **base)
    half = dict(base, epsilon=base["epsilon"] / 2.0)
    p_half = ModelParams(mu2=np.inf, **half)
    nu_full = petviashvili_ground_state(p_full, g, cfg).values
    nu_half = petviashvili_ground_state(p_half, g, cfg).values
    assert np.max(np.abs(nu_half - 2.0 * nu_full)) / np.max(nu_half) < 1e-8


def test_lifted_pair_solves_system(p1_inf, bo_state):
    pair = bo_state["pair"]
    assert residual_norm("BO", p1_inf, 0.0, pair) <= 1e-9
    # the lift: xi = r nu^2/(1 - gamma)
    direct = assemble_bo_pair(p1_inf, bo_state["nu0"])
    assert np.max(np.abs(direct.xi - 0.1 / 0.5 * direct.nu**2)) < 1e-14


def test_newton_recovers_from_perturbation(p1_inf, bo_state, scfg):
    pair = bo_state["pair"]
    g = pair.grid
    bump = 1e-3 * np.exp(-g.x**2)
    guess = WavePair(grid=g, xi=pair.xi + bump, nu=pair.nu - bump)
    out = newton_solve("BO", p1_inf, 0.0, guess, scfg)
    assert residual_norm("BO", p1_inf, 0.0, out) <= 1e-10
    assert np.max(np.abs(out.nu - pair.nu)) < 1e-8


def test_petviashvili_failure_is_reported(p1_inf):
    g = make_grid(50.0, 512)
    cfg = SolverConfig(tol_residual=1e-13, max_iters=3)
    with pytest.raises(ConvergenceError) as exc:
        petviashvili_ground_state(p1_inf, g, cfg)
    assert exc.value.diagnostics  # carries S and residual context


def test_speed_branch_structure(p1_inf, bo_state, bo_branch):
    assert bo_branch.parameter_values == [0.0, 0.005, 0.01, 0.02]
    assert all(r <= 1e-9 for r in bo_branch.residuals)
    base = bo_state["pair"].nu
    scale = np.max(np.abs(base))
    devs = [np.max(np.abs(w.nu - base)) / scale for w in bo_branch.waves]
    assert devs[0] == 0.0
    assert devs[1] < devs[2] < devs[3]
    assert devs[1] < 0.05


def test_speed_branch_sign_symmetry(p1_inf, bo_branch):
    # flipping the velocity component gives the wave of the opposite speed
    for c, w in zip(bo_branch.parameter_values, bo_branch.waves):
        flipped = WavePair(grid=w.grid, xi=w.xi, nu=-w.nu)
        assert residual_norm("BO", p1_inf, -c, flipped) <= 1e-9


def test_depth_chain_structure(p1_mu2_25, ilw_chain):
    vals = ilw_chain.parameter_values
    assert np.isinf(vals[0])
    assert vals[1:] == [400.0, 100.0, 25.0]
    assert all(r <= 1e-9 for r in ilw_chain.residuals)
    base = ilw_chain.waves[0].nu
    scale = np.max(np.abs(base))
    devs = [np.max(np.abs(w.nu - base)) / scale for w in ilw_chain.waves[1:]]
    # deviation from the infinite-depth wave grows as mu2 shrinks
    assert devs[0] < devs[1] < devs[2]


def test_depth_chain_residuals_per_family(ilw_chain):
    # each stored wave satisfies the system it belongs to
    for mu2, w, r in zip(
        ilw_chain.parameter_values, ilw_chain.waves, ilw_chain.residuals
    ):
        kw = dict(P1_KW, mu2=mu2)
        p = ModelParams(**kw)
        fam = "BO" if np.isinf(mu2) else "ILW"
        assert residual_norm(fam, p, 0.0, w) == pytest.approx(r, rel=1e-6, abs=1e-12)


def test_bfd_finite_reduced(p1_mu2_4, bfd_finite):
    pair, info = bfd_finite["pair"], bfd_finite["info"]
    assert float(np.max(pair.nu)) == pytest.approx(7.11564672199347, rel=1e-8)
    assert info["full_residual"] <= 1e-9
    assert info["reduced_residual"] <= 1e-9
    # reconstruction consistency: xi is the second-equation inverse image
    xi2 = reconstruct_xi(p1_mu2_4, pair.grid, pair.nu, 0.1, "finite")
    assert np.max(np.abs(xi2 - pair.xi)) < 1e-10
    n = pair.grid.N
    refl = (n - np.arange(n)) % n
    assert np.allclose(pair.nu, pair.nu[refl], atol=1e-12)


def test_bfd_infinite_reduced(p1_inf, bfd_inf):
    pair, info = bfd_inf["pair"], bfd_inf["info"]
    assert float(np.max(pair.nu)) == pytest.approx(7.317108190056659, rel=1e-8)
    assert info["full_residual"] <= 1e-9
    assert residual_norm("BFD_inf", p1_inf, 0.1, pair) <= 1e-9


def test_bfd_auto_mode_dispatch(p1_mu2_4, bfd_finite, scfg):
    pair_auto = solve_bfd_reduced(
        p1_mu2_4, 0.1, "auto", scfg, grid=bfd_finite["pair"].grid
    )
    assert np.max(np.abs(pair_auto.nu - bfd_finite["pair"].nu)) < 1e-9


def test_constrained_minimizer_agrees_with_reduced(variational):
    info = variational["info"]
    assert variational["K"] > 0.0
    assert info["gradient_norm"] <= 1e-8
    assert info["constraint"] == pytest.approx(1.0, rel=1e-12)
    assert info["lagrange_misfit_rel"] < 1e-6
    direct, wave = variational["direct"], variational["wave"]
    rel = np.max(np.abs(direct.nu - wave.nu)) / np.max(np.abs(direct.nu))
    assert rel < 1e-4


def test_branch_save_load_roundtrip(tmp_path, ilw_chain):
    outdir = tmp_path / "branch"
    save_branch(ilw_chain, str(outdir), config={"note": "roundtrip"})
    back = load_branch(str(outdir))
    assert back.family == ilw_chain.family
    assert np.isinf(back.parameter_values[0])
    assert back.parameter_values[1:] == ilw_chain.parameter_values[1:]
    for a, b in zip(back.waves, ilw_chain.waves):
        assert np.allclose(a.nu, b.nu, atol=1e-15)
        assert np.allclose(a.xi, b.xi, atol=1e-15)
    assert (outdir / "schema.json").exists()


# ---------------------------------------------------------------------------
# Jacobians against central differences at converged waves
# ---------------------------------------------------------------------------


def _converged_wave(request, family):
    """(params, speed, wave) of a converged session wave of `family`."""
    if family == "BO":
        branch = request.getfixturevalue("bo_branch")
        return request.getfixturevalue("p1_inf"), branch.parameter_values[-1], branch.waves[-1]
    if family == "ILW":
        return request.getfixturevalue("p1_mu2_25"), 0.0, request.getfixturevalue("ilw_chain").waves[-1]
    if family == "BFD_finite":
        sol = request.getfixturevalue("bfd_finite")
        return request.getfixturevalue("p1_mu2_4"), sol["omega"], sol["pair"]
    sol = request.getfixturevalue("bfd_inf")
    return request.getfixturevalue("p1_inf"), sol["omega"], sol["pair"]


@pytest.mark.parametrize("family", ["BO", "ILW", "BFD_finite", "BFD_inf"])
def test_system_jacobian_matches_central_difference(request, family):
    p, speed, wave = _converged_wave(request, family)
    sys_ = _System(family, p, wave.grid, speed)
    x = wave.grid.x
    scale = np.max(np.abs(wave.nu))
    dxi = scale * np.exp(-((x - 0.5) ** 2))
    dnu = scale * np.cos(x) / np.cosh(x)
    h = 1e-3
    j1, j2 = sys_.jacobian_apply(wave.xi, wave.nu, dxi, dnu)
    p1, p2 = sys_.residual(wave.xi + h * dxi, wave.nu + h * dnu)
    m1, m2 = sys_.residual(wave.xi - h * dxi, wave.nu - h * dnu)
    fd = np.concatenate([(p1 - m1) / (2.0 * h), (p2 - m2) / (2.0 * h)])
    jv = np.concatenate([j1, j2])
    # the residual is quadratic, so the central difference is exact up to
    # roundoff
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-8


@pytest.mark.parametrize("which, mode", [("bfd_finite", "finite"), ("bfd_inf", "infinite")])
def test_reduced_jacobian_matches_central_difference(request, which, mode):
    p = request.getfixturevalue("p1_mu2_4" if mode == "finite" else "p1_inf")
    sol = request.getfixturevalue(which)
    nu = sol["pair"].nu
    red = _Reduced(p, sol["pair"].grid, sol["omega"], mode)
    x = sol["pair"].grid.x
    v = np.max(np.abs(nu)) * np.exp(-(x**2)) * np.cos(x)
    h = 1e-3
    jv = red.jacobian_apply(nu, v)
    fd = (red.residual(nu + h * v) - red.residual(nu - h * v)) / (2.0 * h)
    # O(h^2) from the cubic source: about 4e-7 here
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-5


# ---------------------------------------------------------------------------
# inner linear solves: no run to maxiter, every non-convergence reported
# ---------------------------------------------------------------------------


def _assert_inner_records_honest(records):
    assert records
    for rec in records:
        assert rec["exit"] in INNER_EXITS
        assert rec["exit"] != "maxiter"
        assert 0 < rec["matvecs"] < 1000
        assert np.isfinite(rec["relative_residual"])
        if rec["exit"] == "converged":
            assert rec["relative_residual"] <= rec["rtol"]
        else:
            assert rec["relative_residual"] > rec["rtol"]


def test_reduced_solve_inner_solves_are_honest(p1_mu2_4, scfg):
    grid = make_grid(8.0, 512)
    pair, info = solve_bfd_reduced(p1_mu2_4, 0.1, "finite", scfg, grid=grid, return_info=True)
    assert info["full_residual"] <= 1e-9
    assert len(info["inner_solves"]) >= info["newton_steps"]
    _assert_inner_records_honest(info["inner_solves"])


def test_depth_chain_inner_solves_are_honest(p1_inf, scfg, tmp_path):
    # the first steps of the mu2 continuation, in 1/sqrt(mu2), on a coarse
    # grid; the records are read back from the saved branch
    grid = make_grid(50.0, 256)
    branch = continue_in_mu2(p1_inf, 400.0, scfg, grid=grid)
    save_branch(branch, str(tmp_path))
    loaded = load_branch(str(tmp_path))
    assert not loaded.diagnostics["truncated"]
    assert max(loaded.residuals) <= scfg.tol_residual
    steps = loaded.diagnostics["steps"]
    assert steps == branch.diagnostics["steps"]
    assert len(steps) >= 2
    records = []
    for step in steps:
        assert step["parameter"] > 400.0 * (1.0 - 1e-12)
        if step["accepted"]:
            assert len(step["inner_solves"]) == step["iterations"]
        records += step["inner_solves"]
    assert steps[-1]["accepted"] and steps[-1]["parameter"] == pytest.approx(400.0)
    _assert_inner_records_honest(records)


def test_rejected_continuation_steps_keep_inner_records(p1_inf, scfg):
    # one Newton iteration per step never certifies a wave: every step is
    # rejected until the step size collapses, and each keeps its records
    grid = make_grid(50.0, 256)
    nu0 = petviashvili_ground_state(p1_inf, grid, scfg)
    start = newton_solve("BO", p1_inf, 0.0, assemble_bo_pair(p1_inf, nu0), scfg)
    one_iter = SolverConfig(tol_residual=scfg.tol_residual, max_iters=1)
    branch = continue_in_mu2(p1_inf, 400.0, one_iter, start=start)
    assert branch.diagnostics["truncated"]
    steps = branch.diagnostics["steps"]
    assert len(steps) >= 2
    for step in steps:
        assert not step["accepted"]
        assert "did not reach tol" in step["error"]
        assert len(step["inner_solves"]) == 1
    _assert_inner_records_honest([rec for step in steps for rec in step["inner_solves"]])


def test_unpinned_newton_failure_carries_inner_records(p1_mu2_4, scfg):
    # without the even projection the translation mode stalls the inner
    # solve at the converged wave, and the failure must say so
    grid = make_grid(8.0, 512)
    pair = solve_bfd_reduced(p1_mu2_4, 0.1, "finite", scfg, grid=grid)
    with pytest.raises(ConvergenceError) as exc:
        newton_solve("BFD_finite", p1_mu2_4, 0.1, pair, scfg, enforce_even=False)
    records = exc.value.diagnostics["inner_solves"]
    assert records[-1]["exit"] != "converged"
    assert records[-1]["exit"] in str(exc.value)
    _assert_inner_records_honest(records)
