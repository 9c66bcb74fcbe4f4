"""Solitary-wave solvers: the reduced equation, its iteration, continuation."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iswaves.config import load_config, params_from_config
from iswaves.params import ModelParams
from iswaves.solvers import (
    ConvergenceError,
    SolitaryBranch,
    continue_in_c,
    continue_in_mu2,
    load_branch,
    residual_norm,
    save_branch,
    solve,
    trivial_threshold,
)
from iswaves import solvers
from iswaves.solvers import _petviashvili, _Reduced, _System, _scan_ratios
from iswaves.spectral import WavePair, apply_table, make_grid, symbols, symmetrize_even

from conftest import P1_KW


def test_trivial_threshold_positive(p1_inf):
    assert trivial_threshold(p1_inf) > 0.0


def test_ground_state_frozen_amplitude(bo_state):
    vals, info = bo_state["pair"].nu, bo_state["info"]
    assert float(np.max(vals)) == pytest.approx(13.393894896770515, rel=1e-9)
    assert info["residual"] <= 1e-10
    assert abs(info["S_minus_1"]) <= 1e-12
    # even, positive, decaying
    n = vals.shape[0]
    assert np.allclose(vals, vals[(n - np.arange(n)) % n], atol=1e-12)
    assert np.min(vals) >= -1e-8 * np.max(vals)
    assert np.abs(vals[0]) < 1e-3 * np.max(vals)


def test_ground_state_iteration_count(bo_state):
    # Anderson-mixed Petviashvili; the plain iteration took 93
    assert bo_state["info"]["iterations"] <= 40


def test_ground_state_scaling_symmetry():
    # halving epsilon quarters the cubic coefficient and doubles the wave
    g = make_grid(50.0, 512)
    base = dict(P1_KW)
    p_full = ModelParams(mu2=np.inf, **base)
    half = dict(base, epsilon=base["epsilon"] / 2.0)
    p_half = ModelParams(mu2=np.inf, **half)
    nu_full = solve("BO", p_full, 0.0, grid=g)[0].nu
    nu_half = solve("BO", p_half, 0.0, grid=g)[0].nu
    assert np.max(np.abs(nu_half - 2.0 * nu_full)) / np.max(nu_half) < 1e-8


def test_lifted_pair_solves_system(p1_inf, bo_state):
    pair = bo_state["pair"]
    assert residual_norm("BO", p1_inf, 0.0, pair) == bo_state["info"]["full_residual"] <= 1e-9
    # the lift: xi = r nu^2/(1 - gamma)
    assert np.max(np.abs(pair.xi - 0.1 / 0.5 * pair.nu**2)) < 1e-14


def test_petviashvili_failure_is_reported(p1_inf, monkeypatch):
    g = make_grid(50.0, 512)
    monkeypatch.setattr(solvers, "TOL_RESIDUAL", 1e-13)
    monkeypatch.setattr(solvers, "_MAX_ITERS", 3)
    with pytest.raises(ConvergenceError) as exc:
        solve("BO", p1_inf, 0.0, grid=g)
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
    assert info["residual"] <= 1e-9
    # reconstruction consistency: xi is the second-equation inverse image
    # xi = J_c^{-1}(omega J_d nu + r nu^2)/(1 - gamma)
    sym = symbols(p1_mu2_4, pair.grid)
    rhs = 0.1 * apply_table(sym.jd, pair.nu) + p1_mu2_4.r * pair.nu**2
    xi2 = apply_table(1.0 / sym.jc, rhs) / (1.0 - p1_mu2_4.gamma)
    assert np.max(np.abs(xi2 - pair.xi)) < 1e-10
    n = pair.grid.N
    refl = (n - np.arange(n)) % n
    assert np.allclose(pair.nu, pair.nu[refl], atol=1e-12)


def test_bfd_infinite_reduced(p1_inf, bfd_inf):
    pair, info = bfd_inf["pair"], bfd_inf["info"]
    assert float(np.max(pair.nu)) == pytest.approx(7.317108190056659, rel=1e-8)
    assert info["full_residual"] <= 1e-9
    assert residual_norm("BFD_inf", p1_inf, 0.1, pair) <= 1e-9


@pytest.mark.parametrize(
    "which, exit_reason", [("bfd_finite", "floor"), ("bfd_inf", "converged")]
)
def test_reduced_polish_reports_history_and_exit(request, which, exit_reason):
    # the exits the BFD Newton polish reported are now those of the reduced
    # solve's one stop rule: bfd_finite ends on its roundoff floor within the
    # 10x margin; bfd_inf reaches TOL_RESIDUAL
    tol = solvers.TOL_RESIDUAL
    info = request.getfixturevalue(which)["info"]
    assert info["exit"] == exit_reason
    assert set(info) == {"iterations", "exit", "residual", "S_minus_1", "full_residual"}
    assert info["residual"] <= (tol if exit_reason == "converged" else 10.0 * tol)
    if exit_reason == "floor":
        assert info["residual"] > tol
        assert info["iterations"] >= solvers._STALL_ITERS
    assert abs(info["S_minus_1"]) <= 1e-9


def test_reduced_solve_inner_solves_are_honest(p1_mu2_4):
    # the record of the reduced solve is what the returned wave gives when
    # it is evaluated afresh
    tol = solvers.TOL_RESIDUAL
    grid = make_grid(8.0, 512)
    pair, info = solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
    red = _Reduced("BFD_finite", p1_mu2_4, grid, 0.1)
    m_nu, g_nu = red.evaluate(pair.nu)
    assert info["residual"] == float(np.max(np.abs(m_nu - g_nu)))
    assert info["full_residual"] == residual_norm("BFD_finite", p1_mu2_4, 0.1, pair) <= 1e-9
    assert np.array_equal(pair.xi, red.lift(pair.nu))
    assert 1 <= info["iterations"] <= solvers._MAX_ITERS
    if info["exit"] == "converged":
        assert info["residual"] <= tol
    else:
        assert info["exit"] == "floor"
        assert tol < info["residual"] <= 10.0 * tol


@pytest.mark.parametrize("tol, outcome", [(1e-12, "floor"), (1e-13, "stagnation")])
def test_stop_rule_floor_and_stagnation(p1_mu2_4, monkeypatch, tol, outcome):
    # at N = 512 the reduced residual of bfd_finite stops halving near 5e-12:
    # within 10 tol the best iterate is returned, beyond it the solve fails
    grid = make_grid(8.0, 512)
    monkeypatch.setattr(solvers, "TOL_RESIDUAL", tol)
    if outcome == "floor":
        pair, info = solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
        assert info["exit"] == "floor"
        assert tol < info["residual"] <= 10.0 * tol
        assert info["full_residual"] <= 1e-9
        assert residual_norm("BFD_finite", p1_mu2_4, 0.1, pair) == info["full_residual"]
    else:
        with pytest.raises(ConvergenceError, match="stagnation") as exc:
            solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
        assert exc.value.diagnostics["residual"] > 10.0 * tol


def test_speed_branch_negative_speeds(p1_inf):
    grid = make_grid(50.0, 512)
    branch = continue_in_c(p1_inf, [-0.02, -0.05, -0.08], grid=grid)
    assert not branch.diagnostics["truncated"]
    assert branch.parameter_values == [0.0, -0.02, -0.05, -0.08]
    assert all(r <= 1e-9 for r in branch.residuals)
    steps = branch.diagnostics["steps"]
    assert [step["accepted"] for step in steps] == [True, True, True]
    assert all(step["iterations"] <= 25 for step in steps)


@pytest.mark.parametrize("which", ["bfd_finite", "bfd_sharp", "bfd_inf"])
def test_reduced_start_iteration_count(request, which):
    # the unmixed iteration took 44, 52 and 54 to 1e-8; the floor exits of
    # bfd_finite and bfd_sharp include the stall window
    assert request.getfixturevalue(which)["info"]["iterations"] <= 25


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
        assert a.grid == b.grid
        assert np.array_equal(a.nu, b.nu) and np.array_equal(a.xi, b.xi)
    assert (outdir / "schema.json").exists()


@pytest.mark.parametrize("which", ["bo_branch", "bfd_finite"])
def test_branch_samples_are_binary_and_bit_exact(request, tmp_path, which):
    # a BO branch at N = 4096 and a BFD wave come back bit for bit, on the
    # same Grid(L, N); each sample is one C-ordered float64 (3, N) array with
    # rows x, xi, nu
    if which == "bo_branch":
        branch = request.getfixturevalue("bo_branch")
        assert branch.waves[0].grid.N == 4096
    else:
        sol = request.getfixturevalue("bfd_finite")
        info = sol["info"]
        branch = SolitaryBranch("BFD_finite", [sol["omega"]], [sol["pair"]], [info["full_residual"]])
    save_branch(branch, str(tmp_path))
    back = load_branch(str(tmp_path))
    assert len(back.waves) == len(branch.waves)
    for a, b in zip(back.waves, branch.waves):
        assert a.grid == b.grid
        assert np.array_equal(a.xi, b.xi) and np.array_equal(a.nu, b.nu)
    listed = json.loads((tmp_path / "branch.json").read_text())["samples"]
    assert listed == [f"sample_{i:03d}.npy" for i in range(len(branch.waves))]
    assert not list(tmp_path.glob("*.csv"))
    for name, wave in zip(listed, branch.waves):
        data = np.load(tmp_path / name, allow_pickle=False)
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert data.shape == (3, wave.grid.N)
        assert np.array_equal(data, np.stack([wave.grid.x, wave.xi, wave.nu]))


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize(
    "stored, config, family",
    [("bo_branch", "c_branch", "BO"), ("bfd_finite_wave", "bfd_finite", "BFD_finite")],
)
def test_stored_csv_branches_still_load_and_certify(stored, config, family):
    # branches whose samples are CSV text load through the same load_branch,
    # every sample certifies at 1e-9, and reading writes nothing
    outdir = BENCH / "inputs" / stored
    before = {path.name: path.read_bytes() for path in outdir.iterdir()}
    listed = json.loads(before["branch.json"])["samples"]
    assert listed and all(name.endswith(".csv") for name in listed)
    branch = load_branch(str(outdir))
    p = params_from_config(load_config(str(BENCH / "configs" / f"{config}.cfg")))
    assert len(branch.waves) == len(listed)
    for speed, wave in zip(branch.parameter_values, branch.waves):
        assert residual_norm(family, p, speed, wave) <= 1e-9
    assert {path.name: path.read_bytes() for path in outdir.iterdir()} == before


# ---------------------------------------------------------------------------
# the reduced equation against the two-field systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [0.0, 0.01, -0.01])
@pytest.mark.parametrize("family", ["BO", "ILW"])
def test_one_layer_reduced_residual_is_system_row_one(request, family, c):
    # with xi = (c nu + r nu^2)/(1 - gamma) the second equation holds and
    # the first is M_c nu - G(nu)
    grid = make_grid(20.0, 256)
    p = _params_of(request, family)
    nu = _random_even(grid, 21, rows=1)[0]
    red = _Reduced(family, p, grid, c)
    m_nu, g_nu = red.evaluate(nu)
    row1, row2 = _System(family, p, grid, c).residual(np.stack([red.lift(nu), nu]))
    scale = np.max(np.abs(m_nu))
    assert np.max(np.abs((m_nu - g_nu) - row1)) <= 1e-14 * scale
    assert np.max(np.abs(row2)) <= 1e-14 * scale


def test_nonpositive_stabilizing_factor_fails_fast(p1_mu2_4, capfd):
    # a negative start makes <G(nu), nu> < 0: S < 0, and S^q with q = 3/2
    # would be NaN
    grid = make_grid(8.0, 512)
    red = _Reduced("BFD_finite", p1_mu2_4, grid, 0.1)
    guess = -0.05 / np.cosh(grid.x) ** 2
    with pytest.raises(ConvergenceError, match="iterate 0: stabilizing factor S = -") as exc:
        solvers._solve(red, guess)
    diag = exc.value.diagnostics
    assert diag["iteration"] == 0 and diag["S"] < 0.0 and np.isfinite(diag["residual"])
    assert capfd.readouterr() == ("", "")
    # a non-finite start is refused the same way, before anything is mixed
    guess = np.full(grid.N, np.nan)
    with pytest.raises(ConvergenceError, match="iterate 0") as exc:
        solvers._solve(red, guess)
    assert not np.isfinite(exc.value.diagnostics["residual"])
    assert capfd.readouterr() == ("", "")


def test_reduced_symbol_must_be_positive(p1_inf):
    # M_c = op2 - c^2 op1/(1 - gamma) > 0 needs c^2 < (1 - gamma) min op2/op1,
    # here about 1/2
    grid = make_grid(50.0, 256)
    with pytest.raises(ConvergenceError, match="non-positive values"):
        _Reduced("BO", p1_inf, grid, 0.75)
    assert np.min(_Reduced("BO", p1_inf, grid, 0.7).mhat) > 0.0


def test_continuation_truncates_where_the_symbol_turns(p1_inf):
    # the milestone 0.75 lies past the speed where M_c stays positive: the
    # loop bisects back toward the last solved speed and ends there
    grid = make_grid(50.0, 256)
    branch = continue_in_c(p1_inf, [0.01, 0.75], grid=grid)
    diag = branch.diagnostics
    assert diag["truncated"]
    assert branch.parameter_values == [0.0, 0.01]
    assert all(r <= 1e-9 for r in branch.residuals)
    steps = diag["steps"]
    assert steps[0]["accepted"] and steps[0]["parameter"] == 0.01
    failed = [step for step in steps if not step["accepted"]]
    assert failed[0]["parameter"] == 0.75
    solved = [step["parameter"] for step in steps if step["accepted"]]
    assert diag["endpoint_estimate"] == solved[-1]
    assert 0.01 <= diag["endpoint_estimate"] < 0.75
    # the endpoint is resolved to _MIN_STEP: a failure lies within it
    assert any(0.0 < step["parameter"] - solved[-1] <= solvers._MIN_STEP for step in failed)


def test_depth_chain_inner_solves_are_honest(p1_inf, tmp_path):
    # the mu2 continuation in 1/sqrt(mu2) on a coarse grid, each milestone
    # solved from the last; the records are read back from the saved branch
    # and each one is what a fresh solve of its milestone reports
    grid = make_grid(50.0, 256)
    branch = continue_in_mu2(p1_inf, [400.0, 100.0], grid=grid)
    save_branch(branch, str(tmp_path))
    loaded = load_branch(str(tmp_path))
    assert not loaded.diagnostics["truncated"]
    assert max(loaded.residuals) <= solvers.TOL_RESIDUAL
    assert loaded.diagnostics == branch.diagnostics
    assert set(branch.diagnostics["start"]) == {"iterations", "exit"}
    steps = loaded.diagnostics["steps"]
    # each milestone is solved and labelled at the mu2 given, not at 1/t^2
    assert [step["parameter"] for step in steps] == [400.0, 100.0]
    for step, before, after in zip(steps, branch.waves, branch.waves[1:]):
        assert step["accepted"] and step["exit"] in ("converged", "floor")
        assert 1 <= step["iterations"] <= 25
        red = _Reduced("ILW", replace(p1_inf, mu2=step["parameter"]), grid, 0.0)
        pair, info = solvers._solve(red, before.nu)
        assert (info["iterations"], info["exit"]) == (step["iterations"], step["exit"])
        assert np.array_equal(pair.nu, after.nu)


@pytest.mark.parametrize("family, speed", [("BO", 0.0), ("BO", 0.01), ("ILW", 0.0)])
def test_solve_returns_the_wave_the_continuations_store(p1_inf, family, speed):
    # solve reaches a one-layer wave along the public continuations' path:
    # the same wave bit for bit, its certificate, and the iterations of every
    # accepted solve on the way, from the ground state on
    grid = make_grid(50.0, 256)
    if family == "BO":
        p = p1_inf
        branch = continue_in_c(p, [speed] if speed else [], grid=grid)
    else:
        p = replace(p1_inf, mu2=25.0)
        branch = continue_in_mu2(p, [25.0], grid=grid)
    pair, info = solve(family, p, speed, grid=grid)
    stored = branch.waves[-1]
    assert pair.grid == stored.grid
    assert np.array_equal(pair.nu, stored.nu) and np.array_equal(pair.xi, stored.xi)
    assert set(info) == {"iterations", "exit", "residual", "S_minus_1", "full_residual"}
    assert info["full_residual"] == branch.residuals[-1]
    diag = branch.diagnostics
    solves = [diag["start"]] + [step for step in diag["steps"] if step["accepted"]]
    assert len(solves) == (2 if speed or family == "ILW" else 1)
    assert info["iterations"] == sum(step["iterations"] for step in solves)
    assert info["exit"] == solves[-1]["exit"]


def test_rejected_continuation_steps_keep_inner_records(p1_inf, monkeypatch):
    # one iteration per solve never certifies a wave: every solve is
    # rejected, keeps the error of its solve, and the loop bisects toward
    # mu2 = inf until _MIN_STEP; the ground state it starts from is solved
    # with the default iteration cap
    grid = make_grid(50.0, 256)
    start = solvers._bo_start(p1_inf, grid)
    monkeypatch.setattr(solvers, "_bo_start", lambda p, grid: start)
    monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
    branch = continue_in_mu2(p1_inf, [400.0], grid=grid)
    assert branch.diagnostics["truncated"]
    assert branch.diagnostics["sigma_estimate"] == np.inf
    assert branch.diagnostics["start"] == {k: start[1][k] for k in ("iterations", "exit")}
    steps = branch.diagnostics["steps"]
    assert len(steps) >= 2
    for step in steps:
        assert not step["accepted"]
        assert "no convergence in 1 iterations" in step["error"]
    ts = [1.0 / np.sqrt(step["parameter"]) for step in steps]
    assert ts == pytest.approx([0.05 / 2**i for i in range(len(steps))])
    assert ts[-1] <= solvers._MIN_STEP < ts[-2]


# ---------------------------------------------------------------------------
# Jacobians, written out from the multiplier formulas, against central
# differences of the residuals at converged waves
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
    sym = symbols(p, wave.grid)
    r, s, og = p.r, speed, 1.0 - p.gamma
    x = wave.grid.x
    xi, nu = wave.xi, wave.nu
    scale = np.max(np.abs(nu))
    dxi = scale * np.exp(-((x - 0.5) ** 2))
    dnu = scale * np.cos(x) / np.cosh(x)
    nonlinear = 2.0 * r * (nu * dxi + xi * dnu)
    if family in ("BO", "ILW"):
        j1 = -s * apply_table(sym.op1, dxi) + apply_table(sym.op2, dnu) - nonlinear
        j2 = og * dxi - (s + 2.0 * r * nu) * dnu
    else:
        j1 = -s * apply_table(sym.jb, dxi) + apply_table(sym.L, dnu) - nonlinear
        j2 = og * apply_table(sym.jc, dxi) - s * apply_table(sym.jd, dnu) - 2.0 * r * nu * dnu
    h = 1e-3
    w, d = np.stack([xi, nu]), np.stack([dxi, dnu])
    p1, p2 = sys_.residual(w + h * d)
    m1, m2 = sys_.residual(w - h * d)
    fd = np.concatenate([(p1 - m1) / (2.0 * h), (p2 - m2) / (2.0 * h)])
    jv = np.concatenate([j1, j2])
    # the residual is quadratic, so the central difference is exact up to
    # roundoff
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-8


@pytest.mark.parametrize("which, depth", [("bfd_finite", "finite"), ("bfd_inf", "infinite")])
def test_reduced_jacobian_matches_central_difference(request, which, depth):
    p = request.getfixturevalue("p1_mu2_4" if depth == "finite" else "p1_inf")
    sol = request.getfixturevalue(which)
    grid, nu, omega, r = sol["pair"].grid, sol["pair"].nu, sol["omega"], p.r
    red = _Reduced("BFD_finite" if depth == "finite" else "BFD_inf", p, grid, omega)
    sym = symbols(p, grid)
    mhat = (1.0 - p.gamma) * sym.L - omega**2 * sym.jb * sym.jd / sym.jc
    x = grid.x
    v = np.max(np.abs(nu)) * np.exp(-(x**2)) * np.cos(x)
    jv = (
        apply_table(mhat, v)
        - 2.0 * omega * r * apply_table(sym.jb / sym.jc, nu * v)
        - 2.0 * omega * r * v * apply_table(sym.jd / sym.jc, nu)
        - 2.0 * omega * r * nu * apply_table(sym.jd / sym.jc, v)
        - 2.0 * r * r * v * apply_table(1.0 / sym.jc, nu * nu)
        - 4.0 * r * r * nu * apply_table(1.0 / sym.jc, nu * v)
    )

    def residual(u):
        m_u, g_u = red.evaluate(u)
        return m_u - g_u

    h = 1e-3
    fd = (residual(nu + h * v) - residual(nu - h * v)) / (2.0 * h)
    # O(h^2) from the cubic source: about 4e-7 here
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-5


# ---------------------------------------------------------------------------
# transform economy: stacked evaluations against per-multiplier formulas,
# transform counts, the closed-form amplitude scan
# ---------------------------------------------------------------------------


def _params_of(request, family):
    return request.getfixturevalue("p1_inf" if family in ("BO", "BFD_inf") else "p1_mu2_4")


def _random_even(grid, seed, rows=2):
    """Smooth random even fields of unit size."""
    rng = np.random.default_rng(seed)
    m = grid.N // 2 + 1
    coef = rng.standard_normal((rows, m)) * np.exp(-0.05 * np.arange(m))
    return symmetrize_even(np.fft.irfft(coef, n=grid.N, axis=-1) * grid.N / 10.0)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize(
    "family, d",
    [pytest.param(f, None, id=f) for f in ("BO", "ILW", "BFD_finite", "BFD_inf")]
    + [pytest.param("BFD_inf", 0.3, id="BFD_inf-d_ne_b")],
)
def test_system_stacked_evaluation_matches_multiplier_formulas(request, family, d):
    # with d != b at infinite depth the second equation reads J_d, the table
    # the evolution integrates, not J_b
    grid = make_grid(20.0, 256)
    p = _params_of(request, family)
    if d is not None:
        p = replace(p, d=d)
    sys_ = _System(family, p, grid, 0.03)
    sym = symbols(p, grid)
    xi, nu = _random_even(grid, 11)
    r, s, og = p.r, 0.03, 1.0 - p.gamma
    if family in ("BO", "ILW"):
        r1 = -s * apply_table(sym.op1, xi) + apply_table(sym.op2, nu) - 2.0 * r * xi * nu
        r2 = -s * nu + og * xi - r * nu * nu
    else:
        r1 = -s * apply_table(sym.jb, xi) + apply_table(sym.L, nu) - 2.0 * r * xi * nu
        r2 = -s * apply_table(sym.jd, nu) + og * apply_table(sym.jc, xi) - r * nu * nu
    for got, want in zip(sys_.residual(np.stack([xi, nu])), (r1, r2)):
        assert _close(got, want)


@pytest.mark.parametrize("which, depth", [("p1_mu2_4", "finite"), ("p1_inf", "infinite")])
def test_reduced_stacked_evaluation_matches_multiplier_formulas(request, which, depth):
    grid = make_grid(20.0, 256)
    p = request.getfixturevalue(which)
    assert p.finite_depth == (depth == "finite")
    red = _Reduced("BFD_finite" if depth == "finite" else "BFD_inf", p, grid, 0.1)
    sym = symbols(p, grid)
    nu = _random_even(grid, 12, rows=1)[0]
    omega, r = 0.1, p.r
    mhat = (1.0 - p.gamma) * sym.L - omega**2 * sym.jb * sym.jd / sym.jc
    quad = omega * r * apply_table(sym.jb / sym.jc, nu * nu) + 2.0 * omega * r * nu * apply_table(
        sym.jd / sym.jc, nu
    )
    cubic = 2.0 * r * r * nu * apply_table(1.0 / sym.jc, nu * nu)
    m_nu, q_nu, c_nu = red.parts(nu)
    assert _close(m_nu, apply_table(mhat, nu))
    assert _close(q_nu, quad)
    assert _close(c_nu, cubic)
    assert _close(red.evaluate(nu)[1], quad + cubic)


@pytest.mark.parametrize("family", ["BO", "ILW", "BFD_finite", "BFD_inf"])
def test_system_transform_counts(request, family, fft_calls):
    grid = make_grid(20.0, 256)
    sys_ = _System(family, _params_of(request, family), grid, 0.03)
    x = _random_even(grid, 13)
    fft_calls["n"] = 0
    sys_.residual(x)
    assert fft_calls["n"] == 2


@pytest.mark.parametrize("c", [0.0, 0.01])
@pytest.mark.parametrize(
    "family, calls", [("BO", 0), ("ILW", 0), ("BFD_finite", 2), ("BFD_inf", 2)]
)
def test_lift_transform_counts(request, family, c, calls, fft_calls):
    # the lift reads its own rows 1/S2 nu^2 and c T2/S2 nu: scalars for BO
    # and ILW, so no transform, one stacked rfft/irfft pair for BFD; the
    # result is the one the whole row plan gives, bit for bit
    grid = make_grid(20.0, 256)
    red = _Reduced(family, _params_of(request, family), grid, c)
    nu = _random_even(grid, 5, rows=1)[0]
    fft_calls["n"] = 0
    xi = red.lift(nu)
    assert fft_calls["n"] == calls
    _, inv_sq, *c_rows = red._plan((nu * nu, nu))
    whole = red.p.r * inv_sq
    assert np.array_equal(xi, symmetrize_even(c * c_rows[1] + whole if c_rows else whole))


def test_one_layer_solve_transform_count(p1_inf, fft_calls):
    # the start's parts and evaluation (2 each), four per iteration and the
    # certificate (2); the lift adds none (it made 2 while it evaluated the
    # whole row plan)
    grid = make_grid(50.0, 512)
    fft_calls["n"] = 0
    _, info = solve("BO", p1_inf, 0.0, grid=grid)
    assert fft_calls["n"] == 4 * info["iterations"] + 6


def _fft_calls_per_iteration(fft_calls, monkeypatch, solve):
    """FFT calls per iteration, averaged over iterations 3 to 9: solve() with
    an iteration cap of 9 minus with one of 2, over 7, at a tolerance no
    iterate reaches.  Every one of them is an Anderson-mixed step."""
    mixed = {"n": 0}
    mixing = solvers._anderson_mixing

    def counted(*args):
        mixed["n"] += 1
        return mixing(*args)

    monkeypatch.setattr(solvers, "_anderson_mixing", counted)
    monkeypatch.setattr(solvers, "TOL_RESIDUAL", 1e-300)
    counts = []
    for iters in (2, 9):
        monkeypatch.setattr(solvers, "_MAX_ITERS", iters)
        fft_calls["n"] = mixed["n"] = 0
        with pytest.raises(ConvergenceError):
            solve()
        counts.append((fft_calls["n"], mixed["n"]))
    (ffts_2, mixed_2), (ffts_9, mixed_9) = counts
    assert mixed_9 - mixed_2 == 7
    return (ffts_9 - ffts_2) / 7


def test_petviashvili_iteration_transform_counts(p1_inf, p1_mu2_4, monkeypatch, fft_calls):
    # every iteration: one stacked rfft and one stacked irfft of the
    # equation's rows, and the rfft/irfft pair of M^-1
    grid = make_grid(50.0, 512)
    # solved before the helper caps the iterations
    nu0 = solve("BO", p1_inf, 0.0, grid=grid)[0].nu
    per_iter = _fft_calls_per_iteration(
        fft_calls, monkeypatch, lambda: solve("BO", p1_inf, 0.0, grid=grid)
    )
    assert per_iter == 4

    # the one-layer equation away from c = 0, from the ground state
    per_iter = _fft_calls_per_iteration(
        fft_calls, monkeypatch, lambda: solvers._solve(_Reduced("BO", p1_inf, grid, 0.01), nu0)
    )
    assert per_iter == 4

    grid = make_grid(8.0, 512)
    per_iter = _fft_calls_per_iteration(
        fft_calls, monkeypatch, lambda: solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
    )
    assert per_iter == 4


def _plain_petviashvili(evaluate, inv_m, nu, q, dx, iters):
    """The unaccelerated iteration nu <- even(S^q M^{-1} G(nu)), written out."""
    out = []
    for _ in range(iters):
        m_nu, g_nu = evaluate(nu)
        s_val = dx * np.dot(nu, m_nu) / (dx * np.dot(nu, g_nu))
        nu = symmetrize_even(s_val**q * apply_table(inv_m, g_nu))
        out.append(nu)
    return out


def test_petviashvili_guard_keeps_the_plain_iterate(p1_mu2_4, monkeypatch):
    # a fit the guard refuses leaves the plain iteration, bit for bit
    grid = make_grid(8.0, 256)
    red = _Reduced("BFD_finite", p1_mu2_4, grid, 0.1)
    nu0 = 3.0 * trivial_threshold(p1_mu2_4) * 1e3 / np.cosh(grid.x) ** 2
    args = (red.evaluate, 1.0 / red.mhat, nu0, 2.0, grid.dx)
    monkeypatch.setattr(solvers, "_anderson_mixing", lambda d_res, res: None)
    mixed = [nu for _, (nu, _, _) in zip(range(8), _petviashvili(*args))]
    plain = _plain_petviashvili(*args, iters=8)
    assert all(np.array_equal(a, b) for a, b in zip(mixed, plain))
    monkeypatch.undo()
    accelerated = [nu for _, (nu, _, _) in zip(range(8), _petviashvili(*args))]
    assert np.array_equal(accelerated[0], plain[0])
    assert not np.array_equal(accelerated[1], plain[1])
    assert all(np.array_equal(nu, nu[grid.reflect_indices()]) for nu in accelerated)

    # a refused fit restarts the window from the plain iterate
    rows = []
    mixing = solvers._anderson_mixing

    def refuse_third(d_res, res):
        rows.append(d_res.shape[0])
        return None if len(rows) == 3 else mixing(d_res, res)

    monkeypatch.setattr(solvers, "_anderson_mixing", refuse_third)
    for _ in zip(range(10), _petviashvili(*args)):
        pass
    assert rows == [1, 2, 3, 1, 2, 3, 4, 5]


def test_petviashvili_guard_refuses_bad_fits():
    d_res = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(solvers._anderson_mixing(d_res, np.array([2.0, 3.0, 0.0])), [2.0, 3.0])
    assert solvers._anderson_mixing(1e-20 * d_res, np.array([1.0, 1.0, 0.0])) is None
    assert solvers._anderson_mixing(d_res, np.array([np.nan, 1.0, 0.0])) is None


def test_petviashvili_degenerate_window_stays_finite(p1_inf, bo_state, grid_bo, monkeypatch):
    # started at a converged wave the window's differences are roundoff, or
    # exactly zero for a constant fixed point of M = G = identity
    import warnings

    monkeypatch.setattr(solvers, "TOL_RESIDUAL", 1e-300)
    monkeypatch.setattr(solvers, "_MAX_ITERS", 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="no convergence in 12") as exc:
            solvers._solve(_Reduced("BO", p1_inf, grid_bo, 0.0), bo_state["pair"].nu)
        assert exc.value.diagnostics["residual"] <= 1e-10
        assert abs(exc.value.diagnostics["S"] - 1.0) <= 1e-12
        ones = np.ones(8)
        iterates = _petviashvili(lambda u: (u, u), np.ones(5), ones, 1.5, 0.1)
        for _, (nu, s_val, resid) in zip(range(12), iterates):
            assert np.array_equal(nu, ones) and s_val == 1.0 and not np.any(resid)


@pytest.mark.parametrize(
    "which, L, n, depth",
    [
        ("p1_mu2_4", 8.0, 2048, "finite"),
        ("p_sharp", 16.0, 2048, "finite"),
        ("p1_inf", 200.0, 4096, "infinite"),
    ],
)
def test_closed_form_scan_matches_direct_ratios(request, which, L, n, depth):
    # the bfd_finite, bfd_sharp and bfd_inf fixture problems
    p = request.getfixturevalue(which)
    assert p.finite_depth == (depth == "finite")
    grid = make_grid(L, n)
    red = _Reduced("BFD_finite" if depth == "finite" else "BFD_inf", p, grid, 0.1)
    shape = 1.0 / np.cosh(grid.x) ** 2
    amps = np.geomspace(0.02, 200.0, 241) * trivial_threshold(p) * 1e3
    direct = np.full(amps.shape, np.nan)
    for i, amp in enumerate(amps):
        nu = amp * shape
        den = grid.dx * np.dot(red.evaluate(nu)[1], nu)
        if den > 0.0:
            direct[i] = grid.dx * np.dot(nu, apply_table(red.mhat, nu)) / den
    closed = _scan_ratios(red, shape, grid.dx, amps)
    assert np.array_equal(np.isnan(closed), np.isnan(direct))
    assert np.isfinite(direct).any()
    ok = np.isfinite(direct)
    assert np.max(np.abs(closed[ok] - direct[ok]) / np.abs(direct[ok])) <= 1e-12
    # first minimizer of |S - 1|, as the solver's tie rule picks it
    assert np.nanargmin(np.abs(closed - 1.0)) == np.nanargmin(np.abs(direct - 1.0))
