"""Solitary-wave solvers: ground states, Newton polish, continuation."""

import numpy as np
import pytest

from iswaves.params import ModelParams
from iswaves.solvers import (
    ConvergenceError,
    SolverConfig,
    assemble_bo_pair,
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
from iswaves import solvers
from iswaves.solvers import _inner_solve, _newton, _petviashvili, _Reduced, _System, _scan_ratios
from iswaves.spectral import WavePair, apply_table, make_grid, symmetrize_even

from conftest import P1_KW

INNER_EXITS = {"converged", "stagnated", "maxiter", "nonfinite"}


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


def test_ground_state_iteration_count(bo_state):
    # Anderson-mixed Petviashvili; the plain iteration took 93
    assert bo_state["info"]["iterations"] <= 40


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
    xi2 = reconstruct_xi(p1_mu2_4, pair.grid, pair.nu, 0.1)
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
    # bfd_finite ends on its roundoff floor within the 10x margin; bfd_inf
    # reaches tol_residual
    info = request.getfixturevalue(which)["info"]
    assert info["polish_exit"] == exit_reason
    history = info["polish_residual_history"]
    assert len(history) == info["newton_steps"] >= 1
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] == info["reduced_residual"]


@pytest.mark.parametrize("which", ["bfd_finite", "bfd_sharp", "bfd_inf"])
def test_reduced_start_iteration_count(request, which):
    # the plain iteration took 44, 52 and 54
    assert request.getfixturevalue(which)["info"]["petviashvili_iterations"] <= 25


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
    x, d = np.stack([wave.xi, wave.nu]), np.stack([dxi, dnu])
    j1, j2 = sys_.jacobian_apply(x, d)
    p1, p2 = sys_.residual(x + h * d)
    m1, m2 = sys_.residual(x - h * d)
    fd = np.concatenate([(p1 - m1) / (2.0 * h), (p2 - m2) / (2.0 * h)])
    jv = np.concatenate([j1, j2])
    # the residual is quadratic, so the central difference is exact up to
    # roundoff
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-8


@pytest.mark.parametrize("which, depth", [("bfd_finite", "finite"), ("bfd_inf", "infinite")])
def test_reduced_jacobian_matches_central_difference(request, which, depth):
    p = request.getfixturevalue("p1_mu2_4" if depth == "finite" else "p1_inf")
    sol = request.getfixturevalue(which)
    nu = sol["pair"].nu
    red = _Reduced(p, sol["pair"].grid, sol["omega"])
    x = sol["pair"].grid.x
    v = np.max(np.abs(nu)) * np.exp(-(x**2)) * np.cos(x)
    h = 1e-3
    jv = red.linearize(nu)(v)
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
    pair, info = solve_bfd_reduced(p1_mu2_4, 0.1, scfg, grid=grid, return_info=True)
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


@pytest.mark.parametrize("family", ["BO", "ILW", "BFD_finite", "BFD_inf"])
def test_system_stacked_evaluation_matches_multiplier_formulas(request, family):
    grid = make_grid(20.0, 256)
    sys_ = _System(family, _params_of(request, family), grid, 0.03)
    xi, nu, dxi, dnu = _random_even(grid, 11, rows=4)
    r, s, og = sys_.r, sys_.speed, sys_.one_minus_gamma
    if family in ("BO", "ILW"):
        r1 = -s * apply_table(sys_.op1, xi) + apply_table(sys_.op2, nu) - 2.0 * r * xi * nu
        r2 = -s * nu + og * xi - r * nu * nu
        j1 = -s * apply_table(sys_.op1, dxi) + apply_table(sys_.op2, dnu) - 2.0 * r * (nu * dxi + xi * dnu)
        j2 = og * dxi - (s + 2.0 * r * nu) * dnu
    else:
        r1 = -s * apply_table(sys_.jb, xi) + apply_table(sys_.lt, nu) - 2.0 * r * xi * nu
        r2 = -s * apply_table(sys_.jd, nu) + og * apply_table(sys_.jc, xi) - r * nu * nu
        j1 = -s * apply_table(sys_.jb, dxi) + apply_table(sys_.lt, dnu) - 2.0 * r * (nu * dxi + xi * dnu)
        j2 = og * apply_table(sys_.jc, dxi) - s * apply_table(sys_.jd, dnu) - 2.0 * r * nu * dnu
    x, d = np.stack([xi, nu]), np.stack([dxi, dnu])
    for got, want in zip([*sys_.residual(x), *sys_.jacobian_apply(x, d)], (r1, r2, j1, j2)):
        assert _close(got, want)


@pytest.mark.parametrize("which, depth", [("p1_mu2_4", "finite"), ("p1_inf", "infinite")])
def test_reduced_stacked_evaluation_matches_multiplier_formulas(request, which, depth):
    grid = make_grid(20.0, 256)
    p = request.getfixturevalue(which)
    assert p.finite_depth == (depth == "finite")
    red = _Reduced(p, grid, 0.1)
    nu, v = _random_even(grid, 12)
    omega, r = red.omega, red.r
    source = (
        omega * r * apply_table(red.jb_jc, nu * nu)
        + 2.0 * omega * r * nu * apply_table(red.jd_jc, nu)
        + 2.0 * r * r * nu * apply_table(red.inv_jc, nu * nu)
    )
    residual = apply_table(red.mhat, nu) - source
    jac = apply_table(red.mhat, v) - (
        2.0 * omega * r * apply_table(red.jb_jc, nu * v)
        + 2.0 * omega * r * (v * apply_table(red.jd_jc, nu) + nu * apply_table(red.jd_jc, v))
        + 2.0 * r * r * (v * apply_table(red.inv_jc, nu * nu) + 2.0 * nu * apply_table(red.inv_jc, nu * v))
    )
    assert _close(red.evaluate(nu)[1], source)
    assert _close(red.residual(nu), residual)
    assert _close(red.linearize(nu)(v), jac)
    m_nu, quad, cubic = red.parts(nu)
    assert _close(m_nu, apply_table(red.mhat, nu))
    assert _close(cubic, 2.0 * r * r * nu * apply_table(red.inv_jc, nu * nu))


@pytest.mark.parametrize("family", ["BO", "ILW", "BFD_finite", "BFD_inf"])
def test_system_transform_counts(request, family, monkeypatch, fft_calls):
    grid = make_grid(20.0, 256)
    p = _params_of(request, family)
    sys_ = _System(family, p, grid, 0.03)
    xi, nu, dxi, dnu = _random_even(grid, 13, rows=4)
    x, d = np.stack([xi, nu]), np.stack([dxi, dnu])
    fft_calls["n"] = 0
    sys_.residual(x)
    assert fft_calls["n"] == 2
    fft_calls["n"] = 0
    sys_.jacobian_apply(x, d)
    assert fft_calls["n"] == 2

    # the Newton preconditioner, taken from the first inner solve
    class Captured(Exception):
        pass

    def capture(matvec, precond, rhs, rtol):
        raise Captured(precond)

    monkeypatch.setattr(solvers, "_inner_solve", capture)
    with pytest.raises(Captured) as caught:
        newton_solve(family, p, 0.03, WavePair(grid=grid, xi=xi, nu=nu))
    precond = caught.value.args[0]
    fft_calls["n"] = 0
    out = precond(np.concatenate([dxi, dnu]))
    assert fft_calls["n"] == 2
    assert out.shape == (2 * grid.N,)


def test_reduced_matvec_transform_count(p1_mu2_4, fft_calls):
    grid = make_grid(20.0, 256)
    red = _Reduced(p1_mu2_4, grid, 0.1)
    nu, v = _random_even(grid, 14)
    jac = red.linearize(nu)
    fft_calls["n"] = 0
    jac(v)
    assert fft_calls["n"] == 3


def _fft_calls_per_iteration(fft_calls, monkeypatch, solve):
    """FFT calls per iteration, averaged over iterations 3 to 9: solve(9)
    minus solve(2), over 7.  Every one of them is an Anderson-mixed step."""
    mixed = {"n": 0}
    mixing = solvers._anderson_mixing

    def counted(*args):
        mixed["n"] += 1
        return mixing(*args)

    monkeypatch.setattr(solvers, "_anderson_mixing", counted)
    counts = []
    for iters in (2, 9):
        fft_calls["n"] = mixed["n"] = 0
        with pytest.raises(ConvergenceError):
            solve(SolverConfig(tol_residual=1e-300, max_iters=iters))
        counts.append((fft_calls["n"], mixed["n"]))
    (ffts_2, mixed_2), (ffts_9, mixed_9) = counts
    assert mixed_9 - mixed_2 == 7
    return (ffts_9 - ffts_2) / 7


def test_petviashvili_iteration_transform_counts(p1_inf, p1_mu2_4, monkeypatch, fft_calls):
    grid = make_grid(50.0, 512)
    per_iter = _fft_calls_per_iteration(
        fft_calls, monkeypatch, lambda cfg: petviashvili_ground_state(p1_inf, grid, cfg)
    )
    assert 0 < per_iter <= 4

    # the reduced iteration, ended at the first polish step
    def stop(*args):
        raise ConvergenceError("stop before the polish")

    monkeypatch.setattr(solvers, "_inner_solve", stop)
    grid = make_grid(8.0, 512)
    per_iter = _fft_calls_per_iteration(
        fft_calls, monkeypatch, lambda cfg: solve_bfd_reduced(p1_mu2_4, 0.1, cfg, grid=grid)
    )
    assert 0 < per_iter <= 5


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
    red = _Reduced(p1_mu2_4, grid, 0.1)
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


def test_petviashvili_degenerate_window_stays_finite(p1_inf, bo_state, grid_bo):
    # started at a converged wave the window's differences are roundoff, or
    # exactly zero for a constant fixed point of M = G = identity
    import warnings

    cfg = SolverConfig(tol_residual=1e-300, max_iters=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="no convergence in 12") as exc:
            petviashvili_ground_state(p1_inf, grid_bo, cfg, guess=bo_state["nu0"].values)
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
    red = _Reduced(p, grid, 0.1)
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


# ---------------------------------------------------------------------------
# the shared Newton iteration
# ---------------------------------------------------------------------------


def test_newton_step_cap_counts_steps(p1_inf, bo_state, scfg):
    # tol is tested before each step: a solve that needs k steps succeeds
    # with max_iters = k + 1 and fails with k, after making the same k steps
    pair = bo_state["pair"]
    g = pair.grid
    bump = 1e-3 * np.exp(-g.x**2)
    guess = WavePair(grid=g, xi=pair.xi + bump, nu=pair.nu - bump)
    _, info = newton_solve("BO", p1_inf, 0.0, guess, scfg, return_info=True)
    k = info["iterations"]
    assert k >= 2
    enough = SolverConfig(tol_residual=scfg.tol_residual, max_iters=k + 1)
    assert newton_solve("BO", p1_inf, 0.0, guess, enough, return_info=True)[1] == info
    short = SolverConfig(tol_residual=scfg.tol_residual, max_iters=k)
    with pytest.raises(ConvergenceError, match=f"did not reach tol in {k} steps") as exc:
        newton_solve("BO", p1_inf, 0.0, guess, short)
    diag = exc.value.diagnostics
    assert diag["history"] == info["residual_history"]
    assert diag["residual"] == info["residual_history"][-1]
    assert diag["inner_solves"] == info["inner_solves"]


def test_newton_failed_search_raises_or_accepts_floor():
    # a residual that no step lowers: the line search fails at t = 1/64
    # an even iterate: cos(pi j / 4) is unchanged by the reflection j -> 8 - j
    x = np.cos(np.pi * np.arange(8) / 4.0)
    const = np.full(8, 3e-11)
    args = (
        x,
        const,
        lambda u: const,
        lambda u: (lambda d: d),
        lambda v: v,
        lambda rn: 1e-6,
        5,
        1e-11,
    )
    with pytest.raises(ConvergenceError, match="line search failed") as exc:
        _newton(*args)
    assert exc.value.diagnostics["history"] == [3e-11]
    assert [rec["exit"] for rec in exc.value.diagnostics["inner_solves"]] == ["converged"]
    # within the floor the residual is accepted as it stands
    out, r, history, inner, exit_reason = _newton(*args, floor=1e-10)
    assert exit_reason == "floor"
    assert out is x and r is const and history == [3e-11] and len(inner) == 1
    with pytest.raises(ConvergenceError, match="line search failed"):
        _newton(*args, floor=1e-11)


def test_newton_converges_on_linear_residual():
    # residual(x) = a x - b is linear: the first full step solves it; a and
    # b are even, so the solution b / a lies in the even subspace
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0])
    b = np.cos(np.pi * np.arange(8) / 4.0)
    out, r, history, inner, exit_reason = _newton(
        np.zeros(8), -b, lambda u: a * u - b, lambda u: (lambda d: a * d), lambda v: v,
        lambda rn: 1e-13, 5, 1e-11,
    )
    assert exit_reason == "converged"
    assert np.max(np.abs(out - b / a)) <= 1e-11
    assert len(history) == 2 and history[-1] == float(np.max(np.abs(r)))
    assert [rec["exit"] for rec in inner] == ["converged"]


@pytest.mark.parametrize("n", [4, 8, 10, 16])
def test_inner_solve_recovers_from_invariant_krylov_space(n):
    # lgmres returns x = 0 here: its Krylov space is invariant after one step
    b = np.linspace(-1.0, 1.0, n)
    x, rec = _inner_solve(lambda v: v, lambda v: v, b, 1e-10)
    assert rec["exit"] == "converged"
    assert rec["relative_residual"] <= 1e-10
    assert np.max(np.abs(x - b)) <= 1e-15
