"""Time integration: steppers, conservation, the small-data criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswaves import evolution
from iswaves.evolution import (
    AmplitudeBoundError,
    check_global_criterion,
    make_stepper,
    rhs,
    run,
    step,
    suggest_dt,
)
from iswaves.functionals import hamiltonian_H
from iswaves.params import ModelParams
from iswaves.spectral import WavePair, make_grid

from conftest import P1_KW


def _gaussian_pair(grid, amp_z=0.8, amp_v=0.3):
    z = amp_z * np.exp(-0.5 * grid.x**2)
    v = amp_v * grid.x * np.exp(-0.5 * grid.x**2)
    return WavePair(grid=grid, xi=z, nu=v)


@pytest.fixture(scope="module")
def evo_grid():
    return make_grid(20.0, 256)


def test_suggest_dt_sanity(p1_mu2_4, evo_grid):
    dt = suggest_dt("bfd_finite", p1_mu2_4, evo_grid)
    assert dt > 0.0
    finer = make_grid(20.0, 512)
    assert suggest_dt("bfd_finite", p1_mu2_4, finer) < dt
    assert suggest_dt(
        "bfd_finite", p1_mu2_4, evo_grid, max_phase=math.pi / 2.0
    ) == pytest.approx(2.0 * dt)


def test_rhs_zero_mean(p1_mu2_4, evo_grid):
    state = _gaussian_pair(evo_grid)
    out = rhs("bfd_finite", p1_mu2_4, state)
    assert abs(np.sum(out.xi) * evo_grid.dx) < 1e-13
    assert abs(np.sum(out.nu) * evo_grid.dx) < 1e-13


def test_rhs_linear_structure(p1_mu2_4, evo_grid):
    # with nu = 0 the linearized first equation is quiescent
    state = WavePair(grid=evo_grid, xi=np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N))
    out = rhs("bfd_finite", p1_mu2_4, state, linear_only=True)
    assert np.max(np.abs(out.xi)) == 0.0
    assert np.max(np.abs(out.nu)) > 0.0


def test_step_matches_run(p1_mu2_4, evo_grid):
    state = _gaussian_pair(evo_grid)
    dt = 0.01
    one = step("etdrk4", "bfd_finite", p1_mu2_4, state, dt)
    out = run("bfd_finite", p1_mu2_4, state, T=dt, dt=dt)
    final = out["final_state"]
    assert out["steps"] == 1
    assert np.max(np.abs(final.xi - one.xi)) < 1e-14
    assert np.max(np.abs(final.nu - one.nu)) < 1e-14


def test_make_stepper_validation(p1_mu2_4, evo_grid):
    with pytest.raises(ValueError):
        make_stepper("rk4", "bfd_finite", p1_mu2_4, evo_grid, 0.01)
    with pytest.raises(ValueError):
        make_stepper("etdrk4", "bfd_finite", p1_mu2_4, evo_grid, -0.1)
    # c > 0 flips the sign of 1 - mu c k^2 at high modes: the characteristic
    # split loses positivity and the stepper refuses
    bad_kw = dict(P1_KW, mu2=4.0, c=1.0 / 12.0, a=-1.0 / 4.0)
    with pytest.raises(ValueError, match="positive symbol quotients"):
        make_stepper("etdrk4", "bfd_finite", ModelParams(**bad_kw), evo_grid, 0.01)


def _self_convergence(integrator, p, grid, dts, ref_dt, T=1.0):
    init = _gaussian_pair(grid)
    ref = run("bfd_finite", p, init, T=T, dt=ref_dt, integrator=integrator)["final_state"]
    errs = []
    for dt in dts:
        out = run("bfd_finite", p, init, T=T, dt=dt, integrator=integrator)["final_state"]
        errs.append(float(np.max(np.abs(out.xi - ref.xi))))
    return errs


def test_etdrk4_fourth_order(p1_mu2_4, evo_grid):
    errs = _self_convergence("etdrk4", p1_mu2_4, evo_grid, [0.32, 0.08, 0.02], 1.0 / 1024)
    order_a = math.log(errs[0] / errs[1]) / math.log(4.0)
    order_b = math.log(errs[1] / errs[2]) / math.log(4.0)
    assert order_a > 3.5
    assert order_b > 3.5


def test_imex_second_order(p1_mu2_4, evo_grid):
    errs = _self_convergence("imex", p1_mu2_4, evo_grid, [0.08, 0.04, 0.02], 1.0 / 1024)
    order_a = math.log2(errs[0] / errs[1])
    order_b = math.log2(errs[1] / errs[2])
    assert 1.6 < order_a < 2.4
    assert 1.6 < order_b < 2.4


def test_integrators_agree(p1_mu2_4, evo_grid):
    init = _gaussian_pair(evo_grid)
    a = run("bfd_finite", p1_mu2_4, init, T=1.0, dt=0.01, integrator="etdrk4")["final_state"]
    b = run("bfd_finite", p1_mu2_4, init, T=1.0, dt=0.01, integrator="imex")["final_state"]
    assert np.max(np.abs(a.xi - b.xi)) < 5e-4


def test_linear_flow_exact(p1_mu2_4, evo_grid):
    # in characteristic variables the linear flow is diagonal; ETDRK4 must
    # reproduce the analytic propagator to roundoff
    from iswaves.evolution import _system_tables

    init = _gaussian_pair(evo_grid)
    T = 1.0
    out = run("bfd_finite", p1_mu2_4, init, T=T, dt=0.25, linear_only=True)["final_state"]

    t1, s1, t2, s2 = _system_tables("bfd_finite", p1_mu2_4, evo_grid)
    pfac = np.sqrt((s1 / t1) / (s2 / t2))
    lam = 1j * evo_grid.k_half * np.sqrt((s1 / t1) * (s2 / t2))
    zh = np.fft.rfft(init.xi)
    vh = np.fft.rfft(init.nu)
    qp = (zh + pfac * vh) * np.exp(-lam * T)
    qm = (zh - pfac * vh) * np.exp(lam * T)
    z_exact = np.fft.irfft(0.5 * (qp + qm), n=evo_grid.N)
    scale = np.max(np.abs(z_exact))
    assert np.max(np.abs(out.xi - z_exact)) / scale < 1e-13


def test_global_criterion_satisfied(p1_mu2_4, evo_grid):
    small = WavePair(
        grid=evo_grid, xi=0.02 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N)
    )
    rep = check_global_criterion(p1_mu2_4, small)
    assert rep["applicable"] and rep["satisfied"]
    assert rep["degenerate"] is False
    assert rep["alpha"] < rep["gamma_over_eps"]
    assert abs(rep["h_value"]) < rep["threshold"]
    assert rep["inf_one_minus"] > 0.0


def test_global_criterion_structure_gates(evo_grid):
    small = WavePair(
        grid=evo_grid, xi=0.02 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N)
    )
    kw = dict(P1_KW, mu2=4.0)

    uneq = dict(kw, b=0.3)
    rep = check_global_criterion(ModelParams(**uneq), small)
    assert not rep["applicable"]
    assert any("b = d" in n for n in rep["notes"])

    pos_c = dict(kw, c=1.0 / 12.0, a=-1.0 / 6.0)
    rep = check_global_criterion(ModelParams(**pos_c), small)
    assert not rep["applicable"]
    assert any("c < 0" in n for n in rep["notes"])

    pos_a = dict(kw, a=1.0 / 12.0, c=-1.0 / 6.0)
    rep = check_global_criterion(ModelParams(**pos_a), small)
    assert not rep["applicable"]
    assert any("a <= 0" in n for n in rep["notes"])

    degen = dict(kw, a=0.0, c=-1.0 / 6.0)
    rep = check_global_criterion(ModelParams(**degen), small)
    assert rep["applicable"] and rep["degenerate"]
    assert any("degenerate" in n for n in rep["notes"])


def test_global_criterion_large_amplitude(p1_mu2_4, evo_grid):
    big = WavePair(
        grid=evo_grid, xi=6.0 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N)
    )
    rep = check_global_criterion(p1_mu2_4, big)
    assert rep["applicable"]
    assert not rep["satisfied"]
    assert rep["inf_one_minus"] < 0.0


def test_one_layer_families_smoke(p1_mu2_4, p1_inf):
    grid = make_grid(20.0, 128)
    init = WavePair(grid=grid, xi=0.1 * np.exp(-grid.x**2), nu=np.zeros(grid.N))
    for family, p in (("BO", p1_inf), ("ILW", p1_mu2_4)):
        out = run(family, p, init, T=1.0, dt=0.01)
        assert out["status"] == "completed"
        assert out["mass_drift_zeta"] < 1e-12
        assert out["mass_drift_v"] < 1e-12
        assert out["condH"] is None
        assert "h_drift_max" not in out


def test_hamiltonian_drift_and_monitors(p1_mu2_4, tmp_path):
    grid = make_grid(20.0, 256)
    init = WavePair(grid=grid, xi=0.02 * np.exp(-grid.x**2), nu=np.zeros(grid.N))
    out = run(
        "bfd_finite", p1_mu2_4, init, T=2.0, dt=0.02,
        snapshots_every=1.0, outdir=str(tmp_path),
    )
    assert out["status"] == "completed"
    assert out["h_drift_max"] < 1e-10
    assert out["condH"]["satisfied"]
    assert out["sup_zeta_max"] <= out["condH"]["alpha"]
    assert out["min_one_minus"] > 0.0
    assert out["dealias_top_fraction_max"] < 1e-6
    assert len(out["times"]) == len(out["sup_zeta"]) == len(out["h1_zeta"])
    snaps = sorted(tmp_path.glob("snapshot_t*.csv"))
    assert len(snaps) >= 3  # t = 0 plus one per unit time


def test_travelling_wave_preserved(p1_mu2_4, bfd_finite):
    pair = bfd_finite["pair"]
    omega = bfd_finite["omega"]
    grid = pair.grid
    T = 4.0
    out = run("bfd_finite", p1_mu2_4, pair, T=T, dt=2e-3)
    final = out["final_state"]
    shift = np.exp(-1j * grid.k_half * omega * T)
    z_exact = np.fft.irfft(np.fft.rfft(pair.xi) * shift, n=grid.N)
    v_exact = np.fft.irfft(np.fft.rfft(pair.nu) * shift, n=grid.N)
    rel_z = np.linalg.norm(final.xi - z_exact) / np.linalg.norm(z_exact)
    rel_v = np.linalg.norm(final.nu - v_exact) / np.linalg.norm(v_exact)
    assert rel_z < 1e-8
    assert rel_v < 1e-8


def test_amplitude_bound_violation_is_typed(p1_mu2_4, evo_grid, monkeypatch):
    # a satisfied criterion with a tiny bound alpha
    real = evolution.check_global_criterion
    monkeypatch.setattr(
        evolution, "check_global_criterion", lambda p, w: dict(real(p, w), alpha=1e-6)
    )
    init = WavePair(
        grid=evo_grid, xi=0.02 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N)
    )
    with pytest.raises(AmplitudeBoundError) as exc:
        run("bfd_finite", p1_mu2_4, init, T=0.2, dt=0.02)
    err = exc.value
    # the first monitored step already exceeds the bound
    assert err.t == pytest.approx(0.02)
    assert err.alpha == 1e-6
    assert err.sup_zeta > err.alpha
    assert "t = 0.02" in str(err)


# ---------------------------------------------------------------------------
# evaluation path: stacked transforms, premultiplied fluxes, spectral monitors
# ---------------------------------------------------------------------------


def _random_pair(grid, seed, nyquist=False):
    """Random smooth pair with energy in every rfft bin; band-limited (no
    Nyquist mode) unless asked."""
    rng = np.random.default_rng(seed)
    m = grid.N // 2 + 1
    decay = 1.0 / (1.0 + 0.1 * grid.k_half**2)
    coef = decay * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
    coef[:, 0] = coef[:, 0].real
    coef[:, -1] = coef[:, -1].real if nyquist else 0.0
    zv = 0.05 * np.fft.irfft(coef, n=grid.N, axis=-1) * grid.N
    return WavePair(grid=grid, xi=zv[0], nu=zv[1])


@pytest.fixture
def fft_calls(monkeypatch):
    counter = {"n": 0}
    for name in ("rfft", "irfft", "fft", "ifft"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, **kwargs):
            counter["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counter


def test_transform_counts(p1_mu2_4, evo_grid, fft_calls):
    init = _gaussian_pair(evo_grid)
    stepper = make_stepper("etdrk4", "bfd_finite", p1_mu2_4, evo_grid, 0.01)
    q = stepper.encode(init)
    fft_calls["n"] = 0
    stepper.advance(q)
    assert fft_calls["n"] == 8

    imex = make_stepper("imex", "bfd_finite", p1_mu2_4, evo_grid, 0.01)
    q = imex.advance(imex.encode(init))
    fft_calls["n"] = 0
    imex.advance(q)
    assert fft_calls["n"] == 2

    # three more monitored ETDRK4 steps cost at most 3 * (8 + 1) transforms
    fft_calls["n"] = 0
    run("bfd_finite", p1_mu2_4, init, T=0.02, dt=0.01)
    two = fft_calls["n"]
    fft_calls["n"] = 0
    run("bfd_finite", p1_mu2_4, init, T=0.05, dt=0.01)
    assert fft_calls["n"] - two <= 3 * 9


@pytest.mark.parametrize("family, which", [("bfd_finite", "p1_mu2_4"), ("bfd_inf", "p1_inf")])
def test_spectral_monitors_match_direct_formulas(request, family, which):
    p = request.getfixturevalue(which)
    grid = make_grid(20.0, 256)
    mask = grid.dealias_mask()

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    # the sampled spectral derivative drops the Nyquist mode, so the direct
    # H1 formula holds for the band-limited state only
    for state, check_h1 in ((_random_pair(grid, 7), True), (_random_pair(grid, 8, True), False)):
        zv = np.stack([state.xi, state.nu])
        monitor = evolution._Monitor(p, grid, track_h=True)
        sup, min_one, mass_z, mass_v, h1_z, h1_v, top, h = monitor(np.fft.rfft(zv, axis=-1), zv)
        assert close(h, hamiltonian_H(p, state))
        fracs = []
        for u, h1 in ((state.xi, h1_z), (state.nu, h1_v)):
            uh = np.fft.rfft(u)
            if check_h1:
                ux = np.fft.irfft(1j * grid.k_half * uh, n=grid.N)
                assert close(h1, math.sqrt(grid.dx * np.sum(u * u + ux * ux)))
            high = np.fft.irfft((1.0 - mask) * uh, n=grid.N)
            fracs.append(np.sum(high * high) / np.sum(u * u))
        assert 0.0 < max(fracs) and close(top, max(fracs))
        assert sup == np.max(np.abs(state.xi))
        assert min_one == np.min(1.0 - (p.epsilon / p.gamma) * state.xi)
        assert mass_z == pytest.approx(np.sum(state.xi) * grid.dx, rel=1e-13, abs=1e-15)
        assert mass_v == pytest.approx(np.sum(state.nu) * grid.dx, rel=1e-13, abs=1e-15)

        # run() takes h0 from the same path
        out = run(family, p, state, T=1e-3, dt=1e-3)
        assert close(out["h0"], hamiltonian_H(p, state))


_STEPPER_CASES = [
    ("bfd_finite", dict(P1_KW, mu2=4.0)),
    ("bfd_inf", dict(P1_KW, mu2=np.inf)),
    ("BO", dict(P1_KW, mu2=np.inf)),
    ("ILW", dict(P1_KW, mu2=4.0)),
]


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(_STEPPER_CASES),
    integrator=st.sampled_from(evolution.INTEGRATORS),
    n=st.sampled_from([64, 128, 256]),
    dt=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**16),
)
def test_stepper_coefficients_property(case, integrator, n, dt, seed):
    family, kw = case
    p = ModelParams(**kw)
    grid = make_grid(20.0, n)
    state = _random_pair(grid, seed)

    # decode(encode(w)) reproduces w to roundoff
    stepper = make_stepper(integrator, family, p, grid, dt)
    back = stepper.decode(stepper.encode(state))
    for got, want in ((back.xi, state.xi), (back.nu, state.nu)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # the stepper's time derivative lam*q + N(q), decoded, is the
    # physical-space reference rhs()
    q = stepper.encode(state)
    ref = rhs(family, p, state)
    dz = stepper.decode(stepper.lam * q + stepper.nonlinear(q))
    for got, want in ((dz.xi, ref.xi), (dz.nu, ref.nu)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # with the linear part alone one step is the exact rotation for ETDRK4
    # and the trapezoidal (Cayley) factor for the IMEX start-up step
    linear = make_stepper(integrator, family, p, grid, dt, linear_only=True)
    q1 = linear.advance(q)
    if integrator == "etdrk4":
        exact = linear.e_full * q
    else:
        z = 0.5 * dt * linear.lam
        exact = (1.0 + z) / (1.0 - z) * q
    assert np.max(np.abs(q1 - exact)) <= 1e-13 * np.max(np.abs(q))
