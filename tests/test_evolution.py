"""Time integration: steppers, conservation, the small-data criterion."""

import inspect
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswaves import evolution, solvers
from iswaves.evolution import (
    Etdrk4Stepper,
    ImexBdf2Stepper,
    check_global_criterion,
    run,
    suggest_dt,
)
from iswaves.functionals import hamiltonian_H
from iswaves.params import ModelParams
from iswaves.spectral import WavePair, make_grid, pair_to_csv, structure, symbols

from conftest import P1_KW, apply_table


def rhs(family, p, state, linear=False):
    """Time derivative (dz/dt, dv/dt) of the evolution system, formed in
    physical space: the reference for the steppers' lam*q + N(q); of its
    linear part alone when `linear`.

    The elliptic factors are inverted spectrally; both quadratic products
    are dealiased with the 2/3 rule before differentiation.
    """
    grid = state.grid
    _, _, (t1, s1, t2, s2) = structure(family, p, grid)
    mask = grid.dealias_mask()
    ik = 1j * grid.k_half
    g = p.gamma
    n = grid.N

    zh = np.fft.rfft(state.xi)
    vh = np.fft.rfft(state.nu)
    flux1 = s1 * vh
    flux2 = s2 * zh
    if not linear:
        flux1 = flux1 - (p.epsilon / g) * mask * np.fft.rfft(state.xi * state.nu)
        flux2 = flux2 - (p.epsilon / (2.0 * g)) * mask * np.fft.rfft(state.nu**2)
    dz = -np.fft.irfft(ik * flux1 / t1, n=n)
    dv = -np.fft.irfft(ik * flux2 / t2, n=n)
    return WavePair(grid=grid, xi=dz, nu=dv)


def _encode(stepper, state):
    """The characteristic state q of the pair state, as run() forms it."""
    return stepper.from_spectral(np.fft.rfft(np.stack([state.xi, state.nu]), axis=-1))


def _decode(stepper, q):
    """The pair of the characteristic state q."""
    zv = np.fft.irfft(stepper.spectral(q), n=stepper.grid.N, axis=-1)
    return WavePair(grid=stepper.grid, xi=zv[0], nu=zv[1])


def _gaussian_pair(grid, amp_z=0.8, amp_v=0.3):
    z = amp_z * np.exp(-0.5 * grid.x**2)
    v = amp_v * grid.x * np.exp(-0.5 * grid.x**2)
    return WavePair(grid=grid, xi=z, nu=v)


@pytest.fixture(scope="module")
def evo_grid():
    return make_grid(20.0, 256)


def test_suggest_dt_sanity(p1_mu2_4, evo_grid, monkeypatch):
    dt = suggest_dt("bfd_finite", p1_mu2_4, evo_grid)
    assert dt > 0.0
    finer = make_grid(20.0, 512)
    assert suggest_dt("bfd_finite", p1_mu2_4, finer) < dt
    monkeypatch.setattr(evolution, "_MAX_PHASE", math.pi / 2.0)
    assert suggest_dt("bfd_finite", p1_mu2_4, evo_grid) == pytest.approx(2.0 * dt)


def test_rhs_zero_mean(p1_mu2_4, evo_grid):
    state = _gaussian_pair(evo_grid)
    out = rhs("bfd_finite", p1_mu2_4, state)
    assert abs(np.sum(out.xi) * evo_grid.dx) < 1e-13
    assert abs(np.sum(out.nu) * evo_grid.dx) < 1e-13


def test_rhs_linear_structure(p1_mu2_4, evo_grid):
    # with nu = 0 the linearized first equation is quiescent
    state = WavePair(grid=evo_grid, xi=np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N))
    out = rhs("bfd_finite", p1_mu2_4, state, linear=True)
    assert np.max(np.abs(out.xi)) == 0.0
    assert np.max(np.abs(out.nu)) > 0.0


def test_step_matches_run(p1_mu2_4, evo_grid):
    # one stepper advance from the encoded state against a one-step run
    state = _gaussian_pair(evo_grid)
    dt = 0.01
    stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, evo_grid, dt)
    one = _decode(stepper, stepper.advance(_encode(stepper, state)))
    out = run("bfd_finite", p1_mu2_4, state, T=dt, dt=dt)
    final = out["final_state"]
    assert out["steps"] == 1
    assert np.max(np.abs(final.xi - one.xi)) < 1e-14
    assert np.max(np.abs(final.nu - one.nu)) < 1e-14


def test_make_stepper_validation(p1_mu2_4, evo_grid):
    with pytest.raises(ValueError, match="dt must be positive"):
        Etdrk4Stepper("bfd_finite", p1_mu2_4, evo_grid, -0.1)
    # c > 0 flips the sign of 1 - mu c k^2 at high modes: the characteristic
    # split loses positivity and the stepper refuses
    bad_kw = dict(P1_KW, mu2=4.0, c=1.0 / 12.0, a=-1.0 / 4.0)
    with pytest.raises(ValueError, match="positive symbol quotients"):
        Etdrk4Stepper("bfd_finite", ModelParams(**bad_kw), evo_grid, 0.01)


@pytest.mark.parametrize(
    "T, dt",
    [(0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (math.nan, 0.01), (math.inf, 0.01),
     (-1.0, 0.01), (1e300, 1e-300)],
)
def test_run_refuses_times_that_are_not_positive_and_finite(p1_mu2_4, evo_grid, T, dt):
    # NaN fails every comparison, so each check is written to refuse it
    bump = 0.01 * np.exp(-(evo_grid.x**2))
    values = re.escape(f"got T = {T!r}, dt = {dt!r}")
    with pytest.raises(ValueError, match=f"must be positive and finite.*{values}"):
        run("bfd_finite", p1_mu2_4, WavePair(evo_grid, bump, bump), T, dt)
    if not 0.0 < dt < math.inf:
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt!r}"):
            Etdrk4Stepper("bfd_finite", p1_mu2_4, evo_grid, dt)


def test_run_refuses_more_than_max_steps_before_building_a_stepper(
    p1_mu2_4, evo_grid, monkeypatch
):
    # T / dt = MAX_STEPS is the longest run; one step more is refused before
    # a stepper is built, as a suggested dt can ask for about 1e75 steps
    assert evolution.step_count(1.0, 1e-8) == evolution.MAX_STEPS == 10**8
    monkeypatch.setattr(evolution, "Etdrk4Stepper", None)
    bump = 0.01 * np.exp(-(evo_grid.x**2))
    for dt in (0.999e-8, 1.5e-76):
        with pytest.raises(ValueError, match=re.escape("T / dt at most 1e+08; got T = 1.0")):
            run("bfd_finite", p1_mu2_4, WavePair(evo_grid, bump, bump), 1.0, dt)


def _final_state(cls, p, init, T, dt):
    """The state at T stepped by a stepper of class cls, encoded, advanced
    and decoded at run()'s step T/round(T/dt)."""
    nsteps = max(1, round(T / dt))
    stepper = cls("bfd_finite", p, init.grid, T / nsteps)
    q = _encode(stepper, init)
    for _ in range(nsteps):
        q = stepper.advance(q)
    return _decode(stepper, q)


def _self_convergence(cls, p, grid, dts, ref_dt, T=1.0):
    init = _gaussian_pair(grid)
    ref = _final_state(cls, p, init, T, ref_dt)
    errs = []
    for dt in dts:
        out = _final_state(cls, p, init, T, dt)
        errs.append(float(np.max(np.abs(out.xi - ref.xi))))
    return errs


def test_etdrk4_fourth_order(p1_mu2_4, evo_grid):
    errs = _self_convergence(Etdrk4Stepper, p1_mu2_4, evo_grid, [0.32, 0.08, 0.02], 1.0 / 1024)
    order_a = math.log(errs[0] / errs[1]) / math.log(4.0)
    order_b = math.log(errs[1] / errs[2]) / math.log(4.0)
    assert order_a > 3.5
    assert order_b > 3.5


def test_imex_second_order(p1_mu2_4, evo_grid):
    errs = _self_convergence(ImexBdf2Stepper, p1_mu2_4, evo_grid, [0.08, 0.04, 0.02], 1.0 / 1024)
    order_a = math.log2(errs[0] / errs[1])
    order_b = math.log2(errs[1] / errs[2])
    assert 1.6 < order_a < 2.4
    assert 1.6 < order_b < 2.4


def test_integrators_agree(p1_mu2_4, evo_grid):
    init = _gaussian_pair(evo_grid)
    a = run("bfd_finite", p1_mu2_4, init, T=1.0, dt=0.01)["final_state"]
    b = _final_state(ImexBdf2Stepper, p1_mu2_4, init, 1.0, 0.01)
    assert np.max(np.abs(a.xi - b.xi)) < 5e-4


def _zero_nonlinear(q, out, stage=None):
    """A stepper's nonlinear term, zeroed: the stepper then integrates the
    linear part alone."""
    out[...] = 0.0
    return out


def test_linear_flow_exact(p1_mu2_4, evo_grid, monkeypatch):
    # in characteristic variables the linear flow is diagonal; ETDRK4 must
    # reproduce the analytic propagator to roundoff
    init = _gaussian_pair(evo_grid)
    T = 1.0
    stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, evo_grid, 0.25)
    monkeypatch.setattr(stepper, "nonlinear", _zero_nonlinear)
    q = _encode(stepper, init)
    for _ in range(4):
        q = stepper.advance(q)
    out = _decode(stepper, q)

    sym = symbols(p1_mu2_4, evo_grid)
    t1, s1, t2, s2 = sym.jb, sym.L, sym.jd, 0.5 * sym.jc
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


def test_run_reads_the_family_depth(p1_mu2_4, p1_inf, evo_grid):
    # BFD_inf is the mu2 = inf system: the mu2 it is given changes neither
    # the trajectory nor its monitors (H and the global-existence bound)
    init = WavePair(grid=evo_grid, xi=0.02 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N))
    got, want = (run("bfd_inf", p, init, T=0.5, dt=0.02) for p in (p1_mu2_4, p1_inf))
    final_got, final_want = got.pop("final_state"), want.pop("final_state")
    assert got == want
    assert np.array_equal(final_got.xi, final_want.xi)
    assert np.array_equal(final_got.nu, final_want.nu)
    assert got["h_drift_max"] < 1e-10


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


def test_amplitude_bound_violation_aborts_the_run(p1_mu2_4, evo_grid, monkeypatch):
    # a satisfied criterion with a tiny bound alpha
    real = evolution.check_global_criterion
    monkeypatch.setattr(
        evolution, "check_global_criterion", lambda p, w: dict(real(p, w), alpha=1e-6)
    )
    init = WavePair(
        grid=evo_grid, xi=0.02 * np.exp(-evo_grid.x**2), nu=np.zeros(evo_grid.N)
    )
    out = run("bfd_finite", p1_mu2_4, init, T=0.2, dt=0.02)
    # the first monitored step already exceeds the bound: the run stops
    # there, with the series through that state and no final state
    assert out["status"] == "aborted"
    assert out["t_final"] == out["times"][-1] == 0.02
    assert out["times"] == [0.0, 0.02]
    assert len(out["sup_zeta"]) == len(out["h_drift"]) == 2
    assert out["sup_zeta"][-1] > 1e-6
    assert out["error"] == (
        f"amplitude bound violated: sup|zeta| = {out['sup_zeta'][-1]:.6g} > alpha = 1e-06 "
        "at t = 0.02; the run is under-resolved or the stepper is wrong"
    )
    assert "final_state" not in out and "t_blow_up" not in out


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


def test_transform_counts(p1_mu2_4, evo_grid, fft_calls):
    init = _gaussian_pair(evo_grid)
    stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, evo_grid, 0.01)
    q = _encode(stepper, init)
    fft_calls["n"] = 0
    stepper.advance(q)
    assert fft_calls["n"] == 8

    imex = ImexBdf2Stepper("bfd_finite", p1_mu2_4, evo_grid, 0.01)
    q = imex.advance(_encode(imex, init))
    fft_calls["n"] = 0
    imex.advance(q)
    assert fft_calls["n"] == 2

    # the monitors read each state from the next step's first stage, so
    # three more monitored ETDRK4 steps cost exactly the stepper's 3 * 8
    fft_calls["n"] = 0
    run("bfd_finite", p1_mu2_4, init, T=0.02, dt=0.01)
    two = fft_calls["n"]
    fft_calls["n"] = 0
    run("bfd_finite", p1_mu2_4, init, T=0.05, dt=0.01)
    assert fft_calls["n"] - two == 3 * 8


# the elementwise error of one step against its plain expressions: each
# stage reorders a few products and sums of complex numbers of size ~ max|q'|
_STEP_TOL = 64 * np.finfo(np.float64).eps


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_etdrk4_step_is_the_cox_matthews_step(p1_mu2_4, n):
    # one advance against the plain stage expressions, evaluated with the
    # stepper's public weights (f2_w carries the factor 2 of na + nb)
    grid = make_grid(20.0, n)
    stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, grid, 0.05)
    tables = [
        stepper.lam, stepper._unmix, stepper._flux, stepper._q_w2,
        stepper.e_full, stepper.e_half, stepper.q_w, stepper.f1_w, stepper.f2_w, stepper.f3_w,
    ]
    # all-complex tables: no stage product casts a float64 operand
    assert all(t.dtype == np.complex128 for t in tables)
    assert all(t.shape == (2, n // 2 + 1) for t in tables)

    q = _encode(stepper, _gaussian_pair(grid))
    got = stepper.advance(q.copy())

    def nl(x):
        return stepper.nonlinear(x, np.empty_like(x))

    e_full, e_half, q_w = stepper.e_full, stepper.e_half, stepper.q_w
    n0 = nl(q)
    qa = e_half * q + q_w * n0
    na = nl(qa)
    qb = e_half * q + q_w * na
    nb = nl(qb)
    qc = e_half * qa + q_w * (2.0 * nb - n0)
    nc = nl(qc)
    want = e_full * q + stepper.f1_w * n0 + stepper.f2_w * (na + nb) + stepper.f3_w * nc
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= _STEP_TOL * scale
    # the nonlinear stages move the state by far more than the tolerance
    assert np.max(np.abs(want - e_full * q)) > 1e6 * _STEP_TOL * scale


def _one_slab_weights(stepper):
    """e_full, e_half, q_w, f1_w, f2_w and f3_w on the q+ row, with the
    Kassam-Trefethen contour means taken over one (N/2 + 1, 32) slab."""
    dt, ldt = stepper.dt, stepper.dt * stepper.lam[0]
    rts = np.exp(2j * math.pi * (np.arange(1, 33) - 0.5) / 32)
    lr = ldt[:, None] + rts[None, :]
    e_lr, lr3 = np.exp(lr), lr**3
    return (
        np.exp(ldt),
        np.exp(0.5 * ldt),
        dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1),
        dt * np.mean((-4.0 - lr + e_lr * (4.0 - 3.0 * lr + lr**2)) / lr3, axis=-1),
        2.0 * dt * np.mean((2.0 + lr + e_lr * (-2.0 + lr)) / lr3, axis=-1),
        dt * np.mean((-4.0 - 3.0 * lr - lr**2 + e_lr * (4.0 - lr)) / lr3, axis=-1),
    )


@pytest.mark.parametrize("n, rel", [(256, 0.0), (512, 0.0), (2048, 1e-14)])
def test_etdrk4_weights_equal_the_one_slab_means(p1_mu2_4, n, rel):
    # the weights built in row blocks against one slab: bit for bit while
    # the slab's temporaries are below the 256 KiB from which numpy reuses
    # one in place (N < 1024), and to roundoff beyond, where that reuse
    # reorders the complex products of the slab.  The q- row is the
    # conjugate of the q+ row
    stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, make_grid(8.0, n), 2e-3)
    got = (stepper.e_full, stepper.e_half, stepper.q_w, stepper.f1_w, stepper.f2_w, stepper.f3_w)
    for w, want in zip(got, _one_slab_weights(stepper)):
        assert np.array_equal(w[1], w[0].conj())
        if rel == 0.0:
            assert np.array_equal(w[0], want)
        else:
            assert np.max(np.abs(w[0] - want) / np.abs(want)) <= rel


@pytest.mark.parametrize("n", [2048, 16384])
def test_etdrk4_construction_holds_little_more_than_it_keeps(p1_mu2_4, n):
    # the allocation peak of construction against the memory the stepper
    # keeps: 1.2 and 1.02 times with row blocks, about 4 times with whole
    # (N/2 + 1, 32) slabs
    grid = make_grid(8.0, n)
    tracemalloc.start()
    try:
        stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, grid, 2e-3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stepper.f3_w.shape == (2, n // 2 + 1)
    assert peak <= 1.5 * kept


def test_steppers_define_advance():
    # perfbench/tracing.py times the steppers by patching advance(self, q)
    # in each class's own namespace
    for cls in (evolution.Etdrk4Stepper, evolution.ImexBdf2Stepper):
        assert list(inspect.signature(cls.__dict__["advance"]).parameters) == ["self", "q"]


def _per_step_reference(stepper, monitor, initial, nsteps, snapshots_every, outdir, alpha):
    """run()'s loop as it was before the monitors moved into the stepper:
    advance, test finiteness, then transform and monitor the new state.
    Returns (status, t, times, final samples or None)."""
    grid = initial.grid
    zv = np.stack([initial.xi, initial.nu])
    s = np.fft.rfft(zv, axis=-1)
    q = stepper.from_spectral(s)
    times = [0.0]
    monitor(s, zv, zv[1] * zv[1])
    pair_to_csv(initial, os.path.join(outdir, "snapshot_t0.csv"))
    snap_next = snapshots_every
    t = 0.0
    for istep in range(1, nsteps + 1):
        q = stepper.advance(q)
        t = istep * stepper.dt
        if not np.isfinite(q).all():
            return "blow_up", t, times, None
        s = stepper.spectral(q)
        zv = np.fft.irfft(s, n=grid.N, axis=-1)
        sample = monitor(s, zv, zv[1] * zv[1])
        times.append(t)
        if alpha is not None and sample[0] > alpha * (1.0 + 1e-9):
            return "aborted", t, times, None
        if t + 1e-12 >= snap_next:
            pair = WavePair(grid=grid, xi=zv[0], nu=zv[1])
            pair_to_csv(pair, os.path.join(outdir, f"snapshot_t{t:.6g}.csv"))
            snap_next += snapshots_every
    return "completed", t, times, zv


def _run_case(snap_stride, amplitude, alpha, status):
    """A case of test_run_equals_per_step_loop, its id read as the
    integrator (etdrk4, the one run() drives), snapshot stride in steps,
    amplitude, alpha, linear flow (False: every case integrates the full
    nonlinear system) and status."""
    return pytest.param(
        snap_stride, amplitude, alpha, status,
        id=f"etdrk4-{snap_stride}-{amplitude}-{alpha}-False-{status}",
    )


@pytest.mark.parametrize(
    "snap_stride, amplitude, alpha, status",
    [
        _run_case(1, 0.5, None, "completed"),
        _run_case(3, 0.5, None, "completed"),
        _run_case(1, 200.0, None, "blow_up"),
        # sup|zeta| first exceeds alpha at t = 0.35
        _run_case(1, 0.02, 0.0265, "aborted"),
        _run_case(3, 0.02, 0.0265, "aborted"),
    ],
)
def test_run_equals_per_step_loop(
    p1_mu2_4, tmp_path, monkeypatch, snap_stride, amplitude, alpha, status,
):
    # run() monitors each state one step late, from the stepper's first
    # stage; every sample, time, snapshot and the final state must equal
    # those of the per-step loop, bit for bit
    grid = make_grid(20.0, 64)
    bump = amplitude * np.exp(-(grid.x**2))
    init = WavePair(grid=grid, xi=bump, nu=bump.copy())
    T, nsteps = 2.0, 40
    snaps = snap_stride * T / nsteps
    if alpha is not None:
        real = evolution.check_global_criterion
        monkeypatch.setattr(
            evolution, "check_global_criterion", lambda p, w: dict(real(p, w), alpha=alpha)
        )
    monitors = []

    class Recording(evolution._Monitor):
        def __init__(self, *args):
            super().__init__(*args)
            self.samples = []
            monitors.append(self)

        def __call__(self, *args):
            self.samples.append(super().__call__(*args))
            return self.samples[-1]

    monkeypatch.setattr(evolution, "_Monitor", Recording)

    def outcome(outdir, go):
        """go(outdir)'s result, the files it wrote and the samples of the
        monitor it made."""
        outdir.mkdir()
        with np.errstate(all="ignore"):
            got = go(str(outdir))
        return got, {f.name: f.read_bytes() for f in outdir.iterdir()}, monitors[-1].samples

    def with_run(outdir):
        out = run(
            "bfd_finite", p1_mu2_4, init, T=T, dt=T / nsteps,
            snapshots_every=snaps, outdir=outdir,
        )
        final = out.get("final_state")
        zv = None if final is None else np.stack([final.xi, final.nu])
        return out["status"], out["t_final"], out["times"], zv

    def with_loop(outdir):
        stepper = Etdrk4Stepper("bfd_finite", p1_mu2_4, grid, T / nsteps)
        return _per_step_reference(
            stepper, Recording(p1_mu2_4, grid, True), init, nsteps, snaps, outdir, alpha
        )

    got, got_files, got_samples = outcome(tmp_path / "run", with_run)
    want, want_files, want_samples = outcome(tmp_path / "loop", with_loop)
    assert got[0] == status
    assert got[:3] == want[:3]
    assert (got[3] is None and want[3] is None) or np.array_equal(got[3], want[3])
    # bit for bit, a NaN of a blown-up state equal to a NaN
    assert len(got_samples) == len(want_samples)
    for a, b in zip(got_samples, want_samples):
        assert np.array_equal(np.array(a, dtype=float), np.array(b, dtype=float), equal_nan=True)
    assert got_files == want_files


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
        sup, min_one, mass_z, mass_v, h1_z, h1_v, top, h = monitor(
            np.fft.rfft(zv, axis=-1), zv, zv[1] * zv[1]
        )
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
    cls=st.sampled_from([Etdrk4Stepper, ImexBdf2Stepper]),
    n=st.sampled_from([64, 128, 256]),
    dt=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**16),
)
def test_stepper_coefficients_property(case, cls, n, dt, seed):
    family, kw = case
    p = ModelParams(**kw)
    grid = make_grid(20.0, n)
    state = _random_pair(grid, seed)

    # decode(encode(w)) reproduces w to roundoff
    stepper = cls(family, p, grid, dt)
    back = _decode(stepper, _encode(stepper, state))
    for got, want in ((back.xi, state.xi), (back.nu, state.nu)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # the stepper's time derivative lam*q + N(q), decoded, is the
    # physical-space reference rhs()
    q = _encode(stepper, state)
    ref = rhs(family, p, state)
    dz = _decode(stepper, stepper.lam * q + stepper.nonlinear(q, np.empty_like(q)))
    for got, want in ((dz.xi, ref.xi), (dz.nu, ref.nu)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # with the linear part alone one step is the exact rotation for ETDRK4
    # and the trapezoidal (Cayley) factor for the IMEX start-up step
    linear = cls(family, p, grid, dt)
    linear.nonlinear = _zero_nonlinear
    q1 = linear.advance(q)
    if cls is Etdrk4Stepper:
        exact = linear.e_full * q
    else:
        z = 0.5 * dt * linear.lam
        exact = (1.0 + z) / (1.0 - z) * q
    assert np.max(np.abs(q1 - exact)) <= 1e-13 * np.max(np.abs(q))


@pytest.mark.parametrize(
    "family, mu2", [("BO", np.inf), ("ILW", 4.0), ("bfd_finite", 4.0), ("bfd_inf", np.inf)]
)
def test_structure_tables_follow_family(family, mu2, evo_grid):
    # the solver and the evolution read one set of tables: J_d in the second
    # equation at both depths, which d != b tells apart from J_b
    p = ModelParams(**dict(P1_KW, d=0.3, mu2=mu2))
    sym = symbols(p, evo_grid)
    _, _, tables = structure(family, p, evo_grid)
    if family in ("BO", "ILW"):
        want = (sym.op1, sym.op2, 1.0, 0.5)
    else:
        want = (sym.jb, sym.L, sym.jd, 0.5 * sym.jc)
    for got, table in zip(tables, want):
        assert np.array_equal(got, table)
    t1, s1, t2, s2 = want

    # the evolution's quotients
    e_t1, e_t2, a_sym, b_sym = evolution._quotients(family, p, evo_grid)
    for got, table in zip((e_t1, e_t2, a_sym, b_sym), (t1, t2, s1 / t1, s2 / t2)):
        assert np.array_equal(got, table)

    # the solver's certificate at speed c, from the same tables
    c, r = 0.03, p.r
    state = _random_pair(evo_grid, 5)
    xi, nu = state.xi, state.nu

    def table_on(table, u):
        return apply_table(table, u) if np.ndim(table) else table * u

    r1 = -c * table_on(t1, xi) + table_on(s1, nu) - 2.0 * r * xi * nu
    r2 = -c * table_on(t2, nu) + table_on(s2, xi) - r * nu * nu
    got = solvers._System(family, p, evo_grid, c).residual(np.stack([xi, nu]))
    for row, want_row in zip(got, (r1, r2)):
        assert np.max(np.abs(row - want_row)) <= 1e-13 * np.max(np.abs(want_row))
