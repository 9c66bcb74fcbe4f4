"""Pseudo-spectral time evolution for the three model families.

Each system has the structure

    T1 dz/dt = -d/dx [ S1 v - (eps/gamma) z v ]
    T2 dv/dt = -d/dx [ S2 z - (eps/2 gamma) v^2 ]

with elliptic factors T1, T2 and dispersive multipliers S1, S2 depending on
the family.  The linear part is diagonalized by the characteristic
variables q+- = zhat +- P vhat, P = sqrt(A/B), A = S1/T1, B = S2/T2, where
it reduces to pure phase rotation at speeds +-sqrt(AB); ETDRK4 integrates
that part exactly and the quadratic terms explicitly.  An IMEX-BDF2
stepper is provided as an independent cross-check.  Quadratic products are
formed in physical space and dealiased by the 2/3 rule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .spectral import (
    Grid,
    WavePair,
    pair_to_csv,
    symbol_J,
    symbol_L_inf,
    symbol_L_mu2,
    symbol_bo_ops,
    symbol_ilw_ops,
)

INTEGRATORS = ("etdrk4", "imex")


class BlowUpError(RuntimeError):
    """Raised when the state leaves the floating-point range."""

    def __init__(self, t: float):
        super().__init__(f"non-finite field values at t = {t:.6g}")
        self.t = t


class AmplitudeBoundError(RuntimeError):
    """Raised when sup|zeta| exceeds the a-priori bound alpha of data that
    satisfies the global-existence criterion."""

    def __init__(self, t: float, sup_zeta: float, alpha: float):
        super().__init__(
            f"amplitude bound violated: sup|zeta| = {sup_zeta:.6g} > alpha = "
            f"{alpha:.6g} at t = {t:.6g}; the run is under-resolved "
            "or the stepper is wrong"
        )
        self.t = t
        self.sup_zeta = sup_zeta
        self.alpha = alpha


@dataclass
class EvolutionState:
    """Fields plus running diagnostics at one instant."""

    t: float
    fields: WavePair
    h_value: float | None
    h_drift: float
    min_one_minus: float


def _canon_family(name: str) -> str:
    from .solvers import canonical_family

    return canonical_family(name)


def _system_tables(family: str, p: ModelParams, grid: Grid):
    """Half-spectrum tables (T1, S1, T2, S2) of the evolution structure."""
    fam = _canon_family(family)
    og = 1.0 - p.gamma
    ones = np.ones_like(grid.k_half)
    if fam == "BO":
        dop, bop = symbol_bo_ops(p, grid)
        return dop.table_half, bop.table_half, ones, og * ones
    if fam == "ILW":
        wop, zop = symbol_ilw_ops(p, grid)
        return wop.table_half, zop.table_half, ones, og * ones
    jb = symbol_J(p, "b", grid).table_half
    jd = symbol_J(p, "d", grid).table_half
    jc = symbol_J(p, "c", grid).table_half
    lt = (symbol_L_mu2(p, grid) if fam == "BFD_finite" else symbol_L_inf(p, grid)).table_half
    return jb, lt, jd, og * jc


def rhs(family: str, p: ModelParams, state: WavePair, linear_only: bool = False) -> WavePair:
    """Time derivative (dz/dt, dv/dt) of the evolution system.

    The elliptic factors are inverted spectrally; both quadratic products
    are dealiased with the 2/3 rule before differentiation.
    """
    grid = state.grid
    t1, s1, t2, s2 = _system_tables(family, p, grid)
    mask = grid.dealias_mask()
    ik = 1j * grid.k_half
    g = p.gamma
    n = grid.N

    zh = np.fft.rfft(state.xi)
    vh = np.fft.rfft(state.nu)
    flux1 = s1 * vh
    flux2 = s2 * zh
    if not linear_only:
        flux1 = flux1 - (p.epsilon / g) * mask * np.fft.rfft(state.xi * state.nu)
        flux2 = flux2 - (p.epsilon / (2.0 * g)) * mask * np.fft.rfft(state.nu**2)
    dz = -np.fft.irfft(ik * flux1 / t1, n=n)
    dv = -np.fft.irfft(ik * flux2 / t2, n=n)
    return WavePair(grid=grid, xi=dz, nu=dv)


def suggest_dt(family: str, p: ModelParams, grid: Grid, max_phase: float = math.pi / 4.0) -> float:
    """Largest dt for which the fastest linear mode advances < max_phase per step."""
    t1, s1, t2, s2 = _system_tables(family, p, grid)
    speed = np.sqrt((s1 / t1) * (s2 / t2))
    omega_max = float(np.max(grid.k_half * speed))
    if omega_max == 0.0:
        raise ValueError("grid has no nonzero modes")
    return max_phase / omega_max


# ---------------------------------------------------------------------------
# steppers in characteristic variables
# ---------------------------------------------------------------------------


class _CharacteristicBase:
    """Shared machinery: transforms between (z, v) and q+- = zhat +- P vhat."""

    def __init__(self, family: str, p: ModelParams, grid: Grid, dt: float, linear_only: bool):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.family = _canon_family(family)
        self.p = p
        self.grid = grid
        self.dt = float(dt)
        self.linear_only = linear_only
        t1, s1, t2, s2 = _system_tables(self.family, p, grid)
        a_sym = s1 / t1
        b_sym = s2 / t2
        if np.min(a_sym) <= 0.0 or np.min(b_sym) <= 0.0:
            raise ValueError(
                "characteristic splitting needs positive symbol quotients; "
                "parameters are outside the admissible window"
            )
        self.t1, self.t2 = t1, t2
        self.pfac = np.sqrt(a_sym / b_sym)
        speed = np.sqrt(a_sym * b_sym)
        ik = 1j * grid.k_half
        # rows: q+ rotates with -ik*speed, q- with +ik*speed
        self.lam = np.vstack([-ik * speed, ik * speed])
        self.mask = grid.dealias_mask()
        self.ik = ik

    def encode(self, state: WavePair) -> np.ndarray:
        zh = np.fft.rfft(state.xi)
        vh = np.fft.rfft(state.nu)
        return np.vstack([zh + self.pfac * vh, zh - self.pfac * vh])

    def decode(self, q: np.ndarray) -> WavePair:
        zh = 0.5 * (q[0] + q[1])
        vh = 0.5 * (q[0] - q[1]) / self.pfac
        n = self.grid.N
        return WavePair(
            grid=self.grid,
            xi=np.fft.irfft(zh, n=n),
            nu=np.fft.irfft(vh, n=n),
        )

    def nonlinear(self, q: np.ndarray) -> np.ndarray:
        if self.linear_only:
            return np.zeros_like(q)
        pair = self.decode(q)
        g = self.p.gamma
        f1 = (
            (self.p.epsilon / g)
            * self.mask
            * self.ik
            * np.fft.rfft(pair.xi * pair.nu)
            / self.t1
        )
        f2 = (
            (self.p.epsilon / (2.0 * g))
            * self.mask
            * self.ik
            * np.fft.rfft(pair.nu**2)
            / self.t2
        )
        return np.vstack([f1 + self.pfac * f2, f1 - self.pfac * f2])


class Etdrk4Stepper(_CharacteristicBase):
    """Exponential time differencing RK4; exact on the linear part.

    The phi-function weights are evaluated by contour averaging over a full
    circle of radius 1 around each dt*lambda, which is stable for the purely
    imaginary spectra arising here.
    """

    def __init__(self, family, p, grid, dt, linear_only=False, contour_points: int = 32):
        super().__init__(family, p, grid, dt, linear_only)
        ldt = self.dt * self.lam
        self.e_full = np.exp(ldt)
        self.e_half = np.exp(0.5 * ldt)
        m = contour_points
        rts = np.exp(2j * math.pi * (np.arange(1, m + 1) - 0.5) / m)
        lr = ldt[..., None] + rts[None, None, :]
        self.q_w = self.dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1)
        self.f1_w = self.dt * np.mean(
            (-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=-1
        )
        self.f2_w = self.dt * np.mean(
            (2.0 + lr + np.exp(lr) * (-2.0 + lr)) / lr**3, axis=-1
        )
        self.f3_w = self.dt * np.mean(
            (-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=-1
        )

    def advance(self, q: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear(q)
        qa = self.e_half * q + self.q_w * n0
        na = self.nonlinear(qa)
        qb = self.e_half * q + self.q_w * na
        nb = self.nonlinear(qb)
        qc = self.e_half * qa + self.q_w * (2.0 * nb - n0)
        nc = self.nonlinear(qc)
        return (
            self.e_full * q
            + self.f1_w * n0
            + 2.0 * self.f2_w * (na + nb)
            + self.f3_w * nc
        )


class ImexBdf2Stepper(_CharacteristicBase):
    """Second-order IMEX-BDF2: implicit exact-diagonal linear part,
    explicitly extrapolated nonlinear part.  Cross-check integrator."""

    def __init__(self, family, p, grid, dt, linear_only=False):
        super().__init__(family, p, grid, dt, linear_only)
        self.prev_q = None
        self.prev_n = None
        self._inv = 1.0 / (1.5 - self.dt * self.lam)

    def advance(self, q: np.ndarray) -> np.ndarray:
        if self.prev_q is None:
            # first step: trapezoidal IMEX startup at the same order budget
            n0 = self.nonlinear(q)
            inv1 = 1.0 / (1.0 - 0.5 * self.dt * self.lam)
            qmid = inv1 * (q + 0.5 * self.dt * (self.lam * q) + self.dt * n0)
            nmid = self.nonlinear(qmid)
            qn = inv1 * (
                q + 0.5 * self.dt * (self.lam * q) + 0.5 * self.dt * (n0 + nmid)
            )
            self.prev_q, self.prev_n = q, n0
            return qn
        n_cur = self.nonlinear(q)
        rhs_q = 2.0 * q - 0.5 * self.prev_q + self.dt * (2.0 * n_cur - self.prev_n)
        qn = self._inv * rhs_q
        self.prev_q, self.prev_n = q, n_cur
        return qn


def make_stepper(
    integrator: str,
    family: str,
    p: ModelParams,
    grid: Grid,
    dt: float,
    linear_only: bool = False,
):
    if integrator == "etdrk4":
        return Etdrk4Stepper(family, p, grid, dt, linear_only)
    if integrator == "imex":
        return ImexBdf2Stepper(family, p, grid, dt, linear_only)
    raise ValueError(f"unknown integrator {integrator!r}; expected one of {INTEGRATORS}")


def step(
    integrator: str,
    family: str,
    p: ModelParams,
    state: WavePair,
    dt: float,
    linear_only: bool = False,
) -> WavePair:
    """Advance one step.  For repeated stepping build a stepper via
    make_stepper and reuse it; this convenience wrapper re-derives the
    coefficients each call."""
    stepper = make_stepper(integrator, family, p, state.grid, dt, linear_only)
    q = stepper.advance(stepper.encode(state))
    if not np.all(np.isfinite(q)):
        raise BlowUpError(dt)
    return stepper.decode(q)


# ---------------------------------------------------------------------------
# global-existence criterion
# ---------------------------------------------------------------------------


def check_global_criterion(p: ModelParams, initial: WavePair) -> dict:
    """Small-data global-existence test for the b = d two-layer system.

    Checks |H| against the threshold gamma^2 (1-gamma) sqrt(mu|c|)/eps^2
    and positivity of inf(1 - (eps/gamma) zeta0).  When both hold the
    a-priori amplitude bound alpha = sqrt(|H| / ((1-gamma) sqrt(mu|c|)))
    applies for all time, with alpha < gamma/eps.  Requires b = d > 0,
    c < 0, and a <= 0; a = 0 is the degenerate case (flagged: the same
    bound holds with a weaker function-space conclusion).
    """
    report: dict = {"applicable": True, "notes": []}
    if abs(p.b - p.d) > 1e-12 or p.b <= 0.0:
        report["applicable"] = False
        report["notes"].append("criterion needs b = d > 0")
        return report
    if p.c >= 0.0:
        report["applicable"] = False
        report["notes"].append("criterion needs c < 0")
        return report
    if p.a > 0.0:
        report["applicable"] = False
        report["notes"].append("criterion needs a <= 0")
        return report
    if p.a == 0.0:
        report["degenerate"] = True
        report["notes"].append("a = 0: degenerate case, weaker space but same bound")
    else:
        report["degenerate"] = False

    from .functionals import hamiltonian_H

    h = hamiltonian_H(p, initial)
    g = p.gamma
    threshold = g**2 * (1.0 - g) * math.sqrt(p.mu * abs(p.c)) / p.epsilon**2
    inf_one_minus = float(np.min(1.0 - (p.epsilon / g) * initial.xi))
    alpha = math.sqrt(abs(h) / ((1.0 - g) * math.sqrt(p.mu * abs(p.c))))
    report.update(
        {
            "h_value": float(h),
            "threshold": threshold,
            "inf_one_minus": inf_one_minus,
            "alpha": alpha,
            "gamma_over_eps": g / p.epsilon,
            "satisfied": bool(abs(h) < threshold and inf_one_minus > 0.0),
        }
    )
    if h < 0.0:
        report["notes"].append("negative Hamiltonian; bound uses |H|")
    if report["satisfied"] and not alpha < g / p.epsilon:
        # cannot happen when |H| < threshold; kept as a consistency guard
        report["satisfied"] = False
        report["notes"].append("alpha >= gamma/eps despite threshold; inconsistent")
    return report


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------


def _h1_norm(grid: Grid, u: np.ndarray) -> float:
    uh = np.fft.rfft(u)
    weights = np.full(grid.k_half.shape, 2.0)
    weights[0] = 1.0
    if grid.N % 2 == 0:
        weights[-1] = 1.0
    dens = (1.0 + grid.k_half**2) * weights * np.abs(uh) ** 2
    return math.sqrt(float(np.sum(dens)) * grid.dx / grid.N)


def _top_third_fraction(grid: Grid, u: np.ndarray) -> float:
    uh = np.abs(np.fft.rfft(u)) ** 2
    cut = grid.dealias_cut
    total = float(np.sum(uh))
    return float(np.sum(uh[cut + 1 :]) / max(total, 1e-300))


def run(
    family: str,
    p: ModelParams,
    initial: WavePair,
    T: float,
    dt: float,
    integrator: str = "etdrk4",
    linear_only: bool = False,
    monitor_every: int = 1,
    snapshots_every: float | None = None,
    outdir: str | None = None,
) -> dict:
    """Integrate to time T, recording conservation and amplitude monitors.

    The Hamiltonian is tracked for the two-layer family when b = d (the
    conserved assembly); mass integrals of both fields are tracked always.
    When the initial data satisfies the global-existence criterion, the
    amplitude bound sup|zeta| <= alpha is asserted at every monitored step
    and a violation raises AmplitudeBoundError carrying t, the observed sup
    and alpha (a violation can only mean under-resolution or a bug).  Non-finite values abort with a
    blow-up report carrying the time stamp.
    """
    fam = _canon_family(family)
    grid = initial.grid
    nsteps = max(1, int(round(T / dt)))
    dt_eff = T / nsteps
    stepper = make_stepper(integrator, fam, p, grid, dt_eff, linear_only)

    track_h = fam in ("BFD_finite", "BFD_inf") and abs(p.b - p.d) <= 1e-12
    if track_h:
        from .functionals import hamiltonian_H

    cond = None
    if fam in ("BFD_finite", "BFD_inf") and not linear_only:
        cond = check_global_criterion(p, initial)

    dx = grid.dx
    h0 = hamiltonian_H(p, initial) if track_h else None
    mass_z0 = float(np.sum(initial.xi) * dx)
    mass_v0 = float(np.sum(initial.nu) * dx)

    times = [0.0]
    h_drift = [0.0] if track_h else []
    sup_z = [float(np.max(np.abs(initial.xi)))]
    min_one = [float(np.min(1.0 - (p.epsilon / p.gamma) * initial.xi))]
    h1_z = [_h1_norm(grid, initial.xi)]
    h1_v = [_h1_norm(grid, initial.nu)]
    top_frac = [max(_top_third_fraction(grid, initial.xi), _top_third_fraction(grid, initial.nu))]
    mass_dz = [0.0]
    mass_dv = [0.0]

    alpha_bound = None
    if cond is not None and cond.get("satisfied"):
        alpha_bound = cond["alpha"]

    summary: dict = {
        "family": fam,
        "integrator": integrator,
        "T": T,
        "dt": dt_eff,
        "steps": nsteps,
        "linear_only": linear_only,
        "condH": cond,
        "status": "completed",
    }

    q = stepper.encode(initial)
    snap_next = snapshots_every
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        pair_to_csv(initial, os.path.join(outdir, "snapshot_t0.csv"))

    t = 0.0
    state = initial
    for istep in range(1, nsteps + 1):
        q = stepper.advance(q)
        t = istep * dt_eff
        if not np.all(np.isfinite(q)):
            summary["status"] = "blow_up"
            summary["t_blow_up"] = t
            break
        if istep % monitor_every == 0 or istep == nsteps:
            state = stepper.decode(q)
            times.append(t)
            sz = float(np.max(np.abs(state.xi)))
            sup_z.append(sz)
            min_one.append(float(np.min(1.0 - (p.epsilon / p.gamma) * state.xi)))
            h1_z.append(_h1_norm(grid, state.xi))
            h1_v.append(_h1_norm(grid, state.nu))
            top_frac.append(
                max(_top_third_fraction(grid, state.xi), _top_third_fraction(grid, state.nu))
            )
            mass_dz.append(abs(float(np.sum(state.xi) * dx) - mass_z0))
            mass_dv.append(abs(float(np.sum(state.nu) * dx) - mass_v0))
            if track_h:
                h_now = hamiltonian_H(p, state)
                h_drift.append(abs(h_now - h0) / max(abs(h0), 1e-15))
            if alpha_bound is not None and sz > alpha_bound * (1.0 + 1e-9):
                raise AmplitudeBoundError(t, sz, alpha_bound)
        if (
            snapshots_every is not None
            and outdir is not None
            and snap_next is not None
            and t + 1e-12 >= snap_next
        ):
            state = stepper.decode(q)
            pair_to_csv(state, os.path.join(outdir, f"snapshot_t{t:.6g}.csv"))
            snap_next += snapshots_every

    if summary["status"] == "completed":
        summary["final_state"] = stepper.decode(q)
    summary.update(
        {
            "t_final": t,
            "times": times,
            "sup_zeta": sup_z,
            "sup_zeta_max": max(sup_z),
            "min_one_minus": min(min_one),
            "h1_zeta": h1_z,
            "h1_v": h1_v,
            "dealias_top_fraction_max": max(top_frac),
            "mass_drift_zeta": max(mass_dz),
            "mass_drift_v": max(mass_dv),
        }
    )
    if track_h:
        summary["h0"] = h0
        summary["h_drift"] = h_drift
        summary["h_drift_max"] = max(h_drift)
    return summary
