"""Pseudo-spectral time evolution for the three model families.

Each system has the structure

    T1 dz/dt = -d/dx [ S1 v - (eps/gamma) z v ]
    T2 dv/dt = -d/dx [ S2 z - (eps/2 gamma) v^2 ]

with elliptic factors T1, T2 and dispersive multipliers S1, S2 depending on
the family: the tables of `spectral.structure`, which the solvers read too.
The linear part is diagonalized by the characteristic variables
q+- = zhat +- P vhat, P = sqrt(A/B), A = S1/T1, B = S2/T2, where it reduces
to pure phase rotation at speeds +-sqrt(AB); ETDRK4, the one integrator
`run` drives, integrates that part exactly and the quadratic terms
explicitly.  The IMEX-BDF2 stepper is the tests' independent second-order
reference.  Quadratic products are formed in physical space and dealiased
by the 2/3 rule.

The two fields always travel together as one stacked (2, .) array, so each
nonlinear evaluation is one inverse and one forward real FFT (8 per ETDRK4
step, each a `spectral.irfft` or `rfft`: numpy's pocketfft kernels without
np.fft's per-call argument handling), with the constant flux coefficients
premultiplied once per stepper and the ETDRK4 stages evaluated in place, in
buffers allocated once per stepper.  The ETDRK4 weights are contour means
(Kassam & Trefethen) taken in row blocks of _WEIGHT_BLOCK frequencies, so
that building them holds little more memory than they take, and their
products are evaluated in one operand order at every N.  Every table a
stage multiplies by is complex, so no product casts a float operand: the
half spectra are (q+ + q-, q+ - q-) times one complex table of rows 1/2
and 1/(2P), and the stages form q_w n0 once, for qa and qc, and read 2 q_w
from a table.
Each step keeps its first stage: the half spectra, samples and products
(zeta v, v^2) of the state it starts from.  The run monitors read state n
from there once step n + 1 is taken, so they add no transform; only the
last state pays one stacked inverse FFT.  The H1 norms, the top-third
energy fraction and the quadratic part of the Hamiltonian are Parseval sums
with tables cached once per run; sup|zeta|, inf(1 - eps/gamma zeta), the
masses and the cubic term of H are taken in physical space, all written
into one buffer per run that a single `tolist` reads.  A run ends in one
of three statuses: `completed`, `blow_up` at a non-finite state, or
`aborted` at a state above the amplitude bound of the small-data criterion.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .functionals import energy_tables, hamiltonian_H
from .params import InadmissibleParameterError, ModelParams, family_params
from .spectral import Grid, WavePair, irfft, pair_to_csv, rfft, structure


def _quotients(family: str, p: ModelParams, grid: Grid):
    """(T1, T2, A = S1/T1, B = S2/T2) of the family's `structure`; the
    characteristic splitting needs the quotients A and B positive."""
    _, _, (t1, s1, t2, s2) = structure(family, p, grid)
    a_sym = s1 / t1
    b_sym = s2 / t2
    if np.min(a_sym) <= 0.0 or np.min(b_sym) <= 0.0:
        raise InadmissibleParameterError(
            "characteristic splitting needs positive symbol quotients; "
            "parameters are outside the admissible window"
        )
    return t1, t2, a_sym, b_sym


# the phase by which the fastest linear mode may advance in a suggested step
_MAX_PHASE = math.pi / 4.0


# the most steps `run` takes, far above the 20,000 of criterion 9's run: the
# suggested dt of parameters at the edge of their window can ask for 1e75
MAX_STEPS = 10**8


def step_count(T: float, dt: float) -> int:
    """The number of steps `run` takes to T at about dt, max(1, round(T / dt));
    ValueError unless T and dt are positive and finite and T / dt is at most
    MAX_STEPS."""
    # written so that NaN fails it
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf and T / dt <= MAX_STEPS):
        raise ValueError(f"T and dt must be positive and finite, and T / dt at most "
                         f"{MAX_STEPS:.0e}; got T = {T!r}, dt = {dt!r}")
    return max(1, int(round(T / dt)))


def suggest_dt(family: str, p: ModelParams, grid: Grid) -> float:
    """Largest dt for which the fastest linear mode advances < _MAX_PHASE per step."""
    _, _, a_sym, b_sym = _quotients(family, p, grid)
    speed = np.sqrt(a_sym * b_sym)
    omega_max = float(np.max(grid.k_half * speed))
    if omega_max == 0.0:
        raise ValueError("grid has no nonzero modes")
    return _MAX_PHASE / omega_max


# ---------------------------------------------------------------------------
# steppers in characteristic variables
# ---------------------------------------------------------------------------


class _CharacteristicBase:
    """Shared machinery: transforms between (z, v) and q+- = zhat +- P vhat.

    Both fields are carried as one stacked (2, .) array: rows (zeta, v) in
    physical space, (zhat, vhat) as half spectra, (q+, q-) in characteristic
    variables.
    """

    def __init__(self, family: str, p: ModelParams, grid: Grid, dt: float):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        self.grid = grid
        self.dt = float(dt)
        t1, t2, a_sym, b_sym = _quotients(family, p, grid)
        self.pfac = np.sqrt(a_sym / b_sym)
        # complex rows 1/2 and 1/(2P) that take (q+ + q-, q+ - q-) to
        # (zhat, vhat) in one all-complex multiply
        self._unmix = np.vstack([np.full_like(self.pfac, 0.5), 0.5 / self.pfac]).astype(complex)
        speed = np.sqrt(a_sym * b_sym)
        ik = 1j * grid.k_half
        # rows: q+ rotates with -ik*speed, q- with +ik*speed
        self.lam = np.vstack([-ik * speed, ik * speed])
        g = p.gamma
        mask = grid.dealias_mask()
        # dealiased flux coefficients applied to the spectra of (zeta v, v^2);
        # the second row carries the factor P of the characteristic variables
        self._flux = np.vstack(
            [
                (p.epsilon / g) * mask * ik / t1,
                self.pfac * ((p.epsilon / (2.0 * g)) * mask * ik / t2),
            ]
        )
        # the first stage of the last advance, kept for the run monitors: the
        # half spectra, samples and products (zeta v, v^2) of its start state
        self.stage = (np.empty_like(self.lam), np.empty((2, grid.N)), np.empty((2, grid.N)))
        # the same for the later stages, and the spectra of their products
        self._scratch = tuple(np.empty_like(b) for b in self.stage)
        self._f = np.empty_like(self.lam)

    def spectral(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectra (zhat, vhat) of the characteristic state q; no FFT."""
        s = np.empty_like(q) if out is None else out
        np.add(q[0], q[1], out=s[0])
        np.subtract(q[0], q[1], out=s[1])
        s *= self._unmix
        return s

    def from_spectral(self, s: np.ndarray) -> np.ndarray:
        """Characteristic state q of the half spectra s = (zhat, vhat)."""
        pv = self.pfac * s[1]
        return np.stack([s[0] + pv, s[0] - pv])

    def nonlinear(self, q: np.ndarray, out: np.ndarray, stage: tuple | None = None) -> np.ndarray:
        """N(q) written into out.  The stage's half spectra s, samples zv and
        products (zeta v, v^2) are formed in the buffers `stage`, or in
        scratch buffers when it is None."""
        s, zv, prod = self._scratch if stage is None else stage
        self.spectral(q, out=s)
        irfft(s, self.grid.N, out=zv)
        np.multiply(zv[1], zv, out=prod)
        # one forward FFT of the stacked products (zeta v, v^2)
        f = rfft(prod, out=self._f)
        f *= self._flux
        np.add(f[0], f[1], out=out[0])
        np.subtract(f[0], f[1], out=out[1])
        return out


# rows of the ETDRK4 contour means evaluated at once: each (128, 32) complex
# temporary is 64 KiB, inside a 2 MiB per-core L2 and below the 256 KiB from
# which numpy reuses a temporary operand in place.  That reuse evaluates
# e_lr * (...) as (...) * e_lr, and numpy's complex product is not bitwise
# commutative, so whole (N/2 + 1, 32) slabs would also give weights whose
# last bits depend on N
_WEIGHT_BLOCK = 128


class Etdrk4Stepper(_CharacteristicBase):
    """Exponential time differencing RK4; exact on the linear part.

    The phi-function weights are evaluated by contour averaging over 32
    points of a full circle of radius 1 around each dt*lambda, which is
    stable for the purely imaginary spectra arising here.  The two rows of
    lambda are conjugate, and so are the weights: they are evaluated on the
    q+ row, and the q- row takes their conjugate.  The contour means are
    taken _WEIGHT_BLOCK rows at a time, so construction holds little more
    than the weights it keeps, and every product is evaluated in its
    written operand order at every N.
    """

    def __init__(self, family, p, grid, dt):
        super().__init__(family, p, grid, dt)
        ldt = self.dt * self.lam[0]
        m = 32
        rts = np.exp(2j * math.pi * (np.arange(1, m + 1) - 0.5) / m)
        # the q+ and q- rows of e_full, e_half, q_w, f1_w, f2_w and f3_w
        w = np.empty((6, 2, ldt.size), dtype=complex)
        np.exp(ldt, out=w[0, 0])
        np.exp(0.5 * ldt, out=w[1, 0])
        for r0 in range(0, ldt.size, _WEIGHT_BLOCK):
            rows = slice(r0, r0 + _WEIGHT_BLOCK)
            lr = ldt[rows, None] + rts[None, :]
            e_lr, lr3 = np.exp(lr), lr**3
            w[2:, 0, rows] = (
                self.dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1),
                self.dt * np.mean((-4.0 - lr + e_lr * (4.0 - 3.0 * lr + lr**2)) / lr3, axis=-1),
                # carries the factor 2 with which the scheme weights (na + nb)
                2.0 * self.dt * np.mean((2.0 + lr + e_lr * (-2.0 + lr)) / lr3, axis=-1),
                self.dt * np.mean((-4.0 - 3.0 * lr - lr**2 + e_lr * (4.0 - lr)) / lr3, axis=-1),
            )
        np.conjugate(w[:, 0], out=w[:, 1])
        self.e_full, self.e_half, self.q_w, self.f1_w, self.f2_w, self.f3_w = w
        self._q_w2 = 2.0 * self.q_w
        # stage values (n0, na, nb, nc), e_half q, the stage states (qa, then
        # qb in the same buffer, and qc), q_w n0 and one scratch array,
        # allocated once
        self._bufs = [np.empty_like(self.lam) for _ in range(9)]

    def advance(self, q: np.ndarray) -> np.ndarray:
        # the Cox-Matthews stages
        #   qa = e_half q + q_w n0,  qb = e_half q + q_w na,
        #   qc = e_half qa + q_w (2 nb - n0),
        #   q' = e_full q + f1_w n0 + f2_w (na + nb) + f3_w nc,
        # with q_w n0 formed once for qa and qc, and qc summed as
        # (e_half qa - q_w n0) + (2 q_w) nb
        n0, na, nb, nc, eq, qab, qc, qwn0, tmp = self._bufs
        self.nonlinear(q, n0, self.stage)
        np.multiply(self.e_half, q, out=eq)
        np.multiply(self.q_w, n0, out=qwn0)
        np.add(eq, qwn0, out=qab)
        self.nonlinear(qab, na)
        np.multiply(self.e_half, qab, out=qc)
        qc -= qwn0
        np.multiply(self.q_w, na, out=qab)
        qab += eq
        self.nonlinear(qab, nb)
        np.multiply(self._q_w2, nb, out=tmp)
        qc += tmp
        self.nonlinear(qc, nc)
        # the new state is the one array allocated per step: callers keep it
        out = np.multiply(self.e_full, q)
        np.multiply(self.f1_w, n0, out=tmp)
        out += tmp
        na += nb
        na *= self.f2_w
        out += na
        np.multiply(self.f3_w, nc, out=tmp)
        out += tmp
        return out


class ImexBdf2Stepper(_CharacteristicBase):
    """Second-order IMEX-BDF2: implicit exact-diagonal linear part,
    explicitly extrapolated nonlinear part.  Cross-check integrator."""

    def __init__(self, family, p, grid, dt):
        super().__init__(family, p, grid, dt)
        self.prev_q = None
        self.prev_n = None
        self._inv = 1.0 / (1.5 - self.dt * self.lam)

    def advance(self, q: np.ndarray) -> np.ndarray:
        if self.prev_q is None:
            # first step: trapezoidal IMEX startup at the same order budget
            n0 = self.nonlinear(q, np.empty_like(q), self.stage)
            inv1 = 1.0 / (1.0 - 0.5 * self.dt * self.lam)
            qmid = inv1 * (q + 0.5 * self.dt * (self.lam * q) + self.dt * n0)
            nmid = self.nonlinear(qmid, np.empty_like(q))
            qn = inv1 * (
                q + 0.5 * self.dt * (self.lam * q) + 0.5 * self.dt * (n0 + nmid)
            )
            self.prev_q, self.prev_n = q, n0
            return qn
        n_cur = self.nonlinear(q, np.empty_like(q), self.stage)
        rhs_q = 2.0 * q - 0.5 * self.prev_q + self.dt * (2.0 * n_cur - self.prev_n)
        qn = self._inv * rhs_q
        self.prev_q, self.prev_n = q, n_cur
        return qn


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
    gates = (
        (abs(p.b - p.d) > 1e-12 or p.b <= 0.0, "criterion needs b = d > 0"),
        (p.c >= 0.0, "criterion needs c < 0"),
        (p.a > 0.0, "criterion needs a <= 0"),
    )
    for fails, note in gates:
        if fails:
            return {"applicable": False, "notes": [note]}
    report: dict = {"applicable": True, "notes": [], "degenerate": p.a == 0.0}
    if report["degenerate"]:
        report["notes"].append("a = 0: degenerate case, weaker space but same bound")

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


class _Monitor:
    """Per-step diagnostics of one state, given as its half spectra
    s = (zhat, vhat) and its samples zv = (zeta, v), both stacked (2, .).

    The H1 norms, the top-third energy fraction and the quadratic part of H
    are Parseval sums over the rfft bins with weights tabulated once;
    sup|zeta|, inf(1 - eps/gamma zeta), the masses and the cubic term of H
    are taken in physical space.
    """

    def __init__(self, p: ModelParams, grid: Grid, track_h: bool):
        self.r = p.epsilon / p.gamma
        self.dx = grid.dx
        m = grid.N // 2 + 1
        # Parseval weights with the quadrature factor dx/N: the bins strictly
        # between 0 and N/2 stand for two Fourier modes each
        w = np.full(m, 2.0 * grid.dx / grid.N)
        w[0] = w[-1] = grid.dx / grid.N
        cols = [w, np.where(np.arange(m) > grid.dealias_cut, w, 0.0), (1.0 + grid.k_half**2) * w]
        self.track_h = track_h
        if track_h:
            # H's quadratic part: E's diagonal tables at omega = 0
            a11, _, a22 = energy_tables(p, 0.0, grid)
            cols += [0.5 * a11 * w, 0.5 * a22 * w]
        # one row per real and per imaginary part of each bin, so that the
        # squared float view of s is summed by a single product
        self.weights = np.repeat(np.column_stack(cols), 2, axis=0)
        self._squares = np.empty((2, 2 * m))
        # every number of a sample lands in one buffer, read by one tolist:
        # max zeta, min zeta, the sums of zeta and of v, zeta . v^2, then the
        # Parseval sums of zhat and of vhat, one per weight column
        self._ncols = len(cols)
        self._values = np.zeros(5 + 2 * self._ncols)
        self._z_max, self._z_min, self._cubic = (
            self._values[i : i + 1].reshape(()) for i in (0, 1, 4)
        )
        self._sample_sums = self._values[2:4]
        self._parseval = self._values[5:].reshape(2, self._ncols)

    def __call__(self, s: np.ndarray, zv: np.ndarray, v2: np.ndarray) -> tuple:
        """(sup|zeta|, inf(1 - eps/gamma zeta), mass of zeta, mass of v,
        H1 norm of zeta, H1 norm of v, top-third energy fraction, H or None)
        of the state with half spectra s, samples zv and v^2 = v2."""
        np.square(s.view(np.float64), out=self._squares)
        np.matmul(self._squares, self.weights, out=self._parseval)
        zeta = zv[0]
        np.maximum.reduce(zeta, out=self._z_max)
        np.minimum.reduce(zeta, out=self._z_min)
        np.add.reduce(zv, axis=1, out=self._sample_sums)
        if self.track_h:
            np.dot(zeta, v2, out=self._cubic)
        z_max, z_min, sum_z, sum_v, cubic, *parseval = self._values.tolist()
        tot_z, top_z, h1_z, *quad_z = parseval[: self._ncols]
        tot_v, top_v, h1_v, *quad_v = parseval[self._ncols :]
        h = None
        if self.track_h:
            h = quad_z[0] + quad_v[1] - 0.5 * self.r * self.dx * cubic
        return (
            max(z_max, -z_min),
            1.0 - self.r * z_max,  # eps/gamma > 0: the infimum sits at max zeta
            sum_z * self.dx,
            sum_v * self.dx,
            math.sqrt(h1_z),
            math.sqrt(h1_v),
            max(top_z / max(tot_z, 1e-300), top_v / max(tot_v, 1e-300)),
            h,
        )


def run(
    family: str,
    p: ModelParams,
    initial: WavePair,
    T: float,
    dt: float,
    snapshots_every: float | None = None,
    outdir: str | None = None,
) -> dict:
    """Integrate to time T by ETDRK4 (`Etdrk4Stepper`), recording
    conservation and amplitude monitors.

    p is taken at the family's depth (`family_params`), so the stepper, the
    monitors and the global-existence criterion read the same symbols.  The
    Hamiltonian is tracked for the two-layer family when b = d (the
    conserved assembly); mass integrals of both fields are tracked always.
    State n is monitored one step late, once step n + 1 is taken, from that
    step's first stage: its half spectra (zhat, vhat), its samples and the
    products (zeta v, v^2), so the monitors add no transform.  Only the last
    state pays its own stacked inverse FFT.  The quadratic monitors (H1
    norms, top-third energy fraction, the quadratic part of H) are Parseval
    sums with tables cached once per run, while sup|zeta|, the masses and
    the cubic term of H come from the samples; the initial values, h0
    included, take the same path from the initial data's own transform.
    Snapshots are written from the same samples, after the state's
    monitors.  The run ends in one status.  "completed" reaches T and
    keeps the last state as "final_state".  "blow_up" stops at the first
    state that is not finite, tested after the previous state is
    monitored: "t_blow_up" and "t_final" are its time, and the series end
    at the state before it.  "aborted" stops at the first state with
    sup|zeta| > alpha, asserted at every state when the initial data
    satisfies the global-existence criterion (a violation can only mean
    under-resolution or a bug): "t_final" is its time, the series run
    through it, "error" names t, the observed sup and alpha, and the state
    is neither snapshot nor kept.
    """
    nsteps = step_count(T, dt)
    fam, p = family_params(family, p)
    grid = initial.grid
    dt_eff = T / nsteps
    stepper = Etdrk4Stepper(fam, p, grid, dt_eff)

    two_layer = fam in ("BFD_finite", "BFD_inf")
    track_h = two_layer and abs(p.b - p.d) <= 1e-12
    cond = check_global_criterion(p, initial) if two_layer else None
    alpha_bound = cond["alpha"] if cond is not None and cond.get("satisfied") else None

    summary: dict = {
        "family": fam,
        "T": T,
        "dt": dt_eff,
        "steps": nsteps,
        "condH": cond,
        "status": "completed",
    }

    monitor = _Monitor(p, grid, track_h)
    zv = np.stack([initial.xi, initial.nu])
    s = rfft(zv)
    q = stepper.from_spectral(s)
    times = [0.0]
    samples = [monitor(s, zv, zv[1] * zv[1])]
    snap_next = None
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        pair_to_csv(initial, os.path.join(outdir, "snapshot_t0.csv"))
        snap_next = snapshots_every

    def observe(n: int, s: np.ndarray, zv: np.ndarray, v2: np.ndarray) -> bool:
        """Monitor state n from its half spectra s, samples zv and v^2 = v2,
        and snapshot it when one is due; True, with the run aborted, when it
        exceeds the amplitude bound."""
        nonlocal snap_next
        t_n = n * dt_eff
        sample = monitor(s, zv, v2)
        times.append(t_n)
        samples.append(sample)
        if alpha_bound is not None and sample[0] > alpha_bound * (1.0 + 1e-9):
            summary["status"] = "aborted"
            summary["error"] = (
                f"amplitude bound violated: sup|zeta| = {sample[0]:.6g} > alpha = "
                f"{alpha_bound:.6g} at t = {t_n:.6g}; the run is under-resolved "
                "or the stepper is wrong"
            )
            return True
        if snap_next is not None and t_n + 1e-12 >= snap_next:
            pair = WavePair(grid=grid, xi=zv[0], nu=zv[1])
            pair_to_csv(pair, os.path.join(outdir, f"snapshot_t{t_n:.6g}.csv"))
            snap_next += snapshots_every
        return False

    # state n is observed once step n + 1 is taken, from that step's first
    # stage, which holds its spectra, samples and products; the last state
    # pays its own transform.  An overflowing step is reported by the
    # non-finite test alone, not by numpy's warnings as well
    with np.errstate(over="ignore", invalid="ignore"):
        for istep in range(1, nsteps + 1):
            q = stepper.advance(q)
            if istep > 1:
                s, zv, prod = stepper.stage
                if observe(istep - 1, s, zv, prod[1]):
                    break
            if not np.isfinite(q).all():
                summary["status"] = "blow_up"
                summary["t_blow_up"] = istep * dt_eff
                break
        else:
            s = stepper.spectral(q)
            zv = irfft(s, grid.N)
            if not observe(nsteps, s, zv, zv[1] * zv[1]):
                summary["final_state"] = WavePair(grid=grid, xi=zv[0], nu=zv[1])

    sup_z, min_one, mass_z, mass_v, h1_z, h1_v, top_frac, h_values = map(list, zip(*samples))
    summary.update(
        {
            "t_final": summary.get("t_blow_up", times[-1]),
            "times": times,
            "sup_zeta": sup_z,
            "sup_zeta_max": max(sup_z),
            "min_one_minus": min(min_one),
            "h1_zeta": h1_z,
            "h1_v": h1_v,
            "dealias_top_fraction_max": max(top_frac),
            "mass_drift_zeta": max(abs(m - mass_z[0]) for m in mass_z),
            "mass_drift_v": max(abs(m - mass_v[0]) for m in mass_v),
        }
    )
    if track_h:
        h0 = h_values[0]
        h_drift = [abs(h - h0) / max(abs(h0), 1e-15) for h in h_values]
        summary["h0"] = h0
        summary["h_drift"] = h_drift
        summary["h_drift_max"] = max(h_drift)
    return summary
