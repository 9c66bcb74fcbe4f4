"""Solitary-wave solvers for the three model families.

`solve(family, p, speed, grid=grid)` is the one way to a single wave,
and the one place where the family decides the path to it: a BFD wave is
solved directly from a sech^2 bump; a BO wave starts from the ground state
at c = 0 and an ILW wave from the same ground state continued in depth to
its own mu2 (the path of `continue_in_mu2`), and either is then continued
in speed to c != 0 (the path of `continue_in_c`).  It returns the wave and
the record of its last solve, whose iterations count every accepted solve
on the way.

One scalar equation serves every travelling wave.  Every family's system
is stated once, by the tables (T1, S1, T2, S2) of `spectral.structure`: a
wave of speed c solves

    -c T1 xi + S1 nu - 2 r xi nu = 0,   -c T2 nu + S2 xi - r nu^2 = 0.

The second equation gives the lift xi = S2^{-1}(c T2 nu + r nu^2), and
substituting it into the first leaves the reduced equation M nu = G(nu)
(`_Reduced`) with

    M = S1 - c^2 T1 T2 / S2,   G(nu) = c r T1 S2^{-1}(nu^2) + 2 r xi nu,

row one of the system for BO and ILW (T2 = 1, S2 = 1 - gamma: the lift is
algebraic, and at c = 0 M = op2 is the ground-state problem) and (1 - gamma)
times row one for BFD (T2 = J_d, S2 = (1 - gamma) J_c), the scale in which
TOL_RESIDUAL is stated.  One Petviashvili fixed-point iteration
(`_petviashvili`) solves it for every family, and one stop rule ends it
(`_solve`): the reduced residual reaches TOL_RESIDUAL (exit "converged"), or
it stops halving for _STALL_ITERS iterations within 10 TOL_RESIDUAL (exit
"floor", the spectral roundoff floor).  One continuation loop
(`_continuation`) marches branches in the speed c and in the depth parameter
mu2, each milestone warm-started from the last wave solved.  Constrained
minimization of the energy on {F = lambda} is an independent path.

Certification.  Every returned wave carries the direct-substitution residual
of its two-field system (`residual_norm`, through `_System`), code the
solver itself does not run; a wave whose system residual exceeds 10 times
its reduced residual (or TOL_RESIDUAL) is refused.

Accelerated Petviashvili.  The fixed point converges only linearly, so
`_petviashvili` mixes its iterates (Anderson type II over the last
_ANDERSON_DEPTH differences; Walker & Ni, SIAM J. Numer. Anal. 49 (2011)):
each plain iterate is replaced by the least-squares combination of the
window's images.  The combination is taken in physical space and costs no
transform, and every yielded residual is the true residual M nu - G(nu) of
the yielded iterate.  A fit that fails, is not finite or has a coefficient
above _MAX_MIXING keeps the plain iterate and restarts the window.  Against
cycling minimal polynomial and reduced rank extrapolation (windows 3 to 8;
Sidi 2017) it reached the same certified residuals with the fewest
transforms.  With the mixing, the exponents q = 3/2 and 2 take the same
iterations on every problem, so the exponent is the constant _EXPONENT,
inside the convergent range of both the quadratic (1 < q < 3) and the cubic
(1 < q < 2) source (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42
(2004)).  An iterate whose stabilizing factor S is not positive and finite,
or whose residual is not finite, ends the iteration with a ConvergenceError
before it is mixed.

All solves work in the even subspace: profiles are symmetrized about x = 0
at every iteration, which pins the translation mode.

Transform economy.  An iteration makes four transforms: one stacked rfft of
(nu^2, nu) (of nu alone for BO/ILW at c = 0), one stacked irfft of every
multiplier row, and the rfft/irfft pair of M^{-1}; scalar tables multiply
in physical space.  The lift of xi reads only its own rows, scalars for BO
and ILW, so there it makes no transform.  The iteration carries the
residual of each iterate into the next step, and the BFD start-up amplitude
scan is closed-form: M is linear and G(a s) = a^2 Q(s) + a^3 C(s), so three
inner products of one shape s give the ratio at every amplitude.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import count, islice

import numpy as np

from .functionals import energy_E
from .params import ModelParams, family_params
from .spectral import (
    Grid,
    WavePair,
    apply_table,
    make_grid,
    pair_from_csv,
    structure,
    symbols,
    symmetrize_even as _even,
)

class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# the reduced residual every solve reaches (or its floor within 10 times it);
# the iterations a solve, and the constrained descent, may take; the distance
# in the continuation parameter within which a failed solve ends a branch
TOL_RESIDUAL = 1e-11
_MAX_ITERS = 500
_MIN_STEP = 1e-5


@dataclass
class SolitaryBranch:
    """A continuation branch: one wave pair per parameter sample."""

    family: str
    parameter_values: list[float]
    waves: Sequence[WavePair]
    residuals: list[float]
    diagnostics: dict = field(default_factory=dict)


def trivial_threshold(p: ModelParams) -> float:
    """Amplitude scale below which a profile counts as the trivial branch."""
    eta = p.epsilon**2 / (2.0 * p.gamma**2 * (1.0 - p.gamma))
    return 1e-3 * math.sqrt(1.0 / (eta * p.gamma))


# ---------------------------------------------------------------------------
# governing systems: the certification residual and the reduced equation
# ---------------------------------------------------------------------------


class _RowPlan:
    """Tables applied to fields, planned once: row i applies tables[i] to
    fields[picks[i]].  The multipliers take one stacked rfft of the fields
    they read and one stacked irfft; a scalar table multiplies in physical
    space, and a plan of scalar tables alone makes no transform."""

    def __init__(self, tables, picks, n: int):
        self._n = n
        self._rows = [(t, k, isinstance(t, np.ndarray)) for t, k in zip(tables, picks)]
        arrays = [(t, k) for t, k, is_array in self._rows if is_array]
        self._reads = sorted({k for _, k in arrays})
        self._stack = np.stack([t for t, _ in arrays]) if arrays else None
        self._picks = [self._reads.index(k) for _, k in arrays]

    def __call__(self, fields) -> list[np.ndarray]:
        rows = iter(())
        if self._reads:
            spectra = np.fft.rfft(np.stack([fields[k] for k in self._reads]), axis=-1)
            rows = iter(np.fft.irfft(self._stack * spectra[self._picks], n=self._n, axis=-1))
        return [next(rows) if is_array else t * fields[k] for t, k, is_array in self._rows]


class _System:
    """The two-field residual of one family at speed c, at the family's
    depth: (-c T1 xi + S1 nu - 2 r xi nu, -c T2 nu + S2 xi - r nu^2) with
    the tables of `structure`."""

    def __init__(self, family: str, p: ModelParams, grid: Grid, speed: float):
        _, self.p, tables = structure(family, p, grid)
        self.speed = float(speed)
        # T1 and S2 act on xi, S1 and T2 on nu
        self._plan = _RowPlan(tables, (0, 1, 1, 0), grid.N)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The residual stack (r1, r2) at x = (xi, nu)."""
        r, c = self.p.r, self.speed
        xi, nu = x
        t1_xi, s1_nu, t2_nu, s2_xi = self._plan(x)
        return np.stack(
            [-c * t1_xi + s1_nu - 2.0 * r * xi * nu, -c * t2_nu + s2_xi - r * nu * nu]
        )


def residual_norm(family: str, p: ModelParams, speed: float, w: WavePair) -> float:
    """Max norm of the direct-substitution residual of the governing system."""
    r = _System(family, p, w.grid, speed).residual(np.stack([w.xi, w.nu]))
    return float(np.max(np.abs(r)))


class _Reduced:
    """The scalar reduced equation M nu = G(nu) of one family at speed c, at
    the family's depth (see the module docstring).  Refuses a speed at which
    M takes non-positive values: the wave's speed has left the window."""

    def __init__(self, family: str, p: ModelParams, grid: Grid, speed: float):
        self.family, self.p, (t1, s1, t2, s2) = structure(family, p, grid)
        self.grid = grid
        self.speed = c = float(speed)
        # row one of the system for a scalar S2 (BO, ILW); times 1 - gamma for
        # a multiplier S2 (BFD), the scale in which its tolerances are stated
        scale = 1.0 if np.isscalar(s2) else 1.0 - self.p.gamma
        self._scale_r = scale * self.p.r
        self.mhat = scale * (s1 - c * c * t1 * t2 / s2)
        # rows on (nu^2, nu): M nu and 1/S2 nu^2, and at c != 0 the rows that c
        # multiplies, T1/S2 nu^2 and T2/S2 nu
        tables = [self.mhat, 1.0 / s2] + ([t1 / s2, t2 / s2] if c else [])
        self._plan = _RowPlan(tables, (1, 0, 0, 1), grid.N)
        # the lift's own rows, 1/S2 nu^2 and at c != 0 T2/S2 nu: scalars, and
        # so no transform, for BO and ILW
        self._lift = _RowPlan([tables[1], *tables[3:]], (0, 1), grid.N)
        if np.min(self.mhat) <= 0.0:
            raise ConvergenceError(
                f"reduced symbol takes non-positive values (min {np.min(self.mhat):.3e}) at "
                f"speed {c!r}; parameters are outside the admissible window"
            )

    def parts(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M nu, Q(nu), C(nu)): G(nu) = Q(nu) + C(nu), with Q homogeneous of
        degree 2 and C of degree 3."""
        m_nu, inv_sq, *c_rows = self._plan((nu * nu, nu))
        k, c = self._scale_r, self.speed
        if c_rows:
            t1_sq, t2_nu = c_rows
            quad = k * c * t1_sq + 2.0 * k * c * nu * t2_nu
        else:
            quad = np.zeros_like(nu)
        return m_nu, quad, 2.0 * k * self.p.r * nu * inv_sq

    def evaluate(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M nu, G(nu))."""
        m_nu, quad, cubic = self.parts(nu)
        return m_nu, quad + cubic

    def lift(self, nu: np.ndarray) -> np.ndarray:
        """The xi = c T2/S2 nu + r/S2 nu^2 that solves the second equation
        with nu."""
        inv_sq, *t2_nu = self._lift((nu * nu, nu))
        xi = self.p.r * inv_sq
        return _even(self.speed * t2_nu[0] + xi if t2_nu else xi)


# ---------------------------------------------------------------------------
# Petviashvili iteration
# ---------------------------------------------------------------------------


# the Petviashvili exponent; Anderson mixing of the iteration: the number of
# past differences it combines, and the size of a mixing coefficient beyond
# which the least-squares problem is taken as noise and the plain iterate kept
_EXPONENT = 1.5
_ANDERSON_DEPTH = 5
_MAX_MIXING = 1e3
# the stop rule: an iteration that does not halve the smallest residual so
# far makes no progress, and _STALL_ITERS of them in a row end the solve
_STALL_ITERS = 12


def _anderson_mixing(d_res: np.ndarray, res: np.ndarray) -> np.ndarray | None:
    """The coefficients theta minimizing ||res - theta d_res||, or None when
    they are not finite or exceed _MAX_MIXING."""
    try:
        theta = np.linalg.lstsq(d_res.T, res, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > _MAX_MIXING:
        return None
    return theta


def _petviashvili(evaluate, inv_m: np.ndarray, nu: np.ndarray, q: float, dx: float):
    """Anderson-accelerated Petviashvili iterates of M nu = G(nu), G
    homogeneous of degree > 1 or a sum of such terms.

    The plain iteration maps nu to F(nu) = S^q M^{-1} G(nu), projected onto
    the even subspace, with the stabilizing factor S = <M nu, nu>/<G(nu),
    nu>.  Anderson mixing (type II, depth _ANDERSON_DEPTH) replaces F(nu_k)
    by the combination F(nu_k) - sum_j theta_j (F(nu_{j+1}) - F(nu_j)) over
    the window of past iterates, with theta the least-squares fit of the
    newest fixed-point residual F(nu_k) - nu_k by the window's residual
    differences; the result is projected onto the even subspace.  The
    combination is taken in physical space, so it costs no transform: an
    iteration makes the transforms of one M^{-1} and one evaluate, as the
    plain iteration does.  Guard: a fit that fails, is not finite or has a
    coefficient above _MAX_MIXING keeps the plain iterate and restarts the
    window from it.  An iterate whose S is not positive and finite, or whose
    residual is not finite, raises a ConvergenceError carrying the iterate's
    index (0 for the start), S and residual, before anything is mixed.

    evaluate(nu) returns (M nu, G(nu)); its value at one iterate gives both
    that iterate's residual and the next iteration.  Yields (nu, S, ||M nu -
    G(nu)||_inf) after every iteration, S of the iterate the step started
    from; the residual is always that of the yielded nu, so the caller's
    stopping rule reads a true residual.
    """
    m_nu, g_nu = evaluate(nu)
    res = float(np.max(np.abs(m_nu - g_nu)))
    xs: list[np.ndarray] = []  # the window's iterates ...
    fs: list[np.ndarray] = []  # ... and their plain images F
    for it in count():
        den = dx * np.dot(nu, g_nu)
        if den == 0.0:
            raise ConvergenceError("iterate collapsed to the trivial branch")
        s_val = dx * np.dot(nu, m_nu) / den
        if not (0.0 < s_val < math.inf and math.isfinite(res)):
            raise ConvergenceError(
                f"Petviashvili iterate {it}: stabilizing factor S = {s_val:.3e}, "
                f"residual {res:.3e}",
                {"iteration": it, "S": float(s_val), "residual": res},
            )
        f = _even(s_val**q * apply_table(inv_m, g_nu))
        xs = xs[-_ANDERSON_DEPTH:] + [nu]
        fs = fs[-_ANDERSON_DEPTH:] + [f]
        nu = f
        if len(xs) > 1:
            images = np.array(fs)
            res_k = images - np.array(xs)
            theta = _anderson_mixing(np.diff(res_k, axis=0), res_k[-1])
            if theta is None:
                xs, fs = [], []
            else:
                nu = _even(f - theta @ np.diff(images, axis=0))
        m_nu, g_nu = evaluate(nu)
        res = float(np.max(np.abs(m_nu - g_nu)))
        yield nu, s_val, res


def _solve(red: _Reduced, nu: np.ndarray) -> tuple[WavePair, dict]:
    """The wave of red's equation reached by `_petviashvili` from nu, and its
    record {iterations, exit, residual, S_minus_1, full_residual}.

    Stop rule: the reduced residual reaches TOL_RESIDUAL (exit "converged"),
    or it has not halved the smallest residual so far for _STALL_ITERS
    iterations while that one lies within 10 TOL_RESIDUAL (exit "floor"); the
    iterate of the smallest residual is returned.  A stall above that margin,
    _MAX_ITERS iterations, a collapse to the trivial branch or a system
    residual above 10 max(TOL_RESIDUAL, reduced residual) raise.
    """
    best_res, best_nu, best_s = math.inf, nu, math.nan
    stalled = iterations = 0
    exit_reason = None
    iterates = _petviashvili(red.evaluate, 1.0 / red.mhat, nu, _EXPONENT, red.grid.dx)
    for iterations, (nu, s_val, res) in enumerate(islice(iterates, _MAX_ITERS), 1):
        stalled = 0 if res <= 0.5 * best_res else stalled + 1
        if res < best_res:
            best_res, best_nu, best_s = res, nu, s_val
        if res <= TOL_RESIDUAL:
            exit_reason = "converged"
            break
        if stalled >= _STALL_ITERS:
            if best_res > 10.0 * TOL_RESIDUAL:
                raise ConvergenceError(
                    f"stagnation: S = {best_s:.6f}, residual {best_res:.3e} not halving",
                    {"S": best_s, "residual": best_res, "iterations": iterations},
                )
            exit_reason = "floor"
            break
    if exit_reason is None:
        raise ConvergenceError(
            f"no convergence in {_MAX_ITERS} iterations (residual {best_res:.3e})",
            {"S": best_s, "residual": best_res, "iterations": iterations},
        )
    if np.max(np.abs(best_nu)) < trivial_threshold(red.p):
        raise ConvergenceError("converged to the trivial branch (amplitude collapse)")
    pair = WavePair(grid=red.grid, xi=red.lift(best_nu), nu=best_nu)
    full_res = residual_norm(red.family, red.p, red.speed, pair)
    if full_res > 10.0 * max(TOL_RESIDUAL, best_res):
        raise ConvergenceError(
            f"full-system residual {full_res:.3e} inconsistent with reduced residual "
            f"{best_res:.3e}"
        )
    return pair, {
        "iterations": iterations,
        "exit": exit_reason,
        "residual": best_res,
        "S_minus_1": best_s - 1.0,
        "full_residual": full_res,
    }


def _bo_start(p: ModelParams, grid: Grid) -> tuple[WavePair, dict]:
    """The c = 0 BO pair: the even positive ground state of op2 nu = 2 r^2
    nu^3/(1-gamma) and xi = r nu^2/(1-gamma), with its `_solve` record."""
    red = _Reduced("BO", p, grid, 0.0)
    # Lorentzian-squared bump at the dispersive width; the amplitude is fixed
    # by S(amp) = 1, which is scale-invariant (a raw-residual search would
    # collapse to the trivial branch as amp -> 0)
    width = (p.beta - 1.0) / p.gamma * math.sqrt(p.mu)
    shape = 1.0 / (1.0 + (grid.x / width) ** 2) ** 2
    m_s, _, cubic_s = red.parts(shape)
    nu = math.sqrt(np.dot(shape, m_s) / np.dot(shape, cubic_s)) * shape
    pair, info = _solve(red, nu)
    if np.min(pair.nu) < -1e-6 * np.max(np.abs(pair.nu)):
        raise ConvergenceError(
            f"loss of positivity: min nu = {np.min(pair.nu):.3e}",
            {"min_value": float(np.min(pair.nu))},
        )
    return pair, info


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def _continuation(
    family: str,
    p_of,
    speed_of,
    start: tuple[WavePair, dict],
    targets: list[float],
    label,
    truncation_key: str,
) -> tuple[list[float], list[WavePair], list[dict], dict]:
    """March a branch from the wave and `_solve` record start at t = 0
    through `targets`, each solved by `_solve` warm-started from the last
    wave solved.

    p_of(t) and speed_of(t) map the continuation parameter to model
    parameters and speed; every wave but the start belongs to family.  When
    a solve fails, the loop bisects back toward the last solved t and, once
    a midpoint solves, tries the target again from there; a failure within
    _MIN_STEP of the last solved t truncates the branch and stores label(t)
    of that wave under truncation_key.  A speed at which M is not positive
    is such a failure.  Every solve leaves a record in diagnostics["steps"]:
    its parameter label(t), whether it was accepted, and its iterations and
    exit or its error.  Returns the t of every stored wave, the waves, their
    `_solve` records and the diagnostics.
    """
    current, current_info = start
    current_t = 0.0
    ts, waves, infos = [current_t], [current], [current_info]
    diagnostics: dict = {"truncated": False, "steps": []}

    for target in targets:
        t_try = target
        while current_t != target:
            try:
                red = _Reduced(family, p_of(t_try), current.grid, speed_of(t_try))
                pair, info = _solve(red, current.nu)
            except ConvergenceError as exc:
                diagnostics["steps"].append(
                    {"parameter": label(t_try), "accepted": False, "error": str(exc)}
                )
                if abs(t_try - current_t) <= _MIN_STEP:
                    diagnostics["truncated"] = True
                    diagnostics[truncation_key] = label(current_t)
                    return ts, waves, infos, diagnostics
                t_try = 0.5 * (current_t + t_try)
                continue
            diagnostics["steps"].append(
                {
                    "parameter": label(t_try),
                    "accepted": True,
                    "iterations": info["iterations"],
                    "exit": info["exit"],
                }
            )
            current, current_t, current_info = pair, t_try, info
            t_try = target
        ts.append(current_t)
        waves.append(current)
        infos.append(current_info)
    return ts, waves, infos, diagnostics


def _speed_leg(family: str, p: ModelParams, start: tuple[WavePair, dict], speeds):
    """`_continuation` in the speed c of a one-layer family at p, from the
    c = 0 wave start through speeds, in order of |c|."""
    return _continuation(
        family,
        lambda t: p,
        lambda t: t,
        start,
        sorted(speeds, key=abs),
        label=lambda t: t,
        truncation_key="endpoint_estimate",
    )


def _depth_leg(p: ModelParams, start: tuple[WavePair, dict], milestones: list[float]):
    """`_continuation` of the c = 0 ILW wave from the BO wave start through
    the mu2 milestones, in the order given.

    Continuation runs in the regularizing parameter t = 1/sqrt(mu2), which
    is 0 at the infinite-depth endpoint; each milestone is solved and
    labelled at the exact mu2 given, a bisection midpoint t at 1/t^2.
    """
    targets = [1.0 / math.sqrt(m) for m in milestones]
    exact = dict(zip(targets, milestones))

    def mu2_of(t: float) -> float:
        if t in exact:
            return exact[t]
        return math.inf if t == 0.0 else 1.0 / t**2

    return _continuation(
        "ILW",
        lambda t: replace(p, mu2=mu2_of(t)),
        lambda t: 0.0,
        start,
        targets,
        label=mu2_of,
        truncation_key="sigma_estimate",
    )


def _start_record(info: dict) -> dict:
    """The diagnostics entry of a branch's ground state."""
    return {"start": {k: info[k] for k in ("iterations", "exit")}}


def continue_in_c(p: ModelParams, speeds: list[float], *, grid: Grid) -> SolitaryBranch:
    """Branch of BO travelling pairs in the speed c, from the ground state.

    The ground state's `_solve` record is kept under diagnostics["start"].
    Stored samples are the speeds given, solved in order of |c|; the c = 0
    endpoint is always stored first.
    """
    start = _bo_start(p, grid)
    params, waves, infos, diag = _speed_leg("BO", p, start, speeds)
    residuals = [info["full_residual"] for info in infos]
    diag = _start_record(start[1]) | diag
    return SolitaryBranch("BO", params, waves, residuals, diagnostics=diag)


def continue_in_mu2(p: ModelParams, depths: list[float], *, grid: Grid) -> SolitaryBranch:
    """Branch of c = 0 finite-depth pairs in mu2, from the infinite-depth wave
    (`_depth_leg`).

    The first stored sample is the BO ground state (parameter value inf; its
    `_solve` record is kept under diagnostics["start"]); the first depth is
    solved from it.  The depths are the mu2 values to store, solved in
    decreasing order; each must be positive.  Every solve leaves a record,
    keyed by its mu2 value, in diagnostics["steps"].
    """
    if not all(m > 0.0 for m in depths):
        raise ValueError(f"every depth mu2 must be positive, got {depths}")
    milestones = sorted(depths, reverse=True)
    start = _bo_start(p, grid)
    ts, waves, infos, diag = _depth_leg(p, start, milestones)
    # the endpoint is the BO pair, stored bit-for-bit; the others are stored
    # under their milestone
    params = [math.inf] + milestones[: len(ts) - 1]
    residuals = [info["full_residual"] for info in infos]
    diag = _start_record(start[1]) | diag
    return SolitaryBranch("ILW", params, waves, residuals, diagnostics=diag)


# ---------------------------------------------------------------------------
# the two-layer family
# ---------------------------------------------------------------------------


def _scan_ratios(red: _Reduced, shape: np.ndarray, dx: float, amps: np.ndarray) -> np.ndarray:
    """S(a) = <a s, M a s>/<G(a s), a s> for the start-up amplitude scan; NaN
    where the denominator is not positive.

    M is linear and G(a s) = a^2 Q(s) + a^3 C(s), so with q2 = <s, M s>,
    q3 = <Q(s), s> and q4 = <C(s), s> the ratio is a^2 q2/(a^3 q3 + a^4 q4):
    one evaluation of the shape serves every amplitude.
    """
    m_s, quad_s, cubic_s = red.parts(shape)
    q2 = dx * np.dot(shape, m_s)
    q3 = dx * np.dot(quad_s, shape)
    q4 = dx * np.dot(cubic_s, shape)
    ratios = np.full(len(amps), np.nan)
    for i, amp in enumerate(amps):
        den = amp**3 * q3 + amp**4 * q4
        if den > 0.0:
            ratios[i] = amp**2 * q2 / den
    return ratios


def _bfd_solve(red: _Reduced) -> tuple[WavePair, dict]:
    """The BFD wave of red's equation by `_solve`, from a unit-width sech^2
    bump whose amplitude makes the stabilizing factor closest to 1."""
    grid = red.grid
    # the amplitude comes from the scale-invariant condition S(amp) = 1
    # scanned over a wide range (a raw-residual search would collapse to the
    # trivial branch as amp -> 0)
    shape = 1.0 / np.cosh(grid.x) ** 2
    amps = np.geomspace(0.02, 200.0, 241) * trivial_threshold(red.p) * 1e3
    best, best_dev = amps[0], math.inf
    for amp, s_try in zip(amps, _scan_ratios(red, shape, grid.dx, amps)):
        # a skipped amplitude (NaN) never wins; ties keep the first
        if abs(s_try - 1.0) < best_dev:
            best, best_dev = amp, abs(s_try - 1.0)
    return _solve(red, best * shape)


# ---------------------------------------------------------------------------
# one solve for every family
# ---------------------------------------------------------------------------


def solve(family: str, p: ModelParams, speed: float, *, grid: Grid) -> tuple[WavePair, dict]:
    """The solitary wave of family at speed c (omega for BFD) on grid, and
    the `_solve` record of its last solve: iterations (counting every
    accepted solve on the way), exit, residual, S_minus_1, full_residual.

    p is taken at the family's depth (`family_params`).  BFD waves solve the
    reduced equation from a sech^2 bump (`_bfd_solve`).  BO starts from the
    ground state (`_bo_start`); ILW continues that in depth to p.mu2
    (`_depth_leg`, the path of `continue_in_mu2`); at c != 0 both then
    continue in speed to c (`_speed_leg`).  A leg that ends before its
    milestone raises ConvergenceError.
    """
    fam, p = family_params(family, p)
    if fam not in ("BO", "ILW"):
        return _bfd_solve(_Reduced(fam, p, grid, speed))
    legs = [lambda s: _depth_leg(p, s, [p.mu2])] if fam == "ILW" else []
    if speed:
        legs.append(lambda s: _speed_leg(fam, p, s, [speed]))
    wave, info = _bo_start(p, grid)
    iterations = info["iterations"]
    for leg in legs:
        _, waves, infos, diag = leg((wave, info))
        if diag["truncated"]:
            ended = diag.get("endpoint_estimate", diag.get("sigma_estimate"))
            raise ConvergenceError(f"the {fam} branch ended at {ended!r}")
        wave, info = waves[-1], infos[-1]
        iterations += sum(step["iterations"] for step in diag["steps"] if step["accepted"])
    return wave, info | {"iterations": iterations}


# ---------------------------------------------------------------------------
# constrained minimization
# ---------------------------------------------------------------------------


# the projected-gradient norm at which the constrained descent stops
_GRADIENT_TOL = 1e-8


def constrained_minimize(p: ModelParams, omega: float, lam: float, grid: Grid):
    """Minimize E on {F = lambda} by metric-preconditioned projected descent.

    The descent direction is the A^{-1}-gradient of E (A the per-frequency
    symbol matrix of the quadratic part) projected to be tangent to the
    constraint; after each trial step the iterate is rescaled by
    (lambda/F)^{1/3}, which restores F = lambda exactly by cubic
    homogeneity.  The Lagrange multiplier K is extracted from the
    stationarity relation grad E = K grad F by least squares.

    Returns (pair, K, info); info carries the gradient norm, iteration
    count, and the relative least-squares misfit of the multiplier relation.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    sym = symbols(p, grid)
    jb, jc, lt = sym.jb, sym.jc, sym.L
    og = 1.0 - p.gamma
    r = p.r
    n = grid.N
    dx = grid.dx

    a11 = og * jc
    a12 = -omega * jb
    a22 = lt
    det = a11 * a22 - a12 * a12
    if np.min(det) <= 0.0:
        raise ConvergenceError("quadratic form is not positive definite; inadmissible (p, omega)")

    def metric_inverse(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f1 = np.fft.rfft(g1)
        f2 = np.fft.rfft(g2)
        o1 = np.fft.irfft((a22 * f1 - a12 * f2) / det, n=n)
        o2 = np.fft.irfft((a11 * f2 - a12 * f1) / det, n=n)
        return o1, o2

    def e_val(xi: np.ndarray, nu: np.ndarray) -> float:
        return energy_E(p, omega, WavePair(grid=grid, xi=xi, nu=nu))

    def f_val(xi: np.ndarray, nu: np.ndarray) -> float:
        return float(r * dx * np.dot(xi, nu * nu))

    def grad_e(xi: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ge1 = og * apply_table(jc, xi) - omega * apply_table(jb, nu)
        ge2 = apply_table(lt, nu) - omega * apply_table(jb, xi)
        return ge1, ge2

    def grad_f(xi: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return r * nu * nu, 2.0 * r * xi * nu

    def rescale(xi: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fv = f_val(xi, nu)
        if fv <= 0.0:
            raise ConvergenceError("constraint value became non-positive during descent")
        s = (lam / fv) ** (1.0 / 3.0)
        return s * xi, s * nu

    x = grid.x
    bump = 1.0 / np.cosh(x / 2.0) ** 2 if np.max(np.abs(x)) < 100 else 1.0 / (1.0 + x * x)
    nu = bump.copy()
    xi = 0.5 * bump**2
    xi, nu = rescale(_even(xi), _even(nu))

    tau = 1.0
    e_cur = e_val(xi, nu)
    gnorm = math.inf
    it_done = 0
    for it in range(_MAX_ITERS):
        ge1, ge2 = grad_e(xi, nu)
        gf1, gf2 = grad_f(xi, nu)
        u1, u2 = metric_inverse(ge1, ge2)
        w1, w2 = metric_inverse(gf1, gf2)
        denom = dx * (np.dot(gf1, w1) + np.dot(gf2, w2))
        beta_coef = dx * (np.dot(gf1, u1) + np.dot(gf2, u2)) / denom
        d1 = u1 - beta_coef * w1
        d2 = u2 - beta_coef * w2
        gnorm = math.sqrt(dx * (np.dot(d1, d1) + np.dot(d2, d2)))
        it_done = it + 1
        if gnorm <= _GRADIENT_TOL:
            break
        tau_try = min(1.0, tau * 1.5)
        accepted = False
        while tau_try > 1e-8:
            xt = _even(xi - tau_try * d1)
            nt = _even(nu - tau_try * d2)
            xt, nt = rescale(xt, nt)
            e_new = e_val(xt, nt)
            if e_new < e_cur:
                xi, nu, e_cur, tau = xt, nt, e_new, tau_try
                accepted = True
                break
            tau_try *= 0.5
        if not accepted:
            break

    ge1, ge2 = grad_e(xi, nu)
    gf1, gf2 = grad_f(xi, nu)
    num = dx * (np.dot(ge1, gf1) + np.dot(ge2, gf2))
    den = dx * (np.dot(gf1, gf1) + np.dot(gf2, gf2))
    k_mult = num / den
    mis1 = ge1 - k_mult * gf1
    mis2 = ge2 - k_mult * gf2
    mis = math.sqrt(dx * (np.dot(mis1, mis1) + np.dot(mis2, mis2)))
    scale = math.sqrt(dx * (np.dot(ge1, ge1) + np.dot(ge2, ge2)))
    info = {
        "iterations": it_done,
        "gradient_norm": gnorm,
        "energy": e_cur,
        "constraint": f_val(xi, nu),
        "lagrange_misfit_rel": mis / max(scale, 1e-300),
    }
    if gnorm > _GRADIENT_TOL:
        info["stalled"] = True
    pair = WavePair(grid=grid, xi=xi, nu=nu)
    return pair, float(k_mult), info


def rescale_to_wave(pair: WavePair, k_mult: float) -> WavePair:
    """Map a constrained minimizer to a travelling wave: multiply both fields by K."""
    return WavePair(grid=pair.grid, xi=k_mult * pair.xi, nu=k_mult * pair.nu)


# ---------------------------------------------------------------------------
# branch serialization
# ---------------------------------------------------------------------------


def save_branch(branch: SolitaryBranch, outdir: str, config: dict | None = None) -> None:
    """Write branch.json, schema.json and one binary sample per wave:
    sample_NNN.npy, a C-ordered float64 array of shape (3, N) with rows x,
    xi, nu, written by np.save without pickling.  branch.json lists the
    sample names in order."""
    os.makedirs(outdir, exist_ok=True)
    sample_files = []
    for i, wave in enumerate(branch.waves):
        name = f"sample_{i:03d}.npy"
        data = np.stack([wave.grid.x, wave.xi, wave.nu])
        np.save(os.path.join(outdir, name), data, allow_pickle=False)
        sample_files.append(name)
    meta = {
        "family": branch.family,
        "parameter_values": [
            "inf" if math.isinf(v) else v for v in branch.parameter_values
        ],
        "residuals": branch.residuals,
        "samples": sample_files,
        "diagnostics": branch.diagnostics,
    }
    if config is not None:
        meta["config"] = config
    with open(os.path.join(outdir, "branch.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    schema = {
        "branch.json": "branch metadata: family, parameter_values, residuals, samples",
        "sample_*.npy": "float64 array of shape (3, N), C order, rows x, xi, nu "
        "(np.load(path, allow_pickle=False)); the grid is (L, N) = (-x[0], N)",
    }
    with open(os.path.join(outdir, "schema.json"), "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_sample(path: str) -> WavePair:
    """The wave of one stored sample: a .npy array of rows (x, xi, nu) on the
    grid (-x[0], N), or an (x, xi, nu) CSV of an older branch.  A file that
    holds no such wave raises ValueError naming the file."""
    try:
        if not path.endswith(".npy"):
            return pair_from_csv(path)
        x, xi, nu = np.load(path, allow_pickle=False)
        return WavePair(grid=make_grid(-x[0], x.shape[0]), xi=xi, nu=nu)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


class _StoredWaves(Sequence):
    """The waves of a saved branch, each read from its sample file on first
    use (`_read_sample`)."""

    def __init__(self, paths: list[str]):
        self._paths = paths
        self._waves: list[WavePair | None] = [None] * len(paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        if self._waves[index] is None:
            self._waves[index] = _read_sample(self._paths[index])
        return self._waves[index]


def load_branch(outdir: str) -> SolitaryBranch:
    """Read a branch written by `save_branch`; each sample that branch.json
    lists (.npy, or the CSV of an older branch) is read when its wave is
    first used."""
    with open(os.path.join(outdir, "branch.json")) as fh:
        meta = json.load(fh)
    waves = _StoredWaves([os.path.join(outdir, name) for name in meta["samples"]])
    params = [math.inf if v == "inf" else float(v) for v in meta["parameter_values"]]
    return SolitaryBranch(
        family=meta["family"],
        parameter_values=params,
        waves=waves,
        residuals=[float(v) for v in meta["residuals"]],
        diagnostics=meta.get("diagnostics", {}),
    )
