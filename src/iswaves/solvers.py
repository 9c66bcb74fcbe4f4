"""Solitary-wave solvers for the three model families.

Three iterations serve every solve.  A Petviashvili fixed-point iteration
(`_petviashvili`) gives the infinite-depth one-layer ground state and starts
the reduced two-layer solve.  One inexact Newton iteration (`_newton`) solves
the coupled travelling-wave systems (`newton_solve`) and polishes the reduced
equation (`solve_bfd_reduced`).  One natural continuation loop
(`_continuation`) marches branches in the speed c and in the depth parameter
mu2.  Constrained minimization of the energy on {F = lambda} is a fourth,
independent path.  Every returned wave carries a direct-substitution residual
of its governing system; that residual is the universal convergence oracle.
The multiplier tables come from the shared `spectral.symbols` bundle.

Accelerated Petviashvili.  The fixed point converges only linearly, so
`_petviashvili` mixes its iterates (Anderson type II over the last
_ANDERSON_DEPTH differences; Walker & Ni, SIAM J. Numer. Anal. 49 (2011)):
each plain iterate is replaced by the least-squares combination of the
window's images.  The combination is taken in physical space and costs no
transform, and every yielded residual is the true residual M nu - G(nu) of
the yielded iterate, so the callers' stopping rules are unchanged.  A fit
that fails, is not finite or has a coefficient above _MAX_MIXING keeps the
plain iterate and restarts the window.  Against cycling minimal polynomial
and reduced rank extrapolation (windows 3 to 8; Sidi 2017) it reached the
same certified residuals with the fewest transforms.

All solves work in the even subspace: profiles are symmetrized about x = 0
at every iteration, which pins the translation mode and keeps the Newton
linearizations invertible.

Inner linear solves.  Each Newton step solves for its direction with
preconditioned lgmres in `_inner_solve`.  In the even subspace the
right-hand side is projected like the operator, so the linear system is
consistent.  After every lgmres outer cycle the true residual ||b - A x||
is recomputed (one extra matvec), and the solve stops, returning the best
iterate seen, once that residual has not halved over the last two cycles:
near the wave the requested inner tolerance can sit below the roundoff floor
of the matvec.  Each inner solve leaves one record {matvecs, exit,
relative_residual, rtol}, exit one of "converged", "stagnated", "maxiter" or
"nonfinite".  lgmres returns x = 0 when its Krylov space is invariant after
one step; a solve that ends with x = 0 tries x = M^{-1} b (one more matvec)
and keeps it if it lowers the true residual.  The records are returned under
"inner_solves" in `return_info`, attached to every ConvergenceError of a
Newton iteration, and kept per attempted continuation step in the branch
diagnostics["steps"], which `save_branch` writes out.

Transform economy.  Each solver transforms a field once, with the arithmetic
of the per-multiplier formulas in the same order.  The coupled systems take
one stacked rfft of their two inputs and one stacked irfft of every
multiplier row (2 rows for BO/ILW, 4 for the two-layer family), and so does
the Newton preconditioner with its 2x2 block.  The reduced equation takes
the rffts of nu and nu^2 (for a Jacobian matvec: of v and nu v) and one
4-row irfft; `_Reduced.linearize` applies the multipliers of nu alone once
per Newton step, so a matvec makes 3 transforms.  The Petviashvili and
Newton iterations carry the residual of the accepted iterate into the next
step.  The start-up amplitude scan is closed-form: M is linear and
G(a s) = a^2 Q(s) + a^3 C(s), so three inner products of one shape s give
the ratio at every amplitude.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .params import ModelParams, family_params
from .spectral import (
    Grid,
    RealField,
    WavePair,
    apply_table,
    pair_from_csv,
    pair_to_csv,
    symbols,
    symmetrize_even as _even,
)

class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all solvers."""

    tol_residual: float = 1e-11
    max_iters: int = 500
    petviashvili_exponent: float = 2.0
    continuation_step: float = 0.005
    min_step: float = 1e-5

    def __post_init__(self) -> None:
        if self.tol_residual <= 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 1.0 < self.petviashvili_exponent < 3.0:
            raise ValueError("petviashvili_exponent must lie in (1, 3)")


@dataclass
class SolitaryBranch:
    """A continuation branch: one wave pair per parameter sample."""

    family: str
    parameter_values: list[float]
    waves: Sequence[WavePair]
    residuals: list[float]
    lagrange_K: float | None = None
    diagnostics: dict = field(default_factory=dict)


def trivial_threshold(p: ModelParams) -> float:
    """Amplitude scale below which a profile counts as the trivial branch."""
    eta = p.epsilon**2 / (2.0 * p.gamma**2 * (1.0 - p.gamma))
    return 1e-3 * math.sqrt(1.0 / (eta * p.gamma))


# ---------------------------------------------------------------------------
# governing systems
# ---------------------------------------------------------------------------


class _System:
    """Residual/Jacobian data for one family on one grid, at the family's
    depth."""

    def __init__(self, family: str, p: ModelParams, grid: Grid, speed: float):
        self.family, p = family_params(family, p)
        self.p = p
        self.grid = grid
        self.speed = float(speed)
        self.r = p.r
        self.one_minus_gamma = 1.0 - p.gamma
        sym = symbols(p, grid)
        # row i of the stacked transform applies _tables[i] to input _picks[i]
        # (0: the xi-like field, 1: the nu-like field)
        if self.family in ("BO", "ILW"):
            # W, Z (finite depth) or D, B (infinite depth): xi and nu in eq 1
            self.op1, self.op2 = sym.op1, sym.op2
            self._tables = np.stack([self.op1, self.op2])
            self._picks = [0, 1]
        else:
            self.jb, self.jc, self.jd, self.lt = sym.jb, sym.jc, sym.j2, sym.L
            self._tables = np.stack([self.jb, self.lt, self.jd, self.jc])
            self._picks = [0, 1, 1, 0]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Every multiplier row of the system on the stack x = (a, b): one
        rfft, one stacked irfft.  BO/ILW rows: op1 a, op2 b; BFD rows: J_b a,
        L b, J_d b, J_c a."""
        f = np.fft.rfft(x, axis=-1)
        return np.fft.irfft(self._tables * f[self._picks], n=self.grid.N, axis=-1)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The residual stack (r1, r2) at x = (xi, nu)."""
        r, s = self.r, self.speed
        xi, nu = x
        rows = self._apply(x)
        r1 = -s * rows[0] + rows[1] - 2.0 * r * xi * nu
        if self.family in ("BO", "ILW"):
            r2 = -s * nu + self.one_minus_gamma * xi - r * nu * nu
        else:
            r2 = -s * rows[2] + self.one_minus_gamma * rows[3] - r * nu * nu
        return np.stack([r1, r2])

    def jacobian_apply(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The Jacobian at x = (xi, nu) applied to the stack d = (dxi, dnu)."""
        r, s = self.r, self.speed
        xi, nu = x
        dxi, dnu = d
        rows = self._apply(d)
        j1 = -s * rows[0] + rows[1] - 2.0 * r * (nu * dxi + xi * dnu)
        if self.family in ("BO", "ILW"):
            j2 = self.one_minus_gamma * dxi - (s + 2.0 * r * nu) * dnu
        else:
            j2 = self.one_minus_gamma * rows[3] - s * rows[2] - 2.0 * r * nu * dnu
        return np.stack([j1, j2])

    def linear_block_inverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-frequency inverse of the linear part, used as preconditioner."""
        s = self.speed
        og = self.one_minus_gamma
        if self.family in ("BO", "ILW"):
            a11 = -s * self.op1
            a12 = self.op2
            a21 = np.full_like(self.op1, og)
            a22 = np.full_like(self.op1, -s)
        else:
            a11 = -s * self.jb
            a12 = self.lt
            a21 = og * self.jc
            a22 = -s * self.jd
        det = a11 * a22 - a12 * a21
        if np.min(np.abs(det)) < 1e-14:
            raise ConvergenceError(
                "linear block is singular; parameters sit on a resonance"
            )
        return a22 / det, -a12 / det, -a21 / det, a11 / det


def residual_norm(family: str, p: ModelParams, speed: float, w: WavePair) -> float:
    """Max norm of the direct-substitution residual of the governing system."""
    r = _System(family, p, w.grid, speed).residual(np.stack([w.xi, w.nu]))
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# Petviashvili iteration
# ---------------------------------------------------------------------------


# Anderson mixing of the Petviashvili iteration: the number of past
# differences it combines, and the size of a mixing coefficient beyond which
# the least-squares problem is taken as noise and the plain iterate kept
_ANDERSON_DEPTH = 5
_MAX_MIXING = 1e3


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
    homogeneous of degree > 1.

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
    window from it.

    evaluate(nu) returns (M nu, G(nu)); its value at one iterate gives both
    that iterate's residual and the next iteration.  Yields (nu, S, M nu -
    G(nu)) after every iteration, S of the iterate the step started from;
    the residual is always that of the yielded nu, so the caller's stopping
    rule reads a true residual.
    """
    m_nu, g_nu = evaluate(nu)
    xs: list[np.ndarray] = []  # the window's iterates ...
    fs: list[np.ndarray] = []  # ... and their plain images F
    while True:
        den = dx * np.dot(nu, g_nu)
        if den == 0.0:
            raise ConvergenceError("iterate collapsed to the trivial branch")
        s_val = dx * np.dot(nu, m_nu) / den
        f = _even(s_val**q * apply_table(inv_m, g_nu))
        xs = xs[-_ANDERSON_DEPTH:] + [nu]
        fs = fs[-_ANDERSON_DEPTH:] + [f]
        nu = f
        if len(xs) > 1:
            images = np.array(fs)
            res = images - np.array(xs)
            theta = _anderson_mixing(np.diff(res, axis=0), res[-1])
            if theta is None:
                xs, fs = [], []
            else:
                nu = _even(f - theta @ np.diff(images, axis=0))
        m_nu, g_nu = evaluate(nu)
        yield nu, s_val, m_nu - g_nu


def petviashvili_ground_state(
    p: ModelParams,
    grid: Grid,
    cfg: SolverConfig | None = None,
    guess: np.ndarray | None = None,
    return_info: bool = False,
):
    """Even positive ground state of alpha|D| nu + nu/gamma = eta nu^3.

    Fixed point nu <- S^q (alpha|D| + 1/gamma)^{-1}(eta nu^3) with the
    stabilizing factor S = <M nu, nu>/<eta nu^3, nu>, Anderson-mixed by
    `_petviashvili`.  For a homogeneity-3
    nonlinearity the iteration is convergent only for exponents q in (1, 2)
    with optimum 3/2; configured exponents at or beyond the neutral value 2
    are clamped to 3/2 (the optimum), so the documented default q = 2 still
    converges.
    """
    cfg = cfg or SolverConfig()
    alpha = (p.beta - 1.0) / p.gamma**2 * math.sqrt(p.mu)
    eta = p.epsilon**2 / (2.0 * p.gamma**2 * (1.0 - p.gamma))
    k = grid.k_half
    mhat = alpha * k + 1.0 / p.gamma

    q = cfg.petviashvili_exponent
    if q >= 2.0:
        q = 1.5

    x = grid.x
    dx = grid.dx
    if guess is None:
        # Lorentzian-squared bump at the dispersive width; the amplitude is
        # fixed by S(amp) = 1, which is scale-invariant (a raw-residual
        # search would collapse to the trivial branch as amp -> 0)
        w0 = alpha * p.gamma
        shape = 1.0 / (1.0 + (x / w0) ** 2) ** 2
        q2 = dx * np.dot(shape, apply_table(mhat, shape))
        q4 = eta * dx * np.dot(shape, shape**3)
        nu = math.sqrt(q2 / q4) * shape
    else:
        nu = np.asarray(guess, dtype=float).copy()
    history = []
    s_val = math.inf
    res = math.inf
    iterates = _petviashvili(lambda u: (apply_table(mhat, u), eta * u**3), 1.0 / mhat, nu, q, dx)
    for it, (nu, s_val, resid) in zip(range(cfg.max_iters), iterates):
        res = float(np.max(np.abs(resid)))
        history.append(res)
        if res <= cfg.tol_residual:
            break
        if it >= 30 and history[-1] > 0.99 * history[-21]:
            raise ConvergenceError(
                f"stagnation: S = {s_val:.6f}, residual {res:.3e} not improving",
                {"S": s_val, "residual": res, "iterations": it + 1},
            )
    else:
        raise ConvergenceError(
            f"no convergence in {cfg.max_iters} iterations (residual {res:.3e})",
            {"S": s_val, "residual": res},
        )

    if np.max(nu) < trivial_threshold(p):
        raise ConvergenceError("converged to the trivial branch (amplitude collapse)")
    if np.min(nu) < -1e-6 * np.max(np.abs(nu)):
        raise ConvergenceError(
            f"loss of positivity: min nu = {np.min(nu):.3e}",
            {"min_value": float(np.min(nu))},
        )
    out = RealField(grid=grid, values=nu)
    if return_info:
        return out, {"iterations": len(history), "residual": res, "S_minus_1": s_val - 1.0}
    return out


def assemble_bo_pair(p: ModelParams, nu0: RealField) -> WavePair:
    """Lift the scalar ground state to the c = 0 pair: xi0 = r nu0^2/(1-gamma)."""
    xi0 = p.r / (1.0 - p.gamma) * nu0.values**2
    return WavePair(grid=nu0.grid, xi=xi0, nu=nu0.values.copy())


# ---------------------------------------------------------------------------
# Newton solves
# ---------------------------------------------------------------------------


# inner-solve controls: the lgmres outer-cycle cap, and the stagnation exit
# (the true residual must fall by _STALL_FACTOR every _STALL_CYCLES cycles)
_INNER_MAXITER = 200
_STALL_CYCLES = 2
_STALL_FACTOR = 0.5


class _InnerStop(Exception):
    """Raised from the lgmres callback to end an inner solve early."""


def _inner_solve(matvec, precond, rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, dict]:
    """Preconditioned lgmres for A x = rhs with a stagnation exit.

    Returns the solution (the best iterate seen when the solve stops early)
    and the record {matvecs, exit, relative_residual, rtol}.
    """
    n = rhs.shape[0]
    matvecs = 0

    def counted(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return matvec(v)

    lin = LinearOperator((n, n), matvec=counted)
    pre = LinearOperator((n, n), matvec=precond)
    bnorm = float(np.linalg.norm(rhs))
    cycle_res: list[float] = []  # true residual at the start of each cycle
    best_x, best_res = np.zeros_like(rhs), bnorm

    def residual_of(x: np.ndarray) -> float:
        return float(np.linalg.norm(rhs - lin.matvec(x)))

    def monitor(x: np.ndarray) -> None:
        nonlocal best_x, best_res
        # lgmres starts from x = 0, whose residual is ||rhs||
        res = residual_of(x) if cycle_res else bnorm
        cycle_res.append(res)
        if not math.isfinite(res):
            raise _InnerStop("nonfinite")
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= rtol * bnorm:
            return
        if (
            len(cycle_res) > _STALL_CYCLES
            and res > _STALL_FACTOR * cycle_res[-1 - _STALL_CYCLES]
        ):
            raise _InnerStop("stagnated")

    try:
        x, info = lgmres(
            lin, rhs, M=pre, rtol=rtol, atol=0.0, maxiter=_INNER_MAXITER, callback=monitor
        )
    except _InnerStop as stop:
        x, res, exit_reason = best_x, best_res, stop.args[0]
    else:
        if info == 0:
            exit_reason = "converged"
            res = cycle_res[-1] if cycle_res else 0.0
        else:
            # below maxiter, lgmres gave up on a non-finite or singular
            # least-squares update
            exit_reason = "maxiter" if info >= _INNER_MAXITER else "nonfinite"
            res = residual_of(x)
            if not res < best_res:
                x, res = best_x, best_res
    if bnorm > 0.0 and not np.any(x):
        # lgmres ends at x = 0 when its Krylov space is invariant after one
        # step (seen with A = M = I); try the preconditioned right-hand side
        x_pre = precond(rhs)
        res_pre = residual_of(x_pre)
        if res_pre < res:
            x, res = x_pre, res_pre
            if res <= rtol * bnorm:
                exit_reason = "converged"
    if not np.all(np.isfinite(x)):
        exit_reason = "nonfinite"
    record = {
        "matvecs": matvecs,
        "exit": exit_reason,
        "relative_residual": res / bnorm if bnorm > 0.0 else 0.0,
        "rtol": float(rtol),
    }
    return x, record


def _newton(
    x: np.ndarray,
    r: np.ndarray,
    residual,
    linearize,
    precond,
    forcing,
    max_steps: int,
    tol: float,
    floor: float | None = None,
):
    """Inexact Newton iteration with backtracking, shared by every Newton solve.

    x is the iterate and r = residual(x); linearize(x) returns the Jacobian
    at x as a function on arrays shaped like x, and precond acts on flat
    vectors.  Iterates, steps and right-hand sides are projected onto the
    even subspace.  Each step solves J d = -r with `_inner_solve` to the
    relative tolerance forcing(||r||), then tries x + t d for t = 1, 1/2,
    ..., 1/64 and accepts the first that lowers ||r|| (the max norm),
    carrying its residual into the next step.  When no t does, the iteration
    raises, unless floor is given and ||r|| <= floor: the residual is then
    taken as the roundoff floor.  An inner solve that ends non-finite raises.

    Returns (x, r, history, inner, exit): ||r|| at the start and after every
    accepted step, the inner-solve records, and exit "converged" (||r|| <=
    tol), "floor" or "max_steps".  tol is tested before each step, so the
    iteration ends with "max_steps" after its max_steps-th step, whose
    residual is recorded but not tested.  Every ConvergenceError carries the
    history and inner records.
    """
    rn = float(np.max(np.abs(r)))
    history = [rn]
    inner: list[dict] = []

    def failure(message: str) -> ConvergenceError:
        return ConvergenceError(
            message, {"residual": rn, "history": history, "inner_solves": inner}
        )

    for _ in range(max_steps):
        if rn <= tol:
            return x, r, history, inner, "converged"
        jac = linearize(x)
        d, rec = _inner_solve(
            lambda v: _even(jac(_even(v.reshape(x.shape)))).reshape(-1),
            precond,
            -_even(r).reshape(-1),
            forcing(rn),
        )
        inner.append(rec)
        # a step that missed the inner tolerance is still tried: the line
        # search accepts it iff it reduces the residual
        if rec["exit"] == "nonfinite":
            raise failure(f"inner linear solve nonfinite at Newton step {len(history) - 1}")
        d = d.reshape(x.shape)
        t = 1.0
        while t >= 1.0 / 64.0:
            x_try = _even(x + t * d)
            r_try = residual(x_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn:
                x, r, rn = x_try, r_try, rn_try
                history.append(rn)
                break
            t *= 0.5
        else:
            if floor is not None and rn <= floor:
                return x, r, history, inner, "floor"
            raise failure(f"Newton line search failed at residual {rn:.3e}")
    return x, r, history, inner, "max_steps"


def newton_solve(
    family: str,
    p: ModelParams,
    speed: float,
    guess: WavePair,
    cfg: SolverConfig | None = None,
    return_info: bool = False,
):
    """Newton iteration on the stacked (xi, nu) system.

    The linear solves run preconditioned lgmres with the per-frequency 2x2
    inverse of the linear part; the nonlinear terms are diagonal.  The
    iterates stay in the even subspace, which pins the translation mode
    that would make the Jacobian singular.
    """
    cfg = cfg or SolverConfig()
    sys = _System(family, p, guess.grid, speed)
    n = guess.grid.N

    i11, i12, i21, i22 = sys.linear_block_inverse()

    def precond(v: np.ndarray) -> np.ndarray:
        f1, f2 = np.fft.rfft(v.reshape(2, n), axis=-1)
        out = np.fft.irfft(np.stack([i11 * f1 + i12 * f2, i21 * f1 + i22 * f2]), n=n, axis=-1)
        return out.reshape(-1)

    x = _even(np.stack([guess.xi, guess.nu]))
    x, _, history, inner, exit_reason = _newton(
        x,
        sys.residual(x),
        sys.residual,
        lambda u: (lambda d: sys.jacobian_apply(u, d)),
        precond,
        forcing=lambda rn: max(1e-13, min(1e-6, 1e-3 * rn)),
        max_steps=cfg.max_iters,
        tol=cfg.tol_residual,
    )
    if exit_reason != "converged":
        raise ConvergenceError(
            f"Newton did not reach tol in {cfg.max_iters} steps (residual {history[-1]:.3e})",
            {"residual": history[-1], "history": history, "inner_solves": inner},
        )
    pair = WavePair(grid=guess.grid, xi=x[0], nu=x[1])
    if return_info:
        return pair, {
            "iterations": len(history) - 1,
            "residual_history": history,
            "inner_solves": inner,
        }
    return pair


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def _step_record(parameter: float, info: dict, error: ConvergenceError | None = None) -> dict:
    """Diagnostics of one continuation step: the parameter tried, whether the
    Newton solve was accepted, and the records of its inner solves."""
    record = {
        "parameter": parameter,
        "accepted": error is None,
        "inner_solves": info.get("inner_solves", []),
    }
    if error is None:
        record["iterations"] = info["iterations"]
    else:
        record["error"] = str(error)
    return record


def _continuation(
    family: str,
    p_of,
    speed_of,
    start: WavePair,
    targets: list[float],
    cfg: SolverConfig,
    step_cap: float,
    start_family: str,
    label,
    truncation_key: str,
) -> tuple[list[float], list[WavePair], list[float], dict]:
    """March a branch from t = 0 through `targets` with adaptive natural
    continuation.

    p_of(t) and speed_of(t) map the continuation parameter to model
    parameters and speed; the wave at t = 0 belongs to start_family, every
    other to family.  Steps grow on fast Newton solves (<= 3 iters, up to
    step_cap) and halve on slow ones; collapse below min_step truncates the
    branch and stores label(t) of its last wave under truncation_key.
    Every attempted step, accepted or rejected, leaves a `_step_record`
    keyed by label(t) in diagnostics["steps"].  Returns the t of every
    stored wave, the waves, their residuals and the diagnostics.
    """
    ts = [0.0]
    waves = [start]
    residuals = [residual_norm(start_family, p_of(0.0), speed_of(0.0), start)]
    diagnostics: dict = {"truncated": False, "steps": []}

    current_t = 0.0
    current = start
    step = cfg.continuation_step
    for target in targets:
        direction = 1.0 if target >= current_t else -1.0
        while abs(target - current_t) > 1e-15:
            t_next = current_t + min(step, abs(target - current_t)) * direction
            try:
                pair, info = newton_solve(
                    family, p_of(t_next), speed_of(t_next), current, cfg, return_info=True
                )
            except ConvergenceError as exc:
                diagnostics["steps"].append(_step_record(label(t_next), exc.diagnostics, exc))
                step *= 0.5
                if step < cfg.min_step:
                    diagnostics["truncated"] = True
                    diagnostics[truncation_key] = label(current_t)
                    return ts, waves, residuals, diagnostics
                continue
            diagnostics["steps"].append(_step_record(label(t_next), info))
            iters = info["iterations"]
            current, current_t = pair, t_next
            if iters <= 3:
                step = min(step * 2.0, step_cap)
            elif iters >= 8:
                step = max(step * 0.5, cfg.min_step)
        ts.append(current_t)
        waves.append(current)
        fam = start_family if current_t == 0.0 else family
        residuals.append(residual_norm(fam, p_of(current_t), speed_of(current_t), current))
    return ts, waves, residuals, diagnostics


def _bo_start(p: ModelParams, grid: Grid | None, cfg: SolverConfig) -> WavePair:
    """The c = 0 BO pair: the ground state, lifted and solved by Newton."""
    if grid is None:
        raise ValueError("provide a grid or a starting pair")
    nu0 = petviashvili_ground_state(p, grid, cfg)
    return newton_solve("BO", p, 0.0, assemble_bo_pair(p, nu0), cfg)


def continue_in_c(
    family: str,
    p: ModelParams,
    c_max: float,
    cfg: SolverConfig | None = None,
    grid: Grid | None = None,
    start: WavePair | None = None,
    store_at: list[float] | None = None,
) -> SolitaryBranch:
    """Branch of travelling pairs in the speed c, from the c = 0 wave.

    The c = 0 pair is built from the ground state when not supplied.  Stored
    samples are the milestones in store_at (default: eight points up to
    c_max); the c = 0 endpoint is always stored first.
    """
    cfg = cfg or SolverConfig()
    fam, p = family_params(family, p)
    if fam not in ("BO", "ILW"):
        raise ValueError("continue_in_c supports the one-layer families (BO, ILW)")
    if start is None:
        if fam == "ILW":
            raise ValueError("ILW continuation needs the c = 0 pair from continue_in_mu2")
        start = _bo_start(p, grid, cfg)
    if store_at is None:
        store_at = list(np.linspace(c_max / 8.0, c_max, 8))

    params, waves, residuals, diag = _continuation(
        fam,
        lambda t: p,
        lambda t: t,
        start,
        sorted(store_at, key=abs),
        cfg,
        step_cap=cfg.continuation_step * 64.0,
        start_family=fam,
        label=lambda t: t,
        truncation_key="endpoint_estimate",
    )
    return SolitaryBranch(fam, params, waves, residuals, diagnostics=diag)


def continue_in_mu2(
    p: ModelParams,
    mu2_min: float,
    cfg: SolverConfig | None = None,
    grid: Grid | None = None,
    start: WavePair | None = None,
    milestones: list[float] | None = None,
) -> SolitaryBranch:
    """Branch of c = 0 finite-depth pairs in mu2, from the infinite-depth wave.

    Continuation runs in the regularizing parameter t = 1/sqrt(mu2), which is
    0 at the infinite-depth endpoint.  The first stored sample is the
    starting pair itself (parameter value inf).  Milestones are mu2 values to
    store.  Every attempted step leaves a `_step_record`, keyed by its mu2
    value, in diagnostics["steps"].
    """
    cfg = cfg or SolverConfig()
    if not mu2_min > 0.0:
        raise ValueError(f"mu2_min must be positive, got {mu2_min}")
    if start is None:
        start = _bo_start(p, grid, cfg)
    if milestones is None:
        milestones = [mu2_min]
    milestones = sorted(milestones, reverse=True)
    if min(milestones) < mu2_min:
        raise ValueError("milestones must lie at or above mu2_min")

    def mu2_of(t: float) -> float:
        return math.inf if t == 0.0 else 1.0 / t**2

    ts, waves, residuals, diag = _continuation(
        "ILW",
        lambda t: replace(p, mu2=mu2_of(t)),
        lambda t: 0.0,
        start,
        [1.0 / math.sqrt(m) for m in milestones],
        cfg,
        step_cap=0.25,
        start_family="BO",
        label=mu2_of,
        truncation_key="sigma_estimate",
    )
    # the endpoint is the BO pair, stored bit-for-bit; the others are stored
    # under their milestone
    params = [math.inf] + milestones[: len(ts) - 1]
    return SolitaryBranch("ILW", params, waves, residuals, diagnostics=diag)


# ---------------------------------------------------------------------------
# reduced scalar solve for the two-layer family
# ---------------------------------------------------------------------------


class _Reduced:
    """Scalar reduced equation M_omega nu = G(nu) of the two-layer system."""

    def __init__(self, p: ModelParams, grid: Grid, omega: float):
        sym = symbols(p, grid)
        jb, jc, jd = sym.jb, sym.jc, sym.j2
        self.omega = omega
        self.r = p.r
        self.n = grid.N
        self.mhat = (1.0 - p.gamma) * sym.L - omega**2 * jb * jd / jc
        self.inv_jc = 1.0 / jc
        self.jb_jc = jb / jc
        self.jd_jc = jd / jc

    def _rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The four multipliers of the equation in one stacked irfft: rows
        J_b/J_c a, J_d/J_c b, 1/J_c a, M b."""
        fa = np.fft.rfft(a)
        fb = np.fft.rfft(b)
        stacked = np.stack([self.jb_jc * fa, self.jd_jc * fb, self.inv_jc * fa, self.mhat * fb])
        return np.fft.irfft(stacked, n=self.n, axis=-1)

    def parts(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M nu, Q(nu), C(nu)): G(nu) = Q(nu) + C(nu), with Q homogeneous of
        degree 2 and C of degree 3."""
        omega, r = self.omega, self.r
        b_nn, jd_n, inv_nn, m_n = self._rows(nu * nu, nu)
        quad = omega * r * b_nn + 2.0 * omega * r * nu * jd_n
        return m_n, quad, 2.0 * r * r * nu * inv_nn

    def evaluate(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M nu, G(nu))."""
        m_nu, quad, cubic = self.parts(nu)
        return m_nu, quad + cubic

    def residual(self, nu: np.ndarray) -> np.ndarray:
        m_nu, g_nu = self.evaluate(nu)
        return m_nu - g_nu

    def linearize(self, nu: np.ndarray):
        """The Jacobian of the residual at nu, as a function of the direction.

        The multipliers of nu alone are applied once here; each call then
        makes three transforms (rfft of v and of nu v, one stacked irfft).
        """
        omega, r = self.omega, self.r
        _, jd_n, inv_nn, _ = self._rows(nu * nu, nu)

        def apply(v: np.ndarray) -> np.ndarray:
            b_nv, jd_v, inv_nv, m_v = self._rows(nu * v, v)
            term = (
                2.0 * omega * r * b_nv
                + 2.0 * omega * r * (v * jd_n + nu * jd_v)
                + 2.0 * r * r * (v * inv_nn + 2.0 * nu * inv_nv)
            )
            return m_v - term

        return apply


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


def reconstruct_xi(p: ModelParams, grid: Grid, nu: np.ndarray, omega: float) -> np.ndarray:
    """Second-equation reconstruction xi = J_c^{-1}(omega J nu + r nu^2)/(1-gamma)."""
    sym = symbols(p, grid)
    rhs = omega * apply_table(sym.j2, nu) + p.r * nu * nu
    return apply_table(1.0 / sym.jc, rhs) / (1.0 - p.gamma)


def solve_bfd_reduced(
    p: ModelParams,
    omega: float,
    cfg: SolverConfig | None = None,
    grid: Grid | None = None,
    guess: np.ndarray | None = None,
    return_info: bool = False,
):
    """Solitary pair of the two-layer system via the scalar reduced equation.

    Eliminating xi through the second equation leaves
        M_omega nu = G(nu),
    M_omega = (1-gamma) L - omega^2 J_b J J_c^{-1} with J = J_d (finite mu2,
    the BFD_finite system) or J_b (mu2 = inf, BFD_inf), and G(nu) collecting the quadratic and cubic sources.
    A Petviashvili iteration (the configured exponent; the source is
    predominantly quadratic, for which q = 2 is optimal) takes the iterate
    near the wave; a preconditioned Newton polish drives the reduced
    residual to tolerance.  xi is then reconstructed and the full system
    residual checked.

    With return_info, the polish is described by "newton_steps",
    "inner_solves", "polish_residual_history" (the reduced residual after
    each accepted step) and "polish_exit": "converged" (tol_residual
    reached), "floor" (a line search found no decrease and the residual was
    accepted within the 10x margin) or "max_steps" (the step cap ended the
    polish within that margin).
    """
    cfg = cfg or SolverConfig()
    if grid is None:
        raise ValueError("grid is required")
    red = _Reduced(p, grid, omega)
    mhat = red.mhat
    if np.min(mhat) <= 0.0:
        raise ConvergenceError(
            f"reduced symbol takes non-positive values (min {np.min(mhat):.3e}); "
            "parameters are outside the admissible window"
        )
    inv_mhat = 1.0 / mhat

    x = grid.x
    dx = grid.dx
    if guess is None:
        # unit-width even bump; the amplitude comes from the scale-invariant
        # condition S(amp) = 1 scanned over a wide range (a raw-residual
        # search would collapse to the trivial branch as amp -> 0)
        shape = 1.0 / np.cosh(x) ** 2
        amps = np.geomspace(0.02, 200.0, 241) * trivial_threshold(p) * 1e3
        best, best_dev = amps[0], math.inf
        for amp, s_try in zip(amps, _scan_ratios(red, shape, dx, amps)):
            # a skipped amplitude (NaN) never wins; ties keep the first
            if abs(s_try - 1.0) < best_dev:
                best, best_dev = amp, abs(s_try - 1.0)
        nu = best * shape
    else:
        nu = np.asarray(guess, dtype=float).copy()
    history = []
    s_hist = []
    switch_to_newton = False
    iterates = _petviashvili(red.evaluate, inv_mhat, nu, cfg.petviashvili_exponent, dx)
    for it, (nu, s_val, resid) in zip(range(min(cfg.max_iters, 300)), iterates):
        s_hist.append(s_val)
        res = float(np.max(np.abs(resid)))
        history.append(res)
        if res <= 1e-8 or (it > 4 and res < 1e-5 and history[-1] > 0.5 * history[-2]):
            break
        if len(s_hist) >= 12:
            recent = np.array(s_hist[-10:]) - 1.0
            oscillating = np.any(recent[:-1] * recent[1:] < 0)
            if oscillating and history[-1] > 0.9 * history[-11]:
                switch_to_newton = True
                break
    if np.max(np.abs(nu)) < trivial_threshold(p):
        raise ConvergenceError("reduced solve collapsed to the trivial branch")

    # Newton polish on the scalar equation, restricted to the even subspace
    # (the translation mode would otherwise leave an odd near-kernel in the
    # Krylov space); a failed line search within the 10x margin is the
    # spectral roundoff floor
    nu, _, polish, inner, polish_exit = _newton(
        nu,
        resid,
        red.residual,
        red.linearize,
        lambda v: apply_table(inv_mhat, v),
        forcing=lambda rn: max(1e-12, min(1e-4, 0.01 * rn)),
        max_steps=40,
        tol=cfg.tol_residual,
        floor=10.0 * cfg.tol_residual,
    )
    res = polish[-1]
    if res > 10.0 * cfg.tol_residual:
        raise ConvergenceError(
            f"reduced solve finished at residual {res:.3e} above tolerance",
            {"residual": res, "petviashvili_history": history, "inner_solves": inner},
        )

    xi = reconstruct_xi(p, grid, nu, omega)
    pair = WavePair(grid=grid, xi=_even(xi), nu=nu)
    family = "BFD_finite" if p.finite_depth else "BFD_inf"
    full_res = residual_norm(family, p, omega, pair)
    if full_res > 10.0 * max(cfg.tol_residual, res):
        raise ConvergenceError(
            f"full-system residual {full_res:.3e} inconsistent with reduced residual {res:.3e}"
        )
    if return_info:
        return pair, {
            "reduced_residual": res,
            "full_residual": full_res,
            "petviashvili_iterations": len(history),
            "newton_steps": len(polish) - 1,
            "used_newton_fallback": switch_to_newton,
            "inner_solves": inner,
            "polish_residual_history": polish[1:],
            "polish_exit": polish_exit,
        }
    return pair


# ---------------------------------------------------------------------------
# constrained minimization
# ---------------------------------------------------------------------------


def constrained_minimize(
    p: ModelParams,
    omega: float,
    lam: float,
    grid: Grid,
    cfg: SolverConfig | None = None,
    gradient_tol: float = 1e-8,
):
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
    cfg = cfg or SolverConfig()
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
        v = 0.5 * og * dx * np.dot(xi, apply_table(jc, xi))
        v += 0.5 * dx * np.dot(nu, apply_table(lt, nu))
        v -= omega * dx * np.dot(xi, apply_table(jb, nu))
        return float(v)

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
    for it in range(max(cfg.max_iters, 200)):
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
        if gnorm <= gradient_tol:
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
    if gnorm > gradient_tol:
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
    """Write branch.json plus one (x, xi, nu) CSV per sample."""
    os.makedirs(outdir, exist_ok=True)
    sample_files = []
    for i, wave in enumerate(branch.waves):
        name = f"sample_{i:03d}.csv"
        pair_to_csv(wave, os.path.join(outdir, name))
        sample_files.append(name)
    meta = {
        "family": branch.family,
        "parameter_values": [
            "inf" if math.isinf(v) else v for v in branch.parameter_values
        ],
        "residuals": branch.residuals,
        "lagrange_K": branch.lagrange_K,
        "samples": sample_files,
        "diagnostics": branch.diagnostics,
    }
    if config is not None:
        meta["config"] = config
    with open(os.path.join(outdir, "branch.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    schema = {
        "branch.json": "branch metadata: family, parameter_values, residuals, lagrange_K, samples",
        "sample_*.csv": "columns: x, xi, nu (comma separated, one header row)",
    }
    with open(os.path.join(outdir, "schema.json"), "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _StoredWaves(Sequence):
    """The waves of a saved branch, each parsed from its CSV on first use."""

    def __init__(self, paths: list[str]):
        self._paths = paths
        self._waves: list[WavePair | None] = [None] * len(paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        if self._waves[index] is None:
            self._waves[index] = pair_from_csv(self._paths[index])
        return self._waves[index]


def load_branch(outdir: str) -> SolitaryBranch:
    """Read a branch written by `save_branch`; a sample's CSV is parsed when
    its wave is first used."""
    with open(os.path.join(outdir, "branch.json")) as fh:
        meta = json.load(fh)
    waves = _StoredWaves([os.path.join(outdir, name) for name in meta["samples"]])
    params = [math.inf if v == "inf" else float(v) for v in meta["parameter_values"]]
    return SolitaryBranch(
        family=meta["family"],
        parameter_values=params,
        waves=waves,
        residuals=[float(v) for v in meta["residuals"]],
        lagrange_K=meta.get("lagrange_K"),
        diagnostics=meta.get("diagnostics", {}),
    )
