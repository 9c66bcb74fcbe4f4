"""Solitary-wave solvers for the three model families.

Four computation paths: Petviashvili fixed-point iteration for the
infinite-depth one-layer ground state, damped Newton solves of the coupled
travelling-wave systems, parameter continuation (in the speed c and in the
depth parameter mu2), and constrained minimization of the energy on the
constraint manifold {F = lambda}.  Every returned wave carries a
direct-substitution residual of its governing system; that residual is the
universal convergence oracle.

All solves work in the even subspace: profiles are symmetrized about x = 0
at every iteration, which pins the translation mode and keeps the Newton
linearizations invertible.

Inner linear solves.  Both Newton iterations (`newton_solve` and the polish
in `solve_bfd_reduced`) solve their steps with preconditioned lgmres through
one helper.  In the even subspace the right-hand side is projected like the
operator, so the linear system is consistent.  After every lgmres outer
cycle the helper recomputes the true residual ||b - A x|| (one extra matvec)
and stops once that residual has not halved over the last two cycles,
returning the best iterate seen: near the wave the requested inner tolerance
can sit below the roundoff floor of the matvec, and further cycles only burn
matvecs.  Each inner solve leaves one record
{matvecs, exit, relative_residual, rtol} with exit one of "converged",
"stagnated", "maxiter" or "nonfinite"; the records are returned under
"inner_solves" in `return_info` and attached to the ConvergenceError
diagnostics when a Newton iteration fails.  Both continuations keep them per
attempted step, accepted or rejected, in the branch diagnostics["steps"],
which `save_branch` writes out.  The inner forcing terms, the
line searches, `tol_residual` and the 10x reduced-residual acceptance margin
are unaffected.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .params import ModelParams
from .spectral import (
    Grid,
    RealField,
    WavePair,
    apply_table,
    pair_from_csv,
    pair_to_csv,
    symbol_J,
    symbol_L_inf,
    symbol_L_mu2,
    symbol_bo_ops,
    symbol_ilw_ops,
    symmetrize_even,
)

FAMILIES = ("BO", "ILW", "BFD_finite", "BFD_inf")


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
    newton_damping: float = 1.0
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
    waves: list[WavePair]
    residuals: list[float]
    lagrange_K: float | None = None
    diagnostics: dict = field(default_factory=dict)


def canonical_family(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    table = {
        "bo": "BO",
        "ilw": "ILW",
        "bfd_finite": "BFD_finite",
        "bfd_inf": "BFD_inf",
        "bfd_infinite": "BFD_inf",
    }
    if key not in table:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
    return table[key]


def trivial_threshold(p: ModelParams) -> float:
    """Amplitude scale below which a profile counts as the trivial branch."""
    eta = p.epsilon**2 / (2.0 * p.gamma**2 * (1.0 - p.gamma))
    return 1e-3 * math.sqrt(1.0 / (eta * p.gamma))


def _even(u: np.ndarray) -> np.ndarray:
    return symmetrize_even(u)


# ---------------------------------------------------------------------------
# governing systems
# ---------------------------------------------------------------------------


class _System:
    """Tabulated residual/Jacobian data for one family on one grid."""

    def __init__(self, family: str, p: ModelParams, grid: Grid, speed: float):
        self.family = canonical_family(family)
        self.p = p
        self.grid = grid
        self.speed = float(speed)
        self.r = p.r
        g = p.gamma
        if self.family == "BO":
            dop, bop = symbol_bo_ops(p, grid)
            self.op1 = dop.table_half  # multiplies xi in eq 1
            self.op2 = bop.table_half  # multiplies nu in eq 1
        elif self.family == "ILW":
            wop, zop = symbol_ilw_ops(p, grid)
            self.op1 = wop.table_half
            self.op2 = zop.table_half
        else:
            self.jb = symbol_J(p, "b", grid).table_half
            self.jc = symbol_J(p, "c", grid).table_half
            if self.family == "BFD_finite":
                self.lt = symbol_L_mu2(p, grid).table_half
                self.jd = symbol_J(p, "d", grid).table_half
            else:
                self.lt = symbol_L_inf(p, grid).table_half
                # the infinite-depth system carries J_b in the second equation
                self.jd = self.jb
        self.one_minus_gamma = 1.0 - g

    def residual(self, xi: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, s = self.r, self.speed
        if self.family in ("BO", "ILW"):
            r1 = -s * apply_table(self.op1, xi) + apply_table(self.op2, nu) - 2.0 * r * xi * nu
            r2 = -s * nu + self.one_minus_gamma * xi - r * nu * nu
        else:
            r1 = -s * apply_table(self.jb, xi) + apply_table(self.lt, nu) - 2.0 * r * xi * nu
            r2 = (
                -s * apply_table(self.jd, nu)
                + self.one_minus_gamma * apply_table(self.jc, xi)
                - r * nu * nu
            )
        return r1, r2

    def jacobian_apply(
        self, xi: np.ndarray, nu: np.ndarray, dxi: np.ndarray, dnu: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        r, s = self.r, self.speed
        if self.family in ("BO", "ILW"):
            j1 = (
                -s * apply_table(self.op1, dxi)
                + apply_table(self.op2, dnu)
                - 2.0 * r * (nu * dxi + xi * dnu)
            )
            j2 = self.one_minus_gamma * dxi - (s + 2.0 * r * nu) * dnu
        else:
            j1 = (
                -s * apply_table(self.jb, dxi)
                + apply_table(self.lt, dnu)
                - 2.0 * r * (nu * dxi + xi * dnu)
            )
            j2 = (
                self.one_minus_gamma * apply_table(self.jc, dxi)
                - s * apply_table(self.jd, dnu)
                - 2.0 * r * nu * dnu
            )
        return j1, j2

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


def system_residual(
    family: str, p: ModelParams, speed: float, w: WavePair
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-substitution residual fields of the governing system."""
    sys = _System(family, p, w.grid, speed)
    return sys.residual(w.xi, w.nu)


def residual_norm(family: str, p: ModelParams, speed: float, w: WavePair) -> float:
    r1, r2 = system_residual(family, p, speed, w)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


# ---------------------------------------------------------------------------
# Petviashvili iteration for the infinite-depth one-layer ground state
# ---------------------------------------------------------------------------


def petviashvili_ground_state(
    p: ModelParams,
    grid: Grid,
    cfg: SolverConfig | None = None,
    guess: np.ndarray | None = None,
    return_info: bool = False,
):
    """Even positive ground state of alpha|D| nu + nu/gamma = eta nu^3.

    Fixed point nu <- S^q (alpha|D| + 1/gamma)^{-1}(eta nu^3) with the
    stabilizing factor S = <M nu, nu>/<eta nu^3, nu>.  For a homogeneity-3
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
    for it in range(cfg.max_iters):
        cube = eta * nu**3
        num = dx * np.dot(nu, apply_table(mhat, nu))
        den = dx * np.dot(nu, cube)
        if den == 0.0:
            raise ConvergenceError("iterate collapsed to the trivial branch")
        s_val = num / den
        nu = _even(s_val**q * apply_table(1.0 / mhat, cube))
        res = float(np.max(np.abs(apply_table(mhat, nu) - eta * nu**3)))
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


def _stack(xi: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return np.concatenate([xi, nu])


def _unstack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = u.shape[0] // 2
    return u[:n], u[n:]


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
    if not np.all(np.isfinite(x)):
        exit_reason = "nonfinite"
    record = {
        "matvecs": matvecs,
        "exit": exit_reason,
        "relative_residual": res / bnorm if bnorm > 0.0 else 0.0,
        "rtol": float(rtol),
    }
    return x, record


def newton_solve(
    family: str,
    p: ModelParams,
    speed: float,
    guess: WavePair,
    cfg: SolverConfig | None = None,
    enforce_even: bool = True,
    return_info: bool = False,
):
    """Damped Newton iteration on the stacked (xi, nu) system.

    The linear solves run preconditioned lgmres with the per-frequency 2x2
    inverse of the linear part; the nonlinear terms are diagonal.  Without
    the even-subspace projection the translation mode makes the Jacobian
    singular, which surfaces as an inner-solver stall.
    """
    cfg = cfg or SolverConfig()
    sys = _System(family, p, guess.grid, speed)
    grid = guess.grid
    n = grid.N

    i11, i12, i21, i22 = sys.linear_block_inverse()

    def precond(v: np.ndarray) -> np.ndarray:
        p1, p2 = _unstack(v)
        f1 = np.fft.rfft(p1)
        f2 = np.fft.rfft(p2)
        o1 = np.fft.irfft(i11 * f1 + i12 * f2, n=n)
        o2 = np.fft.irfft(i21 * f1 + i22 * f2, n=n)
        return _stack(o1, o2)

    xi = guess.xi.copy()
    nu = guess.nu.copy()
    if enforce_even:
        xi, nu = _even(xi), _even(nu)

    history = []
    inner: list[dict] = []
    rn = math.inf
    for it in range(cfg.max_iters):
        r1, r2 = sys.residual(xi, nu)
        rn = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        history.append(float(rn))
        if rn <= cfg.tol_residual:
            pair = WavePair(grid=grid, xi=xi, nu=nu)
            if return_info:
                return pair, {
                    "iterations": it,
                    "residual_history": history,
                    "inner_solves": inner,
                }
            return pair

        def jv(v: np.ndarray) -> np.ndarray:
            d1, d2 = _unstack(v)
            if enforce_even:
                d1, d2 = _even(d1), _even(d2)
            j1, j2 = sys.jacobian_apply(xi, nu, d1, d2)
            if enforce_even:
                j1, j2 = _even(j1), _even(j2)
            return _stack(j1, j2)

        if enforce_even:
            # the projected operator maps onto the even subspace; the odd
            # roundoff in the residual lies outside its range and would cap
            # the achievable inner residual
            r1, r2 = _even(r1), _even(r2)
        rtol_inner = max(1e-13, min(1e-6, 1e-3 * rn))
        du, rec = _inner_solve(jv, precond, -_stack(r1, r2), rtol_inner)
        inner.append(rec)
        # in the even subspace a step that missed the inner tolerance is
        # still tried: the line search accepts it iff it reduces the residual
        if rec["exit"] == "nonfinite" or (rec["exit"] != "converged" and not enforce_even):
            hint = ""
            if not enforce_even:
                hint = (
                    "; the translation mode is unpinned, solve with "
                    "enforce_even=True (even cosine subspace)"
                )
            raise ConvergenceError(
                f"inner linear solve {rec['exit']} at Newton step {it}" + hint,
                {"residual": float(rn), "inner_solves": inner},
            )
        d1, d2 = _unstack(du)
        t = cfg.newton_damping
        while t >= 1.0 / 64.0:
            xt, nt = xi + t * d1, nu + t * d2
            if enforce_even:
                xt, nt = _even(xt), _even(nt)
            t1, t2 = sys.residual(xt, nt)
            if max(np.max(np.abs(t1)), np.max(np.abs(t2))) < rn:
                xi, nu = xt, nt
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search failed at residual {rn:.3e}",
                {"residual": float(rn), "history": history, "inner_solves": inner},
            )

    raise ConvergenceError(
        f"Newton did not reach tol in {cfg.max_iters} steps (residual {rn:.3e})",
        {"residual": float(rn), "history": history, "inner_solves": inner},
    )


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
    p_of: "callable",
    speed_of: "callable",
    start_pair: WavePair,
    start_param: float,
    targets: list[float],
    cfg: SolverConfig,
) -> tuple[list[float], list[WavePair], list[float], dict]:
    """March a branch through `targets` with adaptive natural continuation.

    p_of(t) and speed_of(t) map the continuation parameter to model
    parameters and speed.  Steps grow on fast Newton solves (<= 3 iters)
    and halve on slow ones; collapse below min_step truncates the branch.
    Every attempted step, accepted or rejected, leaves a `_step_record` in
    diagnostics["steps"].
    """
    params = [start_param]
    waves = [start_pair]
    residuals = [residual_norm(family, p_of(start_param), speed_of(start_param), start_pair)]
    diagnostics: dict = {"truncated": False, "steps": []}

    current_t = start_param
    current = start_pair
    step = cfg.continuation_step
    for target in targets:
        direction = 1.0 if target >= current_t else -1.0
        while abs(target - current_t) > 1e-15:
            h = min(step, abs(target - current_t)) * direction
            t_next = current_t + h
            try:
                pair, info = newton_solve(
                    family,
                    p_of(t_next),
                    speed_of(t_next),
                    current,
                    cfg,
                    return_info=True,
                )
            except ConvergenceError as exc:
                diagnostics["steps"].append(_step_record(t_next, exc.diagnostics, exc))
                step *= 0.5
                if step < cfg.min_step:
                    diagnostics["truncated"] = True
                    diagnostics["endpoint_estimate"] = current_t
                    return params, waves, residuals, diagnostics
                continue
            diagnostics["steps"].append(_step_record(t_next, info))
            iters = info["iterations"]
            current, current_t = pair, t_next
            if iters <= 3:
                step = min(step * 2.0, cfg.continuation_step * 64.0)
            elif iters >= 8:
                step = max(step * 0.5, cfg.min_step)
        params.append(current_t)
        waves.append(current)
        residuals.append(
            residual_norm(family, p_of(current_t), speed_of(current_t), current)
        )
    return params, waves, residuals, diagnostics


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
    fam = canonical_family(family)
    if fam not in ("BO", "ILW"):
        raise ValueError("continue_in_c supports the one-layer families (BO, ILW)")
    if start is None:
        if grid is None:
            raise ValueError("provide a grid or a starting pair")
        if fam == "ILW":
            raise ValueError("ILW continuation needs the c = 0 pair from continue_in_mu2")
        nu0 = petviashvili_ground_state(p, grid, cfg)
        start = newton_solve(fam, p, 0.0, assemble_bo_pair(p, nu0), cfg)
    if store_at is None:
        store_at = list(np.linspace(c_max / 8.0, c_max, 8))

    params, waves, residuals, diag = _continuation(
        fam,
        p_of=lambda t: p,
        speed_of=lambda t: t,
        start_pair=start,
        start_param=0.0,
        targets=sorted(store_at, key=abs),
        cfg=cfg,
    )
    return SolitaryBranch(
        family=fam,
        parameter_values=params,
        waves=waves,
        residuals=residuals,
        diagnostics=diag,
    )


def continue_in_mu2(
    p: ModelParams,
    mu2_min: float,
    cfg: SolverConfig | None = None,
    grid: Grid | None = None,
    start: WavePair | None = None,
    milestones: list[float] | None = None,
) -> SolitaryBranch:
    """Branch of c = 0 finite-depth pairs in mu2, from the infinite-depth wave.

    Continuation runs in the regularizing parameter 1/sqrt(mu2), which is 0
    at the infinite-depth endpoint.  The first stored sample is the starting
    pair itself (parameter value inf).  Milestones are mu2 values to store.
    Every attempted step leaves a `_step_record`, keyed by its mu2 value, in
    diagnostics["steps"].
    """
    cfg = cfg or SolverConfig()
    if start is None:
        if grid is None:
            raise ValueError("provide a grid or a starting pair")
        nu0 = petviashvili_ground_state(p, grid, cfg)
        start = newton_solve("BO", p, 0.0, assemble_bo_pair(p, nu0), cfg)
    if milestones is None:
        milestones = [mu2_min]
    milestones = sorted(milestones, reverse=True)
    if min(milestones) < mu2_min:
        raise ValueError("milestones must lie at or above mu2_min")

    def p_of(t: float) -> ModelParams:
        mu2 = math.inf if t == 0.0 else 1.0 / t**2
        return ModelParams(
            gamma=p.gamma, epsilon=p.epsilon, mu=p.mu,
            a=p.a, b=p.b, c=p.c, d=p.d, mu2=mu2, beta=p.beta,
        )

    def family_of(t: float) -> str:
        return "BO" if t == 0.0 else "ILW"

    # the endpoint itself: the BO pair, stored bit-for-bit
    params = [math.inf]
    waves = [start]
    residuals = [residual_norm("BO", p_of(0.0), 0.0, start)]

    current = start
    current_t = 0.0
    step = cfg.continuation_step
    diagnostics: dict = {"truncated": False, "steps": []}
    for mu2_target in milestones:
        target = 1.0 / math.sqrt(mu2_target)
        while target - current_t > 1e-15:
            h = min(step, target - current_t)
            t_next = current_t + h
            try:
                pair, info = newton_solve(
                    "ILW", p_of(t_next), 0.0, current, cfg, return_info=True
                )
            except ConvergenceError as exc:
                diagnostics["steps"].append(_step_record(1.0 / t_next**2, exc.diagnostics, exc))
                step *= 0.5
                if step < cfg.min_step:
                    diagnostics["truncated"] = True
                    diagnostics["sigma_estimate"] = (
                        math.inf if current_t == 0.0 else 1.0 / current_t**2
                    )
                    return SolitaryBranch(
                        family="ILW",
                        parameter_values=params,
                        waves=waves,
                        residuals=residuals,
                        diagnostics=diagnostics,
                    )
                continue
            diagnostics["steps"].append(_step_record(1.0 / t_next**2, info))
            current, current_t = pair, t_next
            iters = info["iterations"]
            if iters <= 3:
                step = min(step * 2.0, 0.25)
            elif iters >= 8:
                step = max(step * 0.5, cfg.min_step)
        params.append(mu2_target)
        waves.append(current)
        residuals.append(residual_norm(family_of(current_t), p_of(current_t), 0.0, current))
    return SolitaryBranch(
        family="ILW",
        parameter_values=params,
        waves=waves,
        residuals=residuals,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# reduced scalar solve for the two-layer family
# ---------------------------------------------------------------------------


def _bfd_tables(p: ModelParams, grid: Grid, mu2_mode: str):
    jb = symbol_J(p, "b", grid).table_half
    jc = symbol_J(p, "c", grid).table_half
    if mu2_mode == "finite" or (mu2_mode == "auto" and p.finite_depth):
        lt = symbol_L_mu2(p, grid).table_half
        jd = symbol_J(p, "d", grid).table_half
    else:
        lt = symbol_L_inf(p, grid).table_half
        jd = jb
    return jb, jc, jd, lt


class _Reduced:
    """Scalar reduced equation M_omega nu = G(nu) of the two-layer system."""

    def __init__(self, p: ModelParams, grid: Grid, omega: float, mu2_mode: str):
        jb, jc, jd, lt = _bfd_tables(p, grid, mu2_mode)
        self.omega = omega
        self.r = p.r
        self.mhat = (1.0 - p.gamma) * lt - omega**2 * jb * jd / jc
        self.inv_jc = 1.0 / jc
        self.jb_jc = jb / jc
        self.jd_jc = jd / jc

    def source(self, nu: np.ndarray) -> np.ndarray:
        """G(nu): the quadratic and cubic sources."""
        omega, r = self.omega, self.r
        inv_nu2 = apply_table(self.inv_jc, nu * nu)
        return (
            omega * r * apply_table(self.jb_jc, nu * nu)
            + 2.0 * omega * r * nu * apply_table(self.jd_jc, nu)
            + 2.0 * r * r * nu * inv_nu2
        )

    def residual(self, nu: np.ndarray) -> np.ndarray:
        return apply_table(self.mhat, nu) - self.source(nu)

    def jacobian_apply(self, nu: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Derivative of the residual at nu in the direction v."""
        omega, r = self.omega, self.r
        inv_nv = apply_table(self.inv_jc, nu * v)
        term = (
            2.0 * omega * r * apply_table(self.jb_jc, nu * v)
            + 2.0 * omega * r * (v * apply_table(self.jd_jc, nu) + nu * apply_table(self.jd_jc, v))
            + 2.0 * r * r * (v * apply_table(self.inv_jc, nu * nu) + 2.0 * nu * inv_nv)
        )
        return apply_table(self.mhat, v) - term


def reconstruct_xi(p: ModelParams, grid: Grid, nu: np.ndarray, omega: float, mu2_mode: str = "auto") -> np.ndarray:
    """Second-equation reconstruction xi = J_c^{-1}(omega J nu + r nu^2)/(1-gamma)."""
    jb, jc, jd, lt = _bfd_tables(p, grid, mu2_mode)
    rhs = omega * apply_table(jd, nu) + p.r * nu * nu
    return apply_table(1.0 / jc, rhs) / (1.0 - p.gamma)


def solve_bfd_reduced(
    p: ModelParams,
    omega: float,
    mu2_mode: str = "auto",
    cfg: SolverConfig | None = None,
    grid: Grid | None = None,
    guess: np.ndarray | None = None,
    return_info: bool = False,
):
    """Solitary pair of the two-layer system via the scalar reduced equation.

    Eliminating xi through the second equation leaves
        M_omega nu = G(nu),
    M_omega = (1-gamma) L - omega^2 J_b J J_c^{-1} with J = J_d (finite) or
    J_b (infinite), and G(nu) collecting the quadratic and cubic sources.
    A Petviashvili iteration (the configured exponent; the source is
    predominantly quadratic, for which q = 2 is optimal) takes the iterate
    near the wave; a preconditioned Newton polish drives the reduced
    residual to tolerance.  xi is then reconstructed and the full system
    residual checked.
    """
    cfg = cfg or SolverConfig()
    if grid is None:
        raise ValueError("grid is required")
    red = _Reduced(p, grid, omega, mu2_mode)
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
        for amp in amps:
            nu_try = amp * shape
            den = dx * np.dot(red.source(nu_try), nu_try)
            if den <= 0.0:
                continue
            s_try = dx * np.dot(nu_try, apply_table(mhat, nu_try)) / den
            if abs(s_try - 1.0) < best_dev:
                best, best_dev = amp, abs(s_try - 1.0)
        nu = best * shape
    else:
        nu = np.asarray(guess, dtype=float).copy()
    q = cfg.petviashvili_exponent
    history = []
    s_hist = []
    pet_iters = min(cfg.max_iters, 300)
    switch_to_newton = False
    for it in range(pet_iters):
        gn = red.source(nu)
        den = dx * np.dot(gn, nu)
        if den == 0.0:
            raise ConvergenceError("iterate collapsed to the trivial branch")
        s_val = dx * np.dot(nu, apply_table(mhat, nu)) / den
        s_hist.append(s_val)
        nu = _even(s_val**q * apply_table(inv_mhat, gn))
        res = float(np.max(np.abs(red.residual(nu))))
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
    # Krylov space)
    inner: list[dict] = []
    newton_steps = 0
    res = float(np.max(np.abs(red.residual(nu))))
    while res > cfg.tol_residual and newton_steps < 40:
        rtol_inner = max(1e-12, min(1e-4, 0.01 * res))
        # a step that missed the inner tolerance is still tried: the line
        # search accepts it iff it reduces the nonlinear residual
        dv, rec = _inner_solve(
            lambda v: _even(red.jacobian_apply(nu, _even(v))),
            lambda v: apply_table(inv_mhat, v),
            -_even(red.residual(nu)),
            rtol_inner,
        )
        inner.append(rec)
        if rec["exit"] == "nonfinite":
            raise ConvergenceError(
                f"reduced Newton inner solve diverged (residual {res:.3e})",
                {"residual": res, "inner_solves": inner},
            )
        t = 1.0
        while t >= 1.0 / 64.0:
            nu_try = _even(nu + t * dv)
            res_try = float(np.max(np.abs(red.residual(nu_try))))
            if res_try < res:
                nu, res = nu_try, res_try
                break
            t *= 0.5
        else:
            # no decrease found: the spectral roundoff floor; accept within
            # the documented 10x margin, fail otherwise
            if res <= 10.0 * cfg.tol_residual:
                break
            raise ConvergenceError(
                f"reduced Newton stalled at residual {res:.3e}",
                {"residual": res, "inner_solves": inner},
            )
        newton_steps += 1

    if res > 10.0 * cfg.tol_residual:
        raise ConvergenceError(
            f"reduced solve finished at residual {res:.3e} above tolerance",
            {"residual": res, "petviashvili_history": history, "inner_solves": inner},
        )

    xi = reconstruct_xi(p, grid, nu, omega, mu2_mode)
    pair = WavePair(grid=grid, xi=_even(xi), nu=nu)
    family = "BFD_finite" if (mu2_mode == "finite" or (mu2_mode == "auto" and p.finite_depth)) else "BFD_inf"
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
            "newton_steps": newton_steps,
            "used_newton_fallback": switch_to_newton,
            "inner_solves": inner,
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
    mu2_mode: str = "auto",
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
    jb, jc, jd, lt = _bfd_tables(p, grid, mu2_mode)
    g = p.gamma
    og = 1.0 - g
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


def load_branch(outdir: str) -> SolitaryBranch:
    with open(os.path.join(outdir, "branch.json")) as fh:
        meta = json.load(fh)
    waves = [pair_from_csv(os.path.join(outdir, name)) for name in meta["samples"]]
    params = [math.inf if v == "inf" else float(v) for v in meta["parameter_values"]]
    return SolitaryBranch(
        family=meta["family"],
        parameter_values=params,
        waves=waves,
        residuals=[float(v) for v in meta["residuals"]],
        lagrange_K=meta.get("lagrange_K"),
        diagnostics=meta.get("diagnostics", {}),
    )
