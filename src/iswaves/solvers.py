"""Solitary-wave solvers for the three model families.

`solve(family, p, speed, grid=grid)` is the one way to a single wave,
and the one place where the family decides the path to it: a BFD wave is
solved directly from a sech^2 bump; a BO or ILW wave is reached by the one
continuation of the one-layer branch from the BO ground state through (mu2,
c) points, BO through (inf, c) and ILW through (mu2, 0) and then (mu2, c).
It returns the wave and the record of its last solve, whose iterations and
mixing restarts count every accepted solve on the way (`branch_work`).

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
(`_petviashvili`, on a `_Reduced` equation and an Anderson window) solves it
for every family, and one stop rule ends it (`_solve`): the reduced residual
reaches TOL_RESIDUAL (exit "converged"), or it stops halving for
_STALL_ITERS iterations within 10 TOL_RESIDUAL (exit "floor", the spectral
roundoff floor).  One continuation (`_continuation`) marches the one-layer
branch through a list of (mu2, c) points, each warm-started from the last
wave solved; it bisects a failed segment in (1/sqrt(mu2), c) and stores
under "end" where a truncated branch ends.  It refuses, with ValueError, a
point of non-finite c or of mu2 outside (0, inf], toward which no bisection
ends.  `continue_in_c`, `continue_in_mu2` and `solve` differ only in their
points.
Constrained minimization of the energy on {F = lambda} is an independent
path (`constrained_minimize`): spectral renormalization in the metric of
E's quadratic form A (`functionals`), Anderson-mixed on the Petviashvili
iteration's window, at four FFT calls per iteration.

Certification.  Every returned wave carries the direct-substitution residual
of its two-field system (`residual_norm`, through `_System`), code the
solver itself does not run; a wave whose system residual exceeds 10 times
its reduced residual (or TOL_RESIDUAL) is refused.

Accelerated Petviashvili.  The fixed point converges only linearly, so
`_petviashvili` mixes its iterates (Anderson type II over the last
_ANDERSON_DEPTH differences; Walker & Ni, SIAM J. Numer. Anal. 49 (2011)):
each plain iterate is replaced by the least-squares combination of the
window's images.  The window (`_AndersonWindow`) takes iterates of any
shape, the reduced equation's half spectra and the minimizer's (xi, nu)
pairs alike; its differences sit in preallocated rings, and their Gram
matrix in a ring that takes one row and column per iteration, so a fit
solves k x k normal equations (k <= _ANDERSON_DEPTH), and a mixing step
costs O(k N) and allocates no window-sized array.  The combination costs no
transform, and every yielded residual is the true residual M nu - G(nu) of
the yielded iterate's samples.
A fit that is singular, is not finite or has a coefficient above _MAX_MIXING
keeps the plain iterate and restarts the window; the normal equations square
the window's condition number, so an ill-conditioned fit restarts too, and
every solve records its restarts (mixing_restarts).  Against cycling minimal
polynomial and reduced rank extrapolation (windows 3 to 8; Sidi 2017) it
reached the same certified residuals with the fewest transforms.  With the
mixing, the exponents q = 3/2 and 2 take the same iterations on every
problem, so the exponent is the constant _EXPONENT, inside the convergent
range of both the quadratic (1 < q < 3) and the cubic (1 < q < 2) source
(Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42 (2004)).  The
stabilizing factor S = <M nu, nu>/<G(nu), nu> is a ratio of dot products of
the samples, in which the quadrature weight dx cancels.  An iterate whose S
is not positive and finite, or whose residual is not finite, ends the
iteration with a ConvergenceError before it is mixed.

All solves work in the even subspace, which pins the translation mode: the
iteration carries the real half spectrum nu_hat = Re rfft(nu) of its
iterate, N/2 + 1 values in Parseval-weighted coordinates (weights 1, 2, ...,
2, 1, whose square roots scale the values), so that the window fits the
same coefficients as a window of the even profiles.  Taking the real part is
the even projection, and the plain step S^q Re(G_hat)/M_hat needs no inverse
transform.  The samples nu = irfft(nu_hat) are made exactly even by
mirroring their first half, and every returned wave is one of them.

Transform economy.  An iteration makes four transforms: the irfft of its
samples, one stacked rfft of (nu^2, nu) and one stacked irfft of every
multiplier row, from which M nu and G(nu) are formed on the samples, and
the rfft of G(nu); scalar tables multiply in physical space.  For BO and
ILW at c = 0, G reads no multiplier and is transformed with nu in one
rfft, so three.  Every transform is a `spectral.rfft` or `irfft`.  M nu is not formed from nu_hat directly: that skips a
transform, but the wave's system residual then sits above the reduced
residual by more than the consistency gate allows (bfd_finite at N = 2048).
The lift of xi reads only its own rows, scalars for BO and ILW, so there it
makes no transform.  The iteration carries the residual of each iterate
into the next step, and every solve from a shape takes a closed-form start
amplitude (`_start`): M is linear and G(a s) = a^2 Q(s) + a^3 C(s), so
three inner products of one shape s give the amplitude at which S = 1.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import count, islice

import numpy as np

from .config import write_json
from .functionals import energy_gradient, energy_tables, inner
from .params import ConvergenceError, ModelParams, family_params
from .spectral import (
    Grid,
    WavePair,
    irfft,
    make_grid,
    pair_from_csv,
    rfft,
    structure,
    symmetrize_even as _even,
)

# the reduced residual every solve reaches (or its floor within 10 times it);
# the iterations a solve, and the constrained minimization, may take; the
# distance in the continuation parameter within which a failed solve ends a
# branch
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
            # fields that are all read, a stacked array above all, go as they are
            read = fields if len(self._reads) == len(fields) else [fields[k] for k in self._reads]
            spectra = rfft(np.asarray(read))
            rows = iter(irfft(self._stack * spectra[self._picks], self._n))
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
    M takes non-positive or NaN values: the wave's speed has left the window,
    or is not a number."""

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
        # written so that a NaN table fails it
        if not np.min(self.mhat) > 0.0:
            raise ConvergenceError(
                f"reduced symbol takes non-positive values or NaN (min "
                f"{np.min(self.mhat):.3e}) at speed {c!r}; parameters are outside the "
                "admissible window"
            )
        # the iteration's coordinates: Re rfft times the square roots of the
        # Parseval weights 1, 2, ..., 2, 1, in which a dot product is N times
        # the physical one; M^{-1} in them, and whether G reads no multiplier
        # (BO and ILW at c = 0)
        self._root = np.full(grid.N // 2 + 1, math.sqrt(2.0))
        self._root[[0, -1]] = 1.0
        self._unroot = 1.0 / self._root
        self.inv_m = self._root / self.mhat
        self._local = not c and np.isscalar(s2)

    def parts(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M nu, Q(nu), C(nu)): G(nu) = Q(nu) + C(nu), with Q homogeneous of
        degree 2 and C of degree 3."""
        return self._parts(np.stack([nu * nu, nu]))

    def _parts(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`parts` of the stacked fields (nu^2, nu)."""
        nu = fields[1]
        m_nu, inv_sq, *c_rows = self._plan(fields)
        k, c = self._scale_r, self.speed
        if c_rows:
            t1_sq, t2_nu = c_rows
            quad = k * c * t1_sq + 2.0 * k * c * nu * t2_nu
        else:
            quad = np.zeros_like(nu)
        return m_nu, quad, 2.0 * k * self.p.r * nu * inv_sq

    def spectrum(self, nu: np.ndarray) -> np.ndarray:
        """The iteration's coordinates of an even nu: its real half spectrum
        Re rfft(nu), Parseval-weighted."""
        return self._root * rfft(nu).real

    def sampled(self, nu_hat: np.ndarray):
        """(nu, M nu, G(nu), Re rfft G(nu)) at the samples nu, exactly even, of
        the weighted half spectrum nu_hat (`spectrum`), with M nu and G(nu)
        formed from the samples as `parts` forms them; the spectrum of G
        is unweighted (inv_m carries the weights).  Where G reads no
        multiplier (BO and ILW at c = 0) it is transformed with nu in one
        rfft: three transforms, four otherwise."""
        n = self.grid.N
        # the samples in the second row, and (nu^2, nu) the rows `parts`
        # transforms or, where G rides along, (G(nu), nu)
        fields = np.empty((2, n))
        nu = irfft(self._unroot * nu_hat, n, out=fields[1])
        # even to roundoff; the first half mirrored makes it exactly even
        nu[: n // 2 : -1] = nu[1 : n // 2]
        if self._local:
            # G = C(nu), with 1/S2 a scalar, as `parts` forms it
            (inv_sq,) = self._lift((nu * nu, nu))
            g_nu = np.multiply(2.0 * self._scale_r * self.p.r * nu, inv_sq, out=fields[0])
            g_spec, nu_spec = rfft(fields)
            m_nu = irfft(self.mhat * nu_spec, n)
        else:
            np.multiply(nu, nu, out=fields[0])
            m_nu, quad, cubic = self._parts(fields)
            g_nu = quad + cubic
            g_spec = rfft(g_nu)
        return nu, m_nu, g_nu, g_spec.real

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


def _anderson_mixing(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The coefficients theta minimizing ||res - theta d_res||, from the
    normal equations gram theta = rhs with gram = d_res d_res^T and rhs =
    d_res res, or None when they are singular, not finite or exceed
    _MAX_MIXING."""
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    # a NaN compares false, so it is refused with the infinite and the large
    if not np.abs(theta).max() <= _MAX_MIXING:
        return None
    return theta


class _AndersonWindow:
    """The Anderson mixing window of a fixed-point iteration on (..., N)
    iterates, the reduced equation's (N,) profiles or the minimizer's (2, N)
    pairs: the differences of consecutive residuals F(x) - x and of images F
    over the last _ANDERSON_DEPTH + 1 iterates, in two (_ANDERSON_DEPTH, ...,
    N) rings of one new row per iteration, and the Gram matrix of the
    residual differences over their flattened rows, in a ring whose new row
    and column come from one matrix-vector product.  A restart (a refused
    fit, or `restart`) empties the window; a refilled row overwrites its
    whole row and column of the Gram ring, so stale entries are never read."""

    def __init__(self, *shape: int):
        self._d_res = np.empty((_ANDERSON_DEPTH, *shape))
        self._d_img = np.empty((_ANDERSON_DEPTH, *shape))
        self._gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        # the newest iterate's residual, and the buffer of the next one
        self._res, self._spare = np.empty(shape), np.empty(shape)
        self._img = None  # the newest iterate's image; None in an empty window
        self._rows = self._head = 0
        self.restarts = 0

    def restart(self) -> None:
        """Empty the window, counting one restart."""
        self.restarts += 1
        self._img, self._rows, self._head = None, 0, 0

    def mix(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The iterate that follows x, whose plain image is f: the mixed
        combination, or f itself when the window held only x or the fit was
        refused (which restarts the window)."""
        res = np.subtract(f, x, out=self._spare)
        mixed = f
        if self._img is not None:
            head = self._head
            np.subtract(res, self._res, out=self._d_res[head])
            np.subtract(f, self._img, out=self._d_img[head])
            self._head = (head + 1) % _ANDERSON_DEPTH
            rows = self._rows = min(self._rows + 1, _ANDERSON_DEPTH)
            d_res = self._d_res[:rows].reshape(rows, -1)
            self._gram[head, :rows] = self._gram[:rows, head] = d_res @ d_res[head]
            theta = _anderson_mixing(self._gram[:rows, :rows], d_res @ res.ravel())
            if theta is None:
                self.restart()
                return f
            d_img = self._d_img[:rows].reshape(rows, -1)
            mixed = f - (theta @ d_img).reshape(f.shape)
        self._img = f
        self._res, self._spare = res, self._res
        return mixed


def _petviashvili(red: _Reduced, nu_hat: np.ndarray, window: _AndersonWindow):
    """Anderson-accelerated Petviashvili iterates of red's equation M nu =
    G(nu), G a sum of terms homogeneous of degree > 1, carried as the real
    half spectra nu_hat of even profiles nu (`_Reduced.spectrum`).

    The plain iteration maps nu_hat to F = S^q M^{-1} Re G_hat, q = _EXPONENT,
    with the stabilizing factor S = <M nu, nu>/<G(nu), nu> of dot products of
    the samples nu (the quadrature weight dx cancels): taking the real part
    is the projection onto the even subspace, and the step makes no
    transform.  Anderson mixing (type II, depth _ANDERSON_DEPTH, in
    `_AndersonWindow`) replaces F(nu_k) by the combination F(nu_k) -
    sum_j theta_j (F(nu_{j+1}) - F(nu_j)) over the window of past iterates,
    with theta the least-squares fit of the newest fixed-point residual
    F(nu_k) - nu_k by the window's residual differences; in the
    Parseval-weighted coordinates that is the fit of the samples.  A refused
    fit keeps the plain iterate and restarts the window.  An iterate whose S
    is not positive and finite, or whose residual is not finite, raises a
    ConvergenceError carrying the iterate's index (0 for the start), S and
    residual, before anything is mixed.

    red.sampled(nu_hat) gives (nu, M nu, G(nu), Re G_hat), and red.inv_m
    takes Re G_hat into nu_hat's coordinates; one evaluation per iterate
    gives both its residual and the next iterate.  Yields (nu_hat, nu, S,
    ||M nu - G(nu)||_inf) after every iteration, S of the iterate the step
    started from; the residual is always that of the yielded samples nu, so
    the caller's stopping rule reads a true residual.  window is the empty
    `_AndersonWindow` to mix in, whose restarts the caller reads.
    """
    nu, m_nu, g_nu, g_hat = red.sampled(nu_hat)
    res = float(np.max(np.abs(m_nu - g_nu)))
    for it in count():
        den = np.dot(nu, g_nu)
        if den == 0.0:
            raise ConvergenceError("iterate collapsed to the trivial branch")
        s_val = np.dot(nu, m_nu) / den
        if not (0.0 < s_val < math.inf and math.isfinite(res)):
            raise ConvergenceError(
                f"Petviashvili iterate {it}: stabilizing factor S = {s_val:.3e}, "
                f"residual {res:.3e}",
                {"iteration": it, "S": float(s_val), "residual": res},
            )
        nu_hat = window.mix(nu_hat, s_val**_EXPONENT * (red.inv_m * g_hat))
        nu, m_nu, g_nu, g_hat = red.sampled(nu_hat)
        res = float(np.max(np.abs(m_nu - g_nu)))
        yield nu_hat, nu, s_val, res


def _solve(red: _Reduced, nu: np.ndarray) -> tuple[WavePair, dict]:
    """The wave of red's equation reached by `_petviashvili` from nu, and its
    record {iterations, exit, residual, S_minus_1, full_residual,
    mixing_restarts}: mixing_restarts counts the refused Anderson fits (window
    restarts) of the iterations taken.

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
    nu_hat = red.spectrum(nu)
    window = _AndersonWindow(*nu_hat.shape)
    iterates = _petviashvili(red, nu_hat, window)
    for iterations, (_, nu, s_val, res) in enumerate(islice(iterates, _MAX_ITERS), 1):
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
        "mixing_restarts": window.restarts,
    }


def _start(red: _Reduced, shape: np.ndarray) -> np.ndarray:
    """shape scaled to the amplitude a at which the stabilizing factor of a s
    is 1, the start of every solve from a shape.

    S is scale-invariant where a raw residual is not (a residual search
    would collapse to the trivial branch as a -> 0).  M is linear and
    G(a s) = a^2 Q(s) + a^3 C(s), so with q2 = <s, M s>, q3 = <Q(s), s> and
    q4 = <C(s), s>, S(a) = q2/(a q3 + a^2 q4) is 1 at the positive root of
    q4 a^2 + q3 a - q2 = 0, a = 2 q2/(q3 + sqrt(q3^2 + 4 q2 q4)); at c = 0,
    q3 = 0 and a = sqrt(q2/q4).  Raises ConvergenceError when there is no
    positive root.
    """
    m_s, quad_s, cubic_s = red.parts(shape)
    q2, q3, q4 = (float(np.dot(shape, v)) for v in (m_s, quad_s, cubic_s))
    disc = q3 * q3 + 4.0 * q2 * q4
    den = q3 + math.sqrt(disc) if disc >= 0.0 else math.nan
    if not (q2 > 0.0 and den > 0.0):
        raise ConvergenceError(
            f"no start amplitude: S(a) = 1 has no positive root (q2 = {q2:.3e}, "
            f"q3 = {q3:.3e}, q4 = {q4:.3e})",
            {"q2": q2, "q3": q3, "q4": q4},
        )
    return 2.0 * q2 / den * shape


def _bo_start(p: ModelParams, grid: Grid) -> tuple[WavePair, dict]:
    """The c = 0 BO pair: the even positive ground state of op2 nu = 2 r^2
    nu^3/(1-gamma) and xi = r nu^2/(1-gamma), with its `_solve` record."""
    red = _Reduced("BO", p, grid, 0.0)
    # Lorentzian-squared bump at the dispersive width
    width = (p.beta - 1.0) / p.gamma * math.sqrt(p.mu)
    pair, info = _solve(red, _start(red, 1.0 / (1.0 + (grid.x / width) ** 2) ** 2))
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
    p: ModelParams, grid: Grid, points: list[tuple[float, float]]
) -> tuple[list[WavePair], list[dict], dict]:
    """March the one-layer branch of p on grid, BO at mu2 = inf and ILW
    below, from the BO ground state (`_bo_start`) through points, (mu2, c)
    pairs in order, each solved by `_solve` warm-started from the last wave
    solved.

    The march runs in the coordinates (t, c), t = 1/sqrt(mu2) regularizing
    the infinite-depth endpoint t = 0.  When a solve fails, the loop bisects
    the straight segment back toward the last solved point and, once a
    midpoint solves, tries the point again from there; a failure within
    _MIN_STEP of the last solved point, in both coordinates, truncates the
    branch and stores that point's parameter under "end".  A speed at which
    M is not positive is such a failure.  Each point is solved at the exact
    mu2 given (a milestone of 400 at 400.0), a midpoint t at 1/t^2.  Every
    solve leaves a record in diagnostics["steps"]: its parameter (c on a
    segment of constant mu2, mu2 on any other), whether it was accepted, and
    its iterations, exit and mixing restarts (`_work_record`) or its error;
    diagnostics["start"] keeps the ground state's.  Returns the waves, the
    ground state and one per point reached, their `_solve` records and the
    diagnostics.  Raises ValueError for a point whose c is not finite or
    whose mu2 lies outside (0, inf]: no bisection toward it could end.
    """
    bad = [(mu2, c) for mu2, c in points if not (0.0 < mu2 <= math.inf and math.isfinite(c))]
    if bad:
        raise ValueError(f"every point needs 0 < mu2 <= inf and a finite c, got {bad}")
    exact = {1.0 / math.sqrt(mu2): mu2 for mu2, _ in points} | {0.0: math.inf}

    def mu2_of(t: float) -> float:
        return exact[t] if t in exact else 1.0 / t**2

    wave, info = _bo_start(p, grid)
    waves, infos = [wave], [info]
    here = (0.0, 0.0)
    diagnostics: dict = {"start": _work_record(info), "truncated": False, "steps": []}
    for mu2, c in points:
        target = (1.0 / math.sqrt(mu2), c)
        along_c = target[0] == here[0]

        def parameter(point: tuple[float, float]) -> float:
            return point[1] if along_c else mu2_of(point[0])

        trial = target
        while here != target:
            t, speed = trial
            try:
                red = _Reduced("ILW" if t else "BO", replace(p, mu2=mu2_of(t)), wave.grid, speed)
                pair, pair_info = _solve(red, wave.nu)
            except ConvergenceError as exc:
                diagnostics["steps"].append(
                    {"parameter": parameter(trial), "accepted": False, "error": str(exc)}
                )
                if max(abs(a - b) for a, b in zip(trial, here)) <= _MIN_STEP:
                    diagnostics["truncated"] = True
                    diagnostics["end"] = parameter(here)
                    return waves, infos, diagnostics
                trial = tuple(0.5 * (a + b) for a, b in zip(here, trial))
                continue
            diagnostics["steps"].append(
                {"parameter": parameter(trial), "accepted": True} | _work_record(pair_info)
            )
            wave, info, here, trial = pair, pair_info, trial, target
        waves.append(wave)
        infos.append(info)
    return waves, infos, diagnostics


def _work_record(info: dict) -> dict:
    """What branch diagnostics keep of a `_solve` record, for the ground
    state under "start" and for each accepted step: its iterations, exit
    and mixing restarts."""
    return {k: info[k] for k in ("iterations", "exit", "mixing_restarts")}


def branch_work(diagnostics: dict) -> dict:
    """The work of a branch from its diagnostics: the iterations and mixing
    restarts summed over its start and its accepted steps, and the exit of
    the last of them."""
    solves = [diagnostics["start"]] + [s for s in diagnostics["steps"] if s["accepted"]]
    return {
        "iterations": sum(s["iterations"] for s in solves),
        "mixing_restarts": sum(s["mixing_restarts"] for s in solves),
        "exit": solves[-1]["exit"],
    }


def continue_in_c(p: ModelParams, speeds: list[float], *, grid: Grid) -> SolitaryBranch:
    """Branch of BO travelling pairs in the speed c, from the ground state
    (`_continuation`).

    The ground state's `_solve` record is kept under diagnostics["start"].
    Stored samples are the speeds given, solved in order of |c|; the c = 0
    endpoint is always stored first.
    """
    speeds = sorted(speeds, key=abs)
    points = [(math.inf, c) for c in speeds]
    waves, infos, diag = _continuation(p, grid, points)
    residuals = [info["full_residual"] for info in infos]
    return SolitaryBranch("BO", [0.0] + speeds[: len(waves) - 1], waves, residuals, diag)


def continue_in_mu2(p: ModelParams, depths: list[float], *, grid: Grid) -> SolitaryBranch:
    """Branch of c = 0 finite-depth pairs in mu2, from the infinite-depth wave
    (`_continuation`).

    The first stored sample is the BO ground state (parameter value inf; its
    `_solve` record is kept under diagnostics["start"]); the first depth is
    solved from it.  The depths are the mu2 values to store, solved in
    decreasing order; each must lie in (0, inf].  Every solve leaves a
    record, keyed by its mu2 value, in diagnostics["steps"].
    """
    milestones = sorted(depths, reverse=True)
    points = [(m, 0.0) for m in milestones]
    waves, infos, diag = _continuation(p, grid, points)
    residuals = [info["full_residual"] for info in infos]
    return SolitaryBranch(
        "ILW", [math.inf] + milestones[: len(waves) - 1], waves, residuals, diag
    )


# ---------------------------------------------------------------------------
# one solve for every family
# ---------------------------------------------------------------------------


def solve(family: str, p: ModelParams, speed: float, *, grid: Grid) -> tuple[WavePair, dict]:
    """The solitary wave of family at speed c (omega for BFD) on grid, and
    the `_solve` record of its last solve: iterations and mixing_restarts
    (counting every accepted solve on the way, `branch_work`), exit,
    residual, S_minus_1, full_residual.

    p is taken at the family's depth (`family_params`).  BFD waves solve the
    reduced equation from a unit-width sech^2 bump at its start amplitude
    (`_start`).  BO and ILW are reached by `_continuation` from the ground
    state through (mu2, 0), for ILW the path of `continue_in_mu2`, and then
    (mu2, c), the BO one the path of `continue_in_c`.  A branch that ends
    before (mu2, c) raises ConvergenceError.
    """
    fam, p = family_params(family, p)
    if fam not in ("BO", "ILW"):
        red = _Reduced(fam, p, grid, speed)
        # past |x| = 355 cosh^2 overflows to inf and the bump is 0, where
        # sech^2 is below the smallest normal float anyway
        with np.errstate(over="ignore"):
            bump = 1.0 / np.cosh(grid.x) ** 2
        return _solve(red, _start(red, bump))
    waves, infos, diag = _continuation(p, grid, [(p.mu2, 0.0), (p.mu2, speed)])
    if diag["truncated"]:
        raise ConvergenceError(f"the {fam} branch ended at {diag['end']!r}")
    return waves[-1], infos[-1] | branch_work(diag)


# ---------------------------------------------------------------------------
# constrained minimization
# ---------------------------------------------------------------------------


# the projected-gradient norm at which the constrained minimization stops, and
# the rise of E, relative to E, beyond which a mixed step is not roundoff
_GRADIENT_TOL = 1e-8
_ENERGY_SLACK = 1e-13


def constrained_minimize(p: ModelParams, omega: float, lam: float, grid: Grid):
    """Minimize E on {F = lambda} by Anderson-mixed spectral renormalization.

    In the metric A of E's quadratic form (`energy_tables`) the gradient of
    E = 1/2 <x, A x> is x itself, and the projected gradient is x - beta w,
    w = A^{-1} grad F(x), with beta = <grad F, x>/<grad F, w>; the iteration
    stops when its norm reaches _GRADIENT_TOL.  The plain step is the
    spectral-renormalization map x -> (lambda/F(w))^{1/3} w (Ablowitz &
    Musslimani, Opt. Lett. 30 (2005)), the unit step rescaled onto the
    constraint by the real cube root (F is cubic).  The steps are mixed on
    the Petviashvili iteration's window (`_AndersonWindow`, of (2, N)
    pairs), and a mixed iterate is made even and rescaled; one that
    raises E by more than _ENERGY_SLACK relative is replaced by the plain
    step, which restarts the window.  An iteration makes four FFT calls, the
    metric solve of grad F and A of the new iterate (a replaced step adds
    two).  K is the least-squares multiplier of grad E = K grad F.

    Returns (pair, K, info); info holds iterations, gradient_norm, energy,
    constraint, lagrange_misfit_rel (the relative misfit of the multiplier
    relation) and mixing_restarts (replaced steps and refused fits).  Raises
    ConvergenceError, with iterations and gradient_norm as diagnostics, when
    _MAX_ITERS iterations do not reach _GRADIENT_TOL.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    tables = energy_tables(p, omega, grid)
    a11, a12, a22 = tables
    det = a11 * a22 - a12 * a12
    if np.min(det) <= 0.0:
        raise ConvergenceError("quadratic form is not positive definite; inadmissible (p, omega)")
    # A^{-1} has A's symmetric block form, so energy_gradient applies it
    inverse = (a22 / det, -a12 / det, a11 / det)
    r = p.r

    def f_val(x: np.ndarray) -> float:
        return r * inner(grid, x[0], x[1] * x[1])

    def grad_f(x: np.ndarray) -> np.ndarray:
        return np.stack([r * x[1] * x[1], 2.0 * r * x[0] * x[1]])

    def rescale(x: np.ndarray) -> np.ndarray:
        return np.cbrt(lam / f_val(x)) * x

    def placed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        ax = energy_gradient(tables, x)
        return x, ax, 0.5 * inner(grid, x, ax)

    bump = 1.0 / (1.0 + grid.x * grid.x)
    x, ax, e = placed(rescale(_even(np.stack([0.5 * bump**2, bump]))))
    window = _AndersonWindow(*x.shape)
    for iterations in range(1, _MAX_ITERS + 1):
        gf = grad_f(x)
        w = energy_gradient(inverse, gf)
        d = x - np.vdot(gf, x) / np.vdot(gf, w) * w
        gnorm = math.sqrt(inner(grid, d, d))
        if gnorm <= _GRADIENT_TOL:
            break
        plain = rescale(_even(w))
        mixed = window.mix(x, plain)
        step = placed(plain if mixed is plain else rescale(_even(mixed)))
        if mixed is not plain and not step[2] - e <= _ENERGY_SLACK * e:
            window.restart()
            step = placed(plain)
        x, ax, e = step
    else:
        raise ConvergenceError(
            f"constrained minimization: gradient norm {gnorm:.3e} after {_MAX_ITERS} iterations",
            {"iterations": _MAX_ITERS, "gradient_norm": gnorm},
        )

    k_mult = np.vdot(ax, gf) / np.vdot(gf, gf)
    mis = ax - k_mult * gf
    info = {
        "iterations": iterations,
        "gradient_norm": gnorm,
        "energy": e,
        "constraint": f_val(x),
        "lagrange_misfit_rel": float(np.linalg.norm(mis) / max(np.linalg.norm(ax), 1e-300)),
        "mixing_restarts": window.restarts,
    }
    return WavePair(grid=grid, xi=x[0], nu=x[1]), float(k_mult), info


def rescale_to_wave(pair: WavePair, k_mult: float) -> WavePair:
    """Map a constrained minimizer to a travelling wave: multiply both fields by K."""
    return WavePair(grid=pair.grid, xi=k_mult * pair.xi, nu=k_mult * pair.nu)


# ---------------------------------------------------------------------------
# branch serialization
# ---------------------------------------------------------------------------


def save_branch(branch: SolitaryBranch, outdir: str, config: dict | None = None) -> None:
    """Write branch.json (`config.write_json`, with config under "config"
    when given) and one binary sample per wave: sample_NNN.npy, a C-ordered
    float64 array of shape (3, N) with rows x, xi, nu, written by np.save
    without pickling.  branch.json lists the sample names in order."""
    os.makedirs(outdir, exist_ok=True)
    sample_files = []
    for i, wave in enumerate(branch.waves):
        name = f"sample_{i:03d}.npy"
        data = np.stack([wave.grid.x, wave.xi, wave.nu])
        np.save(os.path.join(outdir, name), data, allow_pickle=False)
        sample_files.append(name)
    meta = {
        "family": branch.family,
        "parameter_values": branch.parameter_values,
        "residuals": branch.residuals,
        "samples": sample_files,
        "diagnostics": branch.diagnostics,
    }
    write_json(os.path.join(outdir, "branch.json"), meta, config)


def _read_sample(path: str) -> WavePair:
    """The wave of one stored sample: a .npy array of rows (x, xi, nu) on the
    grid (-x[0], N), or an (x, xi, nu) CSV of an older branch.  A file that
    holds no such wave, an empty one, an array of another shape or a wave
    with NaN or infinite values included, raises ValueError naming the file."""
    try:
        if path.endswith(".npy"):
            data = np.load(path, allow_pickle=False)
            if data.ndim != 2 or len(data) != 3 or not data.size:
                raise ValueError(f"an array of shape {data.shape}, not (3, N)")
            x, xi, nu = data
            wave = WavePair(grid=make_grid(-x[0], x.shape[0]), xi=xi, nu=nu)
        else:
            wave = pair_from_csv(path)
        if not (np.isfinite(wave.xi).all() and np.isfinite(wave.nu).all()):
            raise ValueError("a wave with NaN or infinite values")
        return wave
    except (ValueError, EOFError) as exc:
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
    return SolitaryBranch(
        family=meta["family"],
        parameter_values=[float(v) for v in meta["parameter_values"]],
        waves=waves,
        residuals=[float(v) for v in meta["residuals"]],
        diagnostics=meta.get("diagnostics", {}),
    )
