"""Variational functionals: energy E, constraint F, Hamiltonian H, coercivity.

The energy and constraint drive the constrained-minimization construction of
solitary waves; the Hamiltonian is the invariant monitored along time
evolution.  The quadratic-form check certifies positivity of E per frequency,
which is the computable content of the admissibility window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .spectral import (
    Grid,
    WavePair,
    apply_table,
    l1_symbol,
    l1sq_symbol,
    symbol_J,
    symbol_L,
    symbol_L_inf,
    symbol_L_mu2,
)


@dataclass(frozen=True)
class QuadraticFormReport:
    """Per-frequency positivity analysis of the quadratic part of E.

    min_eigen_by_freq[j] is the smaller of the two split symbols
    (1-gamma) J_c(k_j) - |omega| J_b(k_j)  and  L(k_j) - |omega| J_b(k_j),
    the diagonal comparison obtained from the Young split of the cross term.
    This split is what makes the speed window sharp in the min{1, |c|/b}
    direction; the raw 2x2 eigenvalue bound is strictly weaker there.
    global_min > 0 certifies E >= 0, with coercivity_const the certified
    H1-type lower-bound constant.
    """

    min_eigen_by_freq: np.ndarray
    global_min: float
    coercivity_const: float

    def to_dict(self) -> dict:
        return {
            "global_min": self.global_min,
            "coercivity_const": self.coercivity_const,
            "n_frequencies": int(self.min_eigen_by_freq.shape[0]),
        }


@dataclass(frozen=True)
class IlambdaEstimate:
    """Achieved value of the constrained infimum, with solver diagnostics."""

    value: float
    residual: float
    iterations: int

    def __float__(self) -> float:
        return self.value


def _resolve_L(p: ModelParams, grid: Grid, mu2_mode: str):
    if mu2_mode == "finite":
        return symbol_L_mu2(p, grid)
    if mu2_mode == "infinite":
        return symbol_L_inf(p, grid)
    if mu2_mode == "auto":
        return symbol_L(p, grid)
    raise ValueError(f"mu2_mode must be finite, infinite, or auto; got {mu2_mode!r}")


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 inner product with the exact periodic quadrature weight dx."""
    return float(grid.dx * np.dot(u, v))


def energy_E(p: ModelParams, omega: float, w: WavePair, mu2_mode: str = "auto") -> float:
    """E(xi, nu) = int (1-gamma)/2 xi J_c xi + 1/2 nu L nu - omega xi J_b nu."""
    grid = w.grid
    jc = symbol_J(p, "c", grid).table_half
    jb = symbol_J(p, "b", grid).table_half
    lt = _resolve_L(p, grid, mu2_mode).table_half
    quad = 0.5 * (1.0 - p.gamma) * inner(grid, w.xi, apply_table(jc, w.xi))
    quad += 0.5 * inner(grid, w.nu, apply_table(lt, w.nu))
    quad -= omega * inner(grid, w.xi, apply_table(jb, w.nu))
    return quad


def constraint_F(p: ModelParams, w: WavePair) -> float:
    """F(xi, nu) = r int xi nu^2 with r = epsilon/(2 gamma)."""
    return p.r * inner(w.grid, w.xi, w.nu * w.nu)


def _hamiltonian_tables(p: ModelParams, grid: Grid, coth_arg: str = "mu2"):
    """Half-spectrum tables (J_c, L) of the quadratic part of H.

    H's quadratic part is int (1-gamma)/2 zeta J_c zeta + 1/2 v L v; L carries
    the coth factors at the depth scale selected by coth_arg.
    """
    g = p.gamma
    depth = p.mu2 if coth_arg == "mu2" else p.mu
    k = grid.k_half
    lt = (
        1.0 / g
        - math.sqrt(p.mu) / g**2 * l1_symbol(k, depth)
        - p.mu / g * p.a * k * k
        + p.mu / g**3 * l1sq_symbol(k, depth)
    )
    return symbol_J(p, "c", grid).table_half, lt


def hamiltonian_H(p: ModelParams, state: WavePair, coth_arg: str = "mu2") -> float:
    """Invariant of the b = d evolution.

    H = int (1-gamma)/2 zeta J_c zeta + 1/2 v L v - (epsilon/2gamma) zeta v^2.
    Expanded, the quadratic part contains (1-gamma)/2 (zeta^2 - mu c |zeta_x|^2),
    the v^2, |v_x|^2 and the two coth-weighted terms; assembling it through the
    J_c and L multipliers keeps the discrete value exactly conserved by the
    spectral evolution.  coth_arg selects the depth scale inside the coth
    factors: "mu2" (default) matches the evolution operator, "mu" is kept as
    an alternative convention.
    """
    if abs(p.b - p.d) > 1e-12:
        raise ValueError("hamiltonian_H requires b = d (Hamiltonian case)")
    if coth_arg not in ("mu2", "mu"):
        raise ValueError(f"coth_arg must be 'mu2' or 'mu', got {coth_arg!r}")
    grid = state.grid
    g = p.gamma
    jc, lt = _hamiltonian_tables(p, grid, coth_arg)
    zeta, v = state.xi, state.nu
    value = 0.5 * (1.0 - g) * inner(grid, zeta, apply_table(jc, zeta))
    value += 0.5 * inner(grid, v, apply_table(lt, v))
    value -= p.epsilon / (2.0 * g) * inner(grid, zeta, v * v)
    return value


def quadratic_form_check(
    p: ModelParams, omega: float, grid: Grid, mu2_mode: str = "auto"
) -> QuadraticFormReport:
    """Frequency-wise positivity of the quadratic part of E.

    Uses the sharp diagonal split: both (1-gamma)J_c - |omega|J_b and
    L - |omega|J_b must stay positive.  The coercivity constant is
    min_k min_eigen(k)/(1 + k^2), certifying E >= C/2 ||(xi,nu)||_{1x1}^2.
    """
    k = np.abs(grid.frequencies)
    jc = symbol_J(p, "c", grid).table
    jb = symbol_J(p, "b", grid).table
    lt = _resolve_L(p, grid, mu2_mode).table
    w = abs(omega)
    m1 = (1.0 - p.gamma) * jc - w * jb
    m2 = lt - w * jb
    min_eigen = np.minimum(m1, m2)
    global_min = float(np.min(min_eigen))
    coercivity = float(np.min(min_eigen / (1.0 + k * k)))
    return QuadraticFormReport(
        min_eigen_by_freq=min_eigen, global_min=global_min, coercivity_const=coercivity
    )


def energy_E_spectral(p: ModelParams, omega: float, w: WavePair, mu2_mode: str = "auto") -> float:
    """Frequency-space evaluation of E via the symbol matrix (Plancherel path)."""
    grid = w.grid
    n = grid.N
    jc = symbol_J(p, "c", grid).table_half
    jb = symbol_J(p, "b", grid).table_half
    lt = _resolve_L(p, grid, mu2_mode).table_half
    xh = np.fft.rfft(w.xi)
    nh = np.fft.rfft(w.nu)
    # Parseval weights: interior rfft bins count twice
    wts = np.full(n // 2 + 1, 2.0)
    wts[0] = 1.0
    wts[-1] = 1.0
    scale = grid.dx / n
    quad = 0.5 * (1.0 - p.gamma) * np.sum(wts * jc * np.abs(xh) ** 2)
    quad += 0.5 * np.sum(wts * lt * np.abs(nh) ** 2)
    quad -= omega * np.sum(wts * jb * np.real(xh * np.conj(nh)))
    return float(scale * quad)


def estimate_I_lambda(
    p: ModelParams,
    omega: float,
    lam: float,
    grid: Grid,
    cfg=None,
    mu2_mode: str = "auto",
) -> IlambdaEstimate:
    """Upper estimate of I_lambda = inf{E : F = lambda} via constrained descent."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    from .solvers import constrained_minimize

    pair, _, info = constrained_minimize(p, omega, lam, grid, cfg=cfg, mu2_mode=mu2_mode)
    value = energy_E(p, omega, pair, mu2_mode=mu2_mode)
    return IlambdaEstimate(
        value=value, residual=info["gradient_norm"], iterations=info["iterations"]
    )
