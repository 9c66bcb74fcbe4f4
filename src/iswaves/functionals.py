"""Variational functionals: energy E, Hamiltonian H, coercivity.

The energy and the constraint F = r int xi nu^2 drive the
constrained-minimization construction of solitary waves; the Hamiltonian is
the invariant monitored along time evolution.  The quadratic-form check
certifies positivity of E per frequency, which is the computable content of
the admissibility window.  All of them read the shared `spectral.symbols`
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .spectral import Grid, WavePair, apply_table, symbols


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


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 inner product with the exact periodic quadrature weight dx."""
    return float(grid.dx * np.dot(u, v))


def energy_E(p: ModelParams, omega: float, w: WavePair) -> float:
    """E(xi, nu) = int (1-gamma)/2 xi J_c xi + 1/2 nu L nu - omega xi J_b nu."""
    grid = w.grid
    sym = symbols(p, grid)
    quad = 0.5 * (1.0 - p.gamma) * inner(grid, w.xi, apply_table(sym.jc, w.xi))
    quad += 0.5 * inner(grid, w.nu, apply_table(sym.L, w.nu))
    quad -= omega * inner(grid, w.xi, apply_table(sym.jb, w.nu))
    return quad


def hamiltonian_H(p: ModelParams, state: WavePair) -> float:
    """Invariant of the b = d evolution, E at omega = 0 less the cubic term:
    H = int (1-gamma)/2 zeta J_c zeta + 1/2 v L v - (epsilon/2gamma) zeta v^2,
    with L at the depth of p.  Expanded, the quadratic part contains
    (1-gamma)/2 (zeta^2 - mu c |zeta_x|^2), the v^2, |v_x|^2 and the two
    coth-weighted terms; assembling it through the J_c and L multipliers
    keeps the discrete value exactly conserved by the spectral evolution.
    """
    if abs(p.b - p.d) > 1e-12:
        raise ValueError("hamiltonian_H requires b = d (Hamiltonian case)")
    zeta, v = state.xi, state.nu
    return energy_E(p, 0.0, state) - p.r * inner(state.grid, zeta, v * v)


def quadratic_form_check(p: ModelParams, omega: float, grid: Grid) -> QuadraticFormReport:
    """Frequency-wise positivity of the quadratic part of E.

    Uses the sharp diagonal split: both (1-gamma)J_c - |omega|J_b and
    L - |omega|J_b must stay positive.  The coercivity constant is
    min_k min_eigen(k)/(1 + k^2), certifying E >= C/2 ||(xi,nu)||_{1x1}^2.
    The symbols are even, so the half-spectrum values are mirrored onto the
    full frequency set.
    """
    sym = symbols(p, grid)
    w = abs(omega)
    m1 = (1.0 - p.gamma) * sym.jc - w * sym.jb
    m2 = sym.L - w * sym.jb
    half = np.minimum(m1, m2)
    min_eigen = np.concatenate([half, half[-2:0:-1]])
    global_min = float(np.min(half))
    coercivity = float(np.min(half / (1.0 + grid.k_half**2)))
    return QuadraticFormReport(
        min_eigen_by_freq=min_eigen, global_min=global_min, coercivity_const=coercivity
    )
