"""Variational functionals: energy E, Hamiltonian H, coercivity.

The energy and the constraint F = r int xi nu^2 drive the
constrained-minimization construction of solitary waves; the Hamiltonian is
the invariant monitored along time evolution.  The quadratic-form check
certifies positivity of E per frequency, which is the computable content of
the admissibility window.  E's quadratic form A is stated once:
`energy_tables` reads its three half-spectrum tables from the BFD tables of
`spectral.structure`, and `energy_gradient` applies A to a stacked (xi, nu)
pair, which is grad E, with one `spectral.rfft`/`irfft` pair.  E, H, the
positivity check, the evolution monitor and `solvers.constrained_minimize`
all read these two.  `stacked_energy_tables` gives the same tables for a
block of parameter sets and speeds, one row each, from the same formulas
(`spectral.system_tables` of an uncached `spectral.Symbols`); the gradient
and the positivity check, whose split min(A11 - |A12|, A22 - |A12|) is
stated once, take such a block row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .spectral import (
    Grid,
    Symbols,
    WavePair,
    irfft,
    rfft,
    structure,
    system_tables,
    table_coefficients,
)


@dataclass(frozen=True)
class QuadraticFormReport:
    """Per-frequency positivity analysis of the quadratic part of E.

    min_eigen_by_freq[j] is the smaller of the two split symbols
    (1-gamma) J_c(k_j) - |omega J_b(k_j)|  and  L(k_j) - |omega J_b(k_j)|,
    the diagonal comparison obtained from the Young split of the cross term.
    This split is what makes the speed window sharp in the min{1, |c|/b}
    direction; the raw 2x2 eigenvalue bound is strictly weaker there.
    global_min > 0 certifies E >= 0, with coercivity_const the certified
    H1-type lower-bound constant; each is an array of one value per row for
    stacked tables.
    """

    min_eigen_by_freq: np.ndarray
    global_min: float | np.ndarray
    coercivity_const: float | np.ndarray


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 inner product with the exact periodic quadrature weight dx,
    of two fields or of two stacked (2, N) pairs."""
    return float(grid.dx * np.vdot(u, v))


def energy_tables(p: ModelParams, omega: float, grid: Grid) -> tuple[np.ndarray, ...]:
    """(A11, A12, A22), the half-spectrum tables of the symbol matrix

        A(k) = [[(1-gamma) J_c, -omega J_b], [-omega J_b, L]]

    of E's quadratic form, at the depth of p: E = 1/2 <x, A x> for the pair
    x = (xi, nu).  They are the BFD tables (S2, -omega T1, S1) of `structure`,
    so E - K F has the BFD travelling-wave system at c = omega as its
    Euler-Lagrange equations when b = d."""
    family = "BFD_finite" if p.finite_depth else "BFD_inf"
    _, _, system = structure(family, p, grid)
    return _energy_of_system(system, omega)


def stacked_energy_tables(points, grid: Grid) -> tuple[np.ndarray, ...]:
    """The `energy_tables` of each (p, omega) of points, all of finite depth,
    as (D, 1, M) tables: row i belongs to points[i], for the (D, F, 2, N)
    stacks of `energy_gradient` and the rows of `quadratic_form_check`.
    The same formulas, bit for bit: each set's `table_coefficients`,
    1 - gamma and omega are Python floats that `Symbols` and
    `system_tables` broadcast against k, and the shared `symbols` cache is
    left alone."""
    if not all(p.finite_depth for p, _ in points):
        raise ValueError("stacked energy tables need finite depths")
    rows = [table_coefficients(p) + (1.0 - p.gamma, omega) for p, omega in points]
    *coefficients, og, omega = (col[:, None, None] for col in np.array(rows).T)
    system = system_tables("BFD_finite", Symbols(grid.k_half, coefficients), og)
    return _energy_of_system(system, omega)


def _energy_of_system(system: tuple, omega) -> tuple[np.ndarray, ...]:
    """E's tables (S2, -omega T1, S1) from the BFD tables (T1, S1, T2, S2)."""
    t1, s1, _, s2 = system
    return s2, -omega * t1, s1


def energy_gradient(tables: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """grad E = A x of a stacked (2, N) pair x, or of each pair of a
    (..., 2, N) stack, by one rfft/irfft pair; tables are the
    `energy_tables`."""
    a11, a12, a22 = tables
    f = rfft(x)
    xi, nu = f[..., 0, :], f[..., 1, :]
    ax = np.stack([a11 * xi + a12 * nu, a12 * xi + a22 * nu], axis=-2)
    return irfft(ax, x.shape[-1])


def energy_E(p: ModelParams, omega: float, w: WavePair) -> float:
    """E(xi, nu) = int (1-gamma)/2 xi J_c xi + 1/2 nu L nu - omega xi J_b nu,
    that is 1/2 <x, A x>."""
    x = np.stack([w.xi, w.nu])
    return 0.5 * inner(w.grid, x, energy_gradient(energy_tables(p, omega, w.grid), x))


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


def quadratic_form_check(tables: tuple[np.ndarray, ...], grid: Grid) -> QuadraticFormReport:
    """Frequency-wise positivity of the quadratic part of E, from its
    `energy_tables` on grid, or row by row from `stacked_energy_tables`.

    Uses the sharp diagonal split: both A11 - |A12| and A22 - |A12| must stay
    positive.  The coercivity constant is min_k min_eigen(k)/(1 + k^2),
    certifying E >= C/2 ||(xi,nu)||_{1x1}^2.  The symbols are even, so the
    half-spectrum values are mirrored onto the full frequency set.  Every
    minimum is taken along the frequency axis, so stacked tables get one
    global_min and one coercivity_const per row.
    """
    a11, a12, a22 = tables
    cross = np.abs(a12)
    half = np.minimum(a11 - cross, a22 - cross)
    min_eigen = np.concatenate([half, half[..., -2:0:-1]], axis=-1)
    global_min = np.min(half, axis=-1)
    coercivity = np.min(half / (1.0 + grid.k_half**2), axis=-1)
    return QuadraticFormReport(
        min_eigen_by_freq=min_eigen, global_min=global_min, coercivity_const=coercivity
    )
