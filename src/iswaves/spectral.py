"""Periodic pseudo-spectral core: grids, transforms, Fourier multipliers.

All operators of the three model families are even Fourier multipliers, so
real fields stay real under application.  The model symbols (J_b, J_c, J_d,
L and the one-layer pairs W, Z and D, B) live in one read-only `Symbols`
bundle per (params, grid), at the depth of params.mu2, tabulated on the
half spectrum k_half = pi j / L, j = 0..N/2, to which the rfft path applies
them; a grid builds x and k_half on first use.  `structure` maps a family
to the tables of its system, the one place where the family decides the
equation.  Removable singularities at k = 0 and the cancellation-prone coth
evaluation are handled explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .params import ModelParams, family_params


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with N points."""

    L: float
    N: int

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.L + self.dx * np.arange(self.N)
        x.setflags(write=False)
        return x

    @cached_property
    def k_half(self) -> np.ndarray:
        k = 2.0 * math.pi * np.fft.rfftfreq(self.N, d=self.dx)
        k.setflags(write=False)
        return k

    @property
    def dealias_cut(self) -> int:
        # largest retained rfft bin under the 2/3 rule
        return (self.N - 1) // 3

    def dealias_mask(self) -> np.ndarray:
        mask = np.zeros(self.N // 2 + 1)
        mask[: self.dealias_cut + 1] = 1.0
        return mask

    def reflect_indices(self) -> np.ndarray:
        return (self.N - np.arange(self.N)) % self.N


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid; N must be even and at least 16."""
    if N < 16 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 16, got {N}")
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    return Grid(L=float(L), N=int(N))


@dataclass(frozen=True)
class WavePair:
    """Solitary-wave profile pair (xi, nu) on a common grid."""

    grid: Grid
    xi: np.ndarray
    nu: np.ndarray

    def __post_init__(self) -> None:
        for name in ("xi", "nu"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.shape != (self.grid.N,):
                raise ValueError(f"{name} length does not match grid")
            object.__setattr__(self, name, vals)


def zcothz(z: np.ndarray) -> np.ndarray:
    """z*coth(z) for z >= 0, stable near 0 and for large z.

    Laurent expansion below 1e-4, expm1 form through z = 350, and the
    asymptote z beyond that (coth -> 1 to machine precision).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 1e-4
    big = z > 350.0
    mid = ~(small | big)
    zs = z[small]
    out[small] = 1.0 + zs * zs / 3.0 - zs**4 / 45.0
    zm = z[mid]
    out[mid] = zm * (1.0 + 2.0 / np.expm1(2.0 * zm))
    out[big] = z[big]
    return out


def l1_symbol(k: np.ndarray, mu2: float) -> np.ndarray:
    """|k| coth(sqrt(mu2)|k|); value 1/sqrt(mu2) at k = 0; |k| when mu2 = inf."""
    k = np.abs(np.asarray(k, dtype=float))
    if not math.isfinite(mu2):
        return k
    s = math.sqrt(mu2)
    return zcothz(s * k) / s


class Symbols:
    """Half-spectrum symbol tables of one (ModelParams, Grid), at finite depth
    when p.mu2 is finite and at infinite depth when it is inf.

    Every table is read-only and evaluated on k = grid.k_half = |k|:
      jb, jc, jd  J_b = 1 + mu b k^2, J_c = 1 - mu c k^2, J_d = 1 + mu d k^2;
      l1          |k| coth(sqrt(mu2)|k|) at finite depth, |k| at infinite;
      L           the dispersion symbol, at finite depth
                  1/gamma - (sqrt(mu)/gamma^2) l1 - (mu/gamma) a k^2
                  + (mu/gamma^3) l1^2 (at k = 0: 1/gamma
                  - sqrt(mu)/(gamma^2 sqrt(mu2)) + mu/(gamma^3 mu2)), at
                  infinite depth 1/gamma - (sqrt(mu)/gamma^2)|k|
                  + (mu/gamma)(1/gamma^2 - a) k^2;
      op1, op2    the one-layer operators W, Z (finite depth) or D, B
                  (infinite depth): 1 + (beta/gamma) sqrt(mu) l1 and
                  (1 + ((beta - 1)/gamma) sqrt(mu) l1)/gamma.
    `symbols` hands out one shared instance per key, so the solver
    residuals, E, H and the evolution operator read the same tables, and
    `structure` arranges them into the tables of each family's system.
    """

    def __init__(self, p: ModelParams, grid: Grid):
        k = grid.k_half
        g, mu = p.gamma, p.mu
        finite = p.finite_depth
        self.jb = 1.0 + mu * p.b * k * k
        self.jc = 1.0 - mu * p.c * k * k
        self.jd = 1.0 + mu * p.d * k * k
        self.l1 = l1_symbol(k, p.mu2) if finite else k
        if finite:
            self.L = (
                1.0 / g
                - math.sqrt(mu) / g**2 * self.l1
                - mu / g * p.a * k * k
                + mu / g**3 * self.l1**2
            )
        else:
            self.L = 1.0 / g - math.sqrt(mu) / g**2 * k + mu / g * (1.0 / g**2 - p.a) * k * k
        self.op1 = 1.0 + p.beta / g * math.sqrt(mu) * self.l1
        self.op2 = (1.0 + (p.beta - 1.0) / g * math.sqrt(mu) * self.l1) / g
        for table in (self.jb, self.jc, self.jd, self.l1, self.L, self.op1, self.op2):
            table.setflags(write=False)


# bounded: every continuation step has parameters of its own
@lru_cache(maxsize=32)
def symbols(p: ModelParams, grid: Grid) -> Symbols:
    """The shared symbol tables of (p, grid), at the depth of p.mu2."""
    return Symbols(p, grid)


def structure(family: str, p: ModelParams, grid: Grid):
    """(family, p, (T1, S1, T2, S2)): the family's name and p at its depth
    (`family_params`), and the tables of its system

        T1 xi_t = -(S1 nu - 2 r xi nu)_x,   T2 nu_t = -(S2 xi - r nu^2)_x,

    whose solitary waves of speed c solve -c T1 xi + S1 nu - 2 r xi nu = 0
    and -c T2 nu + S2 xi - r nu^2 = 0.  The tables are (op1, op2, 1,
    1 - gamma) for BO and ILW, the last two Python scalars, and (J_b, L, J_d,
    (1 - gamma) J_c) for BFD at either depth."""
    fam, p = family_params(family, p)
    sym = symbols(p, grid)
    og = 1.0 - p.gamma
    if fam in ("BO", "ILW"):
        return fam, p, (sym.op1, sym.op2, 1.0, og)
    return fam, p, (sym.jb, sym.L, sym.jd, og * sym.jc)


def apply_table(table_half: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Low-level multiplier application on raw sample arrays."""
    n = values.shape[0]
    return np.fft.irfft(table_half * np.fft.rfft(values), n=n)


def symmetrize_even(values: np.ndarray) -> np.ndarray:
    """Average a field with its reflection about x = 0 (sample j with N - j,
    along the last axis, so a stack of fields is projected row by row)."""
    refl = np.empty_like(values)
    refl[..., 0] = values[..., 0]
    refl[..., 1:] = values[..., :0:-1]
    return 0.5 * (values + refl)


def pair_to_csv(w: WavePair, path: str) -> None:
    """Write x, xi, nu as CSV with one header row, each value as %.18e (the
    bytes np.savetxt writes), formatted in one operation."""
    data = np.column_stack([w.grid.x, w.xi, w.nu])
    text = ("%.18e,%.18e,%.18e\n" * data.shape[0]) % tuple(data.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("x,xi,nu\n")
        fh.write(text)


def pair_from_csv(path: str) -> WavePair:
    """The wave of an (x, xi, nu) CSV with one header row, on the grid
    (-x[0], N); a file without three columns, or without data rows, raises
    ValueError."""
    with warnings.catch_warnings():
        # a file without data rows is refused below, by its shape
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected the columns x, xi, nu, got an array of shape {data.shape}")
    x = data[:, 0]
    n = x.shape[0]
    L = -x[0]
    return WavePair(grid=make_grid(L, n), xi=data[:, 1], nu=data[:, 2])
