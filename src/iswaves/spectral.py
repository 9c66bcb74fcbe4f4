"""Periodic pseudo-spectral core: grids, transforms, Fourier multipliers.

All operators of the three model families are even Fourier multipliers, so
real fields stay real under application.  Symbols are tabulated on the full
symmetric frequency set k_j = pi j / L (FFT ordering); application uses the
half-spectrum rfft path.  Removable singularities at k = 0 and the
cancellation-prone coth evaluation are handled explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .params import ModelParams


class SingularOperatorError(ValueError):
    """Inverting a multiplier whose symbol comes too close to zero."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with N points."""

    L: float
    N: int
    x: np.ndarray = field(repr=False, compare=False)
    frequencies: np.ndarray = field(repr=False, compare=False)
    k_half: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

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
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    freqs = 2.0 * math.pi * np.fft.fftfreq(N, d=dx)
    k_half = 2.0 * math.pi * np.fft.rfftfreq(N, d=dx)
    for arr in (x, freqs, k_half):
        arr.setflags(write=False)
    return Grid(L=float(L), N=int(N), x=x, frequencies=freqs, k_half=k_half)


@dataclass(frozen=True)
class RealField:
    """Real-valued grid function."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.N,):
            raise ValueError(f"field length {vals.shape} does not match grid N={self.grid.N}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


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


@dataclass(frozen=True)
class Multiplier:
    """Even Fourier multiplier tabulated on a grid's frequencies."""

    name: str
    table: np.ndarray
    grid: Grid

    @property
    def table_half(self) -> np.ndarray:
        # rfft bins 0..N/2; symbols are even so the Nyquist value carries over
        return self.table[: self.grid.N // 2 + 1]


def make_multiplier(name: str, fn: Callable[[np.ndarray], np.ndarray], grid: Grid) -> Multiplier:
    """Tabulate the even symbol fn(|k|) on the grid."""
    table = np.asarray(fn(np.abs(grid.frequencies)), dtype=float)
    if table.shape != grid.frequencies.shape:
        raise ValueError("symbol function must be vectorized over the frequency array")
    table.setflags(write=False)
    return Multiplier(name=name, table=table, grid=grid)


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


def l1sq_symbol(k: np.ndarray, mu2: float) -> np.ndarray:
    """k^2 coth^2(sqrt(mu2)|k|); value 1/mu2 at k = 0; k^2 when mu2 = inf."""
    k = np.abs(np.asarray(k, dtype=float))
    if not math.isfinite(mu2):
        return k * k
    s = math.sqrt(mu2)
    return (zcothz(s * k) / s) ** 2


def symbol_J(p: ModelParams, which: str, grid: Grid) -> Multiplier:
    """J_b, J_d (1 + mu*coeff*k^2) or J_c (1 - mu*c*k^2)."""
    if which == "b":
        fn = lambda k: 1.0 + p.mu * p.b * k * k
    elif which == "d":
        fn = lambda k: 1.0 + p.mu * p.d * k * k
    elif which == "c":
        fn = lambda k: 1.0 - p.mu * p.c * k * k
    else:
        raise ValueError(f"which must be one of b, c, d; got {which!r}")
    return make_multiplier(f"J_{which}", fn, grid)


def symbol_L_mu2(p: ModelParams, grid: Grid) -> Multiplier:
    """Finite-depth dispersion symbol.

    L(k) = 1/gamma - (sqrt(mu)/gamma^2) |k|coth(sqrt(mu2)|k|)
           - (mu/gamma) a k^2 + (mu/gamma^3) k^2 coth^2(sqrt(mu2)|k|),
    with the removable value 1/gamma - sqrt(mu)/(gamma^2 sqrt(mu2))
    + mu/(gamma^3 mu2) at k = 0.
    """
    if not p.finite_depth:
        raise ValueError("symbol_L_mu2 requires finite mu2")
    g = p.gamma

    def fn(k: np.ndarray) -> np.ndarray:
        k = np.abs(np.asarray(k, dtype=float))
        return (
            1.0 / g
            - math.sqrt(p.mu) / g**2 * l1_symbol(k, p.mu2)
            - p.mu / g * p.a * k * k
            + p.mu / g**3 * l1sq_symbol(k, p.mu2)
        )

    return make_multiplier("L_mu2", fn, grid)


def symbol_L_inf(p: ModelParams, grid: Grid) -> Multiplier:
    """Infinite-depth dispersion symbol 1/gamma - (sqrt(mu)/gamma^2)|k| + (mu/gamma)(1/gamma^2 - a)k^2."""
    g = p.gamma

    def fn(k: np.ndarray) -> np.ndarray:
        k = np.abs(np.asarray(k, dtype=float))
        return 1.0 / g - math.sqrt(p.mu) / g**2 * k + p.mu / g * (1.0 / g**2 - p.a) * k * k

    return make_multiplier("L_inf", fn, grid)


def symbol_L(p: ModelParams, grid: Grid) -> Multiplier:
    """Dispersion symbol for p, dispatching on finite vs infinite mu2."""
    return symbol_L_mu2(p, grid) if p.finite_depth else symbol_L_inf(p, grid)


def symbol_ilw_ops(p: ModelParams, grid: Grid) -> tuple[Multiplier, Multiplier]:
    """Finite-depth one-layer operators (W, Z)."""
    if not p.finite_depth:
        raise ValueError("symbol_ilw_ops requires finite mu2")
    g, beta, mu, mu2 = p.gamma, p.beta, p.mu, p.mu2

    def w_fn(k: np.ndarray) -> np.ndarray:
        return 1.0 + beta / g * math.sqrt(mu) * l1_symbol(k, mu2)

    def z_fn(k: np.ndarray) -> np.ndarray:
        return (1.0 + (beta - 1.0) / g * math.sqrt(mu) * l1_symbol(k, mu2)) / g

    return make_multiplier("W", w_fn, grid), make_multiplier("Z", z_fn, grid)


def symbol_bo_ops(p: ModelParams, grid: Grid) -> tuple[Multiplier, Multiplier]:
    """Infinite-depth one-layer operators (D, B)."""
    g, beta, mu = p.gamma, p.beta, p.mu

    def d_fn(k: np.ndarray) -> np.ndarray:
        return 1.0 + beta / g * math.sqrt(mu) * np.abs(k)

    def b_fn(k: np.ndarray) -> np.ndarray:
        return (1.0 + (beta - 1.0) / g * math.sqrt(mu) * np.abs(k)) / g

    return make_multiplier("D", d_fn, grid), make_multiplier("B", b_fn, grid)


def symbol_min_finite(p: ModelParams, omega: float, grid: Grid) -> float:
    """min over the grid of L_mu2(k) - |omega| J_b(k); positive for admissible triples."""
    lt = symbol_L(p, grid).table
    jb = symbol_J(p, "b", grid).table
    return float(np.min(lt - abs(omega) * jb))


def _check_grids(m: Multiplier, f: RealField) -> None:
    if m.grid is not f.grid and (m.grid.N != f.grid.N or m.grid.L != f.grid.L):
        raise GridMismatchError(f"multiplier {m.name} tabulated on a different grid")


def apply_multiplier(m: Multiplier, f: RealField) -> RealField:
    """Pointwise spectral multiplication; real in, real out."""
    _check_grids(m, f)
    half = m.table[: f.grid.N // 2 + 1]
    out = np.fft.irfft(half * np.fft.rfft(f.values), n=f.grid.N)
    return RealField(grid=f.grid, values=out)


def invert_multiplier(m: Multiplier, f: RealField) -> RealField:
    """Divide the spectrum by the symbol; refuses near-singular symbols."""
    _check_grids(m, f)
    half = m.table[: f.grid.N // 2 + 1]
    small = np.min(np.abs(m.table))
    if small <= 1e-12:
        raise SingularOperatorError(
            f"symbol {m.name} has min |value| = {small:.3e}; inversion refused"
        )
    out = np.fft.irfft(np.fft.rfft(f.values) / half, n=f.grid.N)
    return RealField(grid=f.grid, values=out)


def apply_table(table_half: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Low-level multiplier application on raw sample arrays."""
    n = values.shape[0]
    return np.fft.irfft(table_half * np.fft.rfft(values), n=n)


def dealias_product(values: np.ndarray, mask_half: np.ndarray) -> np.ndarray:
    """Project a pointwise product back onto the retained 2/3 band."""
    n = values.shape[0]
    return np.fft.irfft(mask_half * np.fft.rfft(values), n=n)


def symmetrize_even(values: np.ndarray) -> np.ndarray:
    """Average a field with its reflection about x = 0 (sample j with N - j,
    along the last axis, so a stack of fields is projected row by row)."""
    refl = np.empty_like(values)
    refl[..., 0] = values[..., 0]
    refl[..., 1:] = values[..., :0:-1]
    return 0.5 * (values + refl)


def nyquist_fraction(values: np.ndarray) -> float:
    """Relative magnitude of the Nyquist coefficient; a resolution diagnostic."""
    spec = np.fft.rfft(values)
    denom = np.max(np.abs(spec))
    if denom == 0.0:
        return 0.0
    return float(np.abs(spec[-1]) / denom)


def assert_resolved(values: np.ndarray, tol: float = 1e-12) -> None:
    """Raise if the Nyquist amplitude exceeds tol; never silently filters."""
    frac = nyquist_fraction(values)
    if frac > tol:
        raise ValueError(
            f"field is under-resolved: Nyquist fraction {frac:.3e} exceeds {tol:.1e}"
        )


def pair_to_csv(w: WavePair, path: str) -> None:
    """Write x, xi, nu as CSV with one header row, each value as %.18e (the
    bytes np.savetxt writes), formatted in one operation."""
    data = np.column_stack([w.grid.x, w.xi, w.nu])
    text = ("%.18e,%.18e,%.18e\n" * data.shape[0]) % tuple(data.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("x,xi,nu\n")
        fh.write(text)


def pair_from_csv(path: str) -> WavePair:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x = data[:, 0]
    n = x.shape[0]
    L = -x[0]
    return WavePair(grid=make_grid(L, n), xi=data[:, 1], nu=data[:, 2])
