"""Periodic pseudo-spectral core: grids, transforms, Fourier multipliers.

`rfft` and `irfft` are the package's one FFT entry point: every transform
of every module goes through them.  They call numpy's pocketfft kernels
(numpy.fft._pocketfft_umath, shipped with numpy 2) at numpy's backward-norm
factors, so they return np.fft.rfft/irfft bit for bit along the last axis,
without np.fft's per-call argument handling (a few microseconds a call, up
to half of a transform at N = 256).

All operators of the three model families are even Fourier multipliers, so
real fields stay real under application.  The model symbols (J_b, J_c, J_d,
L and the one-layer pairs W, Z and D, B) are stated once, by `Symbols`, from
the scalar `table_coefficients` of a parameter set, at the depth of
params.mu2, tabulated on the half spectrum k_half = pi j / L, j = 0..N/2, to
which the rfft path applies them; a grid builds x and k_half on first use.
`symbols` shares one read-only bundle per (params, grid).  A stack of
parameter sets, one coefficient column each, gets its tables from the same
formulas by broadcasting, uncached: the admissibility sweep builds its
blocks so.  `system_tables` maps a family to the tables of its system, the
one place where the family decides the equation, and `structure` reads them
from the shared bundle.  Removable singularities at k = 0 and the
cancellation-prone coth evaluation are handled explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .params import ModelParams, family_params


def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfft(x) along the last axis, bit for bit: numpy's own pocketfft
    kernel for the parity of the length (the even one is wrong for odd
    lengths) at the backward-norm factor 1, without np.fft's argument
    handling.  out, when given, is a complex128 array of the result's shape."""
    n = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (n // 2 + 1,), dtype=complex)
    kernel = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return kernel(x, 1.0, out=out)


def irfft(s: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.irfft(s, n) along the last axis, bit for bit: numpy's pocketfft
    kernel at the backward-norm factor 1/n.  out, when given, is a float64
    array of the result's shape."""
    if out is None:
        out = np.empty(s.shape[:-1] + (n,))
    return _pocketfft.irfft(s, 1.0 / n, out=out)


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
    """Build the periodic grid; N must be even and at least 16, and L
    positive and finite."""
    if N < 16 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 16, got {N}")
    # written so that NaN fails it
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
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


def l1_symbol(k: np.ndarray, mu2: float | np.ndarray) -> np.ndarray:
    """|k| coth(sqrt(mu2)|k|); value 1/sqrt(mu2) at k = 0; |k| when mu2 = inf.
    mu2 is a float, or an array of finite depths broadcast against k (the
    square root is correctly rounded, so each entry gets math.sqrt's bits)."""
    k = np.abs(np.asarray(k, dtype=float))
    if np.ndim(mu2) == 0 and not math.isfinite(mu2):
        return k
    s = np.sqrt(mu2)
    return zcothz(s * k) / s


def table_coefficients(p: ModelParams) -> tuple[float, ...]:
    """The scalars of p's symbol tables, in the order `Symbols` reads them:
    (mu b, mu c, mu d, mu2, 1/gamma, sqrt(mu)/gamma^2, (mu/gamma) a,
    mu/gamma^3, (beta/gamma) sqrt(mu), ((beta - 1)/gamma) sqrt(mu), gamma).
    Each is a Python float formed per parameter set; `Symbols` only
    broadcasts a stack of them against k, since numpy's power on a column of
    gammas does not give every bit of Python's."""
    g, mu = p.gamma, p.mu
    root = math.sqrt(mu)
    return (
        mu * p.b, mu * p.c, mu * p.d, p.mu2,
        1.0 / g, root / g**2, mu / g * p.a, mu / g**3,
        p.beta / g * root, (p.beta - 1.0) / g * root, g,
    )


class Symbols:
    """Half-spectrum symbol tables on k >= 0 of one parameter set's
    `table_coefficients`, or of a stack of sets, each coefficient then an
    array of one entry per set that broadcasts against k (all depths
    finite).  One formula per table at every depth, since the deep-water
    systems are the mu2 -> inf members of the finite-depth ones, and this
    is the one statement of each:
      jb, jc, jd  J_b = 1 + mu b k^2, J_c = 1 - mu c k^2, J_d = 1 + mu d k^2;
      l1          `l1_symbol`: |k| coth(sqrt(mu2)|k|), |k| at mu2 = inf;
      L           the dispersion symbol 1/gamma - (sqrt(mu)/gamma^2) l1
                  - (mu/gamma) a k^2 + (mu/gamma^3) l1^2;
      op1, op2    the one-layer operators W, Z (finite depth) or D, B
                  (infinite depth): 1 + (beta/gamma) sqrt(mu) l1 and
                  (1 + ((beta - 1)/gamma) sqrt(mu) l1)/gamma.
    `symbols` hands out one shared, read-only instance per (params, grid),
    on k = grid.k_half, so the solver residuals, E, H and the evolution
    operator read the same tables, and `system_tables` arranges them into
    the tables of each family's system.
    """

    def __init__(self, k: np.ndarray, coefficients):
        mb, mc, md, mu2, inv_g, c_l1, c_k2, c_l2, c_op1, c_op2, g = coefficients
        self.jb = 1.0 + mb * k * k
        self.jc = 1.0 - mc * k * k
        self.jd = 1.0 + md * k * k
        self.l1 = l1_symbol(k, mu2)
        self.L = inv_g - c_l1 * self.l1 - c_k2 * k * k + c_l2 * self.l1**2
        self.op1 = 1.0 + c_op1 * self.l1
        self.op2 = (1.0 + c_op2 * self.l1) / g


# bounded: every continuation step has parameters of its own
@lru_cache(maxsize=32)
def symbols(p: ModelParams, grid: Grid) -> Symbols:
    """The shared, read-only symbol tables of (p, grid), at the depth of p.mu2."""
    sym = Symbols(grid.k_half, table_coefficients(p))
    for table in vars(sym).values():
        table.setflags(write=False)
    return sym


def structure(family: str, p: ModelParams, grid: Grid):
    """(family, p, (T1, S1, T2, S2)): the family's name and p at its depth
    (`family_params`), and the `system_tables` of its system, from the
    shared `symbols` of (p, grid)."""
    fam, p = family_params(family, p)
    return fam, p, system_tables(fam, symbols(p, grid), 1.0 - p.gamma)


def system_tables(family: str, sym: Symbols, og):
    """(T1, S1, T2, S2) of the canonical family's system

        T1 xi_t = -(S1 nu - 2 r xi nu)_x,   T2 nu_t = -(S2 xi - r nu^2)_x,

    whose solitary waves of speed c solve -c T1 xi + S1 nu - 2 r xi nu = 0
    and -c T2 nu + S2 xi - r nu^2 = 0, from its tables sym and og = 1 - gamma
    (a float, or an array of one entry per set of a stack of `Symbols`).
    They are (op1, op2, 1, og) for BO and ILW, the last two scalars, and
    (J_b, L, J_d, og J_c) for BFD at either depth: the one place where the
    family decides the equation."""
    if family in ("BO", "ILW"):
        return sym.op1, sym.op2, 1.0, og
    return sym.jb, sym.L, sym.jd, og * sym.jc


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
