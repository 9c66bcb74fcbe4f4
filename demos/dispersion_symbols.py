"""Inspect the Fourier multipliers behind the models.

The nonlocal operators all act diagonally in frequency.  The building
block is z*coth(z), whose value at z = 0 is the removable singularity 1;
the finite-depth dispersion symbol is built from it and converges to the
infinite-depth symbol (which carries a genuine |k| kink) as mu2 grows.
"""

import numpy as np

from iswaves import ModelParams, make_grid, symbols
from iswaves.spectral import l1_symbol, zcothz

print("z*coth(z) through the removable singularity at 0:")
for z in (0.0, 1e-12, 1e-6, 0.1, 1.0, 10.0, 100.0):
    print(f"  z = {z:<8g} -> {zcothz(np.array([z]))[0]:.12f}")

print("\n|k| coth(sqrt(mu2) k) at k = 0 equals 1/sqrt(mu2):")
for mu2 in (0.5, 4.0, 25.0):
    val = l1_symbol(np.array([0.0]), mu2)[0]
    print(f"  mu2 = {mu2:<5} -> {val:.6f} (1/sqrt(mu2) = {1.0 / np.sqrt(mu2):.6f})")

grid = make_grid(20.0, 512)
kw = dict(gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0, mu=0.1, epsilon=0.1)
p_inf = ModelParams(mu2=np.inf, **kw)
l_inf = symbols(p_inf, grid).L

print("\nfinite-depth dispersion symbol converging to infinite depth:")
print(f"  {'mu2':>8}   max |L_mu2 - L_inf| over the grid")
for mu2 in (1.0, 10.0, 100.0, 1e4, 1e8):
    l_fin = symbols(ModelParams(mu2=mu2, **kw), grid).L
    print(f"  {mu2:>8g}   {np.max(np.abs(l_fin - l_inf)):.3e}")

print("\nthe infinite-depth symbol keeps a |k| kink at the origin, so its")
print("kernel decays algebraically; the finite-depth symbol is smooth there")
print("and its kernel decays exponentially (see decay_tails.py).")
