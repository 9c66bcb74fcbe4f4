"""Cross-validate the reduced-equation solver against constrained minimization.

Solitary waves arise two independent ways: as solutions of a reduced
nonlocal equation (Petviashvili iteration) and as minimizers of the energy E
subject to fixed cubic constraint F (projected gradient descent with a
Lagrange multiplier K).  Both are computed here on the same grid; after
the K-rescaling that turns a minimizer into a travelling wave, the two
profiles must agree.  The minimum value I(lambda), the energy the
minimizer reports at constraint level lambda, also obeys an exact
two-thirds power scaling in the constraint level, which is checked last.
"""

import numpy as np

from iswaves import (
    ModelParams,
    constrained_minimize,
    make_grid,
    residual_norm,
    solve,
)
from iswaves.solvers import rescale_to_wave

p = ModelParams(
    gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0,
    mu=0.1, epsilon=0.1, mu2=4.0,
)
omega = 0.1
grid = make_grid(200.0, 2048)

minimizer, k_mult, info = constrained_minimize(p, omega, 1.0, grid)
print(f"constrained minimizer: {info['iterations']} iterations, "
      f"gradient norm {info['gradient_norm']:.2e}")
print(f"constraint F = {info['constraint']:.12f} (target 1)")
print(f"Lagrange multiplier K = {k_mult:.6f} (positive as required)")
print(f"multiplier misfit {info['lagrange_misfit_rel']:.2e}")

wave = rescale_to_wave(minimizer, k_mult)
direct, dinfo = solve("BFD_finite", p, omega, grid=grid)
rel = np.max(np.abs(direct.nu - wave.nu)) / np.max(np.abs(direct.nu))
print(f"\nreduced-equation solve: residual {dinfo['full_residual']:.2e}")
print(f"profiles agree to {rel:.2e} relative (two independent methods)")
print(f"rescaled minimizer residual on the system: "
      f"{residual_norm('BFD_finite', p, omega, wave):.2e}")

print("\ntwo-thirds scaling of the minimum energy I(lambda):")
# the minimizer's energy is I(lambda) at its constraint level
base = info["energy"]
print(f"  I(1) = {base:.9f}")
for tau in (0.5, 2.0, 4.0):
    energy = constrained_minimize(p, omega, tau, grid)[2]["energy"]
    print(f"  I({tau:>3}) / I(1) = {energy / base:.9f}   "
          f"tau^(2/3) = {tau ** (2.0 / 3.0):.9f}")
