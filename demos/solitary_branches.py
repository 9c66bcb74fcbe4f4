"""Continue solitary waves in speed and in lower-layer depth.

Two continuation runs, both seeded from the zero-speed deep-water ground
state: first the speed c is stepped away from 0 (the branch detaches
continuously from the ground state), then the depth parameter mu2 is
stepped down from infinity (the deep-water wave deforms continuously into
its finite-depth counterpart).  Both limits are visible in the printed
deviation columns.
"""

import numpy as np

from iswaves import (
    ModelParams,
    SolverConfig,
    continue_in_c,
    continue_in_mu2,
    make_grid,
)

kw = dict(gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0, mu=0.1, epsilon=0.1)
p = ModelParams(mu2=np.inf, **kw)
cfg = SolverConfig(tol_residual=1e-11)

grid = make_grid(200.0, 2048)

print("speed continuation from the ground state:")
branch = continue_in_c(p, 0.02, cfg, grid=grid, store_at=[0.005, 0.01, 0.02])
start = branch.waves[0]
ref = np.max(np.abs(start.nu))
print(f"  {'c':>7}   residual    ||nu_c - nu_0|| / ||nu_0||")
for c, w, r in zip(branch.parameter_values, branch.waves, branch.residuals):
    dev = np.max(np.abs(w.nu - start.nu)) / ref
    print(f"  {c:>7.3f}   {r:.2e}    {dev:.4f}")
print("  the deviation shrinks linearly as c -> 0 (branch limit)")

# reversing the sign of nu gives the wave travelling the other way
last = branch.waves[-1]
from iswaves import WavePair, residual_norm

flipped = WavePair(grid=last.grid, xi=last.xi, nu=-last.nu)
print(f"  sign symmetry: (xi, -nu) solves at speed -c with residual "
      f"{residual_norm('BO', p, -branch.parameter_values[-1], flipped):.2e}")

print("\ndepth continuation from infinite mu2:")
grid2 = make_grid(50.0, 8192)
chain = continue_in_mu2(ModelParams(mu2=25.0, **kw), 25.0, cfg,
                        grid=grid2, milestones=[400.0, 100.0, 25.0])
base = chain.waves[0]
bref = np.max(np.abs(base.nu))
print(f"  {'mu2':>7}   residual    ||nu_mu2 - nu_inf|| / ||nu_inf||")
for mu2, w, r in zip(chain.parameter_values, chain.waves, chain.residuals):
    dev = np.max(np.abs(w.nu - base.nu)) / bref
    label = "inf" if np.isinf(mu2) else f"{mu2:g}"
    print(f"  {label:>7}   {r:.2e}    {dev:.4f}")
print("  shallower lower layers pull the wave further from its deep-water limit")
