"""Compute the zero-speed ground state of the one-layer deep-water model.

The scalar limit equation is solved by Petviashvili iteration: a fixed
point scheme whose stabilizing factor S converges to 1 exactly when the
iterate converges to a genuine solution.  At zero speed the second equation
of the coupled system is algebraic, xi = r nu^2/(1 - gamma), so `solve`
lifts the scalar profile to a two-component solitary pair with no further
solve; the pair is then certified on the coupled system.
"""

import numpy as np

from iswaves import (
    ModelParams,
    fit_algebraic_tail,
    make_grid,
    residual_norm,
    solve,
)

p = ModelParams(
    gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0,
    mu=0.1, epsilon=0.1, mu2=np.inf,
)
grid = make_grid(200.0, 4096)

pair, info = solve("BO", p, 0.0, grid=grid)
nu0 = pair.nu
print(f"Petviashvili: {info['iterations']} iterations, "
      f"residual {info['residual']:.3e}, |S - 1| = {abs(info['S_minus_1']):.3e}")
print(f"amplitude max nu0 = {np.max(nu0):.9f}")
print(f"even profile: max |nu0(x) - nu0(-x)| = "
      f"{np.max(np.abs(nu0 - nu0[grid.reflect_indices()])):.3e}")

print(f"\nlifted pair residual on the coupled system: "
      f"{residual_norm('BO', p, 0.0, pair):.3e}")
print(f"surface amplitude max xi = {np.max(pair.xi):.9f}")

# deep-water tails are algebraic: x^2 * nu approaches a constant
fit = fit_algebraic_tail(grid.x, pair.nu, window=(20.0, 60.0))
print(f"\ntail fit on x in (20, 60): plateau of x^2 nu = {fit.measured:.4f}, "
      f"max deviation {fit.details['max_rel_deviation']:.2%}, "
      f"log-log slope {fit.details['loglog_slope']:.3f}")
print(f"flags: {fit.flags or 'none'}")
