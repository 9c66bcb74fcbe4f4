"""Decay kernels and measured tails: algebraic vs exponential.

The convolution kernels of the linearized problems decide how solitary
waves decay.  Closed forms (Laplace quadratures and an eigen-series) are
checked against a direct FFT inversion of each symbol, then the predicted
laws are measured on actual computed waves, including a case where the
honest answer is a flagged, unreliable fit.
"""

import numpy as np

from iswaves import (
    ModelParams,
    compute_decay_rates,
    fit_exponential_tail,
    kernel_K1,
    kernel_K2_quadrature,
    kernel_K3_series,
    kernel_K_quadrature,
    kernel_oracle_at,
    kernel_symbol,
    make_grid,
    solve,
)
from iswaves.kernels import kernel_K2_plateau, kernel_K_plateau

kw = dict(gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0, mu=0.1, epsilon=0.1)
p_fin = ModelParams(mu2=4.0, **kw)
p_inf = ModelParams(mu2=np.inf, **kw)

print("closed forms vs FFT symbol inversion:")
xs = (1.0, 2.0, 5.0)
oracle, _ = kernel_oracle_at(kernel_symbol("K", p_inf), make_grid(1024.0, 2**20), xs)
for x, disc in zip(xs, oracle):
    closed = kernel_K_quadrature(p_inf, x)
    print(f"  K({x}):  quadrature {closed:+.8f}   oracle {disc:+.8f}")
print(f"  large-x law x^2 K -> {kernel_K_plateau(p_inf):+.6f}")
print(f"  (K1(1) = {kernel_K1(3.0, 1.0):.6f}, K2(1) = "
      f"{kernel_K2_quadrature(p_fin, 1.0):.6f}, plateau of x^2 K2 = "
      f"{kernel_K2_plateau(p_fin):.6f})")

(o3,), _ = kernel_oracle_at(kernel_symbol("K3", p_fin), make_grid(32.0, 2**19), [2.0])
val, bound = kernel_K3_series(p_fin, 2.0)
print(f"  K3(2): series {val:.10f} (truncation <= {bound:.1e})   oracle {o3:.10f}")

# a steep-tail parameter point: the predicted exponential rate is attained
sharp = ModelParams(gamma=0.5, b=8.0 / 3.0, d=8.0 / 3.0, a=-4.0, c=-1.0,
                    mu=0.1, epsilon=0.1, mu2=0.8)
sigma = compute_decay_rates(sharp).sigma
pair, _ = solve("BFD_finite", sharp, 0.1, grid=make_grid(16.0, 2048))
fit = fit_exponential_tail(pair.grid.x, pair.nu, window=(4.8, 14.4), predicted=sigma)
print(f"\nsteep-tail wave: fitted rate {fit.measured:.5f} vs predicted "
      f"sigma = {sigma:.5f} ({fit.rel_error:.2%} off), r^2 = {fit.r_squared:.6f}")
print(f"resolvable-rate cap on this grid: {fit.details['resolvable_rate_cap']:.2f}")

# the canonical point has an oscillatory finite-depth tail: the fitter
# must refuse to certify a clean exponential law there
pair2, _ = solve("BFD_finite", p_fin, 0.1, grid=make_grid(8.0, 2048))
sigma2 = compute_decay_rates(p_fin).sigma
fit2 = fit_exponential_tail(pair2.grid.x, pair2.nu, window=(2.4, 7.2), predicted=sigma2)
print(f"\noscillatory-tail wave: fitted rate {fit2.measured:.4f}, "
      f"r^2 = {fit2.r_squared:.4f}")
print(f"flags raised (honest refusal): {fit2.flags}")
