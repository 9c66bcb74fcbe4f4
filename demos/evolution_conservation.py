"""Time evolution: conserved quantities, the small-data bound, wave transport.

Three runs of the spectral ETDRK4 integrator.  A small pulse evolves for a
long time with the Hamiltonian tracked (b = d is the conserved assembly);
the small-data criterion guarantees an a-priori amplitude bound that the
driver asserts at every monitored step.  A computed solitary wave is then
propagated and compared against its exact translate.
"""

import numpy as np

from iswaves import (
    ModelParams,
    WavePair,
    check_global_criterion,
    make_grid,
    run,
    solve,
    suggest_dt,
)

p = ModelParams(
    gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0,
    mu=0.1, epsilon=0.1, mu2=4.0,
)

grid = make_grid(20.0, 256)
small = WavePair(grid=grid, xi=0.02 * np.exp(-grid.x**2), nu=np.zeros(grid.N))

crit = check_global_criterion(p, small)
print("small-data criterion:")
print(f"  |H| = {abs(crit['h_value']):.3e} < threshold {crit['threshold']:.4f}: "
      f"{crit['satisfied']}")
print(f"  guaranteed amplitude bound alpha = {crit['alpha']:.4f} "
      f"(< gamma/eps = {crit['gamma_over_eps']:.1f})")

print(f"\nsuggested dt for this grid: {suggest_dt('bfd_finite', p, grid):.4f}")
out = run("bfd_finite", p, small, T=50.0, dt=0.02)
print(f"long run to T = 50: status {out['status']}, {out['steps']} steps")
print(f"  Hamiltonian drift  {out['h_drift_max']:.3e}")
print(f"  mass drift (zeta)  {out['mass_drift_zeta']:.3e}")
print(f"  sup|zeta| stayed at {out['sup_zeta_max']:.4f} <= alpha (asserted each step)")
print(f"  dealiased band fraction {out['dealias_top_fraction_max']:.2e}")

print("\ntransporting a computed solitary wave at its own speed:")
omega = 0.1
pair, _ = solve("BFD_finite", p, omega, grid=make_grid(8.0, 2048))
T = 4.0
traj = run("bfd_finite", p, pair, T=T, dt=2e-3)
final = traj["final_state"]
shift = np.exp(-1j * pair.grid.k_half * omega * T)
exact = np.fft.irfft(np.fft.rfft(pair.xi) * shift, n=pair.grid.N)
rel = np.linalg.norm(final.xi - exact) / np.linalg.norm(exact)
print(f"  relative L2 shape error after T = {T}: {rel:.2e}")
print("  the wave translates without deformation, as a travelling solution must")
