"""Energy, constraint, Hamiltonian, and coercivity checks."""

import numpy as np
import pytest

from iswaves.functionals import (
    energy_E,
    energy_gradient,
    energy_tables,
    hamiltonian_H,
    inner,
    quadratic_form_check,
    stacked_energy_tables,
)
from iswaves.params import ModelParams
from iswaves.solvers import constrained_minimize
from iswaves.spectral import WavePair, make_grid, symbols


def _random_band_limited_pair(grid, rng):
    cut = grid.dealias_cut
    nk = grid.k_half.shape[0]

    def field():
        spec = np.zeros(nk, dtype=complex)
        spec[: cut + 1] = rng.standard_normal(cut + 1) + 1j * rng.standard_normal(cut + 1)
        spec[0] = spec[0].real
        return np.fft.irfft(spec, n=grid.N)

    return WavePair(grid=grid, xi=field(), nu=field())


def energy_E_spectral(p, omega, w):
    """Frequency-space evaluation of E via the symbol matrix (Plancherel path)."""
    grid = w.grid
    n = grid.N
    sym = symbols(p, grid)
    xh = np.fft.rfft(w.xi)
    nh = np.fft.rfft(w.nu)
    # Parseval weights: interior rfft bins count twice
    wts = np.full(n // 2 + 1, 2.0)
    wts[0] = 1.0
    wts[-1] = 1.0
    scale = grid.dx / n
    quad = 0.5 * (1.0 - p.gamma) * np.sum(wts * sym.jc * np.abs(xh) ** 2)
    quad += 0.5 * np.sum(wts * sym.L * np.abs(nh) ** 2)
    quad -= omega * np.sum(wts * sym.jb * np.real(xh * np.conj(nh)))
    return float(scale * quad)


def test_inner_is_periodic_quadrature():
    g = make_grid(5.0, 64)
    u = np.cos(np.pi / 5.0 * g.x)
    # int cos^2 over the period = L
    assert inner(g, u, u) == pytest.approx(5.0, rel=1e-13)


def test_energy_physical_equals_spectral(p1_mu2_4):
    g = make_grid(20.0, 256)
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = _random_band_limited_pair(g, rng)
        a = energy_E(p1_mu2_4, 0.1, w)
        b = energy_E_spectral(p1_mu2_4, 0.1, w)
        assert a == pytest.approx(b, rel=1e-11)


@pytest.mark.parametrize("depth", ["p1_mu2_4", "p1_inf"])
def test_energy_gradient_matches_finite_differences(request, depth):
    # E is quadratic, so the central difference along v is <grad E, v> up to
    # roundoff, and the second difference is h^2 <v, A v>
    p = request.getfixturevalue(depth)
    g = make_grid(20.0, 256)
    rng = np.random.default_rng(3)
    h = 1e-3
    for omega in (0.1, -0.05):
        tables = energy_tables(p, omega, g)
        w = _random_band_limited_pair(g, rng)
        x = np.stack([w.xi, w.nu])
        grad = energy_gradient(tables, x)
        for _ in range(3):
            dv = _random_band_limited_pair(g, rng)
            v = np.stack([dv.xi, dv.nu])
            e_plus, e_mid, e_minus = (
                energy_E(p, omega, WavePair(grid=g, xi=y[0], nu=y[1]))
                for y in (x + h * v, x, x - h * v)
            )
            assert (e_plus - e_minus) / (2.0 * h) == pytest.approx(inner(g, grad, v), rel=1e-9)
            assert (e_plus - 2.0 * e_mid + e_minus) / h**2 == pytest.approx(
                inner(g, v, energy_gradient(tables, v)), rel=1e-6
            )


def test_energy_nonnegative_for_admissible_speed(p1_mu2_4, p1_inf):
    g = make_grid(20.0, 256)
    rng = np.random.default_rng(1)
    for p in (p1_mu2_4, p1_inf):
        for _ in range(20):
            w = _random_band_limited_pair(g, rng)
            assert energy_E(p, 0.1, w) >= 0.0


def test_energy_scaling_quadratic(p1_mu2_4):
    g = make_grid(20.0, 256)
    rng = np.random.default_rng(2)
    w = _random_band_limited_pair(g, rng)
    w3 = WavePair(grid=g, xi=3.0 * w.xi, nu=3.0 * w.nu)
    assert energy_E(p1_mu2_4, 0.1, w3) == pytest.approx(
        9.0 * energy_E(p1_mu2_4, 0.1, w), rel=1e-12
    )


def test_quadratic_form_window_detection(p1_mu2_4):
    g = make_grid(20.0, 1024)
    inside = quadratic_form_check(energy_tables(p1_mu2_4, 0.1, g), g)
    assert inside.global_min > 0.0
    assert inside.coercivity_const > 0.0
    assert inside.min_eigen_by_freq.shape == (g.N,)
    outside = quadratic_form_check(energy_tables(p1_mu2_4, 0.17, g), g)
    assert outside.global_min < 0.0


def test_quadratic_form_boundary_is_tight(p1_mu2_4):
    # exactly at the window edge the large-k eigenvalue tends to zero but
    # never crosses: min over a truncated grid stays nonnegative
    g = make_grid(20.0, 2048)
    edge = quadratic_form_check(energy_tables(p1_mu2_4, 1.0 / 6.0, g), g)
    assert edge.global_min >= 0.0
    assert edge.global_min < 0.5


def test_stacked_energy_tables_are_the_rows_of_energy_tables(p1_mu2_4, p_sharp, p1_inf):
    # each row of a stack is the shared tables of its (p, omega) bit for bit,
    # and its quadratic-form check one row of the stack's; a set of infinite
    # depth is refused, as its l1 row would not be finite
    g = make_grid(20.0, 256)
    points = [(p1_mu2_4, 0.1), (p_sharp, 0.05), (p1_mu2_4, 0.17)]
    stacked = stacked_energy_tables(points, g)
    form = quadratic_form_check(stacked, g)
    assert form.global_min.shape == form.coercivity_const.shape == (3, 1)
    assert form.min_eigen_by_freq.shape == (3, 1, g.N)
    for row, (p, omega) in enumerate(points):
        tables = energy_tables(p, omega, g)
        for got, want in zip(stacked, tables):
            assert got.shape == (3, 1, g.N // 2 + 1)
            assert np.array_equal(got[row, 0], want)
        one = quadratic_form_check(tables, g)
        assert form.global_min[row, 0] == one.global_min
        assert form.coercivity_const[row, 0] == one.coercivity_const
        assert np.array_equal(form.min_eigen_by_freq[row, 0], one.min_eigen_by_freq)
    with pytest.raises(ValueError, match="finite depth"):
        stacked_energy_tables([(p1_mu2_4, 0.1), (p1_inf, 0.1)], g)


def test_hamiltonian_requires_equal_weights(p1_mu2_4):
    g = make_grid(20.0, 128)
    w = WavePair(grid=g, xi=np.exp(-g.x**2), nu=np.zeros(128))
    p_bad = ModelParams(gamma=0.5, epsilon=0.1, mu=0.1, a=-1.0 / 12, b=0.3,
                        c=-1.0 / 12, d=0.2, mu2=4.0)
    with pytest.raises(ValueError):
        hamiltonian_H(p_bad, w)


def test_hamiltonian_quadratic_part_matches_energy(p1_mu2_4):
    # with the cubic term removed (nu*zeta product zero) H equals E at
    # omega = 0: same quadratic assembly
    g = make_grid(20.0, 128)
    zeta = np.exp(-g.x**2)
    w = WavePair(grid=g, xi=zeta, nu=np.zeros(128))
    assert hamiltonian_H(p1_mu2_4, w) == pytest.approx(
        energy_E(p1_mu2_4, 0.0, w), rel=1e-13
    )


def test_i_lambda_rejects_nonpositive_lambda(p1_mu2_4):
    g = make_grid(20.0, 128)
    with pytest.raises(ValueError):
        constrained_minimize(p1_mu2_4, 0.1, 0.0, g)
