"""Grid construction, multiplier algebra, and the coth symbol family."""

import math

import mpmath
import numpy as np
import pytest

from iswaves.params import ModelParams
from iswaves.spectral import (
    Grid,
    GridMismatchError,
    Multiplier,
    RealField,
    SingularOperatorError,
    WavePair,
    apply_multiplier,
    apply_table,
    assert_resolved,
    dealias_product,
    invert_multiplier,
    l1_symbol,
    l1sq_symbol,
    make_grid,
    make_multiplier,
    nyquist_fraction,
    pair_from_csv,
    pair_to_csv,
    symbol_J,
    symbol_L,
    symbol_L_inf,
    symbol_L_mu2,
    symbol_bo_ops,
    symbol_ilw_ops,
    symbol_min_finite,
    symmetrize_even,
    zcothz,
)


def test_grid_layout():
    g = make_grid(10.0, 64)
    assert g.dx == pytest.approx(20.0 / 64)
    assert g.x[0] == pytest.approx(-10.0)
    assert g.x[-1] == pytest.approx(10.0 - g.dx)
    # frequency spacing pi/L
    assert g.frequencies[1] == pytest.approx(math.pi / 10.0)
    assert g.k_half.shape == (33,)
    assert g.dealias_cut == 21


@pytest.mark.parametrize("n", [15, 10, 0])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        make_grid(10.0, n)


def test_zcothz_limits_against_mpmath():
    zs = np.array([1e-9, 1e-5, 1e-3, 0.1, 1.0, 10.0, 100.0, 349.0, 400.0, 1e6])
    ours = zcothz(zs)
    for z, v in zip(zs, ours):
        exact = float(mpmath.mpf(z) * mpmath.coth(mpmath.mpf(z)))
        assert v == pytest.approx(exact, rel=1e-14), z
    assert zcothz(np.array([0.0]))[0] == 1.0


def test_l1_symbol_finite_and_infinite():
    k = np.array([0.0, 0.3, 2.0, 50.0])
    smu = math.sqrt(4.0)
    vals = l1_symbol(k, 4.0)
    assert vals[0] == pytest.approx(1.0 / smu)
    # large k: approaches |k| from above
    assert vals[-1] == pytest.approx(50.0, rel=1e-12)
    assert np.all(vals >= np.abs(k))
    assert np.allclose(l1_symbol(k, np.inf), np.abs(k))
    assert np.allclose(l1sq_symbol(k, 4.0), vals**2, rtol=1e-13)


def test_j_symbols(p1_mu2_4):
    # J_b = 1 + mu b k^2 and J_d likewise; J_c = 1 - mu c k^2 (c < 0 makes
    # all three uniformly positive)
    g = make_grid(20.0, 128)
    k2 = g.frequencies**2
    assert np.allclose(symbol_J(p1_mu2_4, "b", g).table, 1.0 + 0.1 * 0.25 * k2)
    assert np.allclose(symbol_J(p1_mu2_4, "d", g).table, 1.0 + 0.1 * 0.25 * k2)
    assert np.allclose(symbol_J(p1_mu2_4, "c", g).table, 1.0 + 0.1 / 12.0 * k2)


def test_dispersive_symbol_matches_infinite_limit(p1_inf):
    # for mu2 = inf the dedicated formula and the general one coincide
    g = make_grid(20.0, 256)
    a = symbol_L(p1_inf, g).table
    b = symbol_L_inf(p1_inf, g).table
    assert np.allclose(a, b, rtol=1e-14)


def test_dispersive_symbol_depth_convergence():
    # L_mu2 -> L_inf pointwise as mu2 grows
    g = make_grid(20.0, 256)
    base = dict(gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12, c=-1.0 / 12, mu=0.1,
                epsilon=0.1)
    target = symbol_L_inf(ModelParams(mu2=np.inf, **base), g).table
    errs = []
    for mu2 in (1e2, 1e4, 1e8):
        t = symbol_L_mu2(ModelParams(mu2=mu2, **base), g).table
        errs.append(np.max(np.abs(t - target)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3


def test_one_layer_operator_pairs(p1_mu2_4, p1_inf):
    g = make_grid(20.0, 128)
    w_op, z_op = symbol_ilw_ops(p1_mu2_4, g)
    d_op, b_op = symbol_bo_ops(p1_inf, g)
    k = np.abs(g.frequencies)
    beta, gam, mu = 2.0, 0.5, 0.1
    l1 = l1_symbol(k, 4.0)
    assert np.allclose(w_op.table, 1.0 + beta / gam * math.sqrt(mu) * l1, rtol=1e-13)
    assert np.allclose(
        z_op.table, (1.0 + (beta - 1.0) / gam * math.sqrt(mu) * l1) / gam, rtol=1e-13
    )
    assert np.allclose(d_op.table, 1.0 + beta / gam * math.sqrt(mu) * k, rtol=1e-13)
    assert np.allclose(
        b_op.table, (1.0 + (beta - 1.0) / gam * math.sqrt(mu) * k) / gam, rtol=1e-13
    )


def test_symbol_min_positive_inside_window(p1_mu2_4):
    # the admissibility threshold is a sufficient bound: the symbol stays
    # positive for admissible speeds, and an absurd speed drags it negative
    g = make_grid(20.0, 1024)
    assert symbol_min_finite(p1_mu2_4, 0.1, g) > 0.0
    assert symbol_min_finite(p1_mu2_4, 2.0, g) < 0.0


def test_apply_multiplier_exact_on_modes():
    g = make_grid(5.0, 64)
    m = make_multiplier("ksq", lambda k: k**2, g)
    k3 = 3 * math.pi / 5.0
    f = RealField(grid=g, values=np.cos(k3 * g.x))
    out = apply_multiplier(m, f)
    assert np.allclose(out.values, k3**2 * np.cos(k3 * g.x), atol=1e-12)


def test_invert_multiplier_roundtrip_and_refusal():
    g = make_grid(5.0, 64)
    m = make_multiplier("one_plus_ksq", lambda k: 1.0 + k**2, g)
    rng = np.random.default_rng(3)
    f = RealField(grid=g, values=rng.standard_normal(64))
    back = invert_multiplier(m, apply_multiplier(m, f))
    assert np.allclose(back.values, f.values, atol=1e-12)

    sing = make_multiplier("absk", lambda k: np.abs(k), g)
    with pytest.raises(SingularOperatorError):
        invert_multiplier(sing, f)


def test_grid_mismatch_detected():
    g1 = make_grid(5.0, 64)
    g2 = make_grid(5.0, 128)
    m = make_multiplier("one", lambda k: np.ones_like(k), g1)
    f = RealField(grid=g2, values=np.zeros(128))
    with pytest.raises(GridMismatchError):
        apply_multiplier(m, f)


def test_dealias_product_removes_aliased_energy():
    g = make_grid(math.pi, 32)  # k_j = j
    cut = g.dealias_cut
    u = np.cos(cut * g.x)  # highest retained mode
    prod = u * u  # carries mode 2*cut, which aliases
    filtered = dealias_product(prod, g.dealias_mask())
    spec = np.fft.rfft(filtered)
    assert np.max(np.abs(spec[cut + 1:])) < 1e-12 * np.max(np.abs(spec))
    # retained part untouched: mean of cos^2 is 1/2
    assert np.mean(filtered) == pytest.approx(0.5, abs=1e-12)


def test_symmetrize_even_projects():
    g = make_grid(5.0, 64)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(64)
    e = symmetrize_even(u)
    refl = (64 - np.arange(64)) % 64
    assert np.allclose(e, e[refl], atol=1e-15)
    assert np.allclose(symmetrize_even(e), e, atol=1e-15)
    odd = np.sin(math.pi / 5.0 * g.x)
    assert np.max(np.abs(symmetrize_even(odd))) < 1e-14


@pytest.mark.parametrize("n", [16, 64, 4096])
def test_symmetrize_even_matches_index_reference(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n)
    refl = (n - np.arange(n)) % n
    assert np.array_equal(symmetrize_even(u), 0.5 * (u + u[refl]))
    # a stack of fields is projected row by row
    stack = rng.standard_normal((2, n))
    out = symmetrize_even(stack)
    assert out.shape == (2, n)
    for row, got in zip(stack, out):
        assert np.array_equal(got, 0.5 * (row + row[refl]))


def test_resolution_diagnostics():
    g = make_grid(10.0, 128)
    smooth = np.exp(-g.x**2)
    assert nyquist_fraction(smooth) < 1e-12
    assert_resolved(smooth)
    rough = np.cos(math.pi / g.dx * g.x)  # pure Nyquist mode
    with pytest.raises(ValueError):
        assert_resolved(rough)


def test_wave_pair_csv_roundtrip(tmp_path):
    g = make_grid(7.0, 64)
    w = WavePair(grid=g, xi=np.exp(-g.x**2), nu=np.cos(g.x) * np.exp(-g.x**2))
    path = tmp_path / "pair.csv"
    pair_to_csv(w, str(path))
    back = pair_from_csv(str(path))
    assert back.grid.N == 64
    assert back.grid.L == pytest.approx(7.0)
    assert np.allclose(back.xi, w.xi, atol=1e-15)
    assert np.allclose(back.nu, w.nu, atol=1e-15)


def test_wave_pair_csv_matches_savetxt(tmp_path):
    g = make_grid(7.0, 64)
    xi = np.exp(-g.x**2) - 0.5
    nu = np.cos(g.x) * np.exp(-(g.x**2))
    xi[3], xi[4], nu[5], nu[6] = 0.0, -0.0, 1e-300, -5e-324
    path = tmp_path / "pair.csv"
    pair_to_csv(WavePair(grid=g, xi=xi, nu=nu), str(path))
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.column_stack([g.x, xi, nu]), delimiter=",", header="x,xi,nu", comments="")
    assert path.read_bytes() == ref.read_bytes()


def test_field_rejects_wrong_shape_and_nonfinite():
    g = make_grid(5.0, 64)
    with pytest.raises(ValueError):
        RealField(grid=g, values=np.zeros(32))
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        RealField(grid=g, values=bad)


def test_multiplier_table_readonly():
    g = make_grid(5.0, 64)
    m = make_multiplier("one", lambda k: np.ones_like(k), g)
    with pytest.raises(ValueError):
        m.table[0] = 2.0
