"""Grid construction, multiplier algebra, and the coth symbol family."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iswaves.params import ModelParams, family_params
from iswaves.spectral import (
    Symbols,
    WavePair,
    irfft,
    l1_symbol,
    make_grid,
    pair_from_csv,
    pair_to_csv,
    rfft,
    symbols,
    symmetrize_even,
    table_coefficients,
    zcothz,
)

from conftest import P1_KW


def test_grid_layout():
    g = make_grid(10.0, 64)
    assert g.dx == pytest.approx(20.0 / 64)
    assert g.x[0] == pytest.approx(-10.0)
    assert g.x[-1] == pytest.approx(10.0 - g.dx)
    # frequency spacing pi/L
    assert g.k_half[1] == pytest.approx(math.pi / 10.0)
    assert g.k_half.shape == (33,)
    assert g.dealias_cut == 21


@pytest.mark.parametrize("n", [15, 10, 0])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        make_grid(10.0, n)


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_grid_rejects_lengths_that_are_not_positive_and_finite(length):
    with pytest.raises(ValueError, match="L must be positive and finite"):
        make_grid(length, 64)


def _laid_out(make, lead: tuple, n: int, layout: str) -> np.ndarray:
    """An array of shape lead + (n,) from make(shape): contiguous, the second
    row of a (..., 2, n) buffer, or every other entry of a (..., 2n) one."""
    if layout == "row":
        return make(lead + (2, n))[..., 1, :]
    if layout == "strided":
        return make(lead + (2 * n,))[..., ::2]
    return make(lead + (n,))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(
    half=st.integers(8, 2048),
    odd=st.integers(0, 1),
    lead=st.sampled_from([(), (2,), (4,), (5, 2)]),
    layout=st.sampled_from(["contiguous", "row", "strided"]),
    with_out=st.booleans(),
    real_spectrum=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_equal_numpy_bit_for_bit(half, odd, lead, layout, with_out, real_spectrum, seed):
    # lengths 15 ... 4096 of either parity, stacks, views and strided slices,
    # with and without an output buffer (laid out as the input is)
    n, rng = 2 * half - odd, np.random.default_rng(seed)
    m = n // 2 + 1
    x = _laid_out(rng.standard_normal, lead, n, layout)
    if real_spectrum:
        s = _laid_out(rng.standard_normal, lead, m, layout)
    else:
        s = _laid_out(lambda shape: rng.standard_normal(shape + (2,)).view(complex)[..., 0],
                      lead, m, layout)
    if with_out:
        out_f = _laid_out(lambda shape: np.empty(shape, dtype=complex), lead, m, layout)
        out_i = _laid_out(np.empty, lead, n, layout)
        assert rfft(x, out=out_f) is out_f and irfft(s, n, out=out_i) is out_i
        got_f, got_i = out_f, out_i
    else:
        got_f, got_i = rfft(x), irfft(s, n)
    assert _same(got_f, np.fft.rfft(x))
    assert _same(got_i, np.fft.irfft(s, n))


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


def test_j_symbols(p1_mu2_4):
    # J_b = 1 + mu b k^2 and J_d likewise; J_c = 1 - mu c k^2 (c < 0 makes
    # all three uniformly positive)
    g = make_grid(20.0, 128)
    k2 = g.k_half**2
    sym = symbols(p1_mu2_4, g)
    assert np.allclose(sym.jb, 1.0 + 0.1 * 0.25 * k2)
    assert np.allclose(sym.jd, 1.0 + 0.1 * 0.25 * k2)
    assert np.allclose(sym.jc, 1.0 + 0.1 / 12.0 * k2)


def test_dispersive_symbol_matches_infinite_limit(p1_inf):
    # for mu2 = inf the one formula, with |k| coth(sqrt(mu2)|k|) -> |k|,
    # is the deep-water symbol 1/gamma - (sqrt(mu)/gamma^2)|k|
    # + (mu/gamma)(1/gamma^2 - a) k^2
    g = make_grid(20.0, 256)
    k = g.k_half
    gam, mu, a = 0.5, 0.1, -1.0 / 12
    deep = 1 / gam - math.sqrt(mu) / gam**2 * k + mu / gam * (1 / gam**2 - a) * k * k
    assert np.allclose(symbols(p1_inf, g).L, deep, rtol=1e-14)


def test_dispersive_symbol_depth_convergence():
    # L_mu2 -> L_inf pointwise as mu2 grows
    g = make_grid(20.0, 256)
    base = dict(gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12, c=-1.0 / 12, mu=0.1,
                epsilon=0.1)
    target = symbols(ModelParams(mu2=np.inf, **base), g).L
    errs = []
    for mu2 in (1e2, 1e4, 1e8):
        t = symbols(ModelParams(mu2=mu2, **base), g).L
        errs.append(np.max(np.abs(t - target)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3


def test_one_layer_operator_pairs(p1_mu2_4, p1_inf):
    g = make_grid(20.0, 128)
    ilw = symbols(p1_mu2_4, g)
    bo = symbols(p1_inf, g)
    k = g.k_half
    beta, gam, mu = 2.0, 0.5, 0.1
    l1 = l1_symbol(k, 4.0)
    assert np.allclose(ilw.op1, 1.0 + beta / gam * math.sqrt(mu) * l1, rtol=1e-13)
    assert np.allclose(
        ilw.op2, (1.0 + (beta - 1.0) / gam * math.sqrt(mu) * l1) / gam, rtol=1e-13
    )
    assert np.allclose(bo.op1, 1.0 + beta / gam * math.sqrt(mu) * k, rtol=1e-13)
    assert np.allclose(
        bo.op2, (1.0 + (beta - 1.0) / gam * math.sqrt(mu) * k) / gam, rtol=1e-13
    )


def test_symbol_min_positive_inside_window(p1_mu2_4):
    # the admissibility threshold is a sufficient bound: the symbol
    # L - |omega| J_b stays positive for admissible speeds, and an absurd
    # speed drags it negative
    g = make_grid(20.0, 1024)
    sym = symbols(p1_mu2_4, g)
    assert np.min(sym.L - 0.1 * sym.jb) > 0.0
    assert np.min(sym.L - 2.0 * sym.jb) < 0.0


# ---------------------------------------------------------------------------
# the symbol bundle: exact formulas, read-only tables, one instance per key
# ---------------------------------------------------------------------------


def _formulas(p, k, finite):
    """The bundle's tables written out on k = |k|."""
    g, mu = p.gamma, p.mu
    if finite:
        s = math.sqrt(p.mu2)
        l1 = zcothz(s * k) / s
    else:
        l1 = k
    L = 1.0 / g - math.sqrt(mu) / g**2 * l1 - mu / g * p.a * k * k + mu / g**3 * l1**2
    jb = 1.0 + mu * p.b * k * k
    jd = 1.0 + mu * p.d * k * k
    return {
        "jb": jb,
        "jc": 1.0 - mu * p.c * k * k,
        "jd": jd,
        "l1": l1,
        "L": L,
        "op1": 1.0 + p.beta / g * math.sqrt(mu) * l1,
        "op2": (1.0 + (p.beta - 1.0) / g * math.sqrt(mu) * l1) / g,
    }


# the four families, each at finite mu2: BO and BFD_inf read the
# infinite-depth bundle, ILW and BFD_finite the finite-depth one; d != b
# separates J_d from J_b
_FAMILY_CASES = {
    "BO": dict(P1_KW, mu2=4.0),
    "ILW": dict(P1_KW, mu2=25.0),
    "BFD_finite": dict(P1_KW, mu2=4.0, d=0.3),
    "BFD_inf": dict(P1_KW, mu2=4.0, d=0.3),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_CASES))
@pytest.mark.parametrize("n", [256, 1000, 4096])
def test_symbol_bundle_matches_formulas(family, n):
    _, p = family_params(family, ModelParams(**_FAMILY_CASES[family]))
    assert p.finite_depth == (family in ("ILW", "BFD_finite"))
    g = make_grid(50.0, n)
    sym = symbols(p, g)
    want = _formulas(p, np.abs(2.0 * math.pi * np.fft.rfftfreq(n, d=g.dx)), p.finite_depth)
    for name, table in want.items():
        got = getattr(sym, name)
        assert got.shape == (n // 2 + 1,)
        assert np.array_equal(got, table), name


@pytest.mark.parametrize("L, n", [(20.0, 256), (8.0, 2048), (16.0, 2048), (200.0, 4096)])
def test_fixture_symbols_and_their_stack_match_formulas(p1_mu2_4, p1_inf, p_sharp, L, n):
    # the shared tables of the fixture parameter sets are the per-table
    # expressions bit for bit, and so is each row of a stack of the
    # finite-depth sets, whose coefficients are broadcast against k
    g = make_grid(L, n)
    k = np.abs(2.0 * math.pi * np.fft.rfftfreq(n, d=g.dx))
    finite = (p1_mu2_4, p_sharp)
    stack = Symbols(g.k_half, [np.array(c)[:, None] for c in zip(*map(table_coefficients, finite))])
    for p in (p1_mu2_4, p1_inf, p_sharp):
        sym = symbols(p, g)
        for name, table in _formulas(p, k, p.finite_depth).items():
            assert np.array_equal(getattr(sym, name), table), (p, name)
    for row, p in enumerate(finite):
        for name, table in _formulas(p, k, True).items():
            assert np.array_equal(getattr(stack, name)[row], table), (p, name)


def test_symbol_bundle_tables_are_read_only(p1_mu2_4):
    sym = symbols(p1_mu2_4, make_grid(20.0, 64))
    for name in ("jb", "jc", "jd", "l1", "L", "op1", "op2"):
        with pytest.raises(ValueError):
            getattr(sym, name)[1] = 0.0


def test_symbol_bundle_is_shared_per_key(p1_mu2_4, p1_inf):
    g = make_grid(20.0, 64)
    sym = symbols(p1_mu2_4, g)
    # equal keys: an equal grid and equal parameters built anew
    assert symbols(ModelParams(mu2=4.0, **P1_KW), make_grid(20.0, 64)) is sym
    assert symbols(p1_inf, g) is not sym
    assert symbols(p1_mu2_4, make_grid(20.0, 128)) is not sym


def test_depth_resolver(p1_mu2_4, p1_inf):
    # the tables take their depth from p.mu2 alone; a family fixes that
    # depth through family_params, so the mu2 = inf families read the
    # infinite-depth bundle whatever mu2 they are given
    g = make_grid(20.0, 64)
    assert not np.array_equal(symbols(p1_mu2_4, g).L, symbols(p1_inf, g).L)
    for family in ("BO", "BFD_inf"):
        assert symbols(family_params(family, p1_mu2_4)[1], g) is symbols(p1_inf, g)
    for family in ("ILW", "BFD_finite"):
        assert symbols(family_params(family, p1_mu2_4)[1], g) is symbols(p1_mu2_4, g)


def test_apply_multiplier_exact_on_modes():
    # the solvers' row plans apply a multiplier through one stacked
    # rfft/irfft pair; a scalar table multiplies in physical space
    from iswaves.solvers import _RowPlan

    g = make_grid(5.0, 64)
    k3 = 3 * math.pi / 5.0
    mode = np.cos(k3 * g.x)
    out, scaled = _RowPlan([g.k_half**2, 2.0], (0, 1), g.N)((mode, np.sin(k3 * g.x)))
    assert np.allclose(out, k3**2 * mode, atol=1e-12)
    assert np.array_equal(scaled, 2.0 * np.sin(k3 * g.x))


def test_dealias_product_removes_aliased_energy():
    g = make_grid(math.pi, 32)  # k_j = j
    cut = g.dealias_cut
    u = np.cos(cut * g.x)  # highest retained mode
    prod = u * u  # carries mode 2*cut, which aliases
    filtered = np.fft.irfft(g.dealias_mask() * np.fft.rfft(prod), n=g.N)
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


def test_grid_arrays_read_only():
    g = make_grid(5.0, 64)
    for arr in (g.x, g.k_half):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # built once, on first use; the grid stays an (L, N) value
    assert g.x is g.x and g.k_half is g.k_half
    assert g == make_grid(5.0, 64) and hash(g) == hash(make_grid(5.0, 64))
