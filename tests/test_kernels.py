"""Decay kernels: closed forms vs transform oracle, plateaus, tail fitting."""

import math
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswaves import kernels
from iswaves.kernels import (
    _oracle_values,
    default_fit_window,
    fit_algebraic_tail,
    fit_exponential_tail,
    kernel_oracle_at,
    kernel_K1,
    kernel_K2_plateau,
    kernel_K2_quadrature,
    kernel_K3_series,
    kernel_K_plateau,
    kernel_K_quadrature,
    kernel_symbol,
)
from iswaves.params import InadmissibleParameterError, ModelParams, compute_decay_rates
from iswaves.spectral import make_grid


def _oracle_at(oracle, xs):
    g, values = oracle
    idx = [int(round((x + g.L) / g.dx)) for x in xs]
    return [float(values[i]) for i in idx]


def _oracle(fn, g):
    """The grid and the oracle's values at all of its points."""
    return g, _oracle_values(fn, g, 1)


@pytest.fixture(scope="module")
def k1_symbol():
    return kernel_symbol("K1", None, 3.0)


@pytest.fixture(scope="module")
def k2_symbol(p1_mu2_4):
    return kernel_symbol("K2", p1_mu2_4)


@pytest.fixture(scope="module")
def k_symbol(p1_inf):
    return kernel_symbol("K", p1_inf)


@pytest.fixture(scope="module")
def k3_symbol(p1_mu2_4):
    return kernel_symbol("K3", p1_mu2_4)


# the oracles on the CLI's kernel-check grids
@pytest.fixture(scope="module")
def k1_oracle(k1_symbol):
    return _oracle(k1_symbol, make_grid(16.0, 2**16))


@pytest.fixture(scope="module")
def k2_oracle(k2_symbol):
    return _oracle(k2_symbol, make_grid(1024.0, 2**22))


@pytest.fixture(scope="module")
def k_oracle(k_symbol):
    return _oracle(k_symbol, make_grid(1024.0, 2**20))


@pytest.fixture(scope="module")
def k3_oracle(k3_symbol):
    return _oracle(k3_symbol, make_grid(32.0, 2**21))


def test_k1_closed_form_vs_oracle(k1_oracle):
    xs = [0.5, 1.0, 2.0, 4.0]
    closed = [kernel_K1(3.0, x) for x in xs]
    for c, o in zip(closed, _oracle_at(k1_oracle, xs)):
        assert abs(c - o) <= 1e-5
    assert kernel_K1(3.0, 0.0) == pytest.approx(math.pi)
    assert kernel_K1(3.0, -1.0) == kernel_K1(3.0, 1.0)
    with pytest.raises(ValueError):
        kernel_K1(0.0, 1.0)


def test_k2_quadrature_vs_oracle(p1_mu2_4, k2_oracle):
    xs = [1.0, 5.0, 10.0]
    closed = [kernel_K2_quadrature(p1_mu2_4, x) for x in xs]
    for c, o in zip(closed, _oracle_at(k2_oracle, xs)):
        assert abs(c - o) <= 1e-5
    with pytest.raises(ValueError):
        kernel_K2_quadrature(p1_mu2_4, 0.0)


def test_k_quadrature_vs_oracle(p1_inf, k_oracle):
    xs = [1.0, 2.0, 5.0]
    closed = [kernel_K_quadrature(p1_inf, x) for x in xs]
    for c, o in zip(closed, _oracle_at(k_oracle, xs)):
        assert abs(c - o) <= 1e-5
    with pytest.raises(ValueError):
        kernel_K_quadrature(p1_inf, 0.0)


def test_k_refuses_degenerate_constants():
    # large a drives 4 c_K - ell^2 negative (symbol loses positivity) ...
    base = dict(gamma=0.5, b=0.25, d=0.25, c=-1.0 / 12.0, mu=0.1, epsilon=0.1)
    p_neg_disc = ModelParams(mu2=math.inf, a=3.5, **base)
    with pytest.raises(ValueError, match="must be positive"):
        kernel_K_quadrature(p_neg_disc, 1.0)
    # ... and past a = 1/gamma^2 the constants are undefined altogether
    p_undef = ModelParams(mu2=math.inf, a=4.5, **base)
    with pytest.raises(ValueError, match="undefined"):
        kernel_K_quadrature(p_undef, 1.0)


# from the core (x = 0.005) to x = 1e4, where the integrands are spikes of
# width 1e-4 at y = 0
_QUAD_XS = [0.005, 0.5, 3.0, 50.0, 1000.0, 1e4]


def _assert_matches_mpmath(closed, exact):
    for x in _QUAD_XS:
        value, ref = closed(x), float(exact(mpmath.mpf(x)))
        assert abs(value - ref) <= 1e-13, (x, value, ref)
        assert abs(value - ref) <= 1e-11 * abs(ref), (x, value, ref)


@pytest.mark.parametrize("mu", [0.1, 0.001], ids=["p1", "alpha_15.8"])
def test_k2_quadrature_vs_mpmath(p1_mu2_4, mu):
    p = replace(p1_mu2_4, mu=mu)
    alpha = mpmath.mpf(kernels._k2_alpha(p))

    def exact(x):
        f = lambda y: y * mpmath.exp(-x * y) / (alpha**2 + y**2)
        return mpmath.sqrt(2 / mpmath.pi) * mpmath.quad(f, [0, 1 / x, 10 / x, alpha, mpmath.inf])

    with mpmath.workdps(30):
        _assert_matches_mpmath(lambda x: kernel_K2_quadrature(p, x), exact)


@pytest.mark.parametrize(
    "kw", [{}, {"mu": 9.6}, {"a": 2.999, "mu": 1.0}], ids=["p1", "ell_0.158", "disc_0.004"]
)
def test_k_quadrature_vs_mpmath(p1_inf, kw):
    p = replace(p1_inf, **kw)
    # the float constants, so that the reference checks the quadrature and
    # not the rounding of 4 c_K - ell^2 (1e3 eps relative at disc 0.004)
    rates = compute_decay_rates(p)
    ell, c_k, disc = (mpmath.mpf(v) for v in (rates.ell, rates.c_K, rates.discriminant))

    def exact(x):
        f = lambda y: y * mpmath.exp(-x * y) / ((c_k - y * y) ** 2 + ell**2 * y * y)
        laplace = mpmath.quad(f, sorted([0, 1 / x, 10 / x, ell, mpmath.sqrt(c_k), mpmath.inf]))
        osc = 2 * mpmath.sqrt(2 * mpmath.pi / disc) * mpmath.exp(-mpmath.sqrt(disc) * x / 2)
        return -2 * ell / mpmath.sqrt(2 * mpmath.pi) * laplace + osc * mpmath.cos(ell * x / 2)

    with mpmath.workdps(30):
        _assert_matches_mpmath(lambda x: kernel_K_quadrature(p, x), exact)


def test_quadrature_plateaus_at_large_x(p1_inf, p1_mu2_4):
    x = 1e4
    assert x**2 * kernel_K_quadrature(p1_inf, x) == pytest.approx(
        kernel_K_plateau(p1_inf), rel=1e-3
    )
    assert x**2 * kernel_K2_quadrature(p1_mu2_4, x) == pytest.approx(
        kernel_K2_plateau(p1_mu2_4), rel=1e-3
    )


def test_quadrature_refuses_past_the_panel_cap(p1_inf, p1_mu2_4):
    with mock.patch.object(kernels, "_MAX_PANELS", 1):
        with pytest.raises(RuntimeError, match="panels"):
            kernel_K_quadrature(p1_inf, 2.0)
        with pytest.raises(RuntimeError, match="panels"):
            kernel_K2_quadrature(p1_mu2_4, 2.0)


def test_quadrature_counts_the_tail_in_its_error_bound():
    # the rule's error estimate plus the analytic tail beyond the cutoff
    # must stay within 1e-10; e^{-y} on [0, 40] leaves a tail of 4e-18
    def f(y):
        return np.exp(-y)

    assert kernels._laplace_integral(f, 1.0, 1.0, 40.0, math.exp(-40.0)) == pytest.approx(
        1.0, rel=1e-14
    )
    with pytest.raises(RuntimeError, match="tolerance"):
        kernels._laplace_integral(f, 1.0, 1.0, 40.0, 1e-9)


def test_k3_series_vs_oracle(p1_mu2_4, k3_oracle):
    xs = [1.0, 2.0, 5.0]
    closed = [kernel_K3_series(p1_mu2_4, x)[0] for x in xs]
    for c, o in zip(closed, _oracle_at(k3_oracle, xs)):
        assert abs(c - o) <= 1e-5


def test_k3_refusals(p1_mu2_4, p1_inf):
    with pytest.raises(ValueError):
        kernel_K3_series(p1_mu2_4, 0.0)
    with pytest.raises(ValueError):
        kernel_K3_series(p1_inf, 1.0)


def test_k3_truncation_bound(p1_mu2_4, monkeypatch):
    # all series terms are positive, so the first omitted term is a strict
    # lower bound on the truncation error and, with the ~pi spacing of the
    # decay rates, stays within a small geometric factor of it
    x = 0.5
    with monkeypatch.context() as m:
        m.setattr(kernels, "_K3_TERMS", 20)
        v20, b20 = kernel_K3_series(p1_mu2_4, x)
        m.setattr(kernels, "_K3_TERMS", 200)
        v200, b200 = kernel_K3_series(p1_mu2_4, x)
    diff = v200 - v20
    assert diff > 0.0
    assert b20 <= diff <= 2.0 * b20
    assert b200 < b20
    # the package's truncation is far below the value itself
    val, bound = kernel_K3_series(p1_mu2_4, x)
    assert bound < 1e-12 * abs(val)


def test_k3_even_in_x(p1_mu2_4):
    v_pos, _ = kernel_K3_series(p1_mu2_4, 1.5)
    v_neg, _ = kernel_K3_series(p1_mu2_4, -1.5)
    assert v_pos == v_neg


def test_plateau_closed_forms(p1_inf, p1_mu2_4):
    assert kernel_K_plateau(p1_inf) == pytest.approx(-0.20605582263164643, rel=1e-12)
    assert kernel_K2_plateau(p1_mu2_4) == pytest.approx(0.3191538243211462, rel=1e-12)
    rates = compute_decay_rates(p1_inf)
    ell, c_k = rates.ell, rates.c_K
    assert kernel_K_plateau(p1_inf) == pytest.approx(
        -2.0 * ell / (c_k**2 * math.sqrt(2.0 * math.pi)), rel=1e-14
    )


def test_plateau_recovered_from_oracle(p1_inf, p1_mu2_4, k_oracle, k2_oracle):
    # x = 150 on the half-width-1024 grids: periodization images contribute
    # about 1.8% there and grow quadratically with x, so sample no deeper
    x = 150.0
    k_val = _oracle_at(k_oracle, [x])[0]
    k2_val = _oracle_at(k2_oracle, [x])[0]
    k_rel = abs(x**2 * k_val - kernel_K_plateau(p1_inf)) / abs(kernel_K_plateau(p1_inf))
    k2_rel = abs(x**2 * k2_val - kernel_K2_plateau(p1_mu2_4)) / kernel_K2_plateau(p1_mu2_4)
    assert k_rel < 0.03
    assert k2_rel < 0.03


def test_oracle_rejects_nonpositive_symbol():
    g = make_grid(10.0, 64)
    sym = lambda k: k**2 - 1.0  # noqa: E731
    with pytest.raises(ValueError):
        _oracle_values(sym, g, 1)
    # checked on the symbol values, before folding: the points below lie on
    # a 4-bin sub-lattice, whose folded sums are all positive here
    with pytest.raises(ValueError, match="not strictly positive"):
        kernel_oracle_at(sym, g, [-10.0, -5.0, 0.0, 5.0])
    # a symbol that takes NaN is no positive symbol
    with pytest.raises(ValueError, match="not strictly positive"):
        kernel_oracle_at(lambda k: 1.0 / (k * k + math.nan), g, [1.0])


@pytest.mark.filterwarnings("error")
def test_oracle_rejects_an_infinite_symbol():
    # inf passes the positivity check; the fold is checked once for a sum
    # that is not finite, not block by block
    g = make_grid(10.0, 64)
    sym = lambda k: np.where(k == 0.0, math.inf, 1.0 / (1.0 + k * k))  # noqa: E731
    with pytest.raises(InadmissibleParameterError, match="^symbol is not finite on the grid$"):
        _oracle_values(sym, g, 1)
    with pytest.raises(InadmissibleParameterError, match="^symbol is not finite on the grid$"):
        kernel_oracle_at(sym, g, [-10.0, -5.0, 0.0, 5.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma, square_in_range", [
    (1e-200, False), (1e-163, False), (1e-160, True), (1e154, True), (1e155, False), (1e300, False),
])
def test_k1_symbol_refuses_a_sigma_whose_square_leaves_the_float_range(sigma, square_in_range):
    # sigma^2 of 0 makes the symbol infinite at k = 0, and of inf makes it
    # 0 (or NaN at k = inf): both are refused where the symbol is built
    if square_in_range:
        sym = kernel_symbol("K1", None, sigma)
        assert 0.0 < sym(np.array([0.0, 1.0]))[0] < math.inf
    else:
        refused = "^symbol is not strictly positive and finite"
        with pytest.raises(InadmissibleParameterError, match=refused):
            kernel_symbol("K1", None, sigma)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_k1_refuses_a_decay_rate_that_is_not_positive_and_finite(sigma):
    # NaN fails every comparison, so the check is written to refuse it; the
    # symbol refuses sigma when it is built, before any |k| is evaluated
    with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma!r}"):
        kernel_K1(sigma, 1.0)
    with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma!r}"):
        kernel_symbol("K1", None, sigma)


def test_oracle_at_refuses_points_off_the_period():
    g = make_grid(10.0, 64)
    sym = lambda k: 1.0 / (1.0 + k * k)  # noqa: E731
    with pytest.raises(ValueError, match="outside"):
        kernel_oracle_at(sym, g, [1.0, 10.0])
    with pytest.raises(ValueError, match="outside"):
        kernel_oracle_at(sym, g, [-10.5])


# (name, sample points, bins transformed): the CLI's points plus the
# plateau point x = 150 on the two half-width-1024 grids
_CLI_POINTS = [
    ("k1", [0.5, 1.0, 2.0, 4.0], 64),
    ("k2", [1.0, 5.0, 10.0, 150.0], 2048),
    ("k", [1.0, 2.0, 5.0, 150.0], 2048),
    ("k3", [1.0, 2.0, 5.0], 64),
]


@pytest.mark.parametrize("name,xs,bins", _CLI_POINTS)
def test_oracle_at_matches_full_oracle_on_cli_grids(request, name, xs, bins):
    sym = request.getfixturevalue(f"{name}_symbol")
    oracle = request.getfixturevalue(f"{name}_oracle")
    vals, got_bins = kernel_oracle_at(sym, oracle[0], xs)
    scale = np.max(np.abs(oracle[1]))
    assert np.max(np.abs(vals - _oracle_at(oracle, xs))) <= 1e-13 * scale
    assert got_bins == bins


def _full_table(fn, g):
    # the symbol tabulated on the whole FFT frequency set: the streamed fold's reference
    return fn(np.abs(2.0 * math.pi * np.fft.fftfreq(g.N, d=g.dx)))


def _direct_oracle(fn, g, idx):
    # (dk/sqrt(2pi)) sum_j khat(k_j) cos(k_j x_i): the trapezoidal sum
    # written out on the physical points, with no transform
    dk = math.pi / g.L
    k = 2.0 * math.pi * np.fft.fftfreq(g.N, d=g.dx)
    table = _full_table(fn, g)
    return np.array(
        [dk / math.sqrt(2.0 * math.pi) * np.sum(table * np.cos(k * g.x[i])) for i in idx]
    )


@pytest.mark.parametrize("n", [16, 50, 256])
def test_full_oracle_matches_direct_sum(n):
    g = make_grid(7.5, n)
    sym = lambda k: 2.0 / (0.7 + k * k)  # noqa: E731
    idx = [0, 1, n // 4, n // 2 - 1, n // 2, n - 1]
    direct = _direct_oracle(sym, g, idx)
    got = _oracle_values(sym, g, 1)[idx]
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@settings(max_examples=40)
@given(data=st.data())
def test_oracle_at_matches_full_oracle_property(data):
    n = 2 * data.draw(st.integers(8, 2048), label="N/2")
    length = data.draw(st.floats(0.5, 200.0), label="L")
    a = data.draw(st.floats(0.05, 20.0), label="a")
    if data.draw(st.booleans(), label="lorentzian"):
        b = data.draw(st.floats(0.05, 20.0), label="b")
        fn = lambda k: a / (b + k * k)
    else:
        fn = lambda k: 1.0 / (np.abs(k) + a)
    g = make_grid(length, n)

    specials = data.draw(
        st.lists(st.sampled_from([0, n // 2, n - 1]), max_size=3), label="specials"
    )
    if data.draw(st.booleans(), label="on a coarse lattice"):
        step = data.draw(st.sampled_from(_divisors(n // 2)), label="step")
        rs = data.draw(st.lists(st.integers(0, n // step - 1), min_size=1, max_size=6))
        idx = [step * r for r in rs]
        specials = [i for i in specials if i % step == 0]
    else:
        idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    idx = idx + specials
    xs = [float(g.x[i]) for i in idx]

    full = _oracle_values(fn, g, 1)
    vals, bins = kernel_oracle_at(fn, g, xs)
    assert np.max(np.abs(vals - full[idx])) <= 1e-13 * np.max(np.abs(full))
    assert bins % 2 == 0 and n % bins == 0
    assert all(i % (n // bins) == 0 for i in idx)


def _table_fold_oracle(fn, g, step):
    # the fold of the full N-point table: reshape(step, M).sum(axis=0)
    m = g.N // step
    folded = _full_table(fn, g).reshape(step, m).sum(axis=0)[: m // 2 + 1]
    folded[1::2] *= -1.0
    return math.pi / g.L / math.sqrt(2.0 * math.pi) * m * np.fft.irfft(folded, n=m)


@settings(max_examples=30, deadline=None)
@given(
    half=st.integers(8, 1536),
    length=st.floats(0.5, 200.0),
    a=st.floats(0.05, 20.0),
    b=st.floats(0.05, 20.0),
    block=st.sampled_from([1, 7, 64, kernels._FOLD_BLOCK]),
)
def test_streamed_fold_equals_table_fold_property(half, length, a, b, block):
    # bit for bit, for every step dividing N/2, both symbol shapes, and fold
    # blocks from one bin (a row per block) to the module's own size
    g = make_grid(length, 2 * half)
    with mock.patch.object(kernels, "_FOLD_BLOCK", block):
        for fn in (lambda k: a / (b + k * k), lambda k: 1.0 / (np.abs(k) + a)):
            for step in _divisors(half):
                assert np.array_equal(_oracle_values(fn, g, step), _table_fold_oracle(fn, g, step))


# the allocation peak of the fold on the CLI's largest grids: 0.49 MiB (K2)
# and 0.67 MiB (K3) with 2^14-value blocks, 2.47 and 3.19 MiB with 2^16-value
# blocks that concatenated the accumulator onto every block
_ORACLE_PEAK_BOUND = 1.5 * 2**20


def _oracle_at_peak(fn, g, xs) -> int:
    tracemalloc.start()
    try:
        kernel_oracle_at(fn, g, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_oracle_at_memory_on_the_k2_grid(k2_symbol):
    # the K2 check folds the 2^22 frequencies onto 2048 bins; an N-point
    # table, or a grid that builds its arrays up front, takes 32 MB
    assert _oracle_at_peak(k2_symbol, make_grid(1024.0, 2**22), [1.0, 5.0, 10.0]) < _ORACLE_PEAK_BOUND


def test_oracle_at_memory_on_the_k3_grid(p1_mu2_4):
    # the K3 check folds 2^21 frequencies onto 64 bins, 496 rows a block
    k3_symbol = kernel_symbol("K3", p1_mu2_4)
    assert _oracle_at_peak(k3_symbol, make_grid(32.0, 2**21), [1.0, 2.0, 5.0]) < _ORACLE_PEAK_BOUND


def test_fit_exponential_synthetic():
    g = make_grid(30.0, 1024)
    field_vals = np.exp(-3.0 * np.abs(g.x))
    rep = fit_exponential_tail(g.x, field_vals, window=(2.0, 8.0), predicted=3.0)
    assert rep.kind == "exponential"
    assert rep.measured == pytest.approx(3.0, rel=1e-6)
    assert rep.r_squared > 0.999999
    assert rep.flags == []
    assert rep.rel_error < 1e-6
    assert rep.details["resolvable_rate_cap"] > 3.0
    d = asdict(rep)
    assert d["kind"] == "exponential" and d["fit_window"] == (2.0, 8.0)


def test_fit_exponential_cap_flag():
    # a predicted rate steeper than the window can resolve is capped and flagged
    g = make_grid(30.0, 1024)
    rep = fit_exponential_tail(g.x, np.exp(-3.0 * np.abs(g.x)), window=(2.0, 8.0), predicted=50.0)
    assert "rate-capped-by-grid" in rep.flags
    assert rep.details["effective_predicted"] == rep.details["resolvable_rate_cap"]
    assert rep.details["resolvable_rate_cap"] < 50.0


def test_fit_exponential_unreliable_flag():
    rng = np.random.default_rng(11)
    x = np.linspace(1.0, 9.0, 400)
    v = np.exp(-x) * (1.0 + 0.9 * rng.standard_normal(x.size))
    v = np.abs(v) + 1e-300
    rep = fit_exponential_tail(x, v, window=(2.0, 8.0))
    assert "unreliable-fit" in rep.flags


def test_fit_algebraic_synthetic():
    x = np.linspace(0.05, 60.0, 4000)
    v = 2.5 / (1.0 + x**2)
    rep = fit_algebraic_tail(x, v, window=(15.0, 45.0), predicted=2.5)
    assert rep.kind == "algebraic"
    assert rep.measured == pytest.approx(2.5, rel=2e-3)
    assert rep.flags == []
    assert rep.rel_error < 2e-3
    assert abs(rep.details["loglog_slope"] + 2.0) < 0.01


def test_fit_algebraic_negative_control():
    # an exponential profile is not an x^{-2} tail: the plateau check flags it
    x = np.linspace(0.05, 30.0, 2000)
    v = np.exp(-x)
    rep = fit_algebraic_tail(x, v, window=(5.0, 15.0))
    assert "non-plateau" in rep.flags
    assert rep.details["max_rel_deviation"] > 0.10


@pytest.mark.parametrize("fit", [fit_algebraic_tail, fit_exponential_tail])
@pytest.mark.parametrize(
    "window, predicted, name",
    [
        ((math.nan, 16.0), None, "window"),
        ((8.0, math.nan), None, "window"),
        ((8.0, math.inf), None, "window"),
        ((8.0, 16.0), math.nan, "predicted"),
        ((8.0, 16.0), math.inf, "predicted"),
    ],
)
def test_tail_fits_refuse_inputs_that_are_not_finite(fit, window, predicted, name):
    # NaN bounds used to select no sample ("fewer than 8 samples"), and a NaN
    # prediction gave a NaN rel_error without a flag
    x = np.linspace(1.0, 20.0, 200)
    with pytest.raises(ValueError, match=f"^{name} .*must be finite"):
        fit(x, np.exp(-x), window=window, predicted=predicted)


def test_fit_window_handling():
    g = make_grid(40.0, 512)
    assert default_fit_window(g) == (12.0, 36.0)
    x = np.linspace(0.1, 10.0, 100)
    v = 1.0 / (1.0 + x**2)
    with pytest.raises(TypeError):
        fit_algebraic_tail(x, v)  # the window is required
    with pytest.raises(ValueError, match="matching shapes"):
        fit_algebraic_tail(x, v[1:], window=(1.0, 9.0))
    with pytest.raises(ValueError):
        fit_algebraic_tail(x, v, window=(9.95, 10.0))  # fewer than 8 samples
    # a profile that has dropped below the noise floor leaves no usable samples
    spike = np.where(x < 0.5, 1.0, 1e-300)
    with pytest.raises(ValueError):
        fit_exponential_tail(x, spike, window=(1.0, 9.0))
