"""Decay-kernel oracles and tail diagnostics.

Four convolution kernels govern the far-field behavior of the solitary
waves: K (two-layer, infinite depth, algebraic with an oscillatory
exponential part), K1 (exponential, finite depth), K2 (one-layer infinite
depth, algebraic), and K3 (one-layer finite depth, exponential series).
Each has a closed form, quadrature or series here, its symbol as a function
of |k| (kernel_symbol), and an independent discrete-transform oracle of that
symbol at chosen grid points (kernel_oracle_at).

The quadratures of K and K2 are Laplace integrals int_0^upper f(y) dy whose
integrand peaks in a spike of width 1/|x| at y = 0.  They are computed in
numpy by composite Gauss-Legendre on panels graded geometrically from
1e-3 min(scale, 1/|x|) to upper: each panel compares a 20-point rule with
a 10-point rule and is bisected until their difference is within its share
of the tolerance, so the spike is sampled at every x.

Transform convention: unitary, symmetric in the sqrt(2*pi) factor,
    khat(k) = (2*pi)^{-1/2} integral K(x) exp(-i k x) dx,
so the oracle evaluates K(x) = (2*pi)^{-1/2} integral khat(k) exp(ikx) dk
by a trapezoidal sum over the grid frequencies.  All closed forms and all
comparisons in this module state their symbols in this convention.

The symbols are even, so the sum is one real inverse transform
(`spectral.irfft`) of the half spectrum.  At grid indices that are all
multiples of a step dividing N/2, the phases depend on the frequency index
only modulo M = N/step: the N frequencies form step rows of M bins, which
are added in order, and the transform has length M instead of N.  Only the
first M/2 + 1 bins of each row enter, and every |k| of the grid is among
them, so the symbol is evaluated a block of rows at a time on those bins
alone.  A block holds about _FOLD_BLOCK = 2^14 values, so that its
temporaries stay in a per-core L2 cache, and its rows are added, in order,
into one accumulator of M/2 + 1 bins.  The frequency indices are formed in
float64, exact below 2^53, so the fold is bit for bit the sum of the full
N-point table.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .params import ConvergenceError, InadmissibleParameterError, ModelParams, compute_decay_rates
from .spectral import Grid, irfft, zcothz

_EPS = np.finfo(float).eps
# the convention of every kernel symbol: a vectorized function of |k|
Symbol = Callable[[np.ndarray], np.ndarray]
# symbol values evaluated per block of rows in the oracle's fold: the few
# temporaries of a block (128 KiB each) stay in a 2 MiB per-core L2.  On a
# 2-core Xeon with 2 MiB L2 per core, kernel-check's median took 51 ms at
# 2^12, 40 at 2^13, 32 at 2^14, 33 at 2^15 and 46 at 2^16: smaller blocks
# pay more Python per row, larger ones spill the cache
_FOLD_BLOCK = 2**14
# the Laplace-integral rule: absolute tolerance, shared among the panels by
# width, and the number of panels at which bisection gives up
_QUAD_TOL = 1e-13
_MAX_PANELS = 2000
# the terms summed of the K3 eigen-series
_K3_TERMS = 80


def _infinite_depth_constants(p: ModelParams) -> tuple[float, float, float]:
    rates = compute_decay_rates(p)
    if rates.ell is None or rates.c_K is None:
        raise InadmissibleParameterError("kernel constants undefined: " + "; ".join(rates.notes))
    return rates.ell, rates.c_K, rates.discriminant


@dataclass
class DecayReport:
    """Result of a tail fit: measured constant or rate vs the predicted one."""

    kind: str  # "algebraic" or "exponential"
    measured: float
    predicted: float | None
    rel_error: float | None
    fit_window: tuple[float, float]
    r_squared: float
    flags: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed forms and quadratures
# ---------------------------------------------------------------------------


def _laplace_cutoff(x: float) -> float:
    # e^{-|x| Y} < 1e-16 for Y = 40/|x|; the analytic tail is below roundoff
    return 40.0 / abs(x)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] by
    Golub-Welsch: the eigenvalues of the Legendre Jacobi matrix, and twice
    the squared first components of its eigenvectors.  The mirrored halves
    are averaged, since the rule is symmetric and the eigensolver is not."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vecs[0] ** 2
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


def _laplace_integral(
    f: Callable[[np.ndarray], np.ndarray], scale: float, ax: float, upper: float,
    tail: float, breaks: Sequence[float] = (),
) -> float:
    """int_0^upper f(y) dy of a positive integrand that varies on the scales
    1/ax and scale, where tail bounds the integral beyond upper.

    The panels are graded geometrically, by factors of 2 from
    1e-3 min(scale, 1/ax), and split at breaks.  A panel is accepted when
    its 20- and 10-point Gauss-Legendre values differ by at most its width's
    share of _QUAD_TOL, or by a few eps of its own value (an absolute
    tolerance alone stalls at roundoff); every other panel is bisected.
    The error estimate is the sum of those differences.  Raises
    ConvergenceError past _MAX_PANELS panels, or when the error estimate
    plus tail exceeds 1e-10.
    """
    a0 = 1e-3 * min(scale, 1.0 / ax)
    grading = a0 * 2.0 ** np.arange(math.ceil(math.log2(upper / a0)))
    inner = [b for b in breaks if 0.0 < b < upper]
    # the sorted edges without repeats, as np.unique gives them; np.unique
    # asks np.ma whether its input is masked, which imports numpy.ma (0.6 to
    # 1.2 MB resident and 9 to 14 ms) into every process that runs
    # kernel-check
    edges = np.sort(np.concatenate([[0.0], grading, inner, [upper]]))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    lo, hi = edges[:-1], edges[1:]
    while True:
        if lo.size > _MAX_PANELS:
            raise ConvergenceError(f"quadrature needs more than {_MAX_PANELS} panels")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        q20, q10 = (
            half * (f(mid[:, None] + half[:, None] * nodes) @ weights)
            for nodes, weights in (_gauss_legendre(20), _gauss_legendre(10))
        )
        err = np.abs(q20 - q10)
        bad = err > np.maximum(_QUAD_TOL * (hi - lo) / upper, 8.0 * _EPS * np.abs(q20))
        if not bad.any():
            break
        lo = np.concatenate([lo[~bad], lo[bad], mid[bad]])
        hi = np.concatenate([hi[~bad], mid[bad], hi[bad]])
    if np.sum(err) + tail > 1e-10:
        raise ConvergenceError(f"quadrature failed to reach tolerance (err {np.sum(err):.2e})")
    return float(np.sum(q20))


def _k2_alpha(p: ModelParams) -> float:
    return p.gamma / ((p.beta - 1.0) * math.sqrt(p.mu))


def kernel_symbol(name: str, p: ModelParams | None, sigma: float | None = None) -> Symbol:
    """The symbol of kernel name (K, K1, K2 or K3) as a function of |k|, as
    each closed form states it; only K1 reads sigma, which must lie in
    (0, inf), and only the others p."""
    if name == "K1":
        _check_sigma(sigma)
        # sigma * sigma is inf, not OverflowError, past about 1.3e154, where
        # the symbol would be 0 or NaN on the whole grid, and 0 below about
        # 1.6e-162, where it would be inf at k = 0
        if not 0.0 < sigma * sigma < math.inf:
            raise InadmissibleParameterError(
                f"symbol is not strictly positive and finite: sigma^2 = {sigma * sigma!r} "
                f"for sigma = {sigma!r}"
            )
        return lambda k: math.sqrt(2.0 * math.pi) * sigma / (sigma * sigma + k**2)
    if name == "K2":
        alpha = _k2_alpha(p)
        return lambda k: 1.0 / (abs(k) + alpha)
    if name == "K":
        ell, c_k, _ = _infinite_depth_constants(p)
        return lambda k: 1.0 / (k**2 - ell * abs(k) + c_k)
    if name == "K3":
        theta = compute_decay_rates(p).theta
        smu2 = math.sqrt(p.mu2)
        return lambda k: theta / (zcothz(smu2 * abs(k)) + theta)
    raise ValueError(f"kernel must be K, K1, K2 or K3; got {name!r}")


def _check_sigma(sigma: float) -> None:
    # NaN fails every comparison, so the check is written to refuse it
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")


def kernel_K1(sigma: float, x: float) -> float:
    """Exponential kernel pi*exp(-sigma|x|); transform of sqrt(2pi)*sigma/(sigma^2+k^2)."""
    _check_sigma(sigma)
    return math.pi * math.exp(-sigma * abs(x))


def kernel_K2_quadrature(p: ModelParams, x: float) -> float:
    """Algebraic kernel sqrt(2/pi) * int_0^inf y e^{-|x|y}/(alpha^2+y^2) dy.

    The symbol is 1/(|k| + alpha) with alpha = gamma/((beta-1) sqrt(mu)).
    The integral is taken by the graded Gauss-Legendre rule up to
    max(40/|x|, 10 alpha); ConvergenceError if its error estimate plus the
    analytic tail exceeds 1e-10.  Logarithmically divergent at x = 0, which
    is refused.
    """
    if x == 0.0:
        raise ValueError("K2 is singular at x = 0 (logarithmic divergence)")
    alpha = _k2_alpha(p)
    ax = abs(x)
    upper = max(_laplace_cutoff(ax), 10.0 * alpha)

    def integrand(y: np.ndarray) -> np.ndarray:
        return y * np.exp(-ax * y) / (alpha * alpha + y * y)

    # analytic tail bound: integrand < e^{-ax y}/y beyond the cutoff
    tail = math.exp(-ax * upper) / (ax * upper)
    return math.sqrt(2.0 / math.pi) * _laplace_integral(integrand, alpha, ax, upper, tail)


def kernel_K_quadrature(p: ModelParams, x: float) -> float:
    """Two-layer infinite-depth kernel: Laplace integral plus oscillatory term.

        K(x) = -(2 ell / sqrt(2pi)) int_0^inf y e^{-|x|y}/((cK - y^2)^2 + ell^2 y^2) dy
               + (2 sqrt(2pi)/sqrt(4 cK - ell^2)) e^{-sqrt(4 cK - ell^2)|x|/2} cos(ell x / 2)

    The symbol is 1/(k^2 - ell|k| + cK); positivity requires 4 cK > ell^2.
    The integral is taken by the graded Gauss-Legendre rule up to
    max(40/|x|, 10 sqrt(cK)), split at sqrt(cK); ConvergenceError if its
    error estimate plus the analytic tail exceeds 1e-10.
    """
    if x == 0.0:
        raise ValueError("K is not evaluated at x = 0")
    ell, c_k, disc = _infinite_depth_constants(p)
    if disc <= 0.0:
        raise InadmissibleParameterError(f"4 c_K - ell^2 = {disc:.6g} must be positive")
    ax = abs(x)
    upper = max(_laplace_cutoff(ax), 10.0 * math.sqrt(c_k))

    def integrand(y: np.ndarray) -> np.ndarray:
        den = (c_k - y * y) ** 2 + ell * ell * y * y
        return y * np.exp(-ax * y) / den

    tail = math.exp(-ax * upper) / (ax * upper * upper * upper)
    val = _laplace_integral(integrand, ell, ax, upper, tail, [math.sqrt(c_k)])
    rate = 0.5 * math.sqrt(disc)
    osc = 2.0 * math.sqrt(2.0 * math.pi) / math.sqrt(disc)
    osc *= math.exp(-rate * ax) * math.cos(0.5 * ell * x)
    return -2.0 * ell / math.sqrt(2.0 * math.pi) * val + osc


def kernel_K_plateau(p: ModelParams) -> float:
    """Large-x limit of x^2 K(x): -2 ell/(cK^2 sqrt(2pi))."""
    ell, c_k, _ = _infinite_depth_constants(p)
    return -2.0 * ell / (c_k * c_k * math.sqrt(2.0 * math.pi))


def kernel_K2_plateau(p: ModelParams) -> float:
    """Large-x limit of x^2 K2(x): sqrt(2/pi)/alpha^2."""
    return math.sqrt(2.0 / math.pi) / _k2_alpha(p) ** 2


def kernel_K3_series(p: ModelParams, x: float) -> tuple[float, float]:
    """Finite-depth one-layer kernel by its exponential eigen-series.

    K3(x) = (theta/sqrt(mu2)) h(x/sqrt(mu2)) with
    h(X) = sqrt(2pi) sum_m c_m e^{-eta_m |X|}, c_m = eta_m/(eta_m^2 + theta^2 + theta),
    eta_m the positive roots of eta = -theta tan(eta).  Returns the partial
    sum of _K3_TERMS terms together with the magnitude of the first omitted
    term (truncation bound).  The symbol is theta/(zcothz(sqrt(mu2) k) + theta).
    """
    if x == 0.0:
        raise ValueError("K3 series is evaluated for x != 0")
    if not p.finite_depth:
        raise ValueError("K3 requires finite mu2")
    rates = compute_decay_rates(p, n_eta=_K3_TERMS + 1)
    theta = rates.theta
    etas = rates.eta_roots
    smu2 = math.sqrt(p.mu2)
    ax = abs(x) / smu2
    total = 0.0
    for m in range(_K3_TERMS):
        eta = etas[m]
        total += eta / (eta * eta + theta * theta + theta) * math.exp(-eta * ax)
    eta_next = etas[_K3_TERMS]
    bound = (
        math.sqrt(2.0 * math.pi)
        * theta
        / smu2
        * eta_next
        / (eta_next * eta_next + theta * theta + theta)
        * math.exp(-eta_next * ax)
    )
    value = math.sqrt(2.0 * math.pi) * theta / smu2 * total
    return value, bound


# ---------------------------------------------------------------------------
# discrete transform oracle
# ---------------------------------------------------------------------------


def _oracle_values(fn: Symbol, g: Grid, step: int) -> np.ndarray:
    """Trapezoidal oracle of the symbol fn(|k|) at the grid indices step*r,
    r = 0..M-1, M = N/step.

    step must divide N/2.  The oracle at grid index l is
    (dk/sqrt(2pi)) sum_j (-1)^j khat_j exp(2 pi i j l/N); for l = step*r
    both factors depend on j only modulo M (M is even), so the symbol is
    folded onto M bins and one length-M irfft of the half of the folded,
    even spectrum gives the values.  Row s holds the indices j = s*M + c,
    c = 0..M/2, at |k_j| = 2 pi min(j, N - j)/(N dx) as np.fft.fftfreq has
    it; adding the rows in order is the full table's reshape(step, M).sum(0).
    """
    n = g.N
    m = n // step
    half = m // 2 + 1
    per_block = max(1, _FOLD_BLOCK // half)
    # float64 indices are exact below 2^53, so every |k| keeps its bits
    cols = np.arange(half, dtype=float)
    folded = np.zeros(half)
    for s0 in range(0, step, per_block):
        k = np.arange(s0, min(s0 + per_block, step), dtype=float)[:, None] * m + cols
        np.minimum(k, n - k, out=k)
        k *= 1.0 / (n * g.dx)
        k *= 2.0 * math.pi
        vals = fn(k)
        if not np.min(vals) > 0.0:
            raise InadmissibleParameterError("symbol is not strictly positive on the grid")
        # the rows are added in order: the accumulator into the first row of
        # the symbol's new array, then that array's rows into the accumulator
        vals[0] += folded
        np.add.reduce(vals, axis=0, out=folded)
    # a sum of positive values: it is finite when its largest bin is
    if not np.max(folded) < math.inf:
        raise InadmissibleParameterError("symbol is not finite on the grid")
    folded[1::2] *= -1.0
    dk = math.pi / g.L
    return dk / math.sqrt(2.0 * math.pi) * m * irfft(folded, m)


def kernel_oracle_at(fn: Symbol, g: Grid, xs: Sequence[float]) -> tuple[np.ndarray, int]:
    """Inverse unitary transform of the kernel symbol fn(|k|) at the grid
    points nearest to xs.

    Approximates (2pi)^{-1/2} int khat(k) e^{ikx} dk by the trapezoidal sum
    over the grid's frequency set (`_oracle_values`), evaluated only on the
    coarsest sub-lattice of the grid that holds the requested indices: with
    step the greatest common divisor of N/2 and the indices, the symbol is
    folded onto M = N/step bins (the whole grid's transform when step is
    1).  Refuses symbols that are not strictly positive (all kernel symbols
    here are positive; a sign change would signal an inadmissible parameter
    set).  Returns the values and M, the number of bins transformed.
    """
    n = g.N
    idx = [int(round((x + g.L) / g.dx)) for x in xs]
    for x, i in zip(xs, idx):
        if not 0 <= i < n:
            raise ValueError(f"x = {x!r} is outside the grid's period [-L, L)")
    step = math.gcd(n // 2, *idx)
    vals = _oracle_values(fn, g, step)
    return vals[[i // step for i in idx]], n // step


# ---------------------------------------------------------------------------
# tail fitting
# ---------------------------------------------------------------------------


def default_fit_window(g: Grid) -> tuple[float, float]:
    """Standard tail window [0.3 L, 0.9 L]: past the core, before the wrap."""
    return 0.3 * g.L, 0.9 * g.L


def _fit_inputs(x, values, window, predicted) -> tuple[np.ndarray, np.ndarray]:
    """x and values as float arrays of one shape; a window bound or a
    predicted value that is not finite is refused by name."""
    if not all(math.isfinite(b) for b in window):
        raise ValueError(f"window bounds must be finite, got {tuple(window)!r}")
    if predicted is not None and not math.isfinite(predicted):
        raise ValueError(f"predicted must be finite, got {predicted!r}")
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.shape != v.shape:
        raise ValueError("x and values must have matching shapes")
    return x, v


def _log_fit(t: np.ndarray, logv: np.ndarray):
    """The least-squares line of logv against t: its slope, and the r^2 of
    the fit."""
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    return slope, 1.0 - ss_res / max(ss_tot, 1e-300)


def fit_algebraic_tail(
    x, values, window: tuple[float, float], predicted: float | None = None
) -> DecayReport:
    """Fit an x^{-2} tail: plateau of x^2 * profile over the window.

    The plateau is the mean of x^2 v(x) on the window; a max relative
    deviation above 10% raises the non-plateau flag (an exponential profile
    fails this, a genuine quadratic-decay profile passes).  r_squared is
    taken from the log-log regression of |v| against x, whose slope should
    sit near -2 for a true algebraic tail (slope reported in details).
    A window bound or a predicted value that is not finite raises
    ValueError.
    """
    x, v = _fit_inputs(x, values, window, predicted)
    lo, hi = window
    sel = (x >= lo) & (x <= hi)
    xs, vs = x[sel], v[sel]
    if xs.size < 8:
        raise ValueError("window under-resolved: fewer than 8 samples")
    floor = 100.0 * _EPS * np.max(np.abs(v))
    if np.max(np.abs(vs)) <= floor:
        raise ValueError("window under-resolved: values at machine noise")

    plateau_vals = xs**2 * vs
    plateau = float(np.mean(plateau_vals))
    max_dev = float(np.max(np.abs(plateau_vals - plateau)) / max(abs(plateau), 1e-300))

    keep = np.abs(vs) > floor
    logx = np.log(xs[keep])
    logv = np.log(np.abs(vs[keep]))
    slope, r2 = _log_fit(logx, logv)

    flags = []
    if max_dev > 0.10:
        flags.append("non-plateau")
    rel = None
    if predicted is not None and predicted != 0.0:
        rel = abs(plateau - predicted) / abs(predicted)
    return DecayReport(
        kind="algebraic",
        measured=plateau,
        predicted=predicted,
        rel_error=rel,
        fit_window=(float(lo), float(hi)),
        r_squared=float(r2),
        flags=flags,
        details={"max_rel_deviation": max_dev, "loglog_slope": float(slope)},
    )


def fit_exponential_tail(
    x, values, window: tuple[float, float], predicted: float | None = None
) -> DecayReport:
    """Fit an exponential tail: least-squares slope of log|v| over the window.

    Samples below the noise floor (100 eps relative to the global peak) are
    excluded.  The report always carries the resolvable-rate cap: the
    steepest decay observable before the remaining window hits the floor; a
    predicted rate is compared against min(predicted, cap).  r^2 below 0.99
    raises the unreliable-fit flag.  A window bound or a predicted value
    that is not finite raises ValueError.
    """
    x, v = _fit_inputs(x, values, window, predicted)
    lo, hi = window
    floor = 100.0 * _EPS * np.max(np.abs(v))
    sel = (x >= lo) & (x <= hi) & (np.abs(v) > floor)
    xs, vs = x[sel], np.abs(v[sel])
    if xs.size < 8:
        raise ValueError("window under-resolved: fewer than 8 usable samples")

    slope, r2 = _log_fit(xs, np.log(vs))
    rate = float(-slope)

    cap = float(math.log(vs[0] / floor) / (xs[-1] - xs[0])) if vs[0] > floor else 0.0
    flags = []
    if r2 < 0.99:
        flags.append("unreliable-fit")
    rel = None
    effective = predicted
    if predicted is not None:
        effective = min(predicted, cap)
        if predicted > cap:
            flags.append("rate-capped-by-grid")
        if effective != 0.0:
            rel = abs(rate - effective) / abs(effective)
    return DecayReport(
        kind="exponential",
        measured=rate,
        predicted=predicted,
        rel_error=rel,
        fit_window=(float(lo), float(hi)),
        r_squared=float(r2),
        flags=flags,
        details={"resolvable_rate_cap": cap, "effective_predicted": effective},
    )
