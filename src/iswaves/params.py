"""Model parameters, admissibility arithmetic, and decay-rate constants.

The two-layer models handled by this package are parametrized by the density
ratio gamma in (0, 1), the amplitude and depth parameters epsilon and mu, the
dispersion coefficients (a, b, c, d), the lower-layer depth parameter mu2
(possibly infinite), and the shear coefficient beta > 1 used by the one-layer
reductions.  `family_params` names the four systems (BO, ILW, BFD_finite,
BFD_inf) and fixes the depth each one solves at.  This module also holds
the closed-form admissibility quantities: the speed window, the minimum of
the dispersion symbol, the minimal admissible mu2, the amplitude constant M,
and the tail decay rates (sigma, the infinite-depth kernel constants, and
the eta-roots driving the finite-depth exponential rates).  Its two error
types are the numerical failures `cli.main` maps to exit 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


class InadmissibleParameterError(ValueError):
    """Parameters violate a precondition, or leave the quantity undefined."""


class ConvergenceError(RuntimeError):
    """A solver or quadrature missed its tolerance; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the two-layer model family.

    mu2 may be math.inf for the infinite-lower-layer variant.  beta enters
    only the one-layer reductions.  The derived coefficient r = epsilon/(2 gamma)
    multiplies the quadratic nonlinearities.  gamma lies in [1e-50, 1),
    beta in (1, 1e50], epsilon, mu and a finite mu2 in [1e-50, 1e50], and
    a, b, c and d in [-1e50, 1e50], so that the products and quotients of a
    few fields that the formulas form stay within the float range.
    """

    gamma: float
    epsilon: float
    mu: float
    a: float
    b: float
    c: float
    d: float
    mu2: float = math.inf
    beta: float = 2.0

    def __post_init__(self) -> None:
        # each range is written so that NaN lies outside it
        ranges = (
            ("gamma", 1e-50 <= self.gamma < 1.0, "lie in [1e-50, 1)"),
            ("epsilon", 1e-50 <= self.epsilon <= 1e50, "lie in [1e-50, 1e50]"),
            ("mu", 1e-50 <= self.mu <= 1e50, "lie in [1e-50, 1e50]"),
            *((n, -1e50 <= getattr(self, n) <= 1e50, "lie in [-1e50, 1e50]") for n in "abcd"),
            ("mu2", 1e-50 <= self.mu2 <= 1e50 or self.mu2 == math.inf,
             "lie in [1e-50, 1e50] or be math.inf"),
            ("beta", 1.0 < self.beta <= 1e50, "exceed 1 and be at most 1e50"),
        )
        for name, inside, rule in ranges:
            if not inside:
                raise InadmissibleParameterError(
                    f"{name} must {rule}, got {getattr(self, name)!r}"
                )

    @property
    def r(self) -> float:
        return self.epsilon / (2.0 * self.gamma)

    @property
    def finite_depth(self) -> bool:
        return math.isfinite(self.mu2)


FAMILIES = ("BO", "ILW", "BFD_finite", "BFD_inf")
_FAMILY_NAMES = {
    "bo": "BO",
    "ilw": "ILW",
    "bfd_finite": "BFD_finite",
    "bfd_inf": "BFD_inf",
    "bfd_infinite": "BFD_inf",
}


def family_params(name: str, p: ModelParams) -> tuple[str, ModelParams]:
    """The canonical family name and p at the family's depth.

    The depth is part of the system a wave solves: BO and BFD_inf are the
    mu2 = inf members of the ILW and BFD_finite classes, so they get p with
    mu2 = inf, while ILW and BFD_finite need a finite mu2.
    """
    key = name.strip().lower().replace("-", "_")
    if key not in _FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
    family = _FAMILY_NAMES[key]
    if family in ("BO", "BFD_inf"):
        return family, replace(p, mu2=math.inf) if p.finite_depth else p
    if not p.finite_depth:
        raise InadmissibleParameterError(f"the {family} family needs a finite mu2, got inf")
    return family, p


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility analysis for a parameter set and speed."""

    speed_bound: float
    f_min: float
    beta0_tilde: float
    mu2_threshold: float
    M_value: float
    admissible: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecayRates:
    """Tail decay constants for the solitary-wave families.

    sigma is the exponential rate of the finite-mu2 BFD wave: of nu, and of
    xi = S2^{-1}(omega J_d nu + r nu^2) while sigma < 1/sqrt(-c mu).  ell
    and c_K are the constants of the infinite-depth kernel (its large-x law
    is `kernels.kernel_K_plateau`).
    theta and eta_roots drive the finite-depth one-layer rates: the wave
    decays like exp(-eta_1 |x|/sqrt(mu2)).
    Entries are None when undefined for the given parameters; notes say why.
    """

    sigma: float | None
    eta_roots: tuple[float, ...]
    theta: float | None
    ell: float | None = None
    c_K: float | None = None
    discriminant: float | None = None
    ilw_rate: float | None = None
    notes: tuple[str, ...] = ()


SUM_RULE_TOL = 1e-12


def validate_bfd_params(p: ModelParams) -> list[str]:
    """Check the dispersion coefficients of the four-parameter family.

    Returns the list of violated constraint names; an empty list means the
    parameter set is accepted.  The constraints: a + b + c + d = 1/3 (sum
    rule), a <= 0, c <= 0, b = d >= 0 (sign rule), and b >= 1/6 with
    1/3 - 2b <= a, c <= 0 (range rule).
    """
    violations = []
    if abs(p.a + p.b + p.c + p.d - 1.0 / 3.0) > SUM_RULE_TOL:
        violations.append("sum rule")
    if p.a > 0.0 or p.c > 0.0 or p.b < 0.0 or abs(p.b - p.d) > SUM_RULE_TOL:
        violations.append("sign rule")
    if p.b < 1.0 / 6.0 - SUM_RULE_TOL or p.a < 1.0 / 3.0 - 2.0 * p.b - 1e-9 or p.c < 1.0 / 3.0 - 2.0 * p.b - 1e-9:
        violations.append("range rule")
    return violations


def compute_speed_window(p: ModelParams) -> float:
    """Half-width of the admissible speed window, (1-gamma) min{1, |c|/b}."""
    if p.b == 0.0:
        raise InadmissibleParameterError("b = 0: speed window undefined")
    return (1.0 - p.gamma) * min(1.0, abs(p.c) / p.b)


def _beta0_tilde(p: ModelParams, omega: float) -> float:
    """beta0_tilde = -[b|omega| + (a - 1/gamma^2)/gamma], the x^2 coefficient
    of f over mu."""
    return -(p.b * abs(omega) + (p.a - 1.0 / p.gamma**2) / p.gamma)


def compute_f_min(p: ModelParams, omega: float) -> tuple[float, float, float]:
    """Minimum of the dispersion symbol f over x >= 0, with its location.

    f(x) = (1/gamma - |omega|) - (sqrt(mu)/gamma^2) x + mu*beta0_tilde x^2
    where beta0_tilde = -[b|omega| + (a - 1/gamma^2)/gamma].  Returns
    (f_min, x0, beta0_tilde) with x0 the minimizing frequency.
    """
    g = p.gamma
    beta0_tilde = _beta0_tilde(p, omega)
    if beta0_tilde <= 0.0:
        raise InadmissibleParameterError(
            f"beta0_tilde = {beta0_tilde:.6g} <= 0: symbol unbounded below"
        )
    x0 = 1.0 / (2.0 * math.sqrt(p.mu) * g**2 * beta0_tilde)
    f_min = 1.0 / g - abs(omega) - 1.0 / (4.0 * g**4 * beta0_tilde)
    return f_min, x0, beta0_tilde


def compute_mu2_threshold(p: ModelParams, omega: float) -> float:
    """Infimum of admissible mu2: mu / (gamma^2 f_min)^2."""
    f_min, _, _ = compute_f_min(p, omega)
    if f_min <= 0.0:
        raise InadmissibleParameterError(
            f"f_min = {f_min:.6g} <= 0: no finite mu2 is admissible"
        )
    return p.mu / (p.gamma**2 * f_min) ** 2


def compute_M(p: ModelParams, omega: float) -> float:
    """Amplitude constant M(omega) = 4(1-gamma|omega|)[1 - b gamma^3 |omega| - a gamma^2] - 1."""
    g = p.gamma
    w = abs(omega)
    return 4.0 * (1.0 - g * w) * (1.0 - p.b * g**3 * w - p.a * g**2) - 1.0


def eta_roots(theta: float, count: int) -> tuple[float, ...]:
    """First `count` positive roots of e + theta*tan(e) = 0.

    The m-th root lies in ((2m-1)pi/2, m pi); plain bisection is used since
    tan blows up at the left endpoint.  All brackets are bisected at once,
    until each is narrower than 1e-14 or, at the spacing of the floats near
    its root, no longer moves.  Roots are resolved to ~1e-13.
    """
    if theta <= 0.0:
        raise InadmissibleParameterError("theta must be positive")
    m = np.arange(1, count + 1)
    lo = (2 * m - 1) * math.pi / 2 + 1e-9
    hi = m * math.pi - 1e-12
    # the sign of e + theta tan(e) at every lower end, which bisection keeps
    neg = lo + theta * np.tan(lo) < 0
    width = hi - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        right = (mid + theta * np.tan(mid) < 0) != neg
        np.copyto(hi, mid, where=right)
        np.copyto(lo, mid, where=~right)
        width, last = hi - lo, width
        if np.all((width < 1e-14) | (width == last)):
            break
    return tuple(float(e) for e in 0.5 * (lo + hi))


# bounded like `spectral.symbols`; ModelParams is frozen and DecayRates
# immutable, so every caller may share one result
@lru_cache(maxsize=32)
def compute_decay_rates(p: ModelParams, n_eta: int = 12) -> DecayRates:
    """Collect the closed-form decay constants for parameters p, computed
    once per (p, n_eta).

    sigma^2 = -(1/(a mu)) (1 + mu/(mu2 gamma^2) - sqrt(mu)/(gamma sqrt(mu2)))
    requires a < 0 and finite mu2; it is the rate of both fields of the BFD
    wave while sigma < 1/sqrt(-c mu) (`DecayRates`).  The infinite-depth
    constants use beta1 = -(mu/gamma)(a - 1/gamma^2),
    ell = sqrt(mu)/(beta1 gamma^2), c_K = 1/(beta1 gamma).  theta =
    gamma sqrt(mu2)/((beta-1) sqrt(mu)) feeds the eta-roots of the one-layer
    finite-depth kernel; the resulting wave rate is eta_1/sqrt(mu2).
    """
    g = p.gamma
    notes: list[str] = []

    beta1 = -(p.mu / g) * (p.a - 1.0 / g**2)
    ell = c_K = disc = None
    if beta1 > 0.0:
        ell = math.sqrt(p.mu) / (beta1 * g**2)
        c_K = 1.0 / (beta1 * g)
        disc = 4.0 * c_K - ell * ell
    else:
        notes.append("beta1 <= 0: infinite-depth kernel constants undefined")

    sigma = None
    if p.a == 0.0:
        notes.append("a = 0: sigma undefined (degenerate dispersion)")
    elif p.a < 0.0 and p.finite_depth:
        bracket = 1.0 + p.mu / (p.mu2 * g**2) - math.sqrt(p.mu) / (g * math.sqrt(p.mu2))
        # a has no lower magnitude bound, so a mu may underflow to 0
        a_mu = p.a * p.mu
        s2 = -(1.0 / a_mu) * bracket if a_mu != 0.0 else math.inf
        if 0.0 < s2 < math.inf:
            sigma = math.sqrt(s2)
        elif s2 > 0.0:
            notes.append("sigma^2 is not finite: |a mu| is too small")
        else:
            notes.append("sigma^2 <= 0 for these (mu, mu2, gamma)")
    elif not p.finite_depth:
        notes.append("mu2 = inf: tails are algebraic, sigma not applicable")

    theta = None
    roots: tuple[float, ...] = ()
    ilw_rate = None
    if p.finite_depth:
        theta = g * math.sqrt(p.mu2) / ((p.beta - 1.0) * math.sqrt(p.mu))
        roots = eta_roots(theta, n_eta)
        ilw_rate = roots[0] / math.sqrt(p.mu2)

    return DecayRates(
        sigma=sigma,
        eta_roots=roots,
        theta=theta,
        ell=ell,
        c_K=c_K,
        discriminant=disc,
        ilw_rate=ilw_rate,
        notes=tuple(notes),
    )


def admissibility_report(p: ModelParams, omega: float) -> AdmissibilityReport:
    """Assemble the full admissibility report for (p, omega)."""
    violations = list(validate_bfd_params(p))
    speed_bound = compute_speed_window(p) if p.b > 0.0 else 0.0
    beta0_tilde = _beta0_tilde(p, omega)
    try:
        f_min = compute_f_min(p, omega)[0]
    except InadmissibleParameterError:
        f_min = -math.inf
        violations.append("symbol unbounded below")
    if f_min > 0.0:
        mu2_threshold = compute_mu2_threshold(p, omega)
    else:
        mu2_threshold = math.inf
        if "symbol unbounded below" not in violations:
            violations.append("f_min <= 0")
    if abs(omega) >= speed_bound and omega != 0.0:
        violations.append("speed outside window")
    if p.finite_depth and p.mu2 <= mu2_threshold:
        violations.append("mu2 at or below threshold")
    m_value = compute_M(p, omega)
    return AdmissibilityReport(
        speed_bound=speed_bound,
        f_min=f_min,
        beta0_tilde=beta0_tilde,
        mu2_threshold=mu2_threshold,
        M_value=m_value,
        admissible=not violations,
        violations=tuple(violations),
    )
