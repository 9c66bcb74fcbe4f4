"""Shared fixtures: parameter sets and the expensive solitary-wave solves.

The heavy solves (continuation chains, reduced solves) are session
scoped so the unit suites and the acceptance suite share one computation.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

from iswaves.params import ModelParams
from iswaves.solvers import continue_in_c, continue_in_mu2, solve
from iswaves.spectral import make_grid

# every run draws the same examples, and a slow example is not a failure
settings.register_profile("iswaves", derandomize=True, deadline=None)
settings.load_profile("iswaves")

# canonical two-layer test point: equal quarter weights on b, d and the
# remaining third split evenly between a and c
P1_KW = dict(
    gamma=0.5, b=0.25, d=0.25, a=-1.0 / 12.0, c=-1.0 / 12.0, mu=0.1, epsilon=0.1
)

# steep-tail point: large |a|, c = -1, shallow lower layer; the exponential
# rate bound is attained here (no oscillatory contamination)
SHARP_KW = dict(
    gamma=0.5, b=8.0 / 3.0, d=8.0 / 3.0, a=-4.0, c=-1.0, mu=0.1, epsilon=0.1
)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counter of the numpy.fft and scipy.fft transform calls made while the
    test runs."""
    counter = {"n": 0}
    for module in (np.fft, scipy.fft):
        for name in ("rfft", "irfft", "fft", "ifft"):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, **kwargs):
                counter["n"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counter


@pytest.fixture(scope="session")
def p1_inf():
    return ModelParams(mu2=np.inf, **P1_KW)


@pytest.fixture(scope="session")
def p1_mu2_4():
    return ModelParams(mu2=4.0, **P1_KW)


@pytest.fixture(scope="session")
def p1_mu2_25():
    return ModelParams(mu2=25.0, **P1_KW)


@pytest.fixture(scope="session")
def p_sharp():
    return ModelParams(mu2=0.8, **SHARP_KW)


@pytest.fixture(scope="session")
def grid_bo():
    return make_grid(200.0, 4096)


@pytest.fixture(scope="session")
def bo_state(p1_inf, grid_bo):
    """The c = 0 BO pair, the ground state of the scalar limit equation and
    its lift, with the record of its solve."""
    pair, info = solve("BO", p1_inf, 0.0, grid=grid_bo)
    return {"pair": pair, "info": info}


@pytest.fixture(scope="session")
def bo_branch(p1_inf, grid_bo):
    """Speed continuation of the c = 0 pair with milestones stored."""
    return continue_in_c(p1_inf, [0.005, 0.01, 0.02], grid=grid_bo)


@pytest.fixture(scope="session")
def ilw_chain(p1_mu2_25):
    """Depth continuation from the infinite-depth pair down to mu2 = 25.

    The grid is sized for the decay fit: rate ~ 0.56 needs e^{-rate*2L}
    negligible and the core needs dx ~ 0.012.
    """
    grid = make_grid(50.0, 8192)
    return continue_in_mu2(p1_mu2_25, [400.0, 100.0, 25.0], grid=grid)


@pytest.fixture(scope="session")
def bfd_finite(p1_mu2_4):
    grid = make_grid(8.0, 2048)
    pair, info = solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
    return {"pair": pair, "info": info, "omega": 0.1}


@pytest.fixture(scope="session")
def bfd_sharp(p_sharp):
    grid = make_grid(16.0, 2048)
    pair, info = solve("BFD_finite", p_sharp, 0.1, grid=grid)
    return {"pair": pair, "info": info, "omega": 0.1}


@pytest.fixture(scope="session")
def bfd_inf(p1_inf):
    grid = make_grid(200.0, 4096)
    pair, info = solve("BFD_inf", p1_inf, 0.1, grid=grid)
    return {"pair": pair, "info": info, "omega": 0.1}


@pytest.fixture(scope="session")
def variational(p1_mu2_4):
    """Constrained minimizer vs the reduced-equation solve on one grid."""
    from iswaves.solvers import constrained_minimize, rescale_to_wave

    grid = make_grid(200.0, 2048)
    pair, k_mult, info = constrained_minimize(p1_mu2_4, 0.1, 1.0, grid)
    wave = rescale_to_wave(pair, k_mult)
    direct, _ = solve("BFD_finite", p1_mu2_4, 0.1, grid=grid)
    return {
        "grid": grid,
        "minimizer": pair,
        "K": k_mult,
        "info": info,
        "wave": wave,
        "direct": direct,
    }
