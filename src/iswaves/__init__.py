"""Pseudo-spectral workbench for solitary waves of two-layer internal wave
models: admissibility arithmetic, Fourier-multiplier operators, variational
functionals, solitary-wave solvers, decay-kernel oracles, and time evolution.
"""

from .params import (
    AdmissibilityReport,
    DecayRates,
    InadmissibleParameterError,
    ModelParams,
    admissibility_report,
    compute_decay_rates,
    compute_f_min,
    compute_M,
    compute_mu2_threshold,
    compute_speed_window,
    family_params,
    validate_bfd_params,
)
from .spectral import (
    Grid,
    Symbols,
    WavePair,
    make_grid,
    symbols,
)
from .functionals import (
    energy_E,
    hamiltonian_H,
    quadratic_form_check,
)
from .solvers import (
    ConvergenceError,
    SolitaryBranch,
    constrained_minimize,
    continue_in_c,
    continue_in_mu2,
    load_branch,
    residual_norm,
    save_branch,
    solve,
)
from .kernels import (
    DecayReport,
    fit_algebraic_tail,
    fit_exponential_tail,
    kernel_fft_oracle,
    kernel_oracle_at,
    kernel_symbol,
    kernel_K1,
    kernel_K2_quadrature,
    kernel_K3_series,
    kernel_K_quadrature,
)
from .evolution import (
    AmplitudeBoundError,
    check_global_criterion,
    run,
    suggest_dt,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AmplitudeBoundError",
    "ConvergenceError",
    "DecayRates",
    "DecayReport",
    "Grid",
    "InadmissibleParameterError",
    "ModelParams",
    "SolitaryBranch",
    "Symbols",
    "WavePair",
    "admissibility_report",
    "check_global_criterion",
    "compute_M",
    "compute_decay_rates",
    "compute_f_min",
    "compute_mu2_threshold",
    "compute_speed_window",
    "constrained_minimize",
    "continue_in_c",
    "continue_in_mu2",
    "energy_E",
    "family_params",
    "fit_algebraic_tail",
    "fit_exponential_tail",
    "hamiltonian_H",
    "kernel_K1",
    "kernel_K2_quadrature",
    "kernel_K3_series",
    "kernel_K_quadrature",
    "kernel_fft_oracle",
    "kernel_oracle_at",
    "kernel_symbol",
    "load_branch",
    "make_grid",
    "quadratic_form_check",
    "residual_norm",
    "run",
    "save_branch",
    "solve",
    "suggest_dt",
    "symbols",
    "validate_bfd_params",
]
