"""Command-line interface: validate, solve, continue, decay, kernel-check,
evolve, sweep.

Every subcommand reads a flat key-value config (--config), optionally
overridden by repeatable --set key=value flags, and writes its artifacts
under --out; `main` adds meta.json, with the command's wall time
(`elapsed_s`), once the command returns.  Exit codes: 0 success, 1
numerical failure or inadmissible input, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, replace
from functools import cache

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .kernels import (
    default_fit_window,
    fit_algebraic_tail,
    fit_exponential_tail,
    kernel_oracle_at,
    kernel_symbol,
    kernel_K1,
    kernel_K2_plateau,
    kernel_K2_quadrature,
    kernel_K3_series,
    kernel_K_plateau,
    kernel_K_quadrature,
)
from .params import (
    ConvergenceError,
    InadmissibleParameterError,
    admissibility_report,
    compute_decay_rates,
    compute_speed_window,
    compute_mu2_threshold,
    compute_f_min,
    family_params,
    ModelParams,
)
from .spectral import WavePair, irfft, make_grid, pair_to_csv
from .solvers import (
    TOL_RESIDUAL,
    SolitaryBranch,
    branch_work,
    continue_in_c,
    continue_in_mu2,
    load_branch,
    save_branch,
    solve,
)
from .evolution import run, step_count, suggest_dt
from .functionals import energy_gradient, quadratic_form_check, stacked_energy_tables


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _family(key: str, name: str, p: ModelParams) -> tuple[str, ModelParams]:
    """The family the value of key names, and p at its depth."""
    try:
        return family_params(name, p)
    except InadmissibleParameterError as exc:
        raise ConfigError(f"params.mu2: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _sample(cfg: dict, dir_key: str, key: str) -> tuple[SolitaryBranch, WavePair]:
    """The branch saved under cfg[dir_key] and its wave at index cfg[key],
    the last one by default; a branch or sample that cannot be read is a
    configuration error of dir_key."""
    path = _require(cfg, dir_key)
    try:
        branch = load_branch(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{dir_key}: {exc}") from exc
    count = len(branch.waves)
    index = cfg.get(key, count - 1)
    if not 0 <= index < count:
        raise ConfigError(f"{key} must lie in [0, {count}), got {index}")
    try:
        return branch, branch.waves[index]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{dir_key}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: dict, out: str) -> int:
    p = cfgmod.params_from_config(cfg)
    omega = cfg.get("validate.omega", 0.0)
    report = admissibility_report(p, omega)
    cfgmod.write_json(os.path.join(out, "admissibility.json"), asdict(report), cfg)
    status = "admissible" if report.admissible else "inadmissible"
    print(f"validate: {status} (speed bound {report.speed_bound:.6g}, "
          f"f_min {report.f_min:.6g}, mu2 threshold {report.mu2_threshold:.6g})")
    for v in report.violations:
        print(f"  violation: {v}")
    return 0 if report.admissible else 1


def cmd_solve(cfg: dict, out: str) -> int:
    p = cfgmod.params_from_config(cfg)
    grid = cfgmod.grid_from_config(cfg)
    family, p = _family("solve.family", _require(cfg, "solve.family"), p)
    # the one-layer families travel at solve.speed, BFD at solve.omega
    one_layer = family in ("BO", "ILW")
    key, other = ("solve.speed", "solve.omega") if one_layer else ("solve.omega", "solve.speed")
    if other in cfg:
        raise ConfigError(f"{other} does not apply to {family}; set {key}")
    speed = cfg.get(key, 0.0) if one_layer else _require(cfg, key)
    pair, info = solve(family, p, speed, grid=grid)
    branch = SolitaryBranch(family, [speed], [pair], [info["full_residual"]])

    save_branch(branch, os.path.join(out, "branch"), cfg)
    report = {
        "family": branch.family,
        "parameter_values": branch.parameter_values,
        "residuals": branch.residuals,
        "amplitude_nu": [float(np.max(np.abs(w.nu))) for w in branch.waves],
        "amplitude_xi": [float(np.max(np.abs(w.xi))) for w in branch.waves],
        "work": {k: info[k] for k in ("iterations", "mixing_restarts", "exit")},
    }
    cfgmod.write_json(os.path.join(out, "report.json"), report, cfg)
    print(f"solve: {branch.family} residual {branch.residuals[-1]:.3e}")
    return 0


def cmd_continue(cfg: dict, out: str) -> int:
    p = cfgmod.params_from_config(cfg)
    grid = cfgmod.grid_from_config(cfg)
    parameter = cfg.get("continue.parameter", "c")
    text = cfg.get("continue.milestones")
    milestones = None if text is None else [float(t) for t in text.split(",")]
    target = _require(cfg, "continue.target")

    if parameter == "c":
        family, p = _family("continue.family", cfg.get("continue.family", "BO"), p)
        if family != "BO":
            # continue_in_c is the BO branch; `solve` reaches one ILW wave at
            # c != 0, and the two-layer families have no c-continuation
            raise ConfigError(
                f"continue.family must be BO for continue.parameter = c, got {family!r}"
            )
        if not all(abs(m) <= abs(target) for m in milestones or ()):
            raise ConfigError(
                f"continue.milestones must lie within |continue.target| = {abs(target)!r}"
            )
        values = milestones or np.linspace(target / 8.0, target, 8).tolist()
        start, continue_along = 0.0, continue_in_c
    else:
        if not target > 0.0:
            raise ConfigError(f"continue.target must be positive for mu2, got {target!r}")
        if "continue.family" in cfg:
            # the branch is ILW below mu2 = inf whatever params.mu2 says
            family, _ = _family("continue.family", cfg["continue.family"], replace(p, mu2=target))
            if family != "ILW":
                raise ConfigError(
                    f"continue.family must be ILW for continue.parameter = mu2, got {family!r}"
                )
        if not all(m >= target for m in milestones or ()):
            raise ConfigError(
                f"continue.milestones must lie at or above continue.target = {target!r}"
            )
        values = milestones or [target]
        start, continue_along = math.inf, continue_in_mu2
    # the branch stores its start, then each value once
    stored = [start, *values]
    twice = [v for i, v in enumerate(stored) if v in stored[:i]]
    if twice:
        key = "continue.target" if milestones is None else "continue.milestones"
        raise ConfigError(f"{key} gives {parameter} = {float(twice[0])!r} twice: the branch "
                          f"stores each value once, {parameter} = {start!r} first")
    branch = continue_along(p, values, grid=grid)

    save_branch(branch, os.path.join(out, "branch"), cfg)
    report = {
        "family": branch.family,
        "parameter": parameter,
        "parameter_values": branch.parameter_values,
        "residuals": branch.residuals,
        "diagnostics": branch.diagnostics,
        "work": branch_work(branch.diagnostics),
    }
    cfgmod.write_json(os.path.join(out, "report.json"), report, cfg)
    diag = branch.diagnostics
    end = f", end {diag['end']!r}" if diag["truncated"] else ""
    print(f"continue: {len(branch.waves)} samples, max residual "
          f"{max(branch.residuals):.3e}, truncated={diag['truncated']}{end}")
    return 0


def cmd_decay(cfg: dict, out: str) -> int:
    branch, wave = _sample(cfg, "decay.branch_dir", "decay.sample")
    field_name = cfg.get("decay.field", "nu")
    values = wave.nu if field_name == "nu" else wave.xi
    kind = cfg.get("decay.kind", "algebraic")
    lo, hi = default_fit_window(wave.grid)
    window = (cfg.get("decay.window_lo", lo), cfg.get("decay.window_hi", hi))
    predicted = cfg.get("decay.predicted")
    if predicted is None and "params.gamma" in cfg:
        p = cfgmod.params_from_config(cfg)
        if kind == "exponential":
            rates = compute_decay_rates(p)
            predicted = rates.ilw_rate if branch.family == "ILW" else rates.sigma
    try:
        if kind == "algebraic":
            report = fit_algebraic_tail(wave.grid.x, values, window=window, predicted=predicted)
        else:
            report = fit_exponential_tail(wave.grid.x, values, window=window, predicted=predicted)
    except ValueError as exc:
        # a window that is reversed, or that holds too few samples of the wave
        raise ConfigError(f"decay.window_lo, decay.window_hi = {window} on L = "
                          f"{wave.grid.L:g}: {exc}") from exc

    cfgmod.write_json(os.path.join(out, f"decay_{field_name}.json"), asdict(report), cfg)
    print(f"decay: {kind} fit of {field_name}: measured {report.measured:.6g}, "
          f"r^2 {report.r_squared:.6f}, flags {report.flags}")
    return 0


_KERNELS = {
    # name: grid (L, N), sample points and closed form (p, sigma, x); the
    # grids are verified, closed form vs discrete-transform oracle at <= 2.5e-7
    "K1": (16.0, 2**16, [0.5, 1.0, 2.0, 4.0], lambda p, sigma, x: kernel_K1(sigma, x)),
    "K2": (1024.0, 2**22, [1.0, 5.0, 10.0], lambda p, sigma, x: kernel_K2_quadrature(p, x)),
    "K": (1024.0, 2**20, [1.0, 2.0, 5.0], lambda p, sigma, x: kernel_K_quadrature(p, x)),
    "K3": (32.0, 2**21, [1.0, 2.0, 5.0], lambda p, sigma, x: kernel_K3_series(p, x)[0]),
}


def cmd_kernel_check(cfg: dict, out: str) -> int:
    which = cfg.get("kernel.which", "all")
    names = sorted(_KERNELS) if which == "all" else [w.strip() for w in which.split(",")]
    p = cfgmod.params_from_config(cfg) if "params.gamma" in cfg else None
    sigma = cfg.get("kernel.sigma", 3.0)
    results = {}
    worst = 0.0
    for name in names:
        length, n, xs, closed_form = _KERNELS[name]
        if name == "K3" and (p is None or not p.finite_depth):
            raise ConfigError("kernel K3 needs params.* keys with finite mu2")
        if name != "K1" and p is None:
            raise ConfigError(f"kernel {name} needs params.* keys")
        closed = [closed_form(p, sigma, x) for x in xs]
        oracle, bins = kernel_oracle_at(kernel_symbol(name, p, sigma), make_grid(length, n), xs)
        ovals = [float(v) for v in oracle]
        diffs = [abs(c - o) for c, o in zip(closed, ovals)]
        results[name] = {
            "x": xs,
            "closed_form": closed,
            "oracle": ovals,
            "max_abs_diff": max(diffs),
            "L": length,
            "N": n,
            "oracle_bins": bins,
        }
        worst = max(worst, max(diffs))

    if p is not None and "K" in names:
        results["K_plateau"] = kernel_K_plateau(p)
    if p is not None and "K2" in names:
        results["K2_plateau"] = kernel_K2_plateau(p)
    results["max_abs_diff"] = worst
    results["tolerance"] = 1e-5
    cfgmod.write_json(os.path.join(out, "kernel_check.json"), results, cfg)
    print(f"kernel-check: max |closed - oracle| = {worst:.3e} (tolerance 1e-5)")
    return 0 if worst < 1e-5 else 1


# the keys each initial state of `evolve` does not read: a branch brings its
# own grid, and a gaussian reads no branch
_EVOLVE_UNREAD = {
    "branch": ("grid.L", "grid.N", "evolve.amplitude", "evolve.width"),
    "gaussian": ("evolve.branch_dir", "evolve.sample"),
}


def cmd_evolve(cfg: dict, out: str) -> int:
    p = cfgmod.params_from_config(cfg)
    family, p = _family("evolve.family", _require(cfg, "evolve.family"), p)
    T = _require(cfg, "evolve.T")

    initial_kind = cfg.get("evolve.initial", "gaussian")
    for key in _EVOLVE_UNREAD[initial_kind]:
        if key in cfg:
            raise ConfigError(f"{key} does not apply to evolve.initial = {initial_kind}")
    if initial_kind == "branch":
        _, initial = _sample(cfg, "evolve.branch_dir", "evolve.sample")
        grid = initial.grid
    else:
        grid = cfgmod.grid_from_config(cfg)
        amp = cfg.get("evolve.amplitude", 0.02)
        width = cfg.get("evolve.width", 1.0)
        bump = amp * np.exp(-((grid.x / width) ** 2))
        initial = WavePair(grid=grid, xi=bump, nu=bump.copy())

    dt = cfg.get("evolve.dt") or suggest_dt(family, p, grid)
    try:
        step_count(T, dt)
    except ValueError as exc:
        raise ConfigError(f"evolve.T / evolve.dt: {exc}") from exc
    snapshots = cfg.get("evolve.snapshots_every")

    summary = run(
        family, p, initial, T, dt,
        snapshots_every=snapshots,
        outdir=out if snapshots is not None else None,
    )

    final = summary.pop("final_state", None)
    if final is not None:
        pair_to_csv(final, os.path.join(out, "final_state.csv"))
    cfgmod.write_json(os.path.join(out, "trajectory.json"), summary, cfg)
    # after a blow-up the monitors end at the last finite state
    t_final, t_last = summary["t_final"], summary["times"][-1]
    last_text = f", last finite state t = {t_last:.6g}" if t_last != t_final else ""
    drift = summary.get("h_drift_max")
    drift_text = f", H drift {drift:.3e}" if drift is not None else ""
    error_text = f": {summary['error']}" if "error" in summary else ""
    print(f"evolve: {summary['status']} at t = {t_final:.6g}{last_text}"
          f"{drift_text}, sup|zeta| {summary['sup_zeta_max']:.6g}{error_text}")
    return 0 if summary["status"] == "completed" else 1


# kept draws a sweep evaluates together.  At 5 fields per draw, 6 keep every
# array of a block under 128 KiB, glibc malloc's default threshold for
# mapping fresh pages per allocation, whatever the process allocated before:
# in the `evolve_checks` benchmark process on a 2-core Xeon, 12 draws took
# 0.46 ref a sweep against 0.36 at 6 (and 0.35 at 8, just over the
# threshold).  The traced peak stays under a megabyte at any number of draws
_SWEEP_BLOCK = 6


def _kept_blocks(rng, draws: int, fields_per_draw: int, cut: int):
    """The sweep's draws in generator order, in blocks of at most
    _SWEEP_BLOCK kept draws (draw index, params, omega, normals).  Each draw
    takes its uniforms; one whose f_min <= 0 is skipped before its depth and
    normals are drawn, and a kept one draws its (fields_per_draw, 2, 2,
    cut + 1) normals last."""
    block = []
    for i in range(draws):
        gamma = rng.uniform(0.1, 0.9)
        b = rng.uniform(1.0 / 6.0, 0.6)
        t = rng.uniform(0.05, 0.95)
        rest = 1.0 / 3.0 - 2.0 * b
        a = t * rest
        c = (1.0 - t) * rest
        mu = rng.uniform(0.05, 0.5)
        p_inf = ModelParams(gamma=gamma, epsilon=0.1, mu=mu, a=a, b=b, c=c, d=b)
        bound = compute_speed_window(p_inf)
        omega = rng.uniform(0.0, 0.95) * bound
        f_min, _, _ = compute_f_min(p_inf, omega)
        if f_min <= 0.0:
            continue
        threshold = compute_mu2_threshold(p_inf, omega)
        mu2 = threshold * rng.uniform(1.05, 10.0)
        p = ModelParams(gamma=gamma, epsilon=0.1, mu=mu, a=a, b=b, c=c, d=b, mu2=mu2)
        block.append((i, p, omega, rng.standard_normal((fields_per_draw, 2, 2, cut + 1))))
        if len(block) == _SWEEP_BLOCK:
            yield block
            block = []
    if block:
        yield block


def _band_limited_pairs(grid, z: np.ndarray) -> np.ndarray:
    """The real (xi, nu) pairs, shape (..., 2, N), whose spectra fill the
    retained 2/3 band with the normals z, shape (..., 2, 2, cut + 1): each
    field takes the real, then the imaginary parts of its band."""
    cut = grid.dealias_cut
    spec = np.zeros(z.shape[:-2] + (grid.N // 2 + 1,), dtype=complex)
    spec.real[..., : cut + 1] = z[..., 0, :]
    spec.imag[..., 1 : cut + 1] = z[..., 1, 1:]
    return irfft(spec, grid.N)


def _block_minima(grid, block) -> tuple[list, list]:
    """Per kept draw of block, the global minimum of its quadratic form and
    the normalized energies E / ||x||^2 of its pairs: one stack of tables and
    one `quadratic_form_check` of it, one irfft for the pairs, one
    `energy_gradient`, and the inner products as matmuls of row vectors,
    which give np.dot's bits."""
    tables = stacked_energy_tables([(p, omega) for _, p, omega, _ in block], grid)
    form_mins = quadratic_form_check(tables, grid).global_min[:, 0]
    pairs = _band_limited_pairs(grid, np.stack([z for *_, z in block]))
    grads = energy_gradient(tables, pairs)
    rows = pairs.reshape(pairs.shape[:2] + (1, -1))
    e_vals = 0.5 * (grid.dx * (rows @ grads.reshape(grads.shape[:2] + (-1, 1))))
    norms = pairs[..., None, :] @ pairs[..., :, None]
    scales = grid.dx * (norms[:, :, 0] + norms[:, :, 1])
    return form_mins.tolist(), (e_vals / scales).reshape(len(block), -1).tolist()


def cmd_sweep(cfg: dict, out: str) -> int:
    """Randomized admissibility sweep: positive quadratic forms, E >= 0.

    Each kept draw (`_kept_blocks`) is one parameter set inside the speed
    window and the mu2 threshold, with fields_per_draw random band-limited
    pairs; its quadratic form must have a positive split minimum and every
    pair a normalized energy above -1e-12.  The draws are made one by one,
    in generator order, and evaluated in blocks (`_block_minima`), so a
    sweep makes 3 transform calls per block and leaves the `symbols` cache
    untouched."""
    draws = cfg.get("sweep.draws", 200)
    fields_per_draw = cfg.get("sweep.fields_per_draw", 5)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    grid = make_grid(20.0, 256)

    violations = []
    min_eigen_global = math.inf
    min_energy = math.inf
    for block in _kept_blocks(rng, draws, fields_per_draw, grid.dealias_cut):
        for (i, *_), form_min, energies in zip(block, *_block_minima(grid, block)):
            min_eigen_global = min(min_eigen_global, form_min)
            if form_min <= 0.0:
                violations.append({"draw": i, "kind": "quadratic_form",
                                   "global_min": form_min})
            for e_norm in energies:
                min_energy = min(min_energy, e_norm)
                if e_norm < -1e-12:
                    violations.append({"draw": i, "kind": "energy", "value": e_norm})

    report = {
        "draws": draws,
        "fields_per_draw": fields_per_draw,
        "seed": seed,
        "violations": violations,
        "min_quadratic_form": min_eigen_global,
        "min_normalized_energy": min_energy,
    }
    cfgmod.write_json(os.path.join(out, "sweep.json"), report, cfg)
    print(f"sweep: {draws} draws, {len(violations)} violations, "
          f"min form {min_eigen_global:.3e}, min E {min_energy:.3e}")
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "continue": cmd_continue,
    "decay": cmd_decay,
    "kernel-check": cmd_kernel_check,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
}


# built once per process: parse_args reads the parser and keeps no state in it
# (an appended --set list is a fresh copy, the shared default stays empty)
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iswaves",
        description="Solitary-wave workbench for two-layer internal wave models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key-value config file")
        sp.add_argument("--out", help="output directory (default: ./out)")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (2) or the help (0)
        return exc.code
    out = args.out or "out"
    try:
        os.makedirs(out, exist_ok=True)
        cfg = cfgmod.load_config(args.config) if args.config else {}
        cfg = cfgmod.apply_overrides(cfg, args.set)
        if cfg.get("solver.tol_residual", TOL_RESIDUAL) != TOL_RESIDUAL:
            raise ConfigError(f"solver.tol_residual is fixed at {TOL_RESIDUAL:g}")
        code = _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InadmissibleParameterError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    # every command that returns has written its outputs; a configuration
    # error or a numerical failure leaves no meta.json
    cfgmod.write_meta(out, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
