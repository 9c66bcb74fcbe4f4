"""Workloads of the benchmark: the operations each one runs and their checks.

Every operation is one `iswaves` CLI call, made in process through
`iswaves.cli.main`, on a config in `perfbench/configs/`.  The configs hold
the values of the `tests/conftest.py` fixtures verbatim; `BENCH_SCALE` lists
the few overrides the timed benchmark applies so that each workload's pass
fits a run of a few tens of seconds (`--scale full` drops them).  The
overrides keep what each operation is there to show: every finite-depth
solve and both continuations still end some `lgmres` calls at `maxiter`,
the travelling wave still runs on its N = 2048 grid.

Each check reads what the CLI wrote and tests it without the solver's own
bookkeeping: residuals are recomputed from the saved waves, the travelling
wave is compared with its exact translation.  A check returns None when the
output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CONFIGS = Path(__file__).resolve().parent / "configs"
CERTIFY_TOL = 1e-9

# --set overrides of the timed benchmark, per operation.  At the fixture
# sizes one pass of `solvers` takes ~135 s and of `evolve_checks` ~35 s on
# 2 cores, too long to repeat within one run.  At these sizes the same
# machine measured: bfd_finite 1 of 1 lgmres calls at maxiter (2.3 s),
# bfd_sharp 1 of 1 (2.7 s), c_branch 2 of 9 (5.2 s), mu2_chain 4 of 14 (5.9 s).
BENCH_SCALE = {
    "bfd_finite": ["grid.N=512"],
    "bfd_sharp": ["grid.N=1024"],
    "c_branch": ["grid.N=1024"],
    "mu2_chain": ["grid.N=256"],
    "wave_transport": ["evolve.T=4.0"],
}


@dataclass
class Op:
    name: str
    command: str
    check: Callable  # (ctx, op, outdir, exit code) -> None or why it failed
    reps: int = 1  # fixed repetitions per pass, for sub-second operations
    sets: list[str] = field(default_factory=list)

    @property
    def config(self) -> Path:
        return CONFIGS / f"{self.name}.cfg"

    def argv(self, outdir: Path) -> list[str]:
        out = [self.command, "--config", str(self.config), "--out", str(outdir)]
        for s in self.sets:
            out += ["--set", s]
        return out

    def resolved(self) -> dict:
        """The config as the CLI sees it, overrides applied."""
        from iswaves.config import apply_overrides, load_config

        return apply_overrides(load_config(str(self.config)), self.sets)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _params(cfg: dict, mu2: float | None = None):
    from iswaves.config import params_from_config

    p = params_from_config(cfg)
    if mu2 is None:
        return p
    from dataclasses import replace

    return replace(p, mu2=mu2)


def _certify_branch(branch, family_of, p_of, speed_of) -> str | None:
    from iswaves.solvers import residual_norm

    for value, wave in zip(branch.parameter_values, branch.waves):
        res = residual_norm(family_of(value), p_of(value), speed_of(value), wave)
        if not res <= CERTIFY_TOL:
            return f"sample at {value}: residual {res:.3e} > {CERTIFY_TOL:g}"
    return None


def _load(outdir: Path):
    from iswaves.solvers import load_branch

    return load_branch(str(outdir / "branch"))


def check_solve(ctx, op, outdir, rc):
    if rc != 0:
        return f"exit code {rc}"
    cfg = op.resolved()
    branch = _load(outdir)
    if len(branch.waves) != 1:
        return f"{len(branch.waves)} samples, expected 1"
    family = branch.family
    p = _params(cfg)
    return _certify_branch(branch, lambda v: family, lambda v: p, lambda v: v)


def check_continue(ctx, op, outdir, rc):
    if rc != 0:
        return f"exit code {rc}"
    cfg = op.resolved()
    branch = _load(outdir)
    if branch.diagnostics.get("truncated"):
        return "branch truncated"
    wanted = [float(t) for t in cfg["continue.milestones"].split(",")]
    if cfg["continue.parameter"] == "c":
        expect = [0.0] + sorted(wanted, key=abs)
        p = _params(cfg)
        why = _certify_branch(branch, lambda v: "BO", lambda v: p, lambda v: v)
    else:
        # the mu2 = inf endpoint is the BO wave; the rest are ILW at c = 0
        expect = [math.inf] + sorted(wanted, reverse=True)
        why = _certify_branch(
            branch,
            lambda v: "BO" if math.isinf(v) else "ILW",
            lambda v: _params(cfg, mu2=v),
            lambda v: 0.0,
        )
    if branch.parameter_values != expect:
        return f"samples at {branch.parameter_values}, expected {expect}"
    return why


def check_wave_transport(ctx, op, outdir, rc):
    """Shape error of the final state against the exact translation."""
    import numpy as np
    from iswaves.spectral import pair_from_csv

    if rc != 0:
        return f"exit code {rc}"
    cfg = op.resolved()
    wave = ctx["bfd_finite_wave"]
    omega = ctx["bfd_finite_omega"]
    T = cfg["evolve.T"]
    final = pair_from_csv(str(outdir / "final_state.csv"))
    shift = np.exp(-1j * wave.grid.k_half * omega * T)
    exact = np.fft.irfft(np.fft.rfft(wave.xi) * shift, n=wave.grid.N)
    err = float(np.linalg.norm(final.xi - exact) / np.linalg.norm(exact))
    return None if err <= 1e-3 else f"shape error {err:.3e} > 1e-3"


def check_small_data(ctx, op, outdir, rc):
    if rc != 0:
        return f"exit code {rc}"
    traj = json.loads((outdir / "trajectory.json").read_text())
    cond = traj.get("condH") or {}
    if traj.get("status") != "completed":
        return f"status {traj.get('status')}"
    if not traj["h_drift_max"] <= 1e-8:
        return f"H drift {traj['h_drift_max']:.3e} > 1e-8"
    if not (cond.get("satisfied") and traj["sup_zeta_max"] <= cond["alpha"]):
        return f"amplitude bound: sup {traj['sup_zeta_max']} vs alpha {cond.get('alpha')}"
    return None


def check_exit_zero(ctx, op, outdir, rc):
    return None if rc == 0 else f"exit code {rc}"


def check_decay(ctx, op, outdir, rc):
    if rc != 0:
        return f"exit code {rc}"
    fit = json.loads((outdir / "decay_nu.json").read_text())
    return f"flags {fit['flags']}" if fit["flags"] else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def workload(name: str, seed: int, scale: str = "bench") -> list[Op]:
    ops = {
        # the stalling finite-depth solves and both continuations exercise
        # the inner solves; BO and BFD_inf converge, the bypass inside it
        "solvers": [
            Op("bo_ground", "solve", check_solve, reps=4),
            Op("bfd_finite", "solve", check_solve),
            Op("bfd_sharp", "solve", check_solve),
            Op("bfd_inf", "solve", check_solve, reps=2),
            Op("c_branch", "continue", check_continue),
            Op("mu2_chain", "continue", check_continue),
        ],
        # no solver work: the stepper and its monitors, kernels, functionals
        "evolve_checks": [
            Op("wave_transport", "evolve", check_wave_transport),
            Op("small_data", "evolve", check_small_data),
            Op("validate", "validate", check_exit_zero, reps=100),
            Op("decay", "decay", check_decay, reps=10),
            Op("kernel_check", "kernel-check", check_exit_zero),
            Op("sweep", "sweep", check_exit_zero, sets=[f"seed={seed}"]),
        ],
    }[name]
    if scale == "bench":
        for op in ops:
            op.sets = BENCH_SCALE.get(op.name, []) + op.sets
    return ops


def prepare(name: str, seed: int, scale: str = "bench") -> tuple[list[Op], dict]:
    """Set-up: parse every config and load and re-certify the stored waves."""
    from iswaves.solvers import load_branch

    ops = workload(name, seed, scale)
    ctx: dict = {}
    for op in ops:
        op.resolved()  # rejects a malformed config before anything is timed
    by_name = {op.name: op for op in ops}
    if "wave_transport" in by_name:
        cfg = by_name["wave_transport"].resolved()
        branch = load_branch(cfg["evolve.branch_dir"])
        omega = branch.parameter_values[-1]
        p = _params(cfg)
        why = _certify_branch(branch, lambda v: "BFD_finite", lambda v: p, lambda v: v)
        if why:
            raise RuntimeError(f"stored BFD_finite wave not certified: {why}")
        ctx["bfd_finite_wave"] = branch.waves[-1]
        ctx["bfd_finite_omega"] = omega
    if "decay" in by_name:
        cfg = by_name["decay"].resolved()
        branch = load_branch(cfg["decay.branch_dir"])
        p = _params(_load_cfg("c_branch"))
        why = _certify_branch(branch, lambda v: "BO", lambda v: p, lambda v: v)
        if why:
            raise RuntimeError(f"stored BO branch not certified: {why}")
    return ops, ctx


def _load_cfg(name: str) -> dict:
    from iswaves.config import load_config

    return load_config(str(CONFIGS / f"{name}.cfg"))
