"""Config parsing and the command-line pipelines, run in process."""

import json
import math

import numpy as np
import pytest

from iswaves.cli import main
from iswaves.config import (
    KEY_REGISTRY,
    ConfigError,
    apply_overrides,
    load_config,
    params_from_config,
    parse_assignment,
    resolved_config,
    sanitize,
    write_json,
)

P1_LINES = """\
# canonical two-layer point
params.gamma = 0.5
params.epsilon = 0.1
params.mu = 0.1
params.a = -0.0833333333333333
params.b = 0.25
params.c = -0.0833333333333333
params.d = 0.25
params.mu2 = 4.0
params.beta = 2.0
"""


@pytest.fixture()
def p1_cfg(tmp_path):
    path = tmp_path / "p1.cfg"
    path.write_text(P1_LINES)
    return str(path)


def test_parse_assignment_types():
    assert parse_assignment("params.gamma = 0.5") == ("params.gamma", 0.5)
    key, val = parse_assignment("params.mu2=inf")
    assert key == "params.mu2" and math.isinf(val)
    key, val = parse_assignment("grid.N = 256")
    assert val == 256 and isinstance(val, int)
    assert parse_assignment("solve.family = BO") == ("solve.family", "BO")


def test_parse_assignment_rejections():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_assignment("params.bogus = 1")
    with pytest.raises(ConfigError, match="bad value"):
        parse_assignment("grid.N = twelve")
    with pytest.raises(ConfigError, match="key = value"):
        parse_assignment("params.gamma 0.5")


def test_solver_keys_follow_solver_config(p1_cfg, tmp_path, capsys):
    # the solver settings are constants of solvers.py: solver.tol_residual is
    # accepted at its fixed value only, and no other solver key exists
    assert [k for k in KEY_REGISTRY if k.startswith("solver.")] == ["solver.tol_residual"]
    args = ["validate", "--config", p1_cfg, "--out", str(tmp_path / "o"), "--set"]
    assert main(args + ["solver.tol_residual = 1e-11"]) == 0
    capsys.readouterr()
    for value in ("1e-10", "1e-12", "0"):
        assert main(args + [f"solver.tol_residual = {value}"]) == 2
        assert capsys.readouterr().err == "config error: solver.tol_residual is fixed at 1e-11\n"
    for key in ("max_iters", "min_step", "newton_damping", "petviashvili_exponent",
                "continuation_step"):
        assert main(args + [f"solver.{key} = 7"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown configuration key 'solver.{key}'\n"


def test_load_config(tmp_path, p1_cfg):
    cfg = load_config(p1_cfg)
    assert cfg["params.gamma"] == 0.5
    assert len(cfg) == 9

    dup = tmp_path / "dup.cfg"
    dup.write_text("params.mu = 0.1\nparams.mu = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(str(dup))

    bad = tmp_path / "bad.cfg"
    bad.write_text("\n# fine\nparams.nope = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
        load_config(str(bad))


def test_apply_overrides(p1_cfg):
    cfg = load_config(p1_cfg)
    out = apply_overrides(cfg, ["params.mu2=inf", "grid.L=50"])
    assert math.isinf(out["params.mu2"])
    assert out["grid.L"] == 50.0
    assert cfg["params.mu2"] == 4.0  # the input mapping is untouched


def test_params_from_config(p1_cfg):
    p = params_from_config(load_config(p1_cfg))
    assert p.gamma == 0.5 and p.mu2 == 4.0 and p.beta == 2.0
    with pytest.raises(ConfigError, match="params.epsilon"):
        params_from_config({"params.gamma": 0.5})
    # constructor rejections surface as config errors
    bad = dict(load_config(p1_cfg), **{"params.gamma": 1.5})
    with pytest.raises(ConfigError):
        params_from_config(bad)


def test_resolved_config_and_sanitize():
    resolved = resolved_config({"params.mu2": math.inf, "grid.N": 256})
    assert resolved["params.mu2"] == "inf"
    assert resolved["grid.N"] == 256

    out = sanitize(
        {
            "arr": np.arange(3, dtype=np.float64),
            "f": np.float64(1.5),
            "i": np.int64(7),
            "inf": math.inf,
            "ninf": -math.inf,
            "nan": math.nan,
            "nested": [np.float32(2.0), {"x": np.inf}],
        }
    )
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["f"] == 1.5 and isinstance(out["f"], float)
    assert out["i"] == 7 and isinstance(out["i"], int)
    assert out["inf"] == "inf" and out["ninf"] == "-inf" and out["nan"] == "nan"
    assert out["nested"][1]["x"] == "inf"
    json.dumps(out)  # must be serializable as-is


def test_write_json_embeds_config(tmp_path):
    path = tmp_path / "r.json"
    write_json(str(path), {"value": 1.0}, {"params.mu2": math.inf})
    data = json.loads(path.read_text())
    assert data["value"] == 1.0
    assert data["config"]["params.mu2"] == "inf"


def test_cli_validate_pass_and_fail(p1_cfg, tmp_path, capsys):
    out = str(tmp_path / "ok")
    assert main(["validate", "--config", p1_cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "ok" / "admissibility.json").read_text())
    assert report["admissible"] is True
    assert (tmp_path / "ok" / "meta.json").exists()
    assert "admissible" in capsys.readouterr().out

    bad = str(tmp_path / "bad")
    code = main([
        "validate", "--config", p1_cfg, "--out", bad, "--set", "validate.omega=0.2",
    ])
    assert code == 1
    report = json.loads((tmp_path / "bad" / "admissibility.json").read_text())
    assert report["admissible"] is False
    assert any("speed" in v for v in report["violations"])


def test_cli_config_error_exits_2(p1_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    code = main(["validate", "--config", p1_cfg, "--out", out, "--set", "params.bogus=1"])
    assert code == 2
    assert "config error" in capsys.readouterr().err

    code = main(["solve", "--out", out, "--set", "params.gamma=0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "missing required keys" in err


def test_cli_main_reuses_one_parser(p1_cfg, tmp_path, capsys):
    # the parser is built once per process; no call leaves anything behind
    # in it, neither --set overrides nor a usage error
    from iswaves.cli import build_parser

    assert build_parser() is build_parser()
    args = ["validate", "--config", p1_cfg]
    assert main(args + ["--out", str(tmp_path / "a"), "--set", "validate.omega=0.2"]) == 1
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    report = json.loads((tmp_path / "b" / "admissibility.json").read_text())
    assert report["admissible"] is True
    assert "validate.omega" not in report["config"]
    assert build_parser().parse_args(["validate"]).set == []

    # argparse's usage errors and help return their exit codes
    assert main(["validate", "--bogus"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["validate", "--help"]) == 0
    assert "usage: iswaves validate" in capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "admissibility.json").read_bytes() == (
        tmp_path / "b" / "admissibility.json"
    ).read_bytes()
    capsys.readouterr()


def test_cli_solve_rejects_bad_mu2_mode(p1_cfg, tmp_path, capsys):
    # the family fixes the depth: there is no solve.mu2_mode key, and
    # BFD_finite at mu2 = inf is refused instead of solved at another depth
    args = [
        "solve", "--config", p1_cfg,
        "--set", "grid.L=8", "--set", "grid.N=256",
        "--set", "solve.family=bfd_finite", "--set", "solve.omega=0.1",
    ]
    cases = [
        ("solve.mu2_mode=finite", "config error: unknown configuration key 'solve.mu2_mode'"),
        ("params.mu2=inf", "config error: params.mu2: "),
    ]
    for extra, message in cases:
        out = tmp_path / extra.partition("=")[0]
        assert main(args + ["--set", extra, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


def test_cli_solve_bfd_inf_ignores_the_given_mu2(p1_cfg, tmp_path, capsys):
    # BFD_inf is the mu2 = inf system: a finite params.mu2 writes the same
    # wave as mu2 = inf, and the wave is certified as a BFD_inf solution
    from iswaves.solvers import load_branch, residual_norm

    samples = []
    for mu2 in ("4", "inf"):
        out = tmp_path / mu2
        assert main([
            "solve", "--config", p1_cfg, "--out", str(out),
            "--set", f"params.mu2={mu2}", "--set", "grid.L=200", "--set", "grid.N=512",
            "--set", "solve.family=BFD_inf", "--set", "solve.omega=0.1",
        ]) == 0
        samples.append((out / "branch" / "sample_000.npy").read_bytes())
    assert samples[0] == samples[1]
    wave = load_branch(str(tmp_path / "4" / "branch")).waves[0]
    p_inf = params_from_config(load_config(p1_cfg) | {"params.mu2": math.inf})
    assert residual_norm("BFD_inf", p_inf, 0.1, wave) <= 1e-9
    capsys.readouterr()


def test_cli_solve_decay_pipeline(p1_cfg, tmp_path, capsys):
    out = str(tmp_path / "bo")
    code = main([
        "solve", "--config", p1_cfg, "--out", out,
        "--set", "params.mu2=inf",
        "--set", "grid.L=50", "--set", "grid.N=512",
        "--set", "solve.family=BO",
    ])
    assert code == 0
    report = json.loads((tmp_path / "bo" / "report.json").read_text())
    assert report["family"] == "BO"
    assert report["residuals"][-1] < 1e-9
    assert (tmp_path / "bo" / "branch" / "branch.json").exists()

    dec = str(tmp_path / "dec")
    code = main([
        "decay", "--config", p1_cfg, "--out", dec,
        "--set", "params.mu2=inf",
        "--set", f"decay.branch_dir={out}/branch",
        "--set", "decay.kind=algebraic",
        "--set", "decay.window_lo=8", "--set", "decay.window_hi=16",
    ])
    assert code == 0
    fit = json.loads((tmp_path / "dec" / "decay_nu.json").read_text())
    assert fit["kind"] == "algebraic"
    assert "non-plateau" not in fit["flags"]

    code = main([
        "decay", "--config", p1_cfg, "--out", dec,
        "--set", f"decay.branch_dir={out}/branch",
        "--set", "decay.field=zeta",
    ])
    assert code == 2
    capsys.readouterr()


def test_cli_solve_is_deterministic(p1_cfg, tmp_path):
    args = [
        "solve", "--config", p1_cfg,
        "--set", "params.mu2=inf",
        "--set", "grid.L=50", "--set", "grid.N=512",
        "--set", "solve.family=BO", "--set", "seed=3",
    ]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2
    # the branch directory, binary samples included, repeats byte for byte
    names = sorted(p.name for p in (tmp_path / "r1" / "branch").iterdir())
    assert names == ["branch.json", "sample_000.npy", "schema.json"]
    assert names == sorted(p.name for p in (tmp_path / "r2" / "branch").iterdir())
    for name in names:
        one = (tmp_path / "r1" / "branch" / name).read_bytes()
        assert one == (tmp_path / "r2" / "branch" / name).read_bytes()


@pytest.mark.parametrize(
    "sets, keys",
    [
        (["params.mu2=inf", "grid.L=50", "solve.family=BO"], set()),
        (["grid.L=8", "solve.family=BFD_finite", "solve.omega=0.1"], set()),
        (["params.mu2=25", "grid.L=50", "solve.family=ILW"], set()),
        (["params.mu2=inf", "grid.L=50", "solve.family=BO", "solve.speed=0.01"], set()),
        (["params.mu2=25", "grid.L=50", "solve.family=ILW", "solve.speed=0.01"], set()),
        (["params.mu2=inf", "grid.L=200", "solve.family=BFD_inf", "solve.omega=0.1"], set()),
    ],
)
def test_cli_solve_reports_work_counts(p1_cfg, tmp_path, sets, keys):
    args = ["solve", "--config", p1_cfg, "--set", "grid.N=512"]
    for s in sets:
        args += ["--set", s]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    assert b1 == (tmp_path / "r2" / "report.json").read_bytes()
    work = json.loads(b1)["work"]
    assert set(work) == {"iterations", "exit"} | keys
    assert isinstance(work["iterations"], int) and work["iterations"] >= 1
    assert work["exit"] in ("converged", "floor")


def test_cli_solve_outside_the_speed_window_exits_1(p1_cfg, tmp_path, capsys):
    # M_c = op2 - c^2 op1/(1 - gamma) turns negative near c = 0.738: the
    # continuation from c = 0 ends there, and no wave is written
    args = ["solve", "--config", p1_cfg, "--out", str(tmp_path)]
    for s in ("params.mu2=inf", "grid.L=50", "grid.N=256", "solve.family=BO", "solve.speed=0.75"):
        args += ["--set", s]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "numerical failure: the BO branch ended at 0.73" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "sets",
    [
        ["continue.parameter=c", "continue.target=0.02", "continue.milestones=0.01,0.02"],
        ["continue.parameter=mu2", "continue.target=25", "continue.milestones=400,25"],
    ],
    ids=["c", "mu2"],
)
def test_cli_continue_reports_work_counts(p1_cfg, tmp_path, sets):
    args = ["continue", "--config", p1_cfg, "--set", "params.mu2=inf"]
    args += ["--set", "grid.L=50", "--set", "grid.N=256"]
    for s in sets:
        args += ["--set", s]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    assert b1 == (tmp_path / "r2" / "report.json").read_bytes()
    report = json.loads(b1)
    diag = report["diagnostics"]
    assert not diag["truncated"] and len(report["parameter_values"]) == 3
    # the start and every step in order, each milestone from the last wave
    assert [step["accepted"] for step in diag["steps"]] == [True, True]
    assert all(step["exit"] in ("converged", "floor") for step in diag["steps"])
    work = report["work"]
    assert set(work) == {"iterations", "exit"}
    solves = [diag["start"]] + diag["steps"]
    assert work["iterations"] == sum(step["iterations"] for step in solves)
    assert work["exit"] == diag["steps"][-1]["exit"]


def test_cli_decay_parses_only_its_sample(p1_cfg, tmp_path, capsys):
    from iswaves.solvers import SolitaryBranch, save_branch
    from iswaves.spectral import WavePair, make_grid

    g = make_grid(50.0, 256)
    bump = 1.0 / (1.0 + g.x**2)
    three = SolitaryBranch("BO", [0.0, 0.01, 0.02], [WavePair(g, bump, bump)] * 3, [0.0] * 3)
    save_branch(three, str(tmp_path / "branch"))
    # the samples decay does not fit, as branch.json names them, are unreadable
    listed = json.loads((tmp_path / "branch" / "branch.json").read_text())["samples"]
    assert len(listed) == 3
    for name in listed[1:]:
        (tmp_path / "branch" / name).write_text("not a wave\n")
    args = [
        "decay", "--config", p1_cfg, "--out", str(tmp_path / "dec"),
        "--set", f"decay.branch_dir={tmp_path}/branch",
        "--set", "decay.window_lo=8", "--set", "decay.window_hi=16",
    ]
    assert main(args + ["--set", "decay.sample=0"]) == 0
    capsys.readouterr()
    # the corruption bites: a listed sample that decay reads does not load
    assert main(args + ["--set", "decay.sample=1"]) == 2
    err = capsys.readouterr().err
    assert f"config error: decay.branch_dir: {tmp_path}/branch/{listed[1]}: " in err
    assert main(args + ["--set", "decay.sample=3"]) == 2
    assert "decay.sample must lie in [0, 3), got 3" in capsys.readouterr().err


def _unreadable_branch(tmp_path, case) -> str:
    """A branch directory that cannot be read as a wave: missing, with a
    CSV sample of two columns or of a header alone, or with a corrupt .npy
    sample."""
    from iswaves.solvers import SolitaryBranch, save_branch
    from iswaves.spectral import WavePair, make_grid

    outdir = tmp_path / "branch"
    if case == "missing":
        return str(outdir)
    g = make_grid(50.0, 256)
    bump = 1.0 / (1.0 + g.x**2)
    save_branch(SolitaryBranch("BO", [0.0], [WavePair(g, bump, bump)], [0.0]), str(outdir))
    if case in ("bad_csv", "empty_csv"):
        meta = json.loads((outdir / "branch.json").read_text())
        meta["samples"] = ["sample_000.csv"]
        (outdir / "branch.json").write_text(json.dumps(meta))
        rows = "1.0,2.0\n3.0,4.0\n" if case == "bad_csv" else ""
        (outdir / "sample_000.csv").write_text("x,xi,nu\n" + rows)
    else:
        (outdir / "sample_000.npy").write_bytes(b"not a wave\n")
    return str(outdir)


# a warning on the way, such as numpy's on a file without data, fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["missing", "bad_csv", "empty_csv", "bad_npy"])
@pytest.mark.parametrize(
    "command, sets",
    [
        ("decay", ["decay.window_lo=8", "decay.window_hi=16"]),
        ("evolve", ["evolve.family=BO", "evolve.initial=branch", "evolve.T=0.1"]),
    ],
    ids=["decay", "evolve"],
)
def test_cli_unreadable_branch_exits_2(p1_cfg, tmp_path, capsys, case, command, sets):
    # a branch that cannot be read is a configuration error of its key
    key = f"{command}.branch_dir"
    args = [command, "--config", p1_cfg, "--out", str(tmp_path / "out")]
    for s in sets + [f"{key}={_unreadable_branch(tmp_path, case)}"]:
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
    names = {"missing": "branch.json", "bad_npy": "sample_000.npy"}
    assert names.get(case, "sample_000.csv") in err


def test_cli_kernel_check_k1(tmp_path, capsys):
    out = str(tmp_path / "kc")
    code = main(["kernel-check", "--out", out, "--set", "kernel.which=K1"])
    assert code == 0
    data = json.loads((tmp_path / "kc" / "kernel_check.json").read_text())
    assert data["K1"]["max_abs_diff"] < 1e-5
    assert "kernel-check" in capsys.readouterr().out


def test_cli_kernel_check_undefined_kernel_exits_1(p1_cfg, tmp_path, capsys):
    # a = 3.5 leaves 4 c_K - ell^2 negative: K has no closed form
    out = str(tmp_path / "kc")
    args = ["kernel-check", "--config", p1_cfg, "--out", out]
    assert main(args + ["--set", "params.a=3.5", "--set", "kernel.which=K"]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "4 c_K - ell^2" in err


def test_cli_kernel_check_reports_oracle_grids(p1_cfg, tmp_path):
    # each kernel records its grid and the number of bins its oracle
    # transformed: the sample points lie on 64- or 2048-point sub-lattices
    out = str(tmp_path / "kc")
    assert main(["kernel-check", "--config", p1_cfg, "--out", out]) == 0
    data = json.loads((tmp_path / "kc" / "kernel_check.json").read_text())
    expected = {
        "K1": (16.0, 2**16, 64),
        "K2": (1024.0, 2**22, 2048),
        "K": (1024.0, 2**20, 2048),
        "K3": (32.0, 2**21, 64),
    }
    for name, (length, n, bins) in expected.items():
        entry = data[name]
        assert (entry["L"], entry["N"], entry["oracle_bins"]) == (length, n, bins)
        assert entry["max_abs_diff"] < 1e-5
    assert data["max_abs_diff"] < 1e-5


def test_cli_evolve_gaussian(p1_cfg, tmp_path):
    out = str(tmp_path / "evo")
    code = main([
        "evolve", "--config", p1_cfg, "--out", out,
        "--set", "evolve.family=bfd_finite", "--set", "evolve.T=0.2", "--set", "evolve.dt=0.02",
        "--set", "evolve.snapshots_every=0.1",
        "--set", "grid.L=20", "--set", "grid.N=128",
    ])
    assert code == 0
    traj = json.loads((tmp_path / "evo" / "trajectory.json").read_text())
    assert traj["status"] == "completed"
    assert traj["condH"]["satisfied"] is True
    assert traj["h_drift_max"] < 1e-10
    assert (tmp_path / "evo" / "final_state.csv").exists()
    snaps = list((tmp_path / "evo").glob("snapshot_t*.csv"))
    assert len(snaps) >= 2


def test_cli_evolve_amplitude_bound_abort(p1_cfg, tmp_path, monkeypatch, capsys):
    from iswaves import evolution

    real = evolution.check_global_criterion
    monkeypatch.setattr(
        evolution, "check_global_criterion", lambda p, w: dict(real(p, w), alpha=1e-6)
    )
    out = str(tmp_path / "evo")
    code = main([
        "evolve", "--config", p1_cfg, "--out", out,
        "--set", "evolve.family=bfd_finite", "--set", "evolve.T=0.2", "--set", "evolve.dt=0.02",
        "--set", "grid.L=20", "--set", "grid.N=128",
    ])
    assert code == 1
    traj = json.loads((tmp_path / "evo" / "trajectory.json").read_text())
    assert traj["status"] == "aborted"
    assert "amplitude bound violated" in traj["error"]
    assert "at t = 0.02" in traj["error"]
    assert "aborted" in capsys.readouterr().err


def test_cli_evolve_outside_characteristic_window_exits_1(p1_cfg, tmp_path, capsys):
    # c > 0 makes the characteristic splitting impossible: a numerical
    # failure (exit 1), whether dt is given or suggested
    args = [
        "evolve", "--config", p1_cfg, "--out", str(tmp_path / "evo"),
        "--set", "grid.L=20", "--set", "grid.N=256", "--set", "evolve.family=bfd_finite",
        "--set", "evolve.T=0.1", "--set", "params.c=0.1", "--set", "params.a=-0.5",
    ]
    for dt in ([], ["--set", "evolve.dt=0.02"]):
        assert main(args + dt) == 1
        err = capsys.readouterr().err
        assert "numerical failure: characteristic splitting needs positive" in err


def test_cli_sweep_small(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = main([
        "sweep", "--out", out,
        "--set", "sweep.draws=2", "--set", "sweep.fields_per_draw=2",
        "--set", "seed=5",
    ])
    assert code == 0
    data = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert data["draws"] == 2
    assert data["violations"] == []
    assert data["min_quadratic_form"] > 0.0
    assert "sweep" in capsys.readouterr().out


# (subcommand, --set overrides, the key the error must name); each case
# once raised an uncaught exception or ran with the bad value
_BAD_VALUES = [
    ("solve", ["solve.family=XYZ"], "solve.family"),
    ("evolve", ["evolve.family=foo"], "evolve.family"),
    ("evolve", ["evolve.integrator=rk4"], "evolve.integrator"),
    ("evolve", ["evolve.T=-1"], "evolve.T"),
    ("evolve", ["evolve.T=0.01", "evolve.dt=-0.1"], "evolve.dt"),
    ("evolve", ["evolve.snapshots_every=0"], "evolve.snapshots_every"),
    ("evolve", ["evolve.initial=branch", "evolve.sample=2"], "evolve.sample"),
    ("kernel-check", ["kernel.sigma=-1"], "kernel.sigma"),
    ("decay", ["decay.sample=99"], "decay.sample"),
    ("decay", ["decay.sample=-2"], "decay.sample"),
    ("continue", ["continue.family=bfd_finite"], "continue.family"),
    ("continue", ["continue.family=ILW"], "continue.family"),
    ("continue", ["continue.parameter=mu2", "continue.target=-1"], "continue.target"),
    (
        "continue",
        ["continue.parameter=mu2", "continue.target=25", "continue.milestones=400,10"],
        "continue.milestones",
    ),
    (
        "continue",
        ["continue.parameter=mu2", "continue.target=25", "continue.milestones=400,abc"],
        "continue.milestones",
    ),
    ("evolve", ["params.mu2=inf"], "params.mu2"),
    ("evolve", ["evolve.family=ilw", "params.mu2=inf"], "params.mu2"),
    ("solve", ["solve.family=ilw", "params.mu2=inf"], "params.mu2"),
    ("continue", ["continue.target=0.001", "continue.milestones=0.005,0.01"], "continue.target"),
    (
        "continue",
        ["continue.parameter=mu2", "continue.target=25", "continue.family=BFD_finite"],
        "continue.family",
    ),
]
_BASE_SETS = {
    "solve": ["grid.L=8", "grid.N=64", "solve.omega=0.1"],
    "evolve": ["grid.L=20", "grid.N=64", "evolve.family=bfd_finite", "evolve.T=0.1"],
    "kernel-check": ["kernel.which=K1"],
    "decay": [],
    "continue": ["grid.L=8", "grid.N=64", "continue.parameter=c", "continue.target=0.1"],
}


@pytest.mark.parametrize("command,sets,key", _BAD_VALUES)
def test_cli_rejects_bad_values(p1_cfg, tmp_path, capsys, command, sets, key):
    from iswaves.solvers import SolitaryBranch, save_branch
    from iswaves.spectral import WavePair, make_grid

    g = make_grid(8.0, 16)
    bump = np.exp(-(g.x**2))
    two = SolitaryBranch("BO", [0.0, 0.01], [WavePair(g, bump, bump)] * 2, [0.0, 0.0])
    save_branch(two, str(tmp_path / "branch"))
    branch = [f"decay.branch_dir={tmp_path}/branch", f"evolve.branch_dir={tmp_path}/branch"]
    args = [command, "--config", p1_cfg, "--out", str(tmp_path / "o")]
    for s in branch + _BASE_SETS[command] + sets:
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
