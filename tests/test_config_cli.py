"""Config parsing and the command-line pipelines, run in process."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswaves import params
from iswaves.cli import _KERNELS, main
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

SRC = Path(__file__).resolve().parent.parent / "src"

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


_TEXT = st.text(st.characters(codec="ascii", exclude_characters="\n\r"), max_size=12).map(
    str.strip
)
# the kernels kernel-check runs are the names kernel.which accepts
_KERNEL_NAMES = tuple(sorted(_KERNELS))

# (kind, values the key accepts) of a key parsed by its kind alone: any
# float but NaN (which equals nothing, itself included), any int, a str
# without surrounding whitespace
_PLAIN = {
    float: ("float", st.floats(allow_nan=False)),
    int: ("int", st.integers(-(10**12), 10**12)),
    str: ("str", _TEXT),
}


def _floats_refused(*texts):
    return st.sampled_from(["nan", "NaN", "-nan", *texts])


def _one_of(*names):
    return (
        "str",
        st.sampled_from(names),
        _TEXT.filter(lambda t: t not in names) | st.sampled_from(["nan", names[0].upper() + "x"]),
    )


_FINITE = (
    "float",
    st.floats(allow_nan=False, allow_infinity=False),
    _floats_refused("inf", "-inf", "+Infinity"),
)
_POSITIVE = (
    "float",
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    _floats_refused("inf", "-inf") | st.floats(max_value=0.0, allow_nan=False).map(repr),
)
_POSITIVE_INT = (
    "int",
    st.integers(1, 10**12),
    st.integers(-(10**12), 0).map(str) | _floats_refused("1.5"),
)
# (kind, accepted values, refused texts) of every key with a rule, which
# the registry states as a parser of its own
_RULES = {
    "seed": ("int", st.integers(0, 10**12), st.integers(-(10**12), -1).map(str) | _floats_refused()),
    "validate.omega": ("float", st.floats(allow_nan=False), _floats_refused()),
    "solve.speed": _FINITE,
    "solve.omega": _FINITE,
    "continue.parameter": _one_of("c", "mu2"),
    "continue.target": _FINITE,
    "continue.milestones": (
        "str",
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=4).map(
            lambda v: ",".join(map(repr, v))
        ),
        st.lists(st.floats(), min_size=1, max_size=4)
        .filter(lambda v: any(map(math.isnan, v)))
        .map(lambda v: ",".join(map(repr, v)))
        | st.sampled_from(["", ",", "0.1,", "abc", "0.1;0.2"]),
    ),
    "decay.field": _one_of("xi", "nu"),
    "decay.kind": _one_of("algebraic", "exponential"),
    "decay.window_lo": _FINITE,
    "decay.window_hi": _FINITE,
    "decay.predicted": _FINITE,
    "kernel.which": (
        "str",
        st.just("all")
        | st.lists(st.sampled_from(_KERNEL_NAMES), min_size=1, max_size=4).map(", ".join),
        st.lists(st.sampled_from(_KERNEL_NAMES + ("K0", "all", "k1", "")), min_size=1, max_size=4)
        .map(",".join)
        .filter(lambda t: t != "all" and not set(t.split(",")) <= set(_KERNEL_NAMES))
        | st.sampled_from(["nan", "ALL"]),
    ),
    "kernel.sigma": _POSITIVE,
    "evolve.T": _POSITIVE,
    "evolve.dt": _POSITIVE,
    "evolve.snapshots_every": _POSITIVE,
    "evolve.initial": _one_of("gaussian", "branch"),
    "evolve.amplitude": _FINITE,
    "evolve.width": _POSITIVE,
    "sweep.draws": _POSITIVE_INT,
    "sweep.fields_per_draw": _POSITIVE_INT,
}


def _spec(key):
    """(kind, accepted values) of a key."""
    parser = KEY_REGISTRY[key]
    return _PLAIN[parser] if parser in _PLAIN else _RULES[key][:2]


_ASSIGNMENTS = st.sampled_from(sorted(KEY_REGISTRY)).flatmap(
    lambda key: st.tuples(st.just(key), _spec(key)[1])
)


def test_every_key_with_a_rule_is_specified():
    # the keys the registry parses by more than their kind are the keys
    # whose rule the property tests below state
    assert {k for k, parser in KEY_REGISTRY.items() if parser not in _PLAIN} == set(_RULES)


@settings(max_examples=60)
@given(
    base=st.lists(_ASSIGNMENTS, max_size=5).map(dict),
    assignments=st.lists(_ASSIGNMENTS, max_size=12),
)
def test_config_round_trips_through_resolved_config(tmp_path_factory, base, assignments):
    # each accepted assignment written as text parses back to its value, the
    # last of a key wins over the base, and the resolved config written out
    # as a file and as overrides reads back as the same config
    texts = [f"{key}={value}" for key, value in assignments]
    before = dict(base)
    cfg = apply_overrides(base, texts)
    assert base == before  # the input mapping is untouched
    assert cfg == base | dict(assignments)
    assert [parse_assignment(text) for text in texts] == assignments
    resolved = resolved_config(cfg)
    assert list(resolved) == sorted(cfg)
    lines = [f"{key} = {value}" for key, value in resolved.items()]
    assert apply_overrides({}, lines) == cfg
    path = tmp_path_factory.mktemp("cfg") / "round.cfg"
    path.write_text("# written from resolved_config\n" + "\n".join(lines) + "\n")
    assert load_config(str(path)) == cfg
    assert resolved_config(load_config(str(path))) == resolved


_WORD = st.text(st.characters(codec="ascii", exclude_characters="=\n\r"), max_size=20)


@settings(max_examples=60)
@given(key=_WORD, value=_WORD)
def test_config_rejects_unknown_keys_and_missing_assignments(key, value):
    if key.strip() not in KEY_REGISTRY:
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_assignment(f"{key}={value}")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        apply_overrides({}, [key + value])


@settings(max_examples=60)
@given(
    key=st.sampled_from(sorted(k for k in KEY_REGISTRY if _spec(k)[0] != "str")),
    data=st.data(),
)
def test_config_rejects_values_of_the_wrong_kind(key, data):
    # no float text is an int, and no text of letters that spell no
    # infinity or nan is a float
    if _spec(key)[0] == "int":
        raw = data.draw(st.floats().map(repr))
    else:
        raw = data.draw(st.text(alphabet="bcdeghjkopqrsuvwxz_", min_size=1, max_size=12))
    with pytest.raises(ConfigError, match=f"bad value for {key}"):
        parse_assignment(f"{key} = {raw}")
    with pytest.raises(ConfigError, match=f"bad value for {key}"):
        apply_overrides({key: 1}, [f"{key}={raw}"])


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(_RULES)), data=st.data())
def test_config_refuses_values_outside_each_keys_rule(tmp_path_factory, key, data):
    # NaN and every other value outside a key's rule are refused by the
    # registry, as one line naming the key, from a file and --set alike,
    # before any command runs
    raw = data.draw(_RULES[key][2])
    with pytest.raises(ConfigError) as refused:
        parse_assignment(f"{key} = {raw}")
    message = str(refused.value)
    assert message.startswith((f"{key} ", f"bad value for {key}: ")) and "\n" not in message
    path = tmp_path_factory.mktemp("cfg") / "refused.cfg"
    path.write_text(f"# one refused value\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as refused:
        load_config(str(path))
    assert str(refused.value) == f"{path}:2: {message}"
    out = tmp_path_factory.mktemp("out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["validate", "--out", str(out), "--set", f"{key}={raw}"]) == 2
    assert err.getvalue() == f"config error: {message}\n"
    assert list(out.iterdir()) == []


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
    # one inf/nan encoding, that of sanitize: -inf is "-inf", not "inf"
    cfg = {"z": -math.inf, "b": math.inf, "n": math.nan, "f": 0.5, "s": "x"}
    resolved = resolved_config(cfg)
    assert resolved == sanitize(cfg) and list(resolved) == sorted(cfg)
    assert resolved["z"] == "-inf" and resolved["n"] == "nan"

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


_JSON_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 1e22, 5e-324, -1.5e308]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["inf", "-inf", "nan"]),
)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_SCALARS, st.lists(st.floats(allow_nan=False, allow_infinity=False))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(payload=st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5))
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, payload):
    # write_json lays out finite-float lists itself; the file is byte for
    # byte what json.dumps writes, empty and nested lists, -0.0, the extreme
    # floats, big ints and "inf" strings included
    path = tmp_path_factory.getbasetemp() / "layout.json"
    write_json(str(path), payload)
    assert path.read_text() == json.dumps(sanitize(payload), indent=2, sort_keys=True) + "\n"


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

    code = main([
        "validate", "--config", p1_cfg, "--out", bad, "--set", "validate.omega=-inf",
    ])
    assert code == 1
    report = json.loads((tmp_path / "bad" / "admissibility.json").read_text())
    assert report["config"]["validate.omega"] == "-inf"


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
    assert names == ["branch.json", "sample_000.npy"]
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
    assert set(work) == {"iterations", "exit", "mixing_restarts"} | keys
    assert isinstance(work["iterations"], int) and work["iterations"] >= 1
    assert isinstance(work["mixing_restarts"], int)
    assert 0 <= work["mixing_restarts"] < work["iterations"]
    assert work["exit"] in ("converged", "floor")


@pytest.mark.parametrize(
    "family, key, read",
    [
        ("BFD_finite", "solve.speed", "solve.omega"),
        ("BFD_inf", "solve.speed", "solve.omega"),
        ("BO", "solve.omega", "solve.speed"),
        ("ILW", "solve.omega", "solve.speed"),
    ],
)
def test_cli_solve_refuses_the_speed_key_its_family_does_not_read(
    p1_cfg, tmp_path, capsys, family, key, read
):
    args = ["solve", "--config", p1_cfg, "--out", str(tmp_path), "--set", "grid.N=256"]
    for s in ("grid.L=8", f"solve.family={family}", f"{key}=0.3"):
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {key} does not apply to {family}; set {read}\n"
    assert not (tmp_path / "report.json").exists()


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
    assert set(work) == {"iterations", "exit", "mixing_restarts"}
    solves = [diag["start"]] + diag["steps"]
    assert work["iterations"] == sum(step["iterations"] for step in solves)
    assert work["mixing_restarts"] == sum(step["mixing_restarts"] for step in solves)
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
    CSV sample of two columns or of a header alone, or with a corrupt or
    empty .npy sample, one of a 0-d or 1-d array, or one that holds NaN
    and infinite values."""
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
    elif case in ("scalar_npy", "row_npy"):
        np.save(outdir / "sample_000.npy", np.float64(1.0) if case == "scalar_npy" else bump)
    elif case == "nan_npy":
        xi = np.where(g.x > 0, np.nan, bump)
        np.save(outdir / "sample_000.npy", np.stack([g.x, xi, np.where(g.x < 0, np.inf, bump)]))
    else:
        (outdir / "sample_000.npy").write_bytes(b"not a wave\n" if case == "bad_npy" else b"")
    return str(outdir)


# a warning on the way, such as numpy's on a file without data, fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case",
    ["missing", "bad_csv", "empty_csv", "bad_npy", "empty_npy", "scalar_npy", "row_npy", "nan_npy"],
)
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
    assert ("branch.json" if case == "missing" else "sample_000." + case[-3:]) in err


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


def test_cli_kernel_check_computes_each_set_of_decay_constants_once(p1_cfg, tmp_path):
    # K and K3 read the decay constants of one parameter set 9 times; the
    # eta-roots are bisected once for the 12 of K3's symbol and once for
    # the 81 of its series
    params.compute_decay_rates.cache_clear()
    with mock.patch.object(params, "eta_roots", wraps=params.eta_roots) as roots:
        assert main(["kernel-check", "--config", p1_cfg, "--out", str(tmp_path / "kc")]) == 0
    assert sorted(c.args[1] for c in roots.call_args_list) == [12, 81]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sets, reason",
    [
        (["params.mu=1e6", "kernel.which=K"], "quadrature failed to reach tolerance"),
        (["params.gamma=1e-9", "kernel.which=K"], "quadrature failed to reach tolerance"),
        # sigma^2 is inf: the symbol is 0 on the whole grid
        (["kernel.sigma=1e300", "kernel.which=K1"], "symbol is not strictly positive"),
        # sigma^2 is 0: the symbol would be inf at k = 0, and 1/0 warned
        (["kernel.sigma=1e-200", "kernel.which=K1"], "symbol is not strictly positive and finite"),
    ],
    ids=["K-mu", "K-gamma", "K1-sigma", "K1-small-sigma"],
)
def test_cli_kernel_check_numerical_failure_exits_1(p1_cfg, tmp_path, capsys, sets, reason):
    # a quadrature that misses its tolerance and a symbol that is not
    # strictly positive are numerical failures: one line, no outputs
    out = tmp_path / "kc"
    args = ["kernel-check", "--config", p1_cfg, "--out", str(out)]
    assert main(args + [a for s in sets for a in ("--set", s)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {reason}") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_cli_kernel_check_constants_at_the_magnitude_window(p1_cfg, tmp_path, capsys):
    # mu = 1e-50, the edge of ModelParams' window, makes c_K about 2.5e49,
    # and K and its plateau are about 1e-75, well within the tolerance;
    # mu = 1e-300, whose c_K of about 1e300 squared to inf, is refused
    args = ["kernel-check", "--config", p1_cfg, "--out", str(tmp_path / "kc")]
    assert main(args + ["--set", "params.mu=1e-50", "--set", "kernel.which=K"]) == 0
    data = json.loads((tmp_path / "kc" / "kernel_check.json").read_text())
    assert 0.0 < -data["K_plateau"] < 1e-70 and data["max_abs_diff"] < 1e-70
    capsys.readouterr()
    assert main(args + ["--set", "params.mu=1e-300", "--set", "kernel.which=K"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: params.mu must lie in [1e-50, 1e50], got 1e-300\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, sets",
    [
        # 1.0 / g**2 divided by zero in validate, and on K and K3
        ("validate", ["params.gamma=1e-200", "validate.omega=0.1"]),
        ("kernel-check", ["params.gamma=1e-200", "kernel.which=K"]),
        ("kernel-check", ["params.gamma=1e-200", "kernel.which=K3"]),
        # K2's alpha was 0, and alpha ** 2 overflowed
        ("kernel-check", ["params.gamma=5e-324", "kernel.which=K2"]),
        ("kernel-check", ["params.mu=1.6e-322", "kernel.which=K2"]),
        ("kernel-check", ["params.mu2=5e-324", "kernel.which=K3"]),
        ("validate", ["params.a=1e60", "validate.omega=0.1"]),
        ("validate", ["params.beta=1e60", "validate.omega=0.1"]),
    ],
    ids=["validate-gamma", "K-gamma", "K3-gamma", "K2-gamma", "K2-mu", "K3-mu2", "validate-a",
         "validate-beta"],
)
def test_cli_refuses_params_of_extreme_magnitude(p1_cfg, tmp_path, capsys, command, sets):
    # a params.* value outside its window, [1e-50, 1e50] or [-1e50, 1e50]
    # for a, b, c and d, is a config error naming its key, before any
    # formula squares it
    out = tmp_path / "out"
    args = [command, "--config", p1_cfg, "--out", str(out)]
    assert main(args + [a for s in sets for a in ("--set", s)]) == 2
    key = sets[0].partition("=")[0]
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


_PARAM_KEYS = tuple(k for k in KEY_REGISTRY if k.startswith("params."))
# params.* take any float: the whole float range, the edges of ModelParams'
# magnitude window, and magnitudes spread evenly from 1e-60 to 1e60
_PARAM_VALUES = (
    st.floats()
    | st.sampled_from([1e-50, 1e50, -1e-50, -1e50, 1e-200, 5e-324, 1e300])
    | st.tuples(st.floats(-60.0, 60.0), st.sampled_from([1.0, -1.0])).map(
        lambda t: t[1] * 10.0 ** t[0]
    )
)


@settings(max_examples=120, deadline=None)
@given(
    which=st.sampled_from(_KERNEL_NAMES),
    values=st.dictionaries(st.sampled_from(_PARAM_KEYS), _PARAM_VALUES, max_size=3),
    sigma=st.none() | _RULES["kernel.sigma"][1],
)
def test_cli_kernel_check_exits_with_a_code_property(tmp_path_factory, which, values, sigma):
    # kernel-check on inputs the registry accepts returns 0, 1 or 2 and
    # raises nothing; a failure is one line on stderr
    sets = [f"kernel.which={which}"] + [f"{k}={v!r}" for k, v in values.items()]
    sets += [] if sigma is None else [f"kernel.sigma={sigma!r}"]
    out = tmp_path_factory.mktemp("kc")
    (out / "p1.cfg").write_text(P1_LINES)
    args = ["kernel-check", "--config", str(out / "p1.cfg"), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = main(args + [a for s in sets for a in ("--set", s)])
    assert code in (0, 1, 2)
    # exit 1 without a line is a check outside its tolerance
    lines = err.getvalue().splitlines()
    assert len(lines) == (code == 2) or (code == 1 and len(lines) <= 1), lines
    prefix = "config error: " if code == 2 else "numerical failure: "
    assert all(line.startswith(prefix) for line in lines), lines


@pytest.mark.parametrize(
    "sets, key",
    [
        # c = 0 nine times: the ground state and eight speeds of 0
        (["continue.target=0"], "continue.target"),
        (["continue.target=0.01", "continue.milestones=0.005,0.005,0.01"], "continue.milestones"),
        # the branch stores c = 0 first
        (["continue.target=0.01", "continue.milestones=0,0.01"], "continue.milestones"),
        (
            ["continue.parameter=mu2", "continue.target=25", "continue.milestones=100,100,25"],
            "continue.milestones",
        ),
    ],
    ids=["target-0", "repeat-c", "milestone-0", "repeat-mu2"],
)
def test_cli_continue_refuses_a_value_stored_twice(p1_cfg, tmp_path, capsys, sets, key):
    # the branch stores each parameter value once: a repeat is refused
    # before any solve
    out = tmp_path / "o"
    args = ["continue", "--config", p1_cfg, "--out", str(out)]
    for s in ["grid.L=20", "grid.N=64"] + sets:
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} gives ") and err.count("\n") == 1, err
    assert "twice" in err and list(out.iterdir()) == []


def test_cli_continue_prints_its_end_as_a_float(p1_cfg, tmp_path, capsys):
    # the default speeds are Python floats, so the line shows the end as
    # report.json holds it, not as np.float64(...)
    out = tmp_path / "o"
    assert main(["continue", "--config", p1_cfg, "--out", str(out), "--set", "grid.L=20",
                 "--set", "grid.N=64", "--set", "continue.target=0.9"]) == 0
    report = json.loads((out / "report.json").read_text())
    end = report["diagnostics"]["end"]
    assert end == pytest.approx(0.75361, abs=1e-5)
    assert capsys.readouterr().out == (
        f"continue: {len(report['parameter_values'])} samples, max residual "
        f"{max(report['residuals']):.3e}, truncated=True, end {end!r}\n"
    )


# a 64-point grid on L = 20, as in the reproducers below
_SMALL_GRID = ["--set", "grid.L=20", "--set", "grid.N=64"]


@pytest.mark.parametrize("sets, code", [
    pytest.param(["solve.family=BO", "solve.speed=1e300"], 1, id="solve-1e300"),
    pytest.param(["solve.family=BO", "solve.speed=1e160"], 1, id="solve-1e160"),
    pytest.param(["continue.target=1e300"], 0, id="continue-1e300"),
])
def test_cli_speed_near_the_float_range_is_reported_once(p1_cfg, tmp_path, capsys, sets, code):
    # the bisection toward such a speed passes |c| near 1e154, where
    # c^2 T1 T2 overflows: the reduced symbol's refusal is the one report
    command = "continue" if sets[0].startswith("continue") else "solve"
    args = [command, "--config", p1_cfg, "--out", str(tmp_path / "o"), *_SMALL_GRID]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + [a for s in sets for a in ("--set", s)]) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(("numerical failure: the BO branch ended at ", "continue: ")), lines


@pytest.mark.parametrize("command, sets, code, line", [
    pytest.param("solve", ["solve.family=ILW", "params.mu2=1e-24"], 1,
                 "numerical failure: the ILW branch ended at 1.000", id="solve-1e-24"),
    pytest.param("solve", ["solve.family=ILW", "params.mu2=1e-50"], 1,
                 "numerical failure: the ILW branch ended at 1.0", id="solve-1e-50"),
    pytest.param("continue", ["continue.parameter=mu2", "continue.target=1e-40"], 0,
                 "continue: 1 samples, max residual ", id="continue-1e-40"),
])
def test_cli_bisection_ends_where_the_midpoint_rounds_onto_an_end(
    p1_cfg, tmp_path, command, sets, code, line
):
    # far from t = 1/sqrt(mu2) = 0 the float spacing exceeds the 1e-5 step
    # at which a failed continuation ends, so the midpoint of a failed
    # segment rounds onto one of its ends; those runs once went on without
    # end, so each runs in a subprocess that a timeout stops
    args = [sys.executable, "-m", "iswaves.cli", command, "--config", p1_cfg,
            "--out", str(tmp_path / "o"), *_SMALL_GRID]
    proc = subprocess.run(
        args + [a for s in sets for a in ("--set", s)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    lines = (proc.stdout + proc.stderr).splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), lines


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


@pytest.mark.parametrize(
    "initial, key",
    [
        ("branch", "grid.N=512"),
        ("branch", "grid.L=20"),
        ("branch", "evolve.amplitude=0.1"),
        ("branch", "evolve.width=2"),
        ("gaussian", "evolve.branch_dir=BRANCH"),
        ("gaussian", "evolve.sample=0"),
    ],
)
def test_cli_evolve_refuses_keys_its_initial_state_does_not_read(
    p1_cfg, tmp_path, capsys, initial, key
):
    # a branch brings its own grid and a gaussian reads no branch: a key the
    # initial state would ignore is a configuration error that names it
    from iswaves.solvers import SolitaryBranch, save_branch
    from iswaves.spectral import WavePair, make_grid

    g = make_grid(8.0, 16)
    bump = 0.01 * np.exp(-(g.x**2))
    save_branch(SolitaryBranch("BO", [0.0], [WavePair(g, bump, bump)], [0.0]), str(tmp_path / "b"))
    sets = ["evolve.family=bfd_finite", "evolve.T=0.1", f"evolve.initial={initial}"]
    if initial == "branch":
        sets.append(f"evolve.branch_dir={tmp_path}/b")
    else:
        sets += ["grid.L=20", "grid.N=64"]
    out = tmp_path / "o"
    args = ["evolve", "--config", p1_cfg, "--out", str(out)]
    for s in sets:
        args += ["--set", s]
    # without the key the run completes
    assert main(args) == 0
    capsys.readouterr()
    shutil.rmtree(out)
    assert main(args + ["--set", key.replace("BRANCH", f"{tmp_path}/b")]) == 2
    name = key.partition("=")[0]
    assert capsys.readouterr().err == (
        f"config error: {name} does not apply to evolve.initial = {initial}\n"
    )
    assert list(out.iterdir()) == []


def test_cli_meta_records_the_wall_time(p1_cfg, tmp_path, capsys):
    # the wall time goes to meta.json and nowhere else: two runs of one
    # config write byte-identical trajectories and final states
    files = {}
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert main([
            "evolve", "--config", p1_cfg, "--out", str(out),
            "--set", "evolve.family=bfd_finite", "--set", "evolve.T=0.2",
            "--set", "evolve.dt=0.02", "--set", "grid.L=20", "--set", "grid.N=64",
        ]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta) == {"created", "elapsed_s", "numpy_version"}
        assert 0.0 < meta["elapsed_s"] < 60.0
        files[run_dir] = {
            f.name: f.read_bytes() for f in out.iterdir() if f.name != "meta.json"
        }
    assert set(files["a"]) == {"trajectory.json", "final_state.csv"}
    assert files["a"] == files["b"]
    assert b"elapsed" not in files["a"]["trajectory.json"]
    capsys.readouterr()


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
    # the run stops at the first state above the bound, t = 0.02, and keeps
    # every monitor up to and through it
    assert traj["status"] == "aborted"
    assert traj["error"].startswith("amplitude bound violated: sup|zeta| = ")
    assert "> alpha = 1e-06 at t = 0.02;" in traj["error"]
    assert traj["t_final"] == 0.02 and traj["times"] == [0.0, 0.02]
    assert set(traj) == {
        "family", "T", "dt", "steps", "condH", "status", "error", "t_final", "times",
        "sup_zeta", "sup_zeta_max", "min_one_minus", "h1_zeta", "h1_v",
        "dealias_top_fraction_max", "mass_drift_zeta", "mass_drift_v",
        "h0", "h_drift", "h_drift_max", "config",
    }
    assert all(len(traj[k]) == 2 for k in ("sup_zeta", "h1_zeta", "h1_v", "h_drift"))
    assert traj["sup_zeta_max"] == max(traj["sup_zeta"]) and traj["sup_zeta"][-1] > 1e-6
    assert {f.name for f in (tmp_path / "evo").iterdir()} == {"trajectory.json", "meta.json"}
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        f"evolve: aborted at t = 0.02, H drift {traj['h_drift_max']:.3e}, "
        f"sup|zeta| {traj['sup_zeta_max']:.6g}: {traj['error']}\n"
    )


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


# a 64-point gaussian run to T = 0.1, as in the reproducers below
_SMALL_EVOLVE = [
    "--set", "evolve.family=bfd_finite", "--set", "evolve.T=0.1",
    "--set", "grid.L=20", "--set", "grid.N=64",
]


@pytest.mark.parametrize("extreme", ["params.gamma=1e-50", "params.a=-1e50"])
def test_cli_evolve_refuses_a_step_count_above_the_bound(p1_cfg, tmp_path, capsys, extreme):
    # without evolve.dt these parameters suggest dt = 1.5e-76 and 1.5e-26, a
    # run of about 7e74 and 7e24 steps that once went on without end; the
    # step count is refused before any stepper is built
    out = tmp_path / "o"
    start = time.perf_counter()
    code = main(["evolve", "--config", p1_cfg, "--out", str(out), *_SMALL_EVOLVE,
                 "--set", extreme])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: evolve.T / evolve.dt: ") and err.count("\n") == 1, err
    assert "T / dt at most 1e+08" in err
    assert list(out.iterdir()) == []


def test_cli_evolve_overflow_is_reported_by_the_blow_up_alone(p1_cfg, tmp_path, capsys):
    # epsilon = 1e50 overflows the first step's flux; the non-finite test
    # ends the run, and numpy warns of nothing
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evolve", "--config", p1_cfg, "--out", str(out), *_SMALL_EVOLVE,
                     "--set", "params.epsilon=1e50", "--set", "evolve.dt=0.01"])
    assert code == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    # the monitors end at the initial state, the last finite one
    assert len(lines) == 1, lines
    assert lines[0].startswith("evolve: blow_up at t = 0.01, last finite state t = 0, "), lines
    traj = json.loads((out / "trajectory.json").read_text())
    assert traj["status"] == "blow_up"
    assert traj["t_blow_up"] == traj["t_final"] == 0.01 and traj["times"] == [0.0]


# (subcommand, --set overrides, the amplitude bound alpha the evolution
# asserts (None: its own), exit code, the files it writes); the evolve
# overrides run on a 64-point grid for T = 2 at dt = 0.05
_EVOLVE_SETS = [
    "grid.L=20", "grid.N=64", "evolve.family=bfd_finite", "evolve.T=2", "evolve.dt=0.05",
]
_EXIT_PATHS = [
    ("validate", [], None, 0, {"admissibility.json", "meta.json"}),
    ("validate", ["validate.omega=0.2"], None, 1, {"admissibility.json", "meta.json"}),
    ("kernel-check", ["kernel.which=K1"], None, 0, {"kernel_check.json", "meta.json"}),
    # no closed form of K: a numerical failure writes nothing
    ("kernel-check", ["params.a=3.5", "kernel.which=K"], None, 1, set()),
    ("evolve", _EVOLVE_SETS, None, 0, {"trajectory.json", "final_state.csv", "meta.json"}),
    # blown up
    ("evolve", _EVOLVE_SETS + ["evolve.amplitude=200"], None, 1, {"trajectory.json", "meta.json"}),
    # aborted at the amplitude bound
    ("evolve", _EVOLVE_SETS, 1e-6, 1, {"trajectory.json", "meta.json"}),
    ("evolve", _EVOLVE_SETS + ["evolve.dt=-1"], None, 2, set()),
]


@pytest.mark.parametrize("command, sets, alpha, code, files", _EXIT_PATHS)
def test_cli_writes_meta_once_a_command_returns(
    p1_cfg, tmp_path, monkeypatch, capsys, command, sets, alpha, code, files
):
    # main writes meta.json once, after the command returns whatever its
    # exit code; a configuration error or a numerical failure writes none
    from iswaves import config, evolution

    if alpha is not None:
        real = evolution.check_global_criterion
        monkeypatch.setattr(
            evolution, "check_global_criterion", lambda p, w: dict(real(p, w), alpha=alpha)
        )
    calls = []
    write_meta = config.write_meta
    monkeypatch.setattr(
        config, "write_meta", lambda out, elapsed_s: calls.append(out) or write_meta(out, elapsed_s)
    )
    out = tmp_path / "o"
    args = [command, "--config", p1_cfg, "--out", str(out)]
    with np.errstate(all="ignore"):
        assert main(args + [a for s in sets for a in ("--set", s)]) == code
    assert {f.name for f in out.iterdir()} == files
    assert calls == ([str(out)] if "meta.json" in files else [])
    captured = capsys.readouterr()
    if command == "evolve":
        # every outcome of a run, and a refused one, is one line
        assert (captured.out + captured.err).count("\n") == 1, captured


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
    # a reversed window, and a window beyond the stored branch's L = 8
    ("decay", ["decay.window_lo=60", "decay.window_hi=20"], "decay.window_lo"),
    ("decay", ["decay.window_lo=20", "decay.window_hi=60"], "decay.window_hi"),
    ("sweep", ["sweep.fields_per_draw=-1"], "sweep.fields_per_draw"),
    ("sweep", ["sweep.draws=-3"], "sweep.draws"),
    ("kernel-check", ["kernel.which=,"], "kernel.which"),
    # non-finite speeds, whose continuation would never end, and values that
    # numpy or the step count would refuse with a traceback
    ("solve", ["solve.family=BFD_finite", "solve.omega=nan"], "solve.omega"),
    ("solve", ["solve.family=BFD_inf", "solve.omega=inf"], "solve.omega"),
    ("continue", ["continue.target=inf"], "continue.target"),
    ("continue", ["continue.target=nan"], "continue.target"),
    ("continue", ["continue.target=-inf", "continue.milestones=inf"], "continue.target"),
    ("continue", ["continue.milestones=0.05,nan"], "continue.milestones"),
    ("continue", ["continue.milestones=inf"], "continue.milestones"),
    (
        "continue",
        ["continue.parameter=mu2", "continue.target=25", "continue.milestones=400,nan"],
        "continue.milestones",
    ),
    ("evolve", ["evolve.T=1e300", "evolve.dt=1e-300"], "evolve.dt"),
    ("sweep", ["seed=-1"], "seed"),
    # a grid of non-finite length, and parameters outside their ranges, NaN
    # above all, which no comparison of the form value <= bound refuses
    ("evolve", ["grid.L=nan"], "grid.L"),
    ("evolve", ["grid.L=inf"], "grid.L"),
    ("solve", ["solve.family=BFD_finite", "grid.L=nan"], "grid.L"),
    ("solve", ["solve.family=BFD_finite", "params.epsilon=nan"], "params.epsilon"),
    ("solve", ["solve.family=BFD_finite", "params.b=nan"], "params.b"),
    ("validate", ["params.mu2=nan"], "params.mu2"),
    ("evolve", ["params.beta=nan"], "params.beta"),
    ("evolve", ["params.gamma=nan"], "params.gamma"),
    ("evolve", ["params.mu=nan"], "params.mu"),
    ("evolve", ["params.mu=inf"], "params.mu"),
    ("evolve", ["params.a=nan"], "params.a"),
    ("evolve", ["params.c=inf"], "params.c"),
    ("evolve", ["params.d=-inf"], "params.d"),
    ("evolve", ["params.mu2=-inf"], "params.mu2"),
    ("evolve", ["params.beta=inf"], "params.beta"),
    ("validate", ["params.epsilon=nan"], "params.epsilon"),
    # keys no command checked, which took NaN into the numerics
    ("validate", ["validate.omega=nan"], "validate.omega"),
    ("decay", ["decay.predicted=nan"], "decay.predicted"),
    ("decay", ["decay.window_lo=nan"], "decay.window_lo"),
    ("evolve", ["evolve.width=0"], "evolve.width"),
    ("evolve", ["evolve.width=nan"], "evolve.width"),
    ("evolve", ["evolve.amplitude=nan"], "evolve.amplitude"),
    ("evolve", ["evolve.amplitude=inf"], "evolve.amplitude"),
]
_BASE_SETS = {
    "solve": ["grid.L=8", "grid.N=64", "solve.omega=0.1"],
    "evolve": ["grid.L=20", "grid.N=64", "evolve.family=bfd_finite", "evolve.T=0.1"],
    "kernel-check": ["kernel.which=K1"],
    "decay": [],
    "continue": ["grid.L=8", "grid.N=64", "continue.parameter=c", "continue.target=0.1"],
    "sweep": ["sweep.draws=2"],
    "validate": [],
}


@pytest.mark.parametrize(
    "sets, key",
    [
        (["params.mu2=inf", "solve.family=BO", "solve.speed=inf"], "solve.speed"),
        (["params.mu2=25", "solve.family=ILW", "solve.speed=-inf"], "solve.speed"),
        (["params.mu2=inf", "solve.family=BO", "solve.speed=nan"], "solve.speed"),
    ],
)
def test_cli_solve_rejects_a_non_finite_speed(p1_cfg, tmp_path, capsys, sets, key):
    # a one-layer wave at a non-finite speed is refused before any solve:
    # the continuation toward it would never end
    args = ["solve", "--config", p1_cfg, "--out", str(tmp_path / "o")]
    for s in ["grid.L=50", "grid.N=64"] + sets:
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("command,sets,key", _BAD_VALUES)
def test_cli_rejects_bad_values(p1_cfg, tmp_path, capsys, command, sets, key):
    from iswaves.solvers import SolitaryBranch, save_branch
    from iswaves.spectral import WavePair, make_grid

    g = make_grid(8.0, 16)
    bump = np.exp(-(g.x**2))
    two = SolitaryBranch("BO", [0.0, 0.01], [WavePair(g, bump, bump)] * 2, [0.0, 0.0])
    save_branch(two, str(tmp_path / "branch"))
    branch = [f"decay.branch_dir={tmp_path}/branch"]
    base = _BASE_SETS[command]
    if "evolve.initial=branch" in sets:
        # a branch initial state reads its branch and brings its own grid
        branch.append(f"evolve.branch_dir={tmp_path}/branch")
        base = [s for s in base if not s.startswith("grid.")]
    args = [command, "--config", p1_cfg, "--out", str(tmp_path / "o")]
    for s in branch + base + sets:
        args += ["--set", s]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert len(err.splitlines()) == 1, err
