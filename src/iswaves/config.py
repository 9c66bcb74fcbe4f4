"""Run configuration: flat dotted-key files, validation, deterministic output.

Config files are plain text, one `key = value` per line, `#` comments,
with dotted section prefixes (params.gamma, grid.N, solve.family).
The flat format diffs cleanly across experiment folders.  Every key is
checked against a registry; unknown keys are rejected rather than ignored
so typos cannot silently change an experiment.  `KEY_REGISTRY` maps each
key to the parser of its values: its kind, or a rule where a command cannot
take every value of the kind.  A refused value is a ConfigError naming the
key, from a file and --set alike; the commands check only what relates two
inputs, and the library the ranges of params.*, grid.* and family names.

Every JSON file the package writes goes through `write_json`: sorted keys,
default float repr, and infinities and NaN as the strings "inf", "-inf" and
"nan" (valid JSON).  Time stamps and environment notes go to a separate
meta.json, so reports from identical configs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from datetime import datetime, timezone

import numpy as np

from .params import ModelParams
from .spectral import Grid, make_grid


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _rule(parse, holds, must: str):
    """The parser of the values parse reads and holds accepts; it refuses
    any other with ConfigError("must <must>, got <value>")."""

    def parser(raw: str):
        value = parse(raw)
        if not holds(value):
            raise ConfigError(f"must {must}, got {value!r}")
        return value

    return parser


def _one_of(*names: str):
    return _rule(str, names.__contains__, "be " + " or ".join(map(repr, names)))


_FINITE = _rule(float, math.isfinite, "be finite")
_POSITIVE = _rule(float, lambda v: 0.0 < v < math.inf, "be positive and finite")
_POSITIVE_INT = _rule(int, lambda v: v > 0, "be positive")
# comma lists stay the text the reports echo
_NUMBER_LIST = _rule(
    str, lambda s: not any(math.isnan(float(t)) for t in s.split(",")), "list numbers, none NaN"
)
_KERNEL_LIST = _rule(
    str, lambda s: s == "all" or {t.strip() for t in s.split(",")} <= {"K", "K1", "K2", "K3"},
    "be 'all' or list kernels among K, K1, K2, K3",
)

# every accepted key and the parser of its values; float reads inf, +inf,
# infinity and nan in any case
KEY_REGISTRY: dict[str, Callable[[str], object]] = {
    "params.gamma": float,
    "params.epsilon": float,
    "params.mu": float,
    "params.mu2": float,
    "params.a": float,
    "params.b": float,
    "params.c": float,
    "params.d": float,
    "params.beta": float,
    "grid.L": float,
    "grid.N": int,
    # accepted only at the fixed solvers.TOL_RESIDUAL (`cli.main`), for the
    # configs that state it
    "solver.tol_residual": float,
    "seed": _rule(int, lambda v: v >= 0, "be non-negative"),
    # -inf and inf lie outside every speed window: validate reports them
    "validate.omega": _rule(float, lambda v: not math.isnan(v), "not be NaN"),
    "solve.family": str,
    "solve.speed": _FINITE,
    "solve.omega": _FINITE,
    "continue.parameter": _one_of("c", "mu2"),
    "continue.family": str,
    "continue.target": _FINITE,
    "continue.milestones": _NUMBER_LIST,
    "decay.branch_dir": str,
    "decay.sample": int,
    "decay.field": _one_of("xi", "nu"),
    "decay.kind": _one_of("algebraic", "exponential"),
    "decay.window_lo": _FINITE,
    "decay.window_hi": _FINITE,
    "decay.predicted": _FINITE,
    "kernel.which": _KERNEL_LIST,
    "kernel.sigma": _POSITIVE,
    "evolve.family": str,
    "evolve.T": _POSITIVE,
    "evolve.dt": _POSITIVE,
    "evolve.snapshots_every": _POSITIVE,
    "evolve.initial": _one_of("gaussian", "branch"),
    "evolve.amplitude": _FINITE,
    "evolve.width": _POSITIVE,
    "evolve.branch_dir": str,
    "evolve.sample": int,
    "sweep.draws": _POSITIVE_INT,
    "sweep.fields_per_draw": _POSITIVE_INT,
}


def parse_assignment(line: str) -> tuple[str, object]:
    """Parse one `key = value` assignment by its key's parser."""
    if "=" not in line:
        raise ConfigError(f"expected 'key = value', got {line!r}")
    key, _, raw = line.partition("=")
    key = key.strip()
    raw = raw.strip()
    if key not in KEY_REGISTRY:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return key, KEY_REGISTRY[key](raw)
    except ConfigError as exc:
        raise ConfigError(f"{key} {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def load_config(path: str) -> dict:
    """Read a flat key-value config file."""
    cfg: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                key, value = parse_assignment(stripped)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if key in cfg:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            cfg[key] = value
    return cfg


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply command-line `key=value` overrides on top of a config dict."""
    out = dict(cfg)
    for text in assignments:
        key, value = parse_assignment(text)
        out[key] = value
    return out


_PARAM_KEYS = ("gamma", "epsilon", "mu", "a", "b", "c", "d")


def params_from_config(cfg: dict) -> ModelParams:
    missing = [k for k in _PARAM_KEYS if f"params.{k}" not in cfg]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join('params.' + k for k in missing)}")
    kwargs = {k: cfg[f"params.{k}"] for k in _PARAM_KEYS}
    if "params.mu2" in cfg:
        kwargs["mu2"] = cfg["params.mu2"]
    if "params.beta" in cfg:
        kwargs["beta"] = cfg["params.beta"]
    try:
        return ModelParams(**kwargs)
    except ValueError as exc:
        # its message begins with the name of the refused field
        raise ConfigError(f"params.{exc}") from exc


def grid_from_config(cfg: dict) -> Grid:
    if "grid.L" not in cfg or "grid.N" not in cfg:
        raise ConfigError("missing required keys: grid.L, grid.N")
    try:
        return make_grid(cfg["grid.L"], cfg["grid.N"])
    except ValueError as exc:
        # its message begins with the name of the refused field
        raise ConfigError(f"grid.{exc}") from exc


def resolved_config(cfg: dict) -> dict:
    """Config as a serializable dict, keys sorted, values encoded by `sanitize`."""
    return sanitize({key: cfg[key] for key in sorted(cfg)})


# ---------------------------------------------------------------------------
# deterministic JSON emission
# ---------------------------------------------------------------------------


def sanitize(obj):
    """Recursively convert numpy scalars/arrays and infinities for JSON."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # finite built-in floats, the bulk of a trajectory, pass unchanged
        return [v if type(v) is float and -math.inf < v < math.inf else sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    return obj


def _layout(obj, indent: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) lays it out at the
    nesting of indent, byte for byte: a dict or list of scalars (floats by
    float.__repr__) in one call of json's C encoder, instead of its
    pure-Python indenting encoder."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    # sanitized containers are plain dicts and lists; json's C encoder lays
    # out one level when its item separator carries the line break and indent
    if set(map(type, values)).isdisjoint((dict, list, tuple)):
        text = json.dumps(obj, separators=(",\n" + inner, ": "), sort_keys=True)
        return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {_layout(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items = (_layout(v, inner) for v in obj)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def write_json(path: str, obj: dict, config: dict | None = None) -> None:
    """Write obj as deterministic JSON (`sanitize`d, sorted keys, indent 2,
    the bytes of json.dumps(..., indent=2, sort_keys=True)), with the
    resolved config under "config" when one is given."""
    payload = dict(sanitize(obj))
    if config is not None:
        payload["config"] = resolved_config(config)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    text = _layout(payload, "") + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_meta(outdir: str, elapsed_s: float) -> None:
    """Wall-clock and environment notes, isolated from the reports: the
    time stamp, the command's wall time `elapsed_s` and numpy's version."""
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": elapsed_s,
        "numpy_version": np.__version__,
    }
    write_json(os.path.join(outdir, "meta.json"), meta)
