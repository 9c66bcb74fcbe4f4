"""Run configuration: flat dotted-key files, validation, deterministic output.

Config files are plain text, one `key = value` per line, `#` comments,
with dotted section prefixes (params.gamma, grid.N, solve.family).
The flat format diffs cleanly across experiment folders.  Every key is
checked against a registry; unknown keys are rejected rather than ignored
so typos cannot silently change an experiment.

Every JSON file the package writes goes through `write_json`: sorted keys,
default float repr, and infinities and NaN as the strings "inf", "-inf" and
"nan" (valid JSON).  Time stamps and environment notes go to a separate
meta.json, so reports from identical configs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from datetime import datetime, timezone

import numpy as np

from .params import ModelParams
from .spectral import Grid, make_grid


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


# float reads inf, +inf and infinity in any case
_PARSERS = {"float": float, "int": int, "str": str}

# full registry of accepted keys: name -> value kind
KEY_REGISTRY: dict[str, str] = {
    "params.gamma": "float",
    "params.epsilon": "float",
    "params.mu": "float",
    "params.mu2": "float",
    "params.a": "float",
    "params.b": "float",
    "params.c": "float",
    "params.d": "float",
    "params.beta": "float",
    "grid.L": "float",
    "grid.N": "int",
    # accepted only at the fixed solvers.TOL_RESIDUAL (`cli.main`), for the
    # configs that state it
    "solver.tol_residual": "float",
    "seed": "int",
    "validate.omega": "float",
    "solve.family": "str",
    "solve.speed": "float",
    "solve.omega": "float",
    "continue.parameter": "str",
    "continue.family": "str",
    "continue.target": "float",
    "continue.milestones": "str",
    "decay.branch_dir": "str",
    "decay.sample": "int",
    "decay.field": "str",
    "decay.kind": "str",
    "decay.window_lo": "float",
    "decay.window_hi": "float",
    "decay.predicted": "float",
    "kernel.which": "str",
    "kernel.sigma": "float",
    "evolve.family": "str",
    "evolve.T": "float",
    "evolve.dt": "float",
    "evolve.snapshots_every": "float",
    "evolve.initial": "str",
    "evolve.amplitude": "float",
    "evolve.width": "float",
    "evolve.branch_dir": "str",
    "evolve.sample": "int",
    "sweep.draws": "int",
    "sweep.fields_per_draw": "int",
}


def parse_assignment(line: str) -> tuple[str, object]:
    """Parse one `key = value` assignment against the registry."""
    if "=" not in line:
        raise ConfigError(f"expected 'key = value', got {line!r}")
    key, _, raw = line.partition("=")
    key = key.strip()
    raw = raw.strip()
    if key not in KEY_REGISTRY:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind = KEY_REGISTRY[key]
    try:
        value = _PARSERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return key, value


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
